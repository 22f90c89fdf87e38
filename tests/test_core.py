import numpy as np
import pytest

from optics_cp import (
    CandidateSet,
    LengthError,
    ScoreSeries,
    Segmentation,
    ShapeError,
    TimeSeries,
    odd_even_split,
    order_preserving_l_split,
)
from optics_cp.core import segment_mean_map


def test_parity_split_six_points():
    ts = TimeSeries(np.arange(6.0))
    pair = odd_even_split(ts)
    assert pair.n == 3
    assert pair.odd.data[:, 0].tolist() == [0.0, 2.0, 4.0]
    assert pair.even.data[:, 0].tolist() == [1.0, 3.0, 5.0]


def test_parity_split_drops_odd_tail():
    ts = TimeSeries(np.arange(7.0))
    pair = odd_even_split(ts)
    assert pair.n == 3
    assert pair.odd.data[:, 0].tolist() == [0.0, 2.0, 4.0]
    assert pair.even.data[:, 0].tolist() == [1.0, 3.0, 5.0]


def test_parity_split_large():
    ts = TimeSeries(np.zeros(1000))
    assert odd_even_split(ts).n == 500


def test_parity_split_too_short():
    with pytest.raises(LengthError):
        odd_even_split(TimeSeries(np.zeros(3)))


def test_interleaving_reconstructs_prefix():
    rng = np.random.default_rng(0)
    for n_obs, d in [(9, 1), (20, 3), (11, 2)]:
        data = rng.standard_normal((n_obs, d))
        pair = odd_even_split(TimeSeries(data))
        rebuilt = np.empty((2 * pair.n, d))
        rebuilt[0::2] = pair.odd.data
        rebuilt[1::2] = pair.even.data
        assert np.array_equal(rebuilt, data[: 2 * pair.n])


def test_l_split_matches_parity_for_two():
    data = np.arange(6.0)
    subs = order_preserving_l_split(TimeSeries(data), 2)
    assert subs[0].data[:, 0].tolist() == [0.0, 2.0, 4.0]
    assert subs[1].data[:, 0].tolist() == [1.0, 3.0, 5.0]


def test_l_split_identity_for_one():
    data = np.arange(9.0)
    subs = order_preserving_l_split(TimeSeries(data), 1)
    assert len(subs) == 1
    assert np.array_equal(subs[0].data, data.reshape(-1, 1))


def test_l_split_truncates_tail():
    subs = order_preserving_l_split(TimeSeries(np.arange(9.0)), 2)
    assert all(len(s) == 4 for s in subs)
    assert 8.0 not in np.concatenate([s.data.ravel() for s in subs])


def test_l_split_preserves_order():
    rng = np.random.default_rng(1)
    data = rng.standard_normal(30)
    for L in [2, 3, 5]:
        # a score series splits into score series, each a contiguous copy
        for cls in (TimeSeries, ScoreSeries):
            for r, sub in enumerate(order_preserving_l_split(cls(data), L)):
                assert type(sub) is cls and sub.data.flags.c_contiguous
                assert np.array_equal(sub.data[:, 0], data[r::L][: 30 // L])


def test_l_split_starved():
    with pytest.raises(LengthError):
        order_preserving_l_split(TimeSeries(np.arange(5.0)), 3)


def test_segment_means_basic():
    scores = np.array([[1.0], [2.0], [3.0], [4.0]])
    seg = Segmentation(taus=(2,), n=4, min_seg=2)
    out = segment_mean_map(scores, seg.boundaries())
    assert out[:, 0].tolist() == [1.5, 1.5, 3.5, 3.5]


def test_segment_means_global_when_no_changes():
    scores = np.array([[1.0], [2.0], [3.0], [4.0]])
    seg = Segmentation(taus=(), n=4, min_seg=2)
    assert np.allclose(segment_mean_map(scores, seg.boundaries()), 2.5)


def test_segment_means_singleton_segments():
    scores = np.array([[0.0, 0.0], [2.0, 2.0]])
    seg = Segmentation(taus=(1,), n=2, min_seg=1)
    assert np.array_equal(segment_mean_map(scores, seg.boundaries()), scores)


def test_segment_means_idempotent():
    rng = np.random.default_rng(2)
    scores = rng.standard_normal((24, 2))
    seg = Segmentation(taus=(6, 15), n=24, min_seg=3)
    once = segment_mean_map(scores, seg.boundaries())
    twice = segment_mean_map(once, seg.boundaries())
    assert np.allclose(once, twice, atol=1e-12)


def test_segment_residuals_sum_to_zero_within_segments():
    rng = np.random.default_rng(3)
    scores = rng.standard_normal((30, 3))
    seg = Segmentation(taus=(10, 21), n=30, min_seg=4)
    resid = scores - segment_mean_map(scores, seg.boundaries())
    for a, b in zip(seg.boundaries(), seg.boundaries()[1:]):
        assert np.all(np.abs(resid[a:b].sum(axis=0)) < 1e-10)


def test_segmentation_rejects_short_gaps():
    with pytest.raises(ValueError):
        Segmentation(taus=(2, 3), n=10, min_seg=2)
    with pytest.raises(ValueError):
        Segmentation(taus=(9,), n=10, min_seg=2)


def test_candidate_set_members():
    m = CandidateSet(4)
    assert m.members == (1, 2, 3, 4)
    assert list(m) == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        CandidateSet(0)


def test_time_series_rejects_zero_columns():
    from optics_cp import BootstrapConfig, DetectorKind, ScoreModel, optics

    with pytest.raises(ShapeError, match="d=0"):
        TimeSeries(np.zeros((100, 0)))
    with pytest.raises(ShapeError):
        optics(TimeSeries(np.zeros((100, 0))), ScoreModel("mean"), DetectorKind("sn"),
               CandidateSet(2), 0.1, BootstrapConfig(b_reps=20))
