import functools
import itertools

import numpy as np
import pytest
from conftest import blas_count

from optics_cp import (
    BootstrapConfig,
    CandidateSet,
    ConfigError,
    DetectorKind,
    GeneratorSpec,
    HuberConfig,
    ScoreModel,
    ScoreSeries,
    Segmentation,
    ShapeError,
    TimeSeries,
    bootstrap_pvalue,
    cauchy_combine,
    confidence_set,
    copss_estimate,
    criterion,
    optics,
    run_experiment,
    xi_matrix,
)
from optics_cp.ext import _huber_rows
from optics_cp.inference import PValueTable
from optics_cp.inference import test_statistic as studentized_max


def flat_seg(n, min_seg=1):
    return Segmentation(taus=(), n=n, min_seg=min_seg)


def test_criterion_hand_example():
    odd = ScoreSeries(np.array([2.0, 2.0, 2.0]))
    even = ScoreSeries(np.array([1.0, 2.0, 3.0]))
    assert criterion(flat_seg(3), odd, even) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_criterion_zero_when_even_matches_means():
    odd = ScoreSeries(np.array([1.0, 1.0, 5.0, 5.0]))
    even = ScoreSeries(np.array([1.0, 1.0, 5.0, 5.0]))
    seg = Segmentation(taus=(2,), n=4, min_seg=2)
    assert criterion(seg, odd, even) == 0.0


def test_criterion_shape_mismatch():
    with pytest.raises(ShapeError):
        criterion(flat_seg(3), ScoreSeries(np.zeros(3)), ScoreSeries(np.zeros(4)))


def _two_candidate_setup(seed=0, n=16):
    rng = np.random.default_rng(seed)
    odd = ScoreSeries(rng.standard_normal(n))
    even = ScoreSeries(rng.standard_normal(n))
    segs = {
        1: Segmentation(taus=(n // 2,), n=n, min_seg=2),
        2: Segmentation(taus=(n // 4, 3 * n // 4), n=n, min_seg=2),
    }
    return odd, even, segs


def test_delta_equals_criterion_gap():
    odd, even, segs = _two_candidate_setup()
    xm = xi_matrix(1, segs, odd, even)
    gap = criterion(segs[1], odd, even) - criterion(segs[2], odd, even)
    assert xm.delta_hat[0] == pytest.approx(gap, abs=1e-10)


def test_xi_rows_zero_for_identical_fits():
    odd, even, _ = _two_candidate_setup()
    segs = {1: flat_seg(16), 2: flat_seg(16)}
    xm = xi_matrix(1, segs, odd, even)
    assert np.all(xm.xi == 0.0)
    assert xm.sigma_hat[0] == 0.0
    assert studentized_max(xm) == 0.0


def test_xi_homogeneous_in_score_scale():
    odd, even, segs = _two_candidate_setup(3)
    xm1 = xi_matrix(1, segs, odd, even)
    c = 2.5
    xm2 = xi_matrix(
        1, segs, ScoreSeries(odd.data * c), ScoreSeries(even.data * c)
    )
    assert np.allclose(xm2.xi, (c ** 2) * xm1.xi, rtol=1e-12)
    assert np.allclose(xm2.sigma_hat, (c ** 2) * xm1.sigma_hat, rtol=1e-12)


def _xi_with_rows(rows):
    """XiMatrix whose difference rows are exactly the given rows."""
    from optics_cp.inference import _xi_from_fits

    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    return _xi_from_fits(0, tuple(range(1, rows.shape[0] + 1)), rows[0] * 0.0, -rows)


def test_unit_row_statistic():
    xm = _xi_with_rows([[1.0, 1.0, 1.0, 1.0]])
    assert xm.delta_hat[0] == 1.0
    assert xm.sigma_hat[0] == 1.0
    assert studentized_max(xm) == 2.0


def test_bootstrap_strict_inequality_not_counted():
    xm = _xi_with_rows([[1.0, 1.0, 1.0, 1.0]])
    cfg = BootstrapConfig(b_reps=1, seed=0, injected=np.ones((1, 4)))
    assert bootstrap_pvalue(xm, cfg) == 0.0


def test_bootstrap_counts_exceedance():
    xm = _xi_with_rows([[1.0, 1.0, 1.0, 1.0]])
    cfg = BootstrapConfig(b_reps=1, seed=0, injected=np.full((1, 4), 2.0))
    assert bootstrap_pvalue(xm, cfg) == 1.0


def test_bootstrap_hand_enumerated_four_replicates():
    xm = _xi_with_rows([[1.0, 1.0, 1.0, 1.0]])
    injected = np.array([
        [1.0, 1.0, 1.0, 1.0],    # statistic 2, ties observed, not counted
        [1.0, 1.0, 1.0, -1.0],   # statistic 1
        [-1.0, -1.0, 1.0, 1.0],  # statistic 0
        [3.0, 3.0, 3.0, 3.0],    # statistic 6, counted
    ])
    cfg = BootstrapConfig(b_reps=4, seed=0, injected=injected)
    assert bootstrap_pvalue(xm, cfg) == 0.25


def test_bootstrap_injected_length_mismatch():
    xm = _xi_with_rows([[1.0, 1.0, 1.0, 1.0]])
    cfg = BootstrapConfig(b_reps=1, seed=0, injected=np.ones((1, 5)))
    with pytest.raises(ConfigError):
        bootstrap_pvalue(xm, cfg)


def test_bootstrap_rep_count_mismatch_rejected_at_construction():
    with pytest.raises(ConfigError):
        BootstrapConfig(b_reps=2, seed=0, injected=np.ones((3, 4)))
    with pytest.raises(ConfigError):
        BootstrapConfig(b_reps=0, seed=0)


def mean_series(seed=0, n_obs=240, amp=2.0, breaks=(60, 120, 180)):
    rng = np.random.default_rng(seed)
    mu = np.zeros(n_obs)
    sign = 1.0
    bounds = (0,) + breaks + (n_obs,)
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        mu[a:b] = amp * (1 if i % 2 == 0 else -1)
    return TimeSeries(mu + rng.standard_normal(n_obs))


def run_pipeline(ts, seed=0, kind="sn", k_max=4, b=200, alpha=0.1, min_seg=5):
    return optics(
        ts,
        ScoreModel("mean"),
        DetectorKind(kind, min_seg=min_seg),
        CandidateSet(k_max),
        alpha,
        BootstrapConfig(b_reps=b, seed=seed),
    )


def test_pipeline_noiseless_contains_truth():
    mu = np.repeat([3.0, -3.0, 3.0, -3.0, 3.0], 40)
    ts = TimeSeries(mu + 0.01 * np.random.default_rng(0).standard_normal(200))
    cs, table = run_pipeline(ts, k_max=5)
    assert 4 in cs.members


def test_pipeline_deterministic():
    ts = mean_series(5)
    cs1, t1 = run_pipeline(ts, seed=11)
    cs2, t2 = run_pipeline(ts, seed=11)
    assert cs1.members == cs2.members
    assert np.array_equal(t1.p_hat, t2.p_hat)
    assert np.array_equal(t1.t_stat, t2.t_stat)


def test_pipeline_thread_count_irrelevant():
    # threads act in the Monte Carlo harness, where they set the process count
    spec = GeneratorSpec(n_total=240, taus_star=(60, 120, 180), amplitude=1.5)
    kw = dict(runs=3, b_reps=200, seed=3, detector=DetectorKind("sn"), k_max=4)
    rep1 = run_experiment(spec, **kw, threads=1)
    rep4 = run_experiment(spec, **kw, threads=4)
    assert [r.members for r in rep1.records] == [r.members for r in rep4.records]
    assert [r.p_hat for r in rep1.records] == [r.p_hat for r in rep4.records]


def test_scale_invariance_bitwise():
    for seed in range(5):
        ts = mean_series(seed)
        scaled = TimeSeries(ts.data * 3.7)
        cs1, t1 = run_pipeline(ts, seed=seed)
        cs2, t2 = run_pipeline(scaled, seed=seed)
        assert np.array_equal(t1.t_stat, t2.t_stat)
        assert np.array_equal(t1.p_hat, t2.p_hat)
        assert cs1.members == cs2.members


def test_pvalues_live_on_bootstrap_grid():
    ts = mean_series(7)
    _, table = run_pipeline(ts, b=40)
    counts = table.p_hat * 40
    assert np.allclose(counts, np.round(counts), atol=1e-9)
    assert np.all((table.p_hat >= 0) & (table.p_hat <= 1))


def test_confidence_set_never_empty_and_alpha_monotone():
    ts = mean_series(8, amp=0.0)  # pure noise
    _, table = run_pipeline(ts)
    sets = [confidence_set(table, a) for a in (0.05, 0.1, 0.2, 0.5, 0.99)]
    for cs in sets:
        assert len(cs.members) >= 1
    for lo, hi in zip(sets, sets[1:]):
        if not (lo.fallback_used or hi.fallback_used):
            assert set(hi.members) <= set(lo.members)
        else:
            assert len(hi.members) <= len(lo.members) or (
                lo.fallback_used and hi.fallback_used
            )


def test_fallback_retains_best_pvalue():
    table = PValueTable(
        candidates=(1, 2, 3),
        p_hat=np.array([0.0, 0.04, 0.01]),
        t_stat=np.zeros(3),
        criterion=np.array([3.0, 1.0, 2.0]),
        segmentations=(flat_seg(10),) * 3,
        delta_hat=np.zeros((3, 3)),
        n=10,
    )
    cs = confidence_set(table, 0.1)
    assert cs.members == (2,)
    assert cs.fallback_used


def test_copss_estimate_and_ties():
    base = dict(
        t_stat=np.zeros(3),
        segmentations=(flat_seg(10),) * 3,
        delta_hat=np.zeros((3, 3)),
        n=10,
    )
    table = PValueTable(candidates=(1, 2, 3), p_hat=np.ones(3),
                        criterion=np.array([3.0, 1.0, 2.0]), **base)
    assert copss_estimate(table) == 2
    tie = PValueTable(candidates=(1, 2, 3), p_hat=np.ones(3),
                      criterion=np.array([1.0, 1.0, 2.0]), **base)
    assert copss_estimate(tie) == 1


def test_reduce_rules():
    cs = confidence_set(
        PValueTable(
            candidates=(2, 4, 5),
            p_hat=np.array([0.5, 0.9, 0.4]),
            t_stat=np.zeros(3),
            criterion=np.zeros(3),
            segmentations=(flat_seg(10),) * 3,
            delta_hat=np.zeros((3, 3)),
            n=10,
        ),
        0.1,
    )
    assert cs.rightmost == 5
    assert cs.leftmost == 2
    singleton = confidence_set(
        PValueTable(
            candidates=(3,),
            p_hat=np.array([0.9]),
            t_stat=np.zeros(1),
            criterion=np.zeros(1),
            segmentations=(flat_seg(10),),
            delta_hat=np.zeros((1, 1)),
            n=10,
        ),
        0.1,
    )
    assert singleton.rightmost == singleton.leftmost == 3


def test_delta_antisymmetry_across_pipeline():
    ts = mean_series(9)
    _, table = run_pipeline(ts)
    d = table.delta_hat
    assert np.allclose(d, -d.T, atol=1e-10)
    for i in range(len(table.candidates)):
        for j in range(len(table.candidates)):
            assert d[i, j] == pytest.approx(
                table.criterion[i] - table.criterion[j], abs=1e-10
            )


def test_sigma_dominates_delta():
    odd, even, segs = _two_candidate_setup(10)
    for k in (1, 2):
        xm = xi_matrix(k, segs, odd, even)
        assert np.all(xm.sigma_hat >= np.abs(xm.delta_hat) * (1 - 1e-12))


# --- chunked bootstrap kernel against the full-matrix reference ---------------

def _reference_run(scores, kind, m, cfg):
    """The unchunked bootstrap: the whole (B, n) multiplier matrix, then one
    (K-1, n) @ (n, B) product per candidate and a Python loop for delta."""
    from optics_cp.core import segment_mean_map
    from optics_cp.detectors import fit_all_candidates
    from optics_cp.inference import _xi_from_fits

    half = scores.n // 2
    odd, even = scores.data[0 : 2 * half : 2], scores.data[1 : 2 * half : 2]
    segs = fit_all_candidates(odd, m, kind)
    cands = sorted(segs)
    fits = np.array([((even - segment_mean_map(odd, segs[k].boundaries())) ** 2).sum(axis=1)
                     for k in cands])
    if cfg.injected is not None:
        mult = cfg.injected
    else:
        mult = np.array([
            np.random.Generator(np.random.Philox(
                key=np.array([cfg.seed % (1 << 64), b], dtype=np.uint64)
            )).standard_normal(half)
            for b in range(cfg.b_reps)
        ])
    delta = np.zeros((len(cands), len(cands)))
    t_stat, p_hat = [], []
    for i, k in enumerate(cands):
        for j in range(len(cands)):
            if i != j:
                delta[i, j] = float((fits[i] - fits[j]).mean())
        rivals = tuple(c for c in cands if c != k)
        xm = _xi_from_fits(k, rivals, fits[i], np.delete(fits, i, axis=0))
        t = studentized_max(xm)
        if not rivals:
            p = 1.0
        else:
            count = int(np.count_nonzero(
                ((xm.studentized @ mult.T) / np.sqrt(half)).max(axis=0) > t))
            p = count / cfg.b_reps
        t_stat.append(t)
        p_hat.append(p)
    return np.array(p_hat), np.array(t_stat), delta


def _assert_matches_reference(scores, cfg, k_max=4, kind=None):
    from optics_cp.inference import run_on_scores

    kind = kind or DetectorKind("sn", min_seg=3)
    _, table = run_on_scores(scores, kind, CandidateSet(k_max), 0.1, cfg)
    p_ref, t_ref, d_ref = _reference_run(scores, kind, CandidateSet(k_max), cfg)
    assert np.array_equal(table.p_hat, p_ref)
    assert np.array_equal(table.t_stat, t_ref)
    assert np.array_equal(table.delta_hat, d_ref)
    return table


def _noisy_scores(seed, n=240):
    return ScoreSeries(mean_series(seed, n_obs=n, breaks=(n // 4, n // 2, 3 * n // 4)).data)


def test_chunked_bootstrap_b_not_multiple_of_chunk(monkeypatch):
    from optics_cp import inference

    scores = _noisy_scores(20)
    monkeypatch.setattr(inference, "_TILE_BYTES", 8 * 120 * 7)  # 7 replicates per chunk
    for b_reps in (50, 54, 57):  # remainders 1, 5 and 1 after full chunks
        _assert_matches_reference(scores, BootstrapConfig(b_reps=b_reps, seed=b_reps))


def test_chunked_bootstrap_b_below_one_chunk():
    _assert_matches_reference(_noisy_scores(21), BootstrapConfig(b_reps=200, seed=4))


def test_chunked_bootstrap_single_replicate():
    for seed in range(5):
        _assert_matches_reference(_noisy_scores(22 + seed), BootstrapConfig(b_reps=1, seed=seed))


def test_chunked_bootstrap_one_candidate():
    table = _assert_matches_reference(_noisy_scores(27), BootstrapConfig(b_reps=50, seed=1),
                                      k_max=1)
    assert table.p_hat.tolist() == [1.0] and table.t_stat.tolist() == [0.0]


def test_chunked_bootstrap_zero_variance_rivals():
    # the odd half is exactly piecewise constant with two changes, so every
    # candidate from 2 up fits it exactly and their criterion rows coincide
    rng = np.random.default_rng(5)
    level = np.repeat([0.0, 3.0, -1.0], 40)
    data = np.empty(240)
    data[0::2] = level
    data[1::2] = level + rng.standard_normal(120)
    table = _assert_matches_reference(ScoreSeries(data), BootstrapConfig(b_reps=80, seed=2))
    assert table.delta_hat[1, 2] == 0.0 and table.delta_hat[2, 3] == 0.0


def test_chunked_bootstrap_injected(monkeypatch):
    from optics_cp import inference

    scores = _noisy_scores(28)
    inj = np.random.default_rng(9).standard_normal((45, 120))
    _assert_matches_reference(scores, BootstrapConfig(b_reps=45, seed=0, injected=inj))
    monkeypatch.setattr(inference, "_TILE_BYTES", 8 * 120 * 4)
    _assert_matches_reference(scores, BootstrapConfig(b_reps=45, seed=0, injected=inj))


@pytest.mark.parametrize("injected", [False, True])
@pytest.mark.parametrize("n_half", [39, 40, 41, 83])
def test_sliced_bootstrap_at_slice_edges(monkeypatch, n_half, injected):
    # slices of at most 40 points: one slice one short of the width, one
    # exactly the width, two slices from one point past it, and three uneven
    # slices from 83 points; each replicate's stream runs on across its slices
    from optics_cp import inference

    monkeypatch.setattr(inference, "_SLICE", 40)
    monkeypatch.setattr(inference, "_TILE_BYTES", 8 * 40 * 7)
    reps, slices = inference._tile(n_half, 45)
    assert len(slices) == {39: 1, 40: 1, 41: 2, 83: 3}[n_half]
    assert 45 % reps  # a last chunk of fewer replicates
    inj = np.random.default_rng(n_half).standard_normal((45, n_half)) if injected else None
    _assert_matches_reference(_noisy_scores(32, n=2 * n_half),
                              BootstrapConfig(b_reps=45, seed=n_half, injected=inj))


def test_tile_holds_at_most_one_mib_and_keeps_small_n_whole():
    # a thread's tile buffer is at most _TILE_BYTES (1 MiB) at any n; at
    # n <= 1,024 a chunk is min(B, 128) whole rows, as it was before slicing
    from optics_cp import inference

    assert inference._TILE_BYTES == 1 << 20
    for n in (*range(1, 9000, 37), 1_024, 4_096, 4_097, 8_000, 32_000, 10**6, 10**7 + 3):
        for b_reps in (1, 50, 500):
            reps, slices = inference._tile(n, b_reps)
            edges = np.ravel(slices)
            widths = edges[1::2] - edges[0::2]
            assert edges[0] == 0 and edges[-1] == n and np.all(edges[1:-1:2] == edges[2::2])
            assert widths.min() >= 1 and widths.max() - widths.min() <= 1
            assert widths.max() <= inference._SLICE
            assert reps * widths.max() * 8 <= inference._TILE_BYTES
            assert reps == min(b_reps, 128, inference._TILE_BYTES // (8 * widths.max()))
            if n <= 1_024:  # the chunks of whole rows before slicing
                assert (reps, slices) == (min(b_reps, 128, (4 << 20) // (8 * n)), [(0, n)])


@pytest.mark.parametrize("seed", [-1, 1 << 63, (1 << 64) + 5])
def test_rekeyed_multipliers_at_awkward_seeds(monkeypatch, seed):
    # the reference builds a fresh Philox per replicate, keyed (seed mod 2^64, b);
    # the kernel re-keys one generator across chunks of 16 whole rows, or one
    # per replicate across chunks of 16 replicates by three slices of 40
    from optics_cp import inference

    for width in (120, 40):
        monkeypatch.setattr(inference, "_SLICE", width)
        monkeypatch.setattr(inference, "_TILE_BYTES", 8 * width * 16)
        for b_reps in (16, 37):
            _assert_matches_reference(_noisy_scores(31), BootstrapConfig(b_reps=b_reps, seed=seed))


def _bootstrap_peak(n_half, b_reps, k_max=4):
    """Peak traced memory of one analysis whose bootstrap dominates."""
    import tracemalloc

    from optics_cp.inference import run_on_scores

    scores = _noisy_scores(30, n=2 * n_half)
    tracemalloc.start()
    try:
        run_on_scores(scores, DetectorKind("bs", min_seg=5), CandidateSet(k_max), 0.1,
                      BootstrapConfig(b_reps=b_reps, seed=1))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bootstrap_memory_independent_of_replicates():
    n_half, b_reps = 20_000, 500
    assert _bootstrap_peak(n_half, b_reps) < b_reps * n_half * 8 / 2


def test_bootstrap_memory_independent_of_threads(force_threads):
    # on a machine with 20 BLAS threads the tile buffers of all threads
    # together stay within a fixed budget
    from optics_cp import inference

    force_threads(20)
    n_half, b_reps = 20_000, 500
    peak = _bootstrap_peak(n_half, b_reps)
    assert peak < b_reps * n_half * 8 / 2
    assert peak < inference._BUFFERS_BYTES + (8 << 20)


def test_bootstrap_memory_holds_the_fits_and_one_slice_of_pair_rows(force_threads):
    # the K = 14 fit rows, one thread's studentized pair rows of one column
    # slice and its tile: O(K n), where holding all K(K - 1)/2 pair rows of
    # n points (14.6 MB here) is past the bound
    from optics_cp import inference

    force_threads(1)  # one tile buffer
    n_half, k = 20_000, 14
    pairs = k * (k - 1) // 2
    widest = max(b - a for a, b in inference._tile(n_half, 500)[1])
    bound = k * n_half * 8 + pairs * widest * 8 + inference._TILE_BYTES + (1 << 20)
    assert pairs * n_half * 8 > bound
    assert _bootstrap_peak(n_half, 500, k_max=k) < bound


def test_bootstrap_memory_at_small_n_holds_one_capped_chunk(force_threads):
    # at 1,000 points a tile of 1 MiB would hold 131 whole rows; the
    # replicate cap keeps the buffer to 128
    from optics_cp import inference

    force_threads(1)  # one tile buffer
    n_half, k = 1_000, 6
    assert inference._tile(n_half, 500) == (128, [(0, n_half)])
    pair_bytes = k * (k - 1) // 2 * n_half * 8
    bound = pair_bytes + 128 * n_half * 8 + (1 << 20)
    assert _bootstrap_peak(n_half, 500, k_max=k) < bound


@pytest.mark.parametrize("n_half", [4_000, 32_000])
def test_bootstrap_tile_does_not_grow_with_n(force_threads, n_half):
    # with one thread the bootstrap holds the rows, made here before tracing
    # starts, one tile of at most 1 MiB and a buffer for one column slice of the
    # rows: whole rows of 128 replicates would take 4.1 MB at 4,000 points and
    # 32.8 MB at 32,000
    import tracemalloc

    from optics_cp import inference

    force_threads(1)  # one tile buffer
    stud, gather, t_obs = _rows(k=8, n=n_half)
    widest = max(b - a for a, b in inference._tile(n_half, 500)[1])
    tracemalloc.start()
    try:
        inference._bootstrap(*_stored(stud), gather, t_obs, BootstrapConfig(b_reps=500, seed=1),
                             n_half)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= inference._TILE_BYTES + len(stud) * widest * 8 + (1 << 20)


# --- pair rows against the per-candidate chain ---------------------------------

def _constant_rows(resid):
    return np.ones(resid.shape[0])


_ROW_FITS = {
    "plain": None,
    "huber": functools.partial(_huber_rows, kappa=1.0),
    "constant": _constant_rows,  # every candidate fits equally: every row is zero
}


def _per_candidate_chain(scores, kind, m, cfg, row_fit):
    """p_hat, t_stat and delta_hat from the public per-candidate calls: each
    candidate's XiMatrix against all rivals, its statistic and its p-value."""
    from optics_cp.core import split_like
    from optics_cp.detectors import fit_all_candidates
    from optics_cp.inference import _fit_rows, _xi_from_fits

    odd, even = split_like(scores.data, 2)
    segs = fit_all_candidates(odd, m, kind)
    cands = sorted(segs)
    p_hat, t_stat, delta = [], [], []
    for i, k in enumerate(cands):
        if row_fit is None:
            xm = xi_matrix(k, segs, ScoreSeries(odd), ScoreSeries(even))
        else:
            fits = np.array([_fit_rows(odd, even, segs[j], row_fit) for j in cands])
            rivals = tuple(j for j in cands if j != k)
            xm = _xi_from_fits(k, rivals, fits[i], np.delete(fits, i, axis=0))
        t_stat.append(studentized_max(xm))
        p_hat.append(bootstrap_pvalue(xm, cfg))
        delta.append(np.insert(xm.delta_hat, i, 0.0))
    return np.array(p_hat), np.array(t_stat), np.array(delta)


@pytest.mark.parametrize("fit", sorted(_ROW_FITS))
@pytest.mark.parametrize("k_max", [1, 2, 8])
@pytest.mark.parametrize("detector", ["sn", "bs"])
def test_pair_rows_match_the_per_candidate_chain(detector, k_max, fit):
    # run_on_scores builds each unordered pair's row once and gathers it with a
    # sign; the chain builds every candidate's rows itself: the bytes agree
    from optics_cp.inference import _sq_rows, run_on_scores

    scores = _noisy_scores(40 + k_max, n=480)
    kind, m = DetectorKind(detector, min_seg=5), CandidateSet(k_max)
    cfg = BootstrapConfig(b_reps=150, seed=k_max)
    _, table = run_on_scores(scores, kind, m, 0.1, cfg, _ROW_FITS[fit] or _sq_rows)
    p_hat, t_stat, delta = _per_candidate_chain(scores, kind, m, cfg, _ROW_FITS[fit])
    assert len(table.candidates) == k_max
    assert table.p_hat.tobytes() == p_hat.tobytes()
    assert table.t_stat.tobytes() == t_stat.tobytes()
    assert table.delta_hat.tobytes() == delta.tobytes()
    assert fit == "constant" or k_max == 1 or table.delta_hat.any()


@pytest.mark.parametrize("detector", ["sn", "bs"])
def test_equal_fits_give_no_negative_zero(detector):
    # a reversed row is 0.0 - x: with -x the last candidate, all of whose rival
    # rows are reversed, would get t_stat -0.0, and every delta_hat below the
    # diagonal would be -0.0, which analyze's JSON prints as such
    from optics_cp.inference import run_on_scores

    _, table = run_on_scores(_noisy_scores(50), DetectorKind(detector, min_seg=5),
                             CandidateSet(8), 0.1, BootstrapConfig(b_reps=40, seed=1),
                             _constant_rows)
    assert len(table.candidates) == 8
    assert not np.signbit(table.t_stat).any()
    assert not np.signbit(table.delta_hat).any()
    assert table.p_hat.tolist() == [0.0] * 8  # every replicate ties at 0, none exceeds


def _materialized(scores, kind, m, cfg):
    """p_hat, t_stat and delta_hat with all (pairs x n) studentized rows held in
    memory, as run_on_scores once formed them, sent through the same
    ``_bootstrap``, whose GEMM then reads each slice of them with a stride of n."""
    from optics_cp import inference
    from optics_cp.core import split_like
    from optics_cp.detectors import fit_all_candidates

    odd, even = split_like(scores.data, 2)
    n = odd.shape[0]
    segs = fit_all_candidates(odd, m, kind)
    k = len(segs)
    fits = np.array([inference._fit_rows(odd, even, segs[c], inference._sq_rows)
                     for c in sorted(segs)]).reshape(k, n)
    gather = _pair_gather(k)
    stud = np.empty((k * (k - 1) // 2, n))
    delta_pairs = np.empty(len(stud))
    for i in range(k - 1):  # candidate i's rows with the later candidates
        rows = slice(gather[i, i], gather[i, -1] + 1)
        xi = np.subtract(fits[i], fits[i + 1 :], out=stud[rows])
        delta_pairs[rows] = inference._studentize(xi)[0]
    delta = np.zeros((k, k))
    delta[~np.eye(k, dtype=bool)] = inference._signed(delta_pairs, gather).ravel()
    t_stat = (inference._signed(stud.sum(axis=1) / np.sqrt(n), gather).max(axis=1) if k > 1
              else np.zeros(1))
    return inference._bootstrap(*_stored(stud), gather, t_stat, cfg, n), t_stat, delta


def _equal_fits_scores(n_half, seed=5):
    """An odd half exactly piecewise constant with two changes, so every
    candidate from 2 up fits it exactly: their fits are equal, and each pair of
    them has a zero row whose root mean square is 0."""
    level = np.repeat([0.0, 3.0, -1.0], [n_half // 3, n_half // 3, n_half - 2 * (n_half // 3)])
    data = np.empty(2 * n_half)
    data[0::2] = level
    data[1::2] = level + np.random.default_rng(seed).standard_normal(n_half)
    return ScoreSeries(data)


@pytest.mark.parametrize("data", ["noisy", "equal_fits"])
@pytest.mark.parametrize("n_half", [40, 80, 360])
def test_pair_statistics_match_the_materialized_rows(monkeypatch, force_threads, n_half, data):
    # run_on_scores keeps the K fit rows and builds each column slice of the
    # pair rows when the bootstrap reaches it, into one buffer of S columns per
    # thread; the oracle holds all the rows.  One, two and nine slices of at
    # most 40 points, on 1 to 4 threads, with the statistics taken over blocks
    # of many pair rows or of one
    from optics_cp import inference
    from optics_cp.inference import run_on_scores

    monkeypatch.setattr(inference, "_SLICE", 40)
    assert len(inference._tile(n_half, 45)[1]) == {40: 1, 80: 2, 360: 9}[n_half]
    scores = _noisy_scores(60, n=2 * n_half) if data == "noisy" else _equal_fits_scores(n_half)
    kind, m = DetectorKind("sn", min_seg=3), CandidateSet(6)
    for threads, tile_bytes in itertools.product((1, 2, 3, 4), (1 << 20, 8 * 40 * 3)):
        force_threads(threads)
        monkeypatch.setattr(inference, "_TILE_BYTES", tile_bytes)
        cfg = BootstrapConfig(b_reps=45, seed=n_half + threads)
        _, table = run_on_scores(scores, kind, m, 0.1, cfg)
        p_hat, t_stat, delta = _materialized(scores, kind, m, cfg)
        assert table.p_hat.tobytes() == p_hat.tobytes()
        assert table.t_stat.tobytes() == t_stat.tobytes()
        assert table.delta_hat.tobytes() == delta.tobytes()
    assert 0 < table.p_hat.sum() < len(table.p_hat)
    if data == "equal_fits":
        assert table.delta_hat[1, 2:].tolist() == [0.0] * 4


# --- the threaded bootstrap ------------------------------------------------------

_HALF = 120


def _rows(k=4, n=_HALF, seed=0):
    """Grid-snapped pair rows of k candidates, where each candidate finds its
    rival rows, and observed statistics spread over the bootstrap
    distribution, so that the counts vary."""
    rng = np.random.default_rng(seed)
    stud = np.round(rng.standard_normal((k * (k - 1) // 2, n)) * 8192.0) / 8192.0
    return stud, _pair_gather(k), np.linspace(0.5, 2.5, k)


def _stored(stud):
    """``_bootstrap``'s row source and row count for rows held in memory, as
    ``bootstrap_pvalue`` passes them."""
    return (lambda a, b, buf: stud[:, a:b]), len(stud)


def _pair_gather(k):
    """Row g: the indices of candidate g's k - 1 rival rows among the pair rows
    (i < j, in (i, j) order) and their reversals, which follow them."""
    pair = {p: i for i, p in enumerate(itertools.combinations(range(k), 2))}
    return np.array([[pair[g, j] if g < j else len(pair) + pair[j, g] for j in range(k) if j != g]
                     for g in range(k)], dtype=np.intp).reshape(k, k - 1)


# below one chunk of 64 or 128 replicates, and above; no multiple of 3, 7, 64 or 128
@pytest.mark.parametrize("b_reps", [50, 130])
@pytest.mark.parametrize("injected", [False, True])
def test_threaded_bootstrap_bit_equal_across_threads_and_chunks(monkeypatch, force_threads, b_reps,
                                                               injected):
    # chunks bounded by bytes (3, 7, 64 or all B replicates) and by the
    # replicate cap (1, 7, 128 or none), in slices of 1, 7, 64 or all 120
    # points, on 1 to 4 threads: one set of bytes.  Whole rows run on every
    # thread count; each sliced shape on one, taken in turn
    from optics_cp import inference

    stud, gather, t_obs = _rows()
    inj = np.random.default_rng(4).standard_normal((b_reps, _HALF)) if injected else None
    cfg = BootstrapConfig(b_reps=b_reps, seed=9, injected=inj)
    uncapped = 1 << 30
    turn = itertools.cycle((1, 2, 3, 4))
    results = {}
    for width, reps, cap in itertools.product((1, 7, 64, uncapped), (3, 7, 64, uncapped),
                                              (1, 7, 128, uncapped)):
        monkeypatch.setattr(inference, "_SLICE", width)
        widest = -(-_HALF // -(-_HALF // width))  # of the slices of at most ``width``
        monkeypatch.setattr(inference, "_TILE_BYTES", 8 * widest * reps)
        monkeypatch.setattr(inference, "_CHUNK_REPS", cap)
        for threads in (1, 2, 3, 4) if width == uncapped else (next(turn),):
            force_threads(threads)
            results[width, reps, cap, threads] = inference._bootstrap(
                *_stored(stud), gather, t_obs, cfg, _HALF).tobytes()
    assert len(results) == 64 + 48 and len(set(results.values())) == 1
    assert 0 < np.frombuffer(results[1, 3, 1, 1]).sum() < len(t_obs)  # counts neither all nor none


def test_one_thread_bootstrap_starts_no_thread(monkeypatch, force_threads):
    # at T = 1 the caller takes every chunk itself, with the bytes of T = 3
    import threading

    from optics_cp import inference

    monkeypatch.setattr(inference, "_TILE_BYTES", 8 * _HALF * 5)
    stud, gather, t_obs = _rows()
    cfg = BootstrapConfig(b_reps=130, seed=3)
    force_threads(3)
    want = inference._bootstrap(*_stored(stud), gather, t_obs, cfg, _HALF)
    monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("a thread started"))
    force_threads(1)
    got = inference._bootstrap(*_stored(stud), gather, t_obs, cfg, _HALF)
    assert got.tobytes() == want.tobytes()


def test_threaded_bootstrap_leaves_the_cpu_affinity_alone(monkeypatch, force_threads):
    # no thread of the bootstrap moves itself to another CPU, so a taskset mask
    # and the scheduler's choice both stand
    import os

    from optics_cp import inference

    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity on this platform")
    mask = os.sched_getaffinity(0)
    monkeypatch.setattr(os, "sched_setaffinity",
                        lambda *args: pytest.fail("the bootstrap changed a CPU affinity"))
    monkeypatch.setattr(inference, "_TILE_BYTES", 8 * _HALF * 5)
    stud, gather, t_obs = _rows()
    force_threads(2)
    inference._bootstrap(*_stored(stud), gather, t_obs, BootstrapConfig(b_reps=130, seed=3), _HALF)
    assert os.sched_getaffinity(0) == mask


def test_threaded_bootstrap_stress_more_threads_than_cores(monkeypatch, force_threads):
    # 8 threads take 400 one-replicate chunks from the shared counter, in one
    # slice or in three with a barrier between them, switching as often as the
    # interpreter allows: a chunk taken twice or lost, or a slice's sums or
    # stream carried on from the wrong place, moves a count
    import sys

    from optics_cp import inference

    stud, gather, t_obs = _rows()
    cfg = BootstrapConfig(b_reps=400, seed=5)
    for width in (_HALF, 40):
        monkeypatch.setattr(inference, "_SLICE", width)
        monkeypatch.setattr(inference, "_TILE_BYTES", 8 * width)
        force_threads(1)
        serial = inference._bootstrap(*_stored(stud), gather, t_obs, cfg, _HALF)
        force_threads(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                got = inference._bootstrap(*_stored(stud), gather, t_obs, cfg, _HALF)
                assert np.array_equal(got, serial)
        finally:
            sys.setswitchinterval(interval)


def _watched(stud, fail):
    """``stud`` as an array whose products, one per chunk, sleep a little (so
    threads interleave) and go through ``fail(thread ident, chunk number)``."""
    import collections
    import threading
    import time

    chunks = collections.Counter()

    class Watched(np.ndarray):
        def __matmul__(self, other):
            me = threading.get_ident()
            chunks[me] += 1
            time.sleep(0.002)
            fail(me, chunks[me])
            return np.matmul(self.view(np.ndarray), other)

    return stud.view(Watched), chunks


@pytest.mark.parametrize("who", ["helper", "caller"])
def test_threaded_bootstrap_error_stops_every_thread(monkeypatch, force_threads, who):
    import threading

    from optics_cp import inference

    monkeypatch.setattr(inference, "_TILE_BYTES", 8 * _HALF)  # one replicate per chunk
    force_threads(3)
    caller = threading.get_ident()
    # a helper's third chunk raises an error, or the caller's an interrupt
    error = RuntimeError("third chunk") if who == "helper" else KeyboardInterrupt()
    raised = []

    def fail(me, chunk):
        if (me == caller) == (who == "caller") and chunk == 3 and not raised:
            raised.append(me)
            raise error

    stud, gather, t_obs = _rows()
    watched, chunks = _watched(stud, fail)
    threads_before, count_before = set(threading.enumerate()), blas_count()
    with pytest.raises(type(error)) as info:
        inference._bootstrap(*_stored(watched), gather, t_obs, BootstrapConfig(b_reps=300, seed=1),
                             _HALF)
    assert info.value is error
    assert set(threading.enumerate()) == threads_before
    assert blas_count() == count_before
    # the others stopped after the chunk they were on, long before the 300th
    assert sum(chunks.values()) < 100


def test_interrupt_while_joining_waits_for_every_helper(monkeypatch, force_threads):
    # a second Ctrl-C during the join: the caller keeps joining, so no helper is
    # left inside numpy when the pin is released, and then re-raises it
    import threading
    import time

    from optics_cp import inference

    monkeypatch.setattr(inference, "_TILE_BYTES", 8 * _HALF)
    force_threads(3)
    caller = threading.get_ident()
    stud, gather, t_obs = _rows()
    # helpers are slow, so they are still busy when the caller runs out of chunks
    watched, chunks = _watched(stud, lambda me, chunk: me != caller and time.sleep(0.1))
    real_join = threading.Thread.join
    interrupted = []

    def join(self, timeout=None):
        if threading.get_ident() == caller and not interrupted:
            interrupted.append(self.is_alive())
            raise KeyboardInterrupt
        return real_join(self, timeout)

    monkeypatch.setattr(threading.Thread, "join", join)
    threads_before, count_before = set(threading.enumerate()), blas_count()
    with pytest.raises(KeyboardInterrupt):
        inference._bootstrap(*_stored(watched), gather, t_obs, BootstrapConfig(b_reps=20, seed=1),
                             _HALF)
    assert interrupted == [True]
    assert set(threading.enumerate()) == threads_before
    assert blas_count() == count_before
    assert sum(chunks.values()) == 20  # every chunk was finished


@pytest.mark.parametrize("who", ["helper", "caller"])
def test_error_in_a_later_slice_releases_the_threads_at_the_barrier(monkeypatch, force_threads,
                                                                    who):
    # a helper's error, or an interrupt in the caller, in slice 2 of 3, raised
    # after the other threads took all of slice 2's chunks and wait for it at
    # the barrier before slice 3: they are let go, and the error itself is
    # raised, never a BrokenBarrierError
    import threading
    import time

    from optics_cp import inference

    monkeypatch.setattr(inference, "_SLICE", 40)
    monkeypatch.setattr(inference, "_TILE_BYTES", 8 * 40)  # one replicate per chunk
    assert inference._tile(_HALF, 300)[1] == [(0, 40), (40, 80), (80, 120)]
    force_threads(3)
    stud, gather, t_obs = _rows()
    error = RuntimeError("slice 2") if who == "helper" else KeyboardInterrupt()
    once, caller, outcome = itertools.count(), [], []

    def rows(a, b, buf):
        if (threading.get_ident() == caller[0]) == (who == "caller") and a == 40 \
                and next(once) == 0:
            time.sleep(0.2)
            raise error
        return stud[:, a:b]

    def call():  # the caller, in a thread of its own, so that a hang fails the test
        caller.append(threading.get_ident())
        try:
            inference._bootstrap(rows, len(stud), gather, t_obs,
                                 BootstrapConfig(b_reps=300, seed=1), _HALF)
        except BaseException as exc:
            outcome.append(exc)

    threads_before, count_before = set(threading.enumerate()), blas_count()
    runner = threading.Thread(target=call, daemon=True)
    runner.start()
    runner.join(timeout=30)
    assert not runner.is_alive()
    assert len(outcome) == 1 and outcome[0] is error
    assert set(threading.enumerate()) == threads_before
    assert blas_count() == count_before


def test_threaded_bootstrap_without_openblas_runs_serially(monkeypatch):
    import threading

    from optics_cp import blas, inference

    monkeypatch.setattr(inference, "_TILE_BYTES", 8 * _HALF * 5)
    stud, gather, t_obs = _rows()
    cfg = BootstrapConfig(b_reps=60, seed=2)
    want = inference._bootstrap(*_stored(stud), gather, t_obs, cfg, _HALF)
    monkeypatch.setattr(blas, "_thread_calls", lambda: None)
    watched, chunks = _watched(stud, lambda me, chunk: None)
    got = inference._bootstrap(*_stored(watched), gather, t_obs, cfg, _HALF)
    assert np.array_equal(got, want)
    assert list(chunks) == [threading.get_ident()] and chunks[threading.get_ident()] == 12


def test_concurrent_optics_calls_get_the_serial_bytes(monkeypatch):
    import threading

    from optics_cp import inference

    monkeypatch.setattr(inference, "_TILE_BYTES", 8 * _HALF * 16)  # 13 chunks of B = 200
    series = {s: mean_series(s) for s in range(4)}
    serial = {s: run_pipeline(ts, seed=s)[1] for s, ts in series.items()}
    count_before = blas_count()
    tables = {}

    def call(s):
        tables[s] = run_pipeline(series[s], seed=s)[1]

    callers = [threading.Thread(target=call, args=(s,)) for s in series]
    for t in callers:
        t.start()
    for t in callers:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in callers)
    assert blas_count() == count_before
    for s, table in serial.items():
        assert tables[s].p_hat.tobytes() == table.p_hat.tobytes()
        assert tables[s].t_stat.tobytes() == table.t_stat.tobytes()


@pytest.mark.parametrize("make", [
    lambda: DetectorKind("xx"),
    lambda: DetectorKind("sn", min_seg=1),
    lambda: CandidateSet(0),
    lambda: ScoreModel("xx"),
    lambda: ScoreSeries(np.array([1.0, np.nan])),
    lambda: confidence_set(run_pipeline(mean_series(1), b=20)[1], 1.0),
    lambda: HuberConfig(kappa=0.0),
    lambda: cauchy_combine([]),
    lambda: optics(mean_series(1), ScoreModel("mean"), DetectorKind("sn"), CandidateSet(2),
                   L=0),
], ids=["detector", "min_seg", "k_max", "family", "non_finite", "alpha", "huber", "cauchy",
        "m_dep"])
def test_user_facing_checks_raise_config_error(make):
    # ConfigError is also a ValueError, which these checks raised before
    with pytest.raises(ConfigError) as info:
        make()
    assert isinstance(info.value, ValueError)
