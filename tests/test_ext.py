import numpy as np
import pytest

from optics_cp import (
    BootstrapConfig,
    CandidateSet,
    DetectorKind,
    DomainError,
    HuberConfig,
    ScoreModel,
    ShapeError,
    TimeSeries,
    cauchy_combine,
    h_optics,
    optics,
    transform,
)
from conftest import huber_loss


def test_cauchy_single_pvalue_is_identity():
    for p in np.linspace(0.01, 0.99, 99):
        assert cauchy_combine([p]) == pytest.approx(p, abs=1e-12)


def test_cauchy_symmetric_pairs():
    assert cauchy_combine([0.5, 0.5]) == pytest.approx(0.5, abs=1e-12)
    assert cauchy_combine([0.1, 0.9]) == pytest.approx(0.5, abs=1e-12)


def test_cauchy_equal_inputs_fixed_point():
    for p in (0.05, 0.3, 0.77):
        assert cauchy_combine([p, p, p]) == pytest.approx(p, abs=1e-12)


def test_cauchy_strictly_increasing_in_each_input():
    base = [0.2, 0.6, 0.4]
    ref = cauchy_combine(base)
    for i in range(3):
        bumped = list(base)
        bumped[i] += 0.05
        assert cauchy_combine(bumped) > ref


def test_cauchy_needs_a_pvalue():
    with pytest.raises(ValueError, match="no p-values"):
        cauchy_combine([])


def test_huber_quadratic_branch():
    assert huber_loss(1.0, 1.5) == 0.5


def test_huber_linear_branch():
    assert huber_loss(3.0, 1.5) == pytest.approx(3.375)


def test_huber_continuous_at_threshold():
    for kappa in (0.5, 1.5, 4.0):
        assert huber_loss(kappa, kappa) == pytest.approx(kappa ** 2 / 2, abs=1e-12)
        assert huber_loss(np.nextafter(kappa, np.inf), kappa) == pytest.approx(
            kappa ** 2 / 2, abs=1e-9
        )


def test_huber_vector_sums_coordinates():
    assert huber_loss(np.array([1.0, 3.0]), 1.5) == pytest.approx(0.5 + 3.375)


def test_huber_even_and_convex():
    xs = np.linspace(-5, 5, 41)
    vals = np.array([huber_loss(x, 1.5) for x in xs])
    assert np.allclose(vals, vals[::-1], atol=1e-12)
    second = np.diff(vals, 2)
    assert np.all(second >= -1e-9)


def test_huber_gradient_matches_central_difference():
    kappa = 1.5
    h = 1e-6
    for u in (-4.0, -1.5, -0.3, 0.0, 0.7, 1.5, 2.9):
        grad = (huber_loss(u + h, kappa) - huber_loss(u - h, kappa)) / (2 * h)
        psi = u if abs(u) <= kappa else kappa * np.sign(u)
        assert grad == pytest.approx(psi, abs=1e-6)


def _random_input(seed, n_obs=120):
    rng = np.random.default_rng(seed)
    mu = np.repeat(rng.normal(size=4), n_obs // 4)
    return TimeSeries(mu + rng.standard_normal(n_obs))


def _args(seed, b=150, k_max=4):
    return (
        ScoreModel("mean"),
        DetectorKind("sn", min_seg=5),
        CandidateSet(k_max),
        0.1,
        BootstrapConfig(b_reps=b, seed=seed),
    )


def test_ms_single_split_reproduces_base():
    for seed in range(4):
        ts = _random_input(seed)
        cs1, t1 = optics(ts, *_args(seed))
        cs2, t2 = optics(ts, *_args(seed), L=1)
        assert cs1.members == cs2.members
        assert np.array_equal(t1.p_hat, t2.p_hat)
        assert np.array_equal(t1.t_stat, t2.t_stat)
        assert np.array_equal(t1.criterion, t2.criterion)


def test_mdep_zero_reproduces_base():
    for seed in range(4):
        ts = _random_input(seed)
        cs1, t1 = optics(ts, *_args(seed))
        cs2, t2 = optics(ts, *_args(seed), L=0 + 1)
        assert cs1.members == cs2.members
        assert np.array_equal(t1.p_hat, t2.p_hat)
    # m-dependence is (m+1)-way splitting: one split table per stride, none
    # at m = 0; the CLI's mdep:m against ms:(m+1) is tested in test_golden_cli
    ts = _random_input(5, n_obs=360)
    for m_dep in (0, 1, 2):
        _, table = optics(ts, *_args(5), L=m_dep + 1)
        assert len(table.splits) == (m_dep + 1 if m_dep else 0)


def test_huber_large_threshold_reproduces_base():
    for seed in range(4):
        ts = _random_input(seed)
        cs1, t1 = optics(ts, *_args(seed))
        cs2, t2 = h_optics(ts, *_args(seed), h=HuberConfig(kappa=1e6))
        assert cs1.members == cs2.members
        assert np.array_equal(t1.p_hat, t2.p_hat)
        assert np.array_equal(t1.t_stat, t2.t_stat)
        # the robust criterion is half the squared-norm one in this regime
        assert np.allclose(2.0 * t2.criterion, t1.criterion, rtol=1e-12)


def test_huber_tiny_threshold_finite():
    ts = _random_input(9)
    cs, table = h_optics(ts, *_args(9), h=HuberConfig(kappa=1e-6))
    assert np.all(np.isfinite(table.t_stat))
    assert np.all(np.isfinite(table.p_hat))
    # near zero threshold the fit measure approaches a scaled absolute error
    kappa = 1e-6
    resid = np.array([2.0, -0.5])
    l1 = kappa * np.sum(np.abs(resid)) - kappa ** 2
    assert huber_loss(resid, kappa) == pytest.approx(l1, rel=1e-6)


def test_ms_split_seeds_differ_but_combination_is_deterministic():
    ts = _random_input(10, n_obs=240)
    cs1, t1 = optics(ts, *_args(10), L=2)
    cs2, t2 = optics(ts, *_args(10), L=2)
    assert cs1.members == cs2.members
    assert np.array_equal(t1.p_hat, t2.p_hat)
    assert len(t1.splits) == 2
    # split tables carry their own p-values used by the combination
    assert t1.splits[0].candidates == t1.candidates


def test_ms_equal_split_pvalues_combine_to_same_value():
    for p in (0.2, 0.5, 0.8):
        assert cauchy_combine([p, p]) == pytest.approx(p, abs=1e-12)


def _family_input(family, n_obs=240):
    """A series of the family with a change at the middle, and its covariates."""
    rng = np.random.default_rng(14)
    half = n_obs // 2
    if family == "regression":
        x = rng.standard_normal((n_obs, 2))
        beta = np.repeat([[1.0, -1.0], [-1.0, 1.0]], [half, n_obs - half], axis=0)
        return (x * beta).sum(axis=1) + rng.standard_normal(n_obs), x
    if family == "variance":
        return np.repeat([1.0, 3.0], [half, n_obs - half]) * rng.standard_normal(n_obs), None
    z = rng.standard_normal((n_obs, 2))
    z[half:] = z[half:] @ np.array([[1.0, 0.9], [0.0, 0.5]])  # correlated after the change
    return z, None


@pytest.mark.parametrize("L", [2, 3])
@pytest.mark.parametrize("family", ["regression", "variance", "covariance"])
def test_ms_splits_match_hand_made_subsamples(family, L):
    # each split is the base pipeline on subsample r of the series, with its
    # covariate rows r, r+L, ... and seed XOR r
    z, x = _family_input(family)
    seed = 21
    args = (ScoreModel(family), DetectorKind("sn", min_seg=5), CandidateSet(3), 0.1)
    _, table = optics(TimeSeries(z), *args, BootstrapConfig(b_reps=100, seed=seed),
                      L=L, covariates=x)
    assert len(table.splits) == L
    for r, split in enumerate(table.splits):
        _, want = optics(TimeSeries(z[r::L]), *args, BootstrapConfig(b_reps=100, seed=seed ^ r),
                         covariates=None if x is None else x[r::L])
        for field in ("p_hat", "t_stat", "criterion", "delta_hat"):
            assert np.array_equal(getattr(split, field), getattr(want, field))
        assert split.segmentations == want.segmentations


@pytest.mark.parametrize("L", [1, 2, 3])
def test_optics_transforms_the_series_once(monkeypatch, L):
    calls = []

    def counted(*args):
        calls.append(args)
        return transform(*args)

    monkeypatch.setattr("optics_cp.ext.transform", counted)
    z, x = _family_input("regression")
    optics(TimeSeries(z), ScoreModel("regression"), *_args(3)[1:], covariates=x, L=L)
    assert len(calls) == 1


def test_ms_refuses_covariate_rows_that_differ_from_the_series():
    # split two ways, 201 covariate rows give 100 a piece, as 200 observations do;
    # the whole input is checked before the split
    z, x = _family_input("regression", n_obs=201)
    with pytest.raises(ShapeError, match="^covariates have 201 rows for 200 observations$"):
        optics(TimeSeries(z[:200]), ScoreModel("regression"), *_args(3)[1:], covariates=x, L=2)


@pytest.mark.parametrize("L", [1, 2])
def test_variance_zero_in_the_dropped_tail_is_refused_at_any_split_count(L):
    z = np.append(_family_input("variance", n_obs=200)[0], 0.0)
    with pytest.raises(DomainError, match="undefined at zero observations"):
        optics(TimeSeries(z), ScoreModel("variance"), *_args(3)[1:], L=L)


def test_mdep_splits_series_into_independent_strides():
    ts = _random_input(11, n_obs=360)
    cs, table = optics(ts, *_args(11), L=2 + 1)
    assert len(table.splits) == 3
    assert len(cs.members) >= 1


def test_huber_adaptive_threshold_runs():
    ts = _random_input(12)
    cs, table = h_optics(ts, *_args(12), h=HuberConfig(adaptive=True))
    assert len(cs.members) >= 1


def test_huber_config_validation():
    with pytest.raises(ValueError):
        HuberConfig(kappa=0.0)
    with pytest.raises(ValueError):
        HuberConfig(kappa=float("inf"))
    for kappa in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="kappa must be finite and positive"):
            huber_loss(1.0, kappa)


def test_high_order_split_still_runs():
    # nine-way splitting of 1000 points leaves halves of ~55, which is
    # still enough for six candidates at the default floor
    rng = np.random.default_rng(13)
    mu = np.repeat([0.75, -0.75, 0.75, -0.75, 0.75], 200)
    ts = TimeSeries(mu + rng.standard_normal(1000))
    cs, table = optics(
        ts, ScoreModel("mean"), DetectorKind("sn", min_seg=5), CandidateSet(6),
        0.1, BootstrapConfig(b_reps=100, seed=13), L=8 + 1,
    )
    assert len(table.splits) == 9
    assert len(cs.members) >= 1
