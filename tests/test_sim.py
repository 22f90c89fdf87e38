import numpy as np
import pytest

from optics_cp import (
    DetectorKind,
    GeneratorSpec,
    SpecError,
    diagnostics,
    generate,
    run_experiment,
)
from optics_cp.inference import PValueTable
from optics_cp.core import Segmentation


def test_default_mean_design_shape():
    spec = GeneratorSpec()
    assert spec.n_total == 1000
    assert spec.taus_star == (200, 400, 600, 800)
    assert spec.k_star == 4
    ts, cov = generate(spec, 0)
    assert cov is None
    assert ts.data.shape == (1000, 1)


def test_generator_deterministic():
    spec = GeneratorSpec(design="regression", d=3)
    ts1, cov1 = generate(spec, 42)
    ts2, cov2 = generate(spec, 42)
    assert np.array_equal(ts1.data, ts2.data)
    assert np.array_equal(cov1, cov2)
    ts3, _ = generate(spec, 43)
    assert not np.array_equal(ts1.data, ts3.data)


def test_zero_amplitude_is_pure_noise():
    spec = GeneratorSpec(amplitude=0.0, n_total=20000)
    ts, _ = generate(spec, 1)
    assert abs(ts.data.mean()) < 0.05


def test_mean_segments_alternate_sign():
    spec = GeneratorSpec(amplitude=2.0, n_total=100000,
                         taus_star=(20000, 40000, 60000, 80000))
    ts, _ = generate(spec, 2)
    bounds = (0, 20000, 40000, 60000, 80000, 100000)
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        target = 2.0 if i % 2 == 0 else -2.0
        seg_mean = ts.data[a:b].mean()
        assert abs(seg_mean - target) < 4.0 / np.sqrt(b - a)


def test_moving_average_correlation_structure():
    spec = GeneratorSpec(amplitude=0.0, n_total=100000, taus_star=(), m_dep=2)
    ts, _ = generate(spec, 3)
    x = ts.data[:, 0]
    x = x - x.mean()
    denom = float(x @ x)

    def rho(lag):
        return float(x[:-lag] @ x[lag:]) / denom

    assert abs(x.var() - 1.0) < 0.05  # unit-variance normalization
    assert rho(1) > 0.5  # adjacent points share innovations
    assert rho(2) > 0.2  # dependence extends to lag m
    assert abs(rho(3)) < 0.1  # beyond m the process decorrelates


def test_variance_design_segment_ratios():
    spec = GeneratorSpec(design="variance", amplitude=3.0, n_total=40000,
                         taus_star=(10000, 20000, 30000),
                         noise="scaled_normal", noise_param=0.5)
    ts, _ = generate(spec, 4)
    v = [ts.data[a:b].var() for a, b in [(0, 10000), (10000, 20000),
                                         (20000, 30000), (30000, 40000)]]
    for lo, hi in [(v[0], v[1]), (v[2], v[3])]:
        assert hi / lo == pytest.approx(9.0, rel=0.2)


def test_regression_design_consistency():
    spec = GeneratorSpec(design="regression", d=4, amplitude=1.0, n_total=2000,
                         taus_star=(1000,))
    ts, cov = generate(spec, 5)
    assert cov.shape == (2000, 4)
    # responses correlate with the covariate sum, sign flipping at the break
    first = np.corrcoef(ts.data[:1000, 0], cov[:1000].sum(axis=1))[0, 1]
    second = np.corrcoef(ts.data[1000:, 0], cov[1000:].sum(axis=1))[0, 1]
    assert first > 0.5 and second < -0.5


def test_spec_validation():
    with pytest.raises(SpecError):
        GeneratorSpec(design="cauchy")
    with pytest.raises(SpecError):
        GeneratorSpec(taus_star=(100, 100))
    with pytest.raises(SpecError):
        GeneratorSpec(taus_star=(0, 100))
    with pytest.raises(SpecError):
        GeneratorSpec(design="regression", m_dep=1)
    with pytest.raises(SpecError):
        GeneratorSpec(design="variance", d=2)
    for d in (0, -1):
        with pytest.raises(SpecError, match="d must be >= 1"):
            GeneratorSpec(d=d)


def test_single_run_report():
    spec = GeneratorSpec(n_total=200, taus_star=(100,), amplitude=3.0)
    rep = run_experiment(spec, runs=1, b_reps=50, seed=0,
                         detector=DetectorKind("sn", min_seg=5), k_max=3)
    assert rep.runs == 1
    rec = rep.records[0]
    assert rep.coverage == float(rec.covered)
    assert rep.mean_cardinality == rec.cardinality
    rows = rep.csv_rows()
    assert len(rows) == 1
    assert set(rows[0]) == {"run", "method", "detector", "A", "covered",
                            "cardinality", "copss_hit", "seconds"}


def test_experiment_deterministic_and_thread_safe():
    spec = GeneratorSpec(n_total=240, taus_star=(80, 160), amplitude=2.0)
    kw = dict(runs=4, b_reps=80, seed=9, detector=DetectorKind("sn"), k_max=3)
    rep1 = run_experiment(spec, **kw)
    rep2 = run_experiment(spec, **kw, threads=4)
    assert [r.members for r in rep1.records] == [r.members for r in rep2.records]
    assert [r.p_hat for r in rep1.records] == [r.p_hat for r in rep2.records]


def _table(criteria):
    crit = np.asarray(criteria, dtype=float)
    k = len(crit)
    return PValueTable(
        candidates=tuple(range(1, k + 1)),
        p_hat=np.ones(k),
        t_stat=np.zeros(k),
        criterion=crit,
        segmentations=(Segmentation(taus=(), n=10, min_seg=2),) * k,
        delta_hat=np.zeros((k, k)),
        n=10,
    )


def test_diagnostics_ranks():
    rows = diagnostics(_table([3.0, 1.0, 2.0]))
    assert [r["rank"] for r in rows] == [3, 1, 2]
    assert rows[1]["delta_to_min"] == 0.0
    assert rows[0]["delta_to_min"] == pytest.approx(2.0)


def test_diagnostics_ties_share_lower_rank():
    rows = diagnostics(_table([1.0, 1.0, 1.0]))
    assert [r["rank"] for r in rows] == [1, 1, 1]


def test_diagnostics_delta_matches_criterion_vector():
    crit = [2.5, 1.5, 4.0]
    rows = diagnostics(_table(crit))
    best = min(crit)
    for r, c in zip(rows, crit):
        assert r["delta_to_min"] == pytest.approx(c - best)


def test_multi_split_large_sample_coverage():
    spec = GeneratorSpec(n_total=1600, amplitude=0.75)
    rep = run_experiment(spec, method="ms", ms_l=2, runs=30, seed=0,
                         detector=DetectorKind("sn"))
    assert rep.coverage >= 0.80


def test_pure_noise_sets_are_wide():
    # with no signal every candidate fits equally well, so the sets stay wide
    spec = GeneratorSpec(amplitude=0.0)
    rep = run_experiment(spec, runs=20, seed=0, detector=DetectorKind("sn"))
    assert rep.mean_cardinality >= 2.0
