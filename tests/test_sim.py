import os
import threading

import numpy as np
import pytest

from optics_cp import (
    PRESETS,
    DetectorKind,
    DomainError,
    GeneratorSpec,
    HuberConfig,
    OpticsError,
    SpecError,
    diagnostics,
    generate,
    run_experiment,
)
from optics_cp import sim

from conftest import child_count
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


def _preset_experiment(name, threads, runs=5):
    p = PRESETS[name]
    return run_experiment(p["spec"], method=p["method"],
                          detector=DetectorKind("sn", min_seg=p["min_seg"]),
                          b_reps=200, runs=runs, seed=21, ms_l=2,
                          huber=HuberConfig(kappa=1.5), threads=threads)


def _without_seconds(report):
    return [{**vars(r), "seconds": None} for r in report.records]


@pytest.mark.parametrize("preset", ["tab1", "tab7", "coverage_ro", "vary_n"])
def test_experiment_identical_across_process_counts(preset):
    # 5 runs over 2 and 3 processes: the caller and the workers take unequal shares
    reports = [_preset_experiment(preset, threads) for threads in (1, 2, 3)]
    for rep in reports[1:]:
        assert _without_seconds(rep) == _without_seconds(reports[0])
        assert rep.summary() == reports[0].summary()
    assert [r.run for r in reports[2].records] == list(range(5))


_SPEC = GeneratorSpec(n_total=200, taus_star=(100,), amplitude=2.0)
_KW = dict(b_reps=50, seed=0, detector=DetectorKind("sn"), k_max=2)


def test_worker_processes_bounded_by_threads(fresh_pool, monkeypatch):
    seen = []
    real = sim._run_variant

    def counting(*args, **kwargs):
        if os.getpid() == caller:
            seen.append((threads, child_count()))
        return real(*args, **kwargs)

    caller = os.getpid()
    monkeypatch.setattr(sim, "_run_variant", counting)
    for threads, runs in ((3, 6), (2, 4), (4, 2), (1, 3), (3, 1), (2, 5)):
        run_experiment(_SPEC, runs=runs, threads=threads, **_KW)
        assert child_count() == min(threads, runs) - 1
    assert seen and all(count <= threads - 1 for threads, count in seen)


def test_worker_error_is_the_serial_error(fresh_pool, monkeypatch):
    real = sim._run_variant

    def failing(ts, model, kind, m, alpha, cfg, **kwargs):
        if cfg.seed >= 1:  # seed 0 XOR i: every run but run 0
            raise DomainError(f"run {cfg.seed} failed")
        return real(ts, model, kind, m, alpha, cfg, **kwargs)

    monkeypatch.setattr(sim, "_run_variant", failing)
    for threads in (1, 2, 3):
        with pytest.raises(DomainError, match=r"^run 1 failed$"):
            run_experiment(_SPEC, runs=4, threads=threads, **_KW)
    # the workers report their failures and stay for the next call
    assert len(sim._workers) == 2 and child_count() == 2


def test_dead_worker_discards_pool(fresh_pool, monkeypatch):
    real = sim._run_variant
    caller = os.getpid()

    def dying(ts, model, kind, m, alpha, cfg, **kwargs):
        if cfg.seed == 1 and os.getpid() != caller:  # the worker of run 1 dies
            os._exit(1)
        return real(ts, model, kind, m, alpha, cfg, **kwargs)

    monkeypatch.setattr(sim, "_run_variant", dying)
    with pytest.raises(OpticsError, match=r"worker process \d+ died"):
        run_experiment(_SPEC, runs=6, threads=3, **_KW)
    assert not sim._workers and child_count() == 0
    monkeypatch.setattr(sim, "_run_variant", real)
    assert run_experiment(_SPEC, runs=3, threads=2, **_KW).runs == 3


def test_concurrent_calls_share_workers_safely(fresh_pool):
    # more calling threads than cores, all on the one cached pool; the first
    # started has the most runs, so unserialized calls would read others' replies
    seeds = (1, 2, 3, 4)

    def kw(s):
        return dict(_KW, seed=s, runs=2 * (5 - s))

    serial = {s: _without_seconds(run_experiment(_SPEC, **kw(s))) for s in seeds}
    results = {}

    def call(s):
        results[s] = _without_seconds(run_experiment(_SPEC, threads=2, **kw(s)))

    callers = [threading.Thread(target=call, args=(s,)) for s in seeds]
    for t in callers:
        t.start()
    for t in callers:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in callers)
    assert results == serial


def test_forked_child_leaves_workers_alone(fresh_pool):
    run_experiment(_SPEC, runs=3, threads=3, **_KW)
    pids = [w[0] for w in sim._workers]
    child = os.fork()
    if child == 0:
        # what the child's exit handlers would do: a no-op, the workers are not its own
        code = 1
        try:
            sim._stop_workers()
            code = 0
        finally:
            os._exit(code)
    assert os.waitpid(child, 0)[1] == 0
    assert [w[0] for w in sim._workers] == pids and child_count() == 2
    assert run_experiment(_SPEC, runs=3, threads=3, **_KW).runs == 3


def test_threads_below_one_rejected():
    with pytest.raises(SpecError, match="threads"):
        run_experiment(_SPEC, runs=1, threads=0, **_KW)


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
