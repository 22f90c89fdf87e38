"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

The Monte Carlo criteria use fixed seeds; reports are shared through
module-scoped fixtures so paired comparisons see identical datasets.
"""

import itertools
import time

import numpy as np
import pytest

from optics_cp import (
    BootstrapConfig,
    CandidateSet,
    DetectorKind,
    GeneratorSpec,
    HuberConfig,
    PRESETS,
    ScoreModel,
    TimeSeries,
    cauchy_combine,
    confidence_set,
    h_optics,
    huber_loss,
    m_optics,
    ms_optics,
    optics,
    run_experiment,
    segment_neighborhood,
)

SEED = 0


def report_line(criterion, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:>2} [{name}]: {status} ({detail})")
    return ok


def _preset_detector(name):
    return DetectorKind("sn", min_seg=PRESETS[name]["min_seg"])


@pytest.fixture(scope="module")
def tab1_report():
    return run_experiment(PRESETS["tab1"]["spec"], method="optics",
                          detector=_preset_detector("tab1"), runs=100, seed=SEED)


@pytest.fixture(scope="module")
def heavy_tail_pair():
    spec = PRESETS["coverage_ro"]["spec"]
    det = _preset_detector("coverage_ro")
    hub = run_experiment(spec, method="huber", detector=det, runs=100, seed=SEED,
                         huber=HuberConfig(kappa=1.5))
    plain = run_experiment(spec, method="optics", detector=det, runs=100, seed=SEED)
    return hub, plain


@pytest.fixture(scope="module")
def dependent_pair():
    spec = PRESETS["vary_m"]["spec"]
    det = _preset_detector("vary_m")
    t0 = time.perf_counter()
    mdep = run_experiment(spec, method="mdep", detector=det, runs=50, seed=SEED)
    plain = run_experiment(spec, method="optics", detector=det, runs=50, seed=SEED)
    return mdep, plain, time.perf_counter() - t0


# --- criterion 1: exact detector vs exhaustive search ---------------------

def _direct_cost(arr, taus, n):
    bounds = (0,) + tuple(taus) + (n,)
    total = 0.0
    for a, b in zip(bounds, bounds[1:]):
        block = arr[a:b]
        centered = block - block.mean(axis=0)
        total += float((centered * centered).sum())
    return total


def test_criterion_01_exact_detector_matches_brute_force():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(200):
        n = int(rng.integers(10, 17))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        min_seg = 2
        if n < (k + 1) * min_seg:
            k = 1
        arr = rng.standard_normal((n, d))
        seg = segment_neighborhood(arr, k=k, min_seg=min_seg)
        best_cost, minimizers = np.inf, []
        for taus in itertools.combinations(range(min_seg, n - min_seg + 1), k):
            if np.diff((0,) + taus + (n,)).min() < min_seg:
                continue
            cost = _direct_cost(arr, taus, n)
            if cost < best_cost - 1e-12:
                best_cost, minimizers = cost, [taus]
            elif cost <= best_cost + 1e-12:
                minimizers.append(taus)
        got = _direct_cost(arr, seg.taus, n)
        assert got <= best_cost * (1 + 1e-9) + 1e-12
        if len(minimizers) == 1:
            assert seg.taus == minimizers[0]
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 200 and elapsed < 10.0
    assert report_line(1, "SN equals brute force on 200 instances", ok,
                       f"{checked} instances, {elapsed:.1f}s")


# --- criterion 2: algebraic identity ---------------------------------------

def _random_pipeline(rng, n_obs=80, k_max=3, b=25):
    d = int(rng.integers(1, 3))
    mu = np.repeat(rng.normal(size=(4, d)), n_obs // 4, axis=0)
    ts = TimeSeries(mu + rng.standard_normal((n_obs, d)))
    kind = DetectorKind("sn" if rng.integers(2) else "bs", min_seg=5)
    cfg = BootstrapConfig(b_reps=b, seed=int(rng.integers(1 << 30)))
    return optics(ts, ScoreModel("mean"), kind, CandidateSet(k_max), 0.1, cfg)


def test_criterion_02_delta_identity():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    for _ in range(100):
        _, table = _random_pipeline(rng)
        d = table.delta_hat
        for i in range(len(table.candidates)):
            for j in range(len(table.candidates)):
                gap = table.criterion[i] - table.criterion[j]
                assert abs(d[i, j] - gap) < 1e-10
                assert abs(d[i, j] + d[j, i]) < 1e-10
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    assert report_line(2, "delta equals criterion gap, antisymmetric", ok,
                       f"100 pipelines, {elapsed:.1f}s")


# --- criterion 3: studentization invariance ---------------------------------

def test_criterion_03_scale_invariance_bitwise():
    rng = np.random.default_rng(SEED)
    for trial in range(20):
        d = int(rng.integers(1, 3))
        mu = np.repeat(rng.normal(size=(4, d)), 30, axis=0)
        data = mu + rng.standard_normal((120, d))
        kind = DetectorKind("sn" if trial % 2 else "bs", min_seg=5)
        cfg = BootstrapConfig(b_reps=150, seed=trial)
        m = CandidateSet(4)
        cs1, t1 = optics(TimeSeries(data), ScoreModel("mean"), kind, m, 0.1, cfg)
        cs2, t2 = optics(TimeSeries(data * 3.7), ScoreModel("mean"), kind, m, 0.1, cfg)
        assert np.array_equal(t1.t_stat, t2.t_stat), trial
        assert np.array_equal(t1.p_hat, t2.p_hat), trial
        assert cs1.members == cs2.members, trial
    assert report_line(3, "scaling by 3.7 leaves T and p bit-identical", True,
                       "20 pipelines")


# --- criterion 4: reduction identities --------------------------------------

def test_criterion_04_reduction_identities():
    for p in np.linspace(0.01, 0.99, 99):
        assert abs(cauchy_combine([p]) - p) <= 1e-12

    rng = np.random.default_rng(SEED)
    for trial in range(10):
        mu = np.repeat(rng.normal(size=4), 30)
        ts = TimeSeries(mu + rng.standard_normal(120))
        kind = DetectorKind("sn", min_seg=5)
        m = CandidateSet(4)
        cfg = BootstrapConfig(b_reps=120, seed=trial)
        cs0, t0 = optics(ts, ScoreModel("mean"), kind, m, 0.1, cfg)

        cs_ms, t_ms = ms_optics(ts, ScoreModel("mean"), kind, m, 0.1, cfg, L=1)
        assert cs_ms.members == cs0.members
        assert np.array_equal(t_ms.p_hat, t0.p_hat)
        assert np.array_equal(t_ms.t_stat, t0.t_stat)
        assert np.array_equal(t_ms.criterion, t0.criterion)

        cs_m, t_m = m_optics(ts, ScoreModel("mean"), kind, m, 0.1, cfg, m_dep=0)
        assert cs_m.members == cs0.members
        assert np.array_equal(t_m.p_hat, t0.p_hat)

        # large threshold collapses the robust fit to half the squared norm,
        # which cancels in studentization; statistics and p-values match bitwise
        cs_h, t_h = h_optics(ts, ScoreModel("mean"), kind, m, 0.1, cfg,
                             h=HuberConfig(kappa=1e6))
        assert cs_h.members == cs0.members
        assert np.array_equal(t_h.p_hat, t0.p_hat)
        assert np.array_equal(t_h.t_stat, t0.t_stat)
    assert report_line(4, "single-split, zero-order, huge-threshold reductions", True,
                       "99-point grid to 1e-12; 10 bit-identical reproductions")


# --- criteria 5-9: coverage tables ------------------------------------------

def test_criterion_05_heavier_tail_mean_table():
    t0 = time.perf_counter()
    rep = run_experiment(PRESETS["tab2"]["spec"], method="optics",
                         detector=_preset_detector("tab2"), runs=100, seed=SEED)
    elapsed = time.perf_counter() - t0
    ok = rep.coverage >= 0.92 and 1.8 <= rep.mean_cardinality <= 4.0 and elapsed < 300
    assert report_line(5, "t(10) mean design, A=1.0, SN", ok,
                       f"coverage={rep.coverage:.2f} card={rep.mean_cardinality:.2f} "
                       f"{elapsed:.0f}s")


def test_criterion_06_normal_mean_table(tab1_report):
    rep = tab1_report
    ok = rep.coverage >= 0.93 and rep.mean_cardinality <= 3.5
    assert report_line(6, "normal mean design, A=1.0, SN", ok,
                       f"coverage={rep.coverage:.2f} card={rep.mean_cardinality:.2f}")


def test_criterion_07_point_estimate_baseline(tab1_report):
    rep = tab1_report
    ok = rep.copss_hit_rate >= 0.75
    assert report_line(7, "criterion-minimizer baseline hit rate", ok,
                       f"hit_rate={rep.copss_hit_rate:.2f}")


def test_criterion_08_regression_table():
    t0 = time.perf_counter()
    rep = run_experiment(PRESETS["tab7"]["spec"], method="optics",
                         detector=_preset_detector("tab7"), runs=100, seed=SEED)
    elapsed = time.perf_counter() - t0
    ok = rep.coverage >= 0.88 and rep.mean_cardinality <= 3.0 and elapsed < 480
    assert report_line(8, "regression breaks, t(10), A=0.2, SN", ok,
                       f"coverage={rep.coverage:.2f} card={rep.mean_cardinality:.2f} "
                       f"{elapsed:.0f}s")


def test_criterion_09_variance_table():
    rep = run_experiment(PRESETS["tab5"]["spec"], method="optics",
                         detector=_preset_detector("tab5"), runs=100, seed=SEED)
    ok = rep.coverage >= 0.90
    assert report_line(9, "variance design, A=4, SN", ok,
                       f"coverage={rep.coverage:.2f} card={rep.mean_cardinality:.2f}")


# --- criterion 10: robust variant under heavy tails --------------------------

def test_criterion_10_robust_variant_heavy_tails(heavy_tail_pair):
    hub, plain = heavy_tail_pair
    ok_cov = hub.coverage >= 0.80
    ok_card = hub.mean_cardinality < plain.mean_cardinality
    report_line(10, "Huber coverage under t(1)", ok_cov,
                f"coverage={hub.coverage:.2f}")
    report_line(10, "Huber cardinality strictly below plain", ok_card,
                f"{hub.mean_cardinality:.2f} vs {plain.mean_cardinality:.2f}")
    assert ok_cov and ok_card


# --- criterion 11: dependent errors -----------------------------------------

def test_criterion_11_dependent_errors(dependent_pair):
    mdep, plain, elapsed = dependent_pair
    ok_m = mdep.coverage >= 0.85
    ok_p = plain.coverage <= 0.60
    report_line(11, "(m+1)-split coverage under MA(2)", ok_m,
                f"coverage={mdep.coverage:.2f}")
    report_line(11, "plain pipeline collapses under MA(2)", ok_p,
                f"coverage={plain.coverage:.2f}, expected <= 0.60")
    assert elapsed < 600
    assert ok_m and ok_p


# --- criterion 12: property suite --------------------------------------------

def test_criterion_12_property_suite():
    rng = np.random.default_rng(SEED)

    # non-emptiness and p-value granularity on 25 random pipelines,
    # including pure-noise inputs where every candidate fits equally well
    for trial in range(25):
        amp = 0.0 if trial % 3 == 0 else float(rng.uniform(0.3, 2.0))
        mu = np.repeat([amp, -amp, amp, -amp], 30)
        ts = TimeSeries(mu + rng.standard_normal(120))
        cfg = BootstrapConfig(b_reps=40, seed=trial)
        cs, table = optics(ts, ScoreModel("mean"), DetectorKind("sn"),
                           CandidateSet(3), 0.1, cfg)
        assert len(cs.members) >= 1
        counts = table.p_hat * 40
        assert np.allclose(counts, np.round(counts), atol=1e-9)

        # alpha monotonicity before the non-empty fallback
        ladder = [confidence_set(table, a) for a in (0.05, 0.1, 0.25, 0.6)]
        for lo, hi in zip(ladder, ladder[1:]):
            if not hi.fallback_used:
                assert set(hi.members) <= set(lo.members)

    # determinism across thread counts, which set the Monte Carlo process count
    spec = GeneratorSpec(n_total=200, taus_star=(50, 100, 150), amplitude=1.0)
    kw = dict(runs=4, b_reps=200, seed=13, detector=DetectorKind("sn"), k_max=4)
    rep1 = run_experiment(spec, **kw, threads=1)
    rep4 = run_experiment(spec, **kw, threads=4)
    assert [r.members for r in rep1.records] == [r.members for r in rep4.records]
    assert [r.p_hat for r in rep1.records] == [r.p_hat for r in rep4.records]
    assert rep1.summary() == rep4.summary()

    # Huber loss is continuously differentiable: central differences match
    # the clipped-identity gradient at 1e-6
    h = 1e-6
    for u in np.linspace(-4.0, 4.0, 33):
        grad = (huber_loss(u + h, 1.5) - huber_loss(u - h, 1.5)) / (2 * h)
        psi = u if abs(u) <= 1.5 else 1.5 * np.sign(u)
        assert abs(grad - psi) <= 1e-6

    assert report_line(12, "non-emptiness, p-grid, alpha-monotone, threads, C1", True,
                       "all properties hold")
