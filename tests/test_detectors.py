import itertools

import numpy as np
import pytest

from optics_cp import (
    CandidateSet,
    CostCache,
    DetectorKind,
    InfeasibleError,
    fit_all_candidates,
)
from optics_cp.detectors import _costs


def fit(kind, scores, k, min_seg):
    """The segmentation with k boundaries: ``fit_all_candidates``' entry k."""
    return fit_all_candidates(scores, CandidateSet(k), DetectorKind(kind, min_seg))[k]


def direct_sse(arr, a, b):
    block = np.atleast_2d(np.asarray(arr, dtype=float).T).T[a:b]
    centered = block - block.mean(axis=0)
    return float((centered * centered).sum())


def total_cost(arr, taus, n):
    bounds = (0,) + tuple(taus) + (n,)
    return sum(direct_sse(arr, a, b) for a, b in zip(bounds, bounds[1:]))


def brute_force_min(arr, k, min_seg):
    n = len(arr)
    best_cost, best_taus = np.inf, None
    positions = range(min_seg, n - min_seg + 1)
    for taus in itertools.combinations(positions, k):
        gaps = np.diff((0,) + taus + (n,))
        if gaps.min() < min_seg:
            continue
        cost = total_cost(arr, taus, n)
        if cost < best_cost:
            best_cost, best_taus = cost, taus
    return best_cost, best_taus


def test_segment_cost_constant_block():
    cache = CostCache.from_scores(np.zeros(3))
    assert _costs(cache, 0, 3) == 0.0


def test_segment_cost_two_points():
    cache = CostCache.from_scores(np.array([0.0, 2.0]))
    assert _costs(cache, 0, 2) == pytest.approx(2.0, abs=1e-12)


def test_segment_cost_matches_direct_sum():
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((10, 2))
    cache = CostCache.from_scores(arr)
    for a in range(10):
        for b in range(a + 1, 11):
            assert _costs(cache, a, b) == pytest.approx(
                direct_sse(arr, a, b), rel=1e-9, abs=1e-12
            )


def test_bs_single_obvious_break():
    scores = np.array([0.0, 0.0, 0.0, 2.0, 2.0, 2.0])
    seg = fit("bs", scores, 1, 2)
    assert seg.taus == (3,)


def test_bs_constant_input_smallest_index():
    seg = fit("bs", np.zeros(12), 1, 3)
    assert seg.taus == (3,)


def test_bs_matches_sn_for_single_break():
    rng = np.random.default_rng(1)
    for trial in range(20):
        arr = rng.standard_normal(30)
        bs = fit("bs", arr, 1, 3)
        sn = fit("sn", arr, 1, 3)
        assert bs.taus == sn.taus, trial


def test_bs_infeasible():
    with pytest.raises(InfeasibleError):
        fit("bs", np.zeros(10), 3, 3)


def test_sn_simple_exact_fits():
    seg = fit("sn", np.array([0.0, 0, 0, 1, 1, 1]), 1, 2)
    assert seg.taus == (3,)
    seg = fit("sn", np.array([0.0, 0, 1, 1, 0, 0]), 2, 2)
    assert seg.taus == (2, 4)


def test_sn_matches_brute_force():
    rng = np.random.default_rng(2)
    for trial in range(30):
        n = int(rng.integers(10, 15))
        arr = rng.standard_normal(n)
        k = int(rng.integers(1, 4))
        if n < (k + 1) * 2:
            continue
        seg = fit("sn", arr, k, 2)
        bf_cost, bf_taus = brute_force_min(arr, k, 2)
        sn_cost = total_cost(arr, seg.taus, n)
        assert sn_cost == pytest.approx(bf_cost, rel=1e-9, abs=1e-9)


def test_sn_exhaustive_pairs_small_instance():
    rng = np.random.default_rng(3)
    arr = rng.standard_normal(14)
    seg = fit("sn", arr, 2, 2)
    bf_cost, bf_taus = brute_force_min(arr, 2, 2)
    assert total_cost(arr, seg.taus, 14) == pytest.approx(bf_cost, rel=1e-9)


def test_fit_all_noiseless_two_breaks():
    scores = np.concatenate([np.zeros(8), np.ones(8), np.full(8, 3.0)])
    segs = fit_all_candidates(scores, CandidateSet(2), DetectorKind("sn", min_seg=3))
    assert segs[2].taus == (8, 16)
    assert segs[1].taus == (16,)  # the larger jump wins the single split


def test_sn_cost_non_increasing_in_k():
    rng = np.random.default_rng(4)
    arr = rng.standard_normal(40)
    segs = fit_all_candidates(arr, CandidateSet(4), DetectorKind("sn", min_seg=3))
    costs = [total_cost(arr, segs[k].taus, 40) for k in range(1, 5)]
    assert all(c1 >= c2 - 1e-9 for c1, c2 in zip(costs, costs[1:]))


def test_sn_never_worse_than_bs():
    rng = np.random.default_rng(5)
    for trial in range(100):
        arr = rng.standard_normal(36)
        k = int(rng.integers(1, 4))
        sn = fit("sn", arr, k, 3)
        bs = fit("bs", arr, k, 3)
        assert (
            total_cost(arr, sn.taus, 36)
            <= total_cost(arr, bs.taus, 36) + 1e-9
        ), trial


def test_outputs_satisfy_spacing_invariants():
    rng = np.random.default_rng(6)
    arr = rng.standard_normal(50)
    for kind in ("bs", "sn"):
        segs = fit_all_candidates(arr, CandidateSet(4), DetectorKind(kind, min_seg=5))
        for k, seg in segs.items():
            assert seg.k == k
            gaps = np.diff((0,) + seg.taus + (50,))
            assert gaps.min() >= 5


def test_coordinate_permutation_invariance():
    rng = np.random.default_rng(7)
    arr = rng.standard_normal((40, 3))
    shuffled = arr[:, [2, 0, 1]]
    for kind in ("bs", "sn"):
        a = fit_all_candidates(arr, CandidateSet(3), DetectorKind(kind, min_seg=4))
        b = fit_all_candidates(shuffled, CandidateSet(3), DetectorKind(kind, min_seg=4))
        for k in a:
            assert a[k].taus == b[k].taus


def test_fit_all_names_first_infeasible_candidate():
    with pytest.raises(InfeasibleError, match="K=3"):
        fit_all_candidates(np.zeros(11), CandidateSet(3), DetectorKind("sn", min_seg=3))


def test_detector_kind_validation():
    with pytest.raises(ValueError):
        DetectorKind("pelt")
    with pytest.raises(ValueError):
        DetectorKind("sn", min_seg=1)


# --- blocked DP against the per-end-point reference ---------------------------

def _sn_tables_per_t(cache, k_max, min_seg):
    """The DP one end point t at a time: segment costs ending at t, then
    one argmin per layer.  The reference for the blocked ``_sn_tables``.
    Squared coordinates are summed left to right, the order the package
    fixes; ``np.sum`` would add eight or more of them pairwise."""
    n = cache.n
    cost = np.full((k_max + 1, n + 1), np.inf)
    back = np.zeros((k_max + 1, n + 1), dtype=np.int64)
    for t in range(1, n + 1):
        diff = cache.cum[t] - cache.cum[:t]
        sq = cache.cum_sq[t] - cache.cum_sq[:t]
        lengths = t - np.arange(t)
        sq_dist = diff[:, 0] * diff[:, 0]
        for k in range(1, cache.d_p):
            sq_dist = sq_dist + diff[:, k] * diff[:, k]
        col = np.maximum(sq - sq_dist / lengths, 0.0)
        if t >= min_seg:
            cost[0, t] = col[0]
        for j in range(1, min(k_max, t // min_seg - 1) + 1):
            lo, hi = j * min_seg, t - min_seg
            window = cost[j - 1, lo : hi + 1] + col[lo : hi + 1]
            i = int(np.argmin(window))
            cost[j, t] = window[i]
            back[j, t] = lo + i
    return cost, back


def _dp_data(kind, n, d_p, rng):
    if kind == "random":
        return rng.standard_normal((n, d_p)) * 10.0 ** rng.uniform(-3, 3)
    if kind == "integer":  # many exactly tied segment costs
        return rng.integers(-2, 3, size=(n, d_p)).astype(float)
    return np.zeros((n, d_p))


@pytest.fixture
def prune_always(monkeypatch):
    """Every size of series takes the pruned path of ``_sn_tables``."""
    from optics_cp import detectors

    monkeypatch.setattr(detectors, "_SN_PRUNE_FROM", 0)


def _steps(n, d_p, offset, rng, every=150):
    """Unit noise around steps of +-3 that change every ``every`` points, at ``offset``."""
    level = 3.0 * (-1.0) ** (np.arange(n) // every)
    return offset + level[:, None] + rng.standard_normal((n, d_p))


def _uncentered(x):
    """A CostCache on the prefix sums of ``x`` itself, not of ``x`` less its
    mean: at a large offset their rounding makes segment costs negative."""
    arr = np.asarray(x, dtype=float).reshape(len(x), -1)
    n, d_p = arr.shape
    cum, cum_sq = np.zeros((n + 1, d_p), order="F"), np.zeros(n + 1)
    np.cumsum(arr, axis=0, out=cum[1:])
    np.cumsum(np.sum(arr * arr, axis=1), out=cum_sq[1:])
    return CostCache(cum=cum, cum_sq=cum_sq, n=n, d_p=d_p)


@pytest.mark.parametrize("kind", ["random", "integer", "zero"])
@pytest.mark.parametrize("d_p", [1, 2, 6, 9])
@pytest.mark.parametrize("min_seg", [2, 5, 20])
def test_blocked_sn_tables_match_per_t_reference(monkeypatch, prune_always, kind, d_p, min_seg):
    from optics_cp import detectors
    from optics_cp.detectors import _sn_tables

    rng = np.random.default_rng([d_p, min_seg, len(kind)])
    default = detectors._SN_BLOCK_MAX_ROWS
    for n, k_max in ((4 * min_seg + 1, 3), (131, 9), (203, 5)):
        cache = CostCache.from_scores(_dp_data(kind, n, d_p, rng))
        want = _sn_tables_per_t(cache, k_max, min_seg)
        # one row per block; rows just under, at and over min_seg; the default.  The
        # byte budget holds more rows of these widths, so every block has them all
        for rows in (1, min_seg - 1, min_seg, min_seg + 1, 7, default):
            monkeypatch.setattr(detectors, "_SN_BLOCK_MAX_ROWS", rows)
            cost, back = _sn_tables(cache, k_max, min_seg)
            assert np.array_equal(cost, want[0]), (n, k_max, rows)
            assert np.array_equal(back, want[1]), (n, k_max, rows)


@pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
@pytest.mark.parametrize("d_p", [1, 6])
def test_pruned_sn_tables_match_per_t_reference_on_steps(monkeypatch, prune_always, offset, d_p):
    # steps prune most columns; at a large offset the segment costs on uncentered
    # sums are mostly their rounding, which the bound's slack must cover
    from optics_cp import detectors
    from optics_cp.detectors import _sn_tables

    rng = np.random.default_rng([d_p, int(offset) % 1000])
    for n, k_max, min_seg, every in ((900, 9, 5, 150), (800, 6, 2, 150), (1100, 7, 20, 250),
                                     (1300, 4, 70, 300)):
        cache = _uncentered(_steps(n, d_p, offset, rng, every))
        want = _sn_tables_per_t(cache, k_max, min_seg)
        # the default budget, 7 rows and one row per block; at most 64, 7 or 1 rows
        for rows, most in itertools.product((None, 7, 1), (64, 7, 1)):
            budget = 8 * (n + 1 - min_seg) * rows if rows else 1 << 20
            monkeypatch.setattr(detectors, "_SN_BLOCK_BYTES", budget)
            monkeypatch.setattr(detectors, "_SN_BLOCK_MAX_ROWS", most)
            cost, back = _sn_tables(cache, k_max, min_seg)
            assert np.array_equal(cost, want[0]), (n, k_max, rows, most)
            assert np.array_equal(back, want[1]), (n, k_max, rows, most)


@pytest.mark.parametrize("d_p", [1, 2])
def test_sn_tables_test_every_block_of_noise_and_match_per_t_reference(monkeypatch, d_p):
    # pure noise at the default crossover, where the bound drops few groups: every
    # block that starts with a whole group below its rows is tested.  The first of
    # them starts within _SN_BLOCK_MAX_ROWS end points of ``first``, and each has
    # at most that many rows, which bounds the number of tests from below
    from optics_cp import detectors

    n, k_max, min_seg = 2500, 6, 5
    assert n >= detectors._SN_PRUNE_FROM
    cache = CostCache.from_scores(np.random.default_rng([d_p, 9]).standard_normal((n, d_p)))
    live, tested = detectors._sn_live, []

    def counting(*args):
        tested.append(args[3][0])
        return live(*args)

    monkeypatch.setattr(detectors, "_sn_live", counting)
    cost, back = detectors._sn_tables(cache, k_max, min_seg)
    first = detectors._SN_GROUP + min_seg - 1  # the first end point with a group below
    assert len(tested) >= (n - first) // detectors._SN_BLOCK_MAX_ROWS
    want = _sn_tables_per_t(cache, k_max, min_seg)
    assert np.array_equal(cost, want[0]) and np.array_equal(back, want[1])


def test_sn_tables_prune_most_cells_of_steps(monkeypatch):
    # at the default crossover: a bound that never fires, or a test
    # that never runs, would keep every window cell, and a group's least
    # cost[j - 1] plus its least C(s, u) in place of their least sum keeps 29%
    from optics_cp import detectors
    from optics_cp.detectors import _sn_tables

    n, k_max, min_seg = 4000, 7, 5
    cache = CostCache.from_scores(_steps(n, 1, 0.0, np.random.default_rng(5), every=800))
    cells = []

    class Counting:  # numpy, with each argmin's window size noted
        def __getattr__(self, name):
            return getattr(np, name)

        def argmin(self, a, axis=None):
            cells.append(a.size)
            return np.argmin(a, axis=axis)

    monkeypatch.setattr(detectors, "np", Counting())
    cost, back = _sn_tables(cache, k_max, min_seg)
    monkeypatch.undo()
    admissible = sum(t - (j + 1) * min_seg + 1 for j in range(1, k_max + 1)
                     for t in range((j + 1) * min_seg, n + 1))
    assert sum(cells) < 0.25 * admissible
    want = _sn_tables_per_t(cache, k_max, min_seg)
    assert np.array_equal(cost, want[0]) and np.array_equal(back, want[1])


def test_sn_pruning_bound_holds_where_rounded_prefix_sums_break_monotonicity():
    # uncentered, a constant run of this value rounds its prefix sums so that
    # the stored sums make the cost of some (s, u] inside a group of columns,
    # u its last, below minus 1.5 times the slack.  With cost[j - 1] = 0 each
    # window entry is max(C(s, t), 0), each group's reach is its least C(s, u),
    # and the group of the entry UB is taken at can never be dead
    from optics_cp.detectors import _SN_GROUP, _sn_live

    x = np.full(2283, 147353655.86465922)
    x[1983:] += np.random.default_rng(1).standard_normal(300) * 120
    cache = _uncentered(x)
    n, k_max, g = len(x), 2, _SN_GROUP
    cols = np.arange((n - 4) // g * g)
    with np.errstate(invalid="ignore"):  # s = u gives 0 / 0, C(u, u) = 0
        raw = np.nan_to_num(_costs(cache, cols, cols | (g - 1), -np.inf)).reshape(-1, g)
    reach = np.tile(raw.min(axis=1), (k_max, 1))
    assert reach.min() < -1.5 * 6 * 8 * np.finfo(float).eps * cache.cum_sq[1983]
    cost, back = np.zeros((k_max + 1, n + 1)), np.zeros((k_max + 1, n + 1), dtype=np.int64)
    for t0 in (2000, 2100, 2200):
        ng = (t0 - 4) // g
        for s in range(0, ng * g, 7):
            back[1:, t0 - 1] = s
            live = _sn_live(cache, cost, back, np.arange(t0, t0 + 64), reach[:, :ng])
            assert live[:, s // g].all(), (t0, s)


def test_sn_pruning_bound_does_not_clamp_the_cost_from_a_groups_last_column():
    # the bound holds on any stored sums, so also where C(u, t) < 0, as rounded
    # sums can make it.  With S[k] = c k a line and Q[k] = c^2 k + q[k], each
    # C(s, t) is q[t] - q[s], exactly: q rises by 1 up to u = 63, the last column
    # of group 0, and falls by 1,000 after it.  So for t > u every window entry
    # of the group is cost[0, s] + max(C(s, t), 0) = cost[0, s], UB = 0 is one,
    # and reach = 1, at s = u - 1.  A clamped C(u, t) would make the bound 1 > UB
    from optics_cp.detectors import _sn_live

    n, c, u = 200, 1000.0, 63
    k = np.arange(n + 1.0)
    cum_sq = c * c * k + np.where(k <= u, k, u - 1000.0)
    cache = CostCache(cum=(c * k)[:, None], cum_sq=cum_sq, n=n, d_p=1)
    ts = np.arange(140, 150)
    assert _costs(cache, u - 1, u) == 1.0 and _costs(cache, u, ts, -np.inf).max() == -1000.0
    cost, back = np.zeros((2, n + 1)), np.zeros((2, n + 1), dtype=np.int64)
    cost[0, u], back[1, ts[0] - 1] = 10.0, 10
    assert _sn_live(cache, cost, back, ts, np.array([[1.0]]))[0, 0]


@pytest.mark.parametrize("kind", ["random", "integer", "zero"])
@pytest.mark.parametrize("d_p", [1, 2, 6, 9])
@pytest.mark.parametrize("min_seg", [2, 5, 20])
def test_fit_all_candidates_top_layer_matches_full_table(prune_always, kind, d_p, min_seg):
    # fit_all_candidates fills layers below k_max and evaluates k_max at t = n only
    from optics_cp.detectors import _sn_tables

    rng = np.random.default_rng([d_p, min_seg, len(kind), 1])
    for n, k_max in ((2 * min_seg, 1), (4 * min_seg + 1, 3), (131, 1), (131, 9), (203, 5)):
        k_max = min(k_max, n // min_seg - 1)  # the most boundaries that fit
        x = _dp_data(kind, n, d_p, rng)
        _, back = _sn_tables(CostCache.from_scores(x), k_max, min_seg)
        segs = fit_all_candidates(x, CandidateSet(k_max), DetectorKind("sn", min_seg))
        assert sorted(segs) == list(range(1, k_max + 1))
        for k, seg in segs.items():
            taus, t = [], n
            for j in range(k, 0, -1):
                t = int(back[j, t])
                taus.append(t)
            assert seg.taus == tuple(reversed(taus)), (n, k_max, k)


@pytest.mark.parametrize("d_p", [1, 2, 6, 9])
def test_sn_first_layer_is_costs_bitwise(prune_always, d_p):
    # the DP table and _costs share one order of the coordinate sum
    from optics_cp.detectors import _sn_tables

    rng = np.random.default_rng([d_p, 2])
    n, min_seg = 157, 5
    for x in (rng.standard_normal((n, d_p)) * 10.0 ** rng.uniform(-3, 3, size=d_p),
              rng.integers(-2, 3, size=(n, d_p)).astype(float)):
        cache = CostCache.from_scores(x)
        cost, _ = _sn_tables(cache, 2, min_seg)
        ts = np.arange(min_seg, n + 1)
        assert np.array_equal(cost[0, ts], _costs(cache, 0, ts))
        for t in ts:
            assert cost[0, t] == _costs(cache, 0, t), t


def test_blocked_sn_tables_short_series():
    from optics_cp.detectors import _sn_tables

    for n in range(1, 12):
        cache = CostCache.from_scores(np.arange(n, dtype=float) % 3)
        for k_max in (1, 4):
            want = _sn_tables_per_t(cache, k_max, 5)
            cost, back = _sn_tables(cache, k_max, 5)
            assert np.array_equal(cost, want[0]) and np.array_equal(back, want[1])


def test_sn_tables_scratch_is_bounded():
    import tracemalloc

    from optics_cp import detectors
    from optics_cp.detectors import _sn_tables

    n, k_max = 8000, 8
    # the two returned tables, at most three scratch buffers of one budget
    # whatever d_p is (two are used: C, which also takes each further
    # coordinate's squares and, packed, the lengths, and a temporary that
    # takes the squared distances and then serves as the window; the third
    # holds the column indices and the pruning test's (layers, rows, groups)
    # bound arrays, about 0.6 MB here), the (n + 1) float lengths, and
    # 256 KiB of transients: numpy's iterator buffers for a ufunc with
    # broadcast inputs (8,192 elements for each of two operands, 128 KiB)
    # plus the per-block row vectors, the row indices and the row mask.
    # Sized per block without the budget (64 rows of 8,000), the buffers
    # alone would take 12 MiB.
    tables = 2 * (k_max + 1) * (n + 1) * 8
    bound = tables + 3 * detectors._SN_BLOCK_BYTES + (n + 1) * 8 + (256 << 10)
    rng = np.random.default_rng(8)
    for d_p, steps in itertools.product((1, 6), (False, True)):  # nothing pruned, then packed
        x = _steps(n, d_p, 0.0, rng, every=1000) if steps else rng.standard_normal((n, d_p))
        cache = CostCache.from_scores(x)
        tracemalloc.start()
        try:
            _sn_tables(cache, k_max, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (d_p, steps, peak)


@pytest.mark.parametrize("d_p", [1, 6])
def test_segmentations_do_not_move_with_a_shift_of_the_scores(prune_always, d_p):
    # the costs' prefix sums are of the scores less their mean, so a shift
    # by 1e8 rounds the data by about 1e-8 and leaves the segmentations alone
    x = _steps(1200, d_p, 0.0, np.random.default_rng([d_p, 3]), every=300)
    for kind in ("sn", "bs"):
        want = fit_all_candidates(x, CandidateSet(5), DetectorKind(kind))
        assert want[3].taus == (300, 600, 900), kind
        for offset in (1e4, 1e8):
            got = fit_all_candidates(x + offset, CandidateSet(5), DetectorKind(kind))
            assert {k: seg.taus for k, seg in got.items()} == \
                {k: seg.taus for k, seg in want.items()}, (kind, offset)
