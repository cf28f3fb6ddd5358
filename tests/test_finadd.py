"""Tests for finitely-additive measures over induction paths.

Frozen values were cross-checked against independent oracles: direct O(N)
orbit sums, vertical-flow return-time simulation, Monte Carlo surface
integrals, and exact rational arithmetic.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.random import default_rng

from ietlab import rauzy
from ietlab.errors import (
    DomainError,
    InsufficientRange,
    NotUnstable,
    SeriesDivergence,
    SizeLimit,
)
from ietlab.rauzy import (IetData, Permutation, Tower, Walk, _substitution,
                          iet_apply, induction_update)
from ietlab.zippered import (
    LipschitzFunction,
    SurfacePoint,
    ZipperedRectangle,
    random_surface,
    sample_point,
)
from ietlab.cocycle import induction_path, origin_frame
from ietlab.finadd import (
    _MAX_QUADRATURE_STEPS,
    _equivariant_sequence,
    CellFunction,
    ReturnLadder,
    build_phi_f,
    build_phi_from_vector,
    dual_from_vector,
    evaluate_on_flow_arc,
    holder_exponents,
    measure_integral,
)

GOLD = (math.sqrt(5) - 1) / 2

TORUS_IET = IetData((0.7, 0.3), Permutation((2, 1)))
TORUS = ZipperedRectangle(TORUS_IET, (-1.0, 1.0))


def desk_setup(n_steps=400):
    rng = default_rng(7)
    lengths = rng.random(4) + 0.05
    lengths = lengths / lengths.sum()
    iet = IetData(tuple(lengths), Permutation((4, 3, 2, 1)))
    zr = random_surface(iet, default_rng(11))
    return zr, induction_path(iet, n_steps)


def frame_of(zr, path):
    return origin_frame(path, [float(h) for h in zr.heights], 80)


def centered_cell_function(zr, rect_index):
    """Indicator of one rectangle minus the constant that centers it."""
    mass = float(zr.iet.lengths[rect_index]) * float(zr.heights[rect_index])
    vals = [-mass / float(zr.area)] * zr.m
    vals[rect_index] += 1.0
    return CellFunction(tuple(vals))


def ladder_sum(phi, x, n_returns):
    """The measure's value over n_returns base returns from (x, 0), by one
    walk of its ladder."""
    return phi.ladder.evaluate(phi.stats, [x], [[n_returns]]).total.item(0)


@pytest.fixture(scope="module")
def desk():
    return desk_setup()


@pytest.fixture(scope="module")
def torus_path():
    return induction_path(TORUS_IET, 60)


# ------------------------------------------------------------ ladder engine

def test_ladder_matches_direct_orbit_sum(desk):
    zr, path = desk
    ladder = ReturnLadder(zr, path)
    values = [float(h) for h in zr.heights]
    stats = ladder.register(values)
    iet = zr.iet
    for x in (0.05, 0.31, 0.62):
        n = 12345
        walk = ladder.evaluate(stats, [x], [[n]])
        fast, lo_f, hi_f = (walk.total.item(0), walk.low.item(0),
                            walk.high.item(0))
        total, lo, hi, z = 0.0, 0.0, 0.0, x
        for _ in range(n):
            total += values[iet.interval_index(z)]
            lo = min(lo, total)
            hi = max(hi, total)
            z = float(iet_apply(iet, z))
        assert abs(fast - total) <= 1e-6 * abs(total)
        assert abs(lo_f - lo) <= 1e-6 * max(1.0, abs(lo))
        assert abs(hi_f - hi) <= 1e-6 * max(1.0, abs(hi))


def test_ladder_levels_are_the_path_lengths(desk):
    # level n of the ladder is the path's normalized lengths scaled by the
    # surviving total exp(-tau_n), bit for bit, reached by the path's move
    zr, path = desk
    tower = ReturnLadder(zr, path).tower
    assert 100 < tower.size <= len(path) + 1  # it stops past q = 10^9
    for n in range(tower.size):
        scaled = path.lengths[n] * math.exp(-path.total_tau(n))
        assert tower.lengths[n].tolist() == scaled.tolist()
    for n, move in enumerate(path.moves[:tower.size - 1], start=1):
        word = _substitution(path.perms[n - 1], move)
        assert (tower.first[n] == word[:, 0]).all()
        assert (tower.last[n] == word[:, 1]).all()


def test_ladder_refuses_a_path_it_cannot_follow(desk):
    zr, path = desk
    with pytest.raises(DomainError, match="elementary path"):
        ReturnLadder(zr, induction_path(zr.iet, 20, unit="zorich"))
    # same permutation, other lengths: level 1 would not be induced from zr
    other = IetData(zr.iet.lengths[::-1], zr.perm)
    with pytest.raises(DomainError, match="does not start"):
        ReturnLadder(zr, induction_path(other, 20))
    twin = IetData(zr.iet.lengths, Permutation(zr.perm.images))
    assert ReturnLadder(ZipperedRectangle(twin, zr.delta), path).depth > 0


def test_ladder_exact_additivity_with_rationals(torus_path):
    ladder = ReturnLadder(TORUS, induction_path(TORUS_IET, 20))
    stats = ladder.register([Fraction(3, 2), Fraction(-7, 3)])
    x = 0.123
    n1, n2 = 777, 1234
    first = ladder.evaluate(stats, [x], [[n1]]).total.item(0)
    z = x
    iet = ladder.zr.iet
    for _ in range(n1):
        z = float(iet_apply(iet, z))
    second = ladder.evaluate(stats, [z], [[n2]]).total.item(0)
    combined = ladder.evaluate(stats, [x], [[n1 + n2]]).total.item(0)
    assert first + second == combined
    assert isinstance(combined, Fraction)


def test_ladder_zero_and_one_steps(desk):
    zr, path = desk
    ladder = ReturnLadder(zr, path)
    stats = ladder.register([float(h) for h in zr.heights])
    assert ladder.evaluate(stats, [0.3], [[0]]).total.item(0) == 0
    one = ladder.evaluate(stats, [0.3], [[1]]).total.item(0)
    assert one == float(zr.heights[zr.iet.interval_index(0.3)])


def test_ladder_rejects_outside_point(desk):
    zr, path = desk
    ladder = ReturnLadder(zr, path)
    stats = ladder.register([float(h) for h in zr.heights])
    with pytest.raises(DomainError):
        ladder.evaluate(stats, [1.5], [[10]])
    for x in (1.5, math.nan, -0.1):
        with pytest.raises(DomainError):
            ladder.evaluate(None, [x], [[10]])


def test_ladder_keeps_no_per_cocycle_state(desk):
    import ietlab.finadd as finadd

    zr, path = desk
    h0 = np.array([float(h) for h in zr.heights])
    frame = frame_of(zr, path)
    v2 = frame.second
    ladder = ReturnLadder(zr, path)

    def snapshot():
        tower = ladder.tower
        return (sorted(vars(ladder)), sorted(vars(tower)), tower.size,
                [np.array(getattr(tower, name)).tolist() for name in
                 ("lengths", "bps", "shift", "q", "first", "last")])

    before = snapshot()
    phi_a = build_phi_from_vector(zr, frame, v2, ladder=ladder)
    phi_b = build_phi_from_vector(zr, frame, h0, ladder=ladder)
    cell = CellFunction((1.0, -2.0, 0.5, 0.25))
    ladder.arcs([ladder.register(cell.level0_values(zr)), phi_a.stats],
                [0.2, 0.7], [0.0, 0.0], [1.0, 50.0])
    assert snapshot() == before
    for phi, v in ((phi_a, v2), (phi_b, h0)):
        alone = build_phi_from_vector(zr, frame, v,
                                      ladder=ReturnLadder(zr, path))
        for got, want in zip(phi.stats, alone.stats):
            assert np.array_equal(got, want)
        assert ladder_sum(phi, 0.3, 10**5) == ladder_sum(alone, 0.3, 10**5)
    assert ladder_sum(phi_a, 0.3, 10**5) != ladder_sum(phi_b, 0.3, 10**5)
    assert not hasattr(finadd, "_KEY_COUNTER")


# ------------------------------------------------------------ markov heights

# The heights of the level-n renormalization rectangles are the level-0
# heights carried n steps along the path.

def test_markov_heights_level_zero_is_input(desk):
    zr, path = desk
    h0 = [float(h) for h in zr.heights]
    assert np.allclose(path.carry(np.asarray(h0), 0, 0), h0)


def test_markov_heights_match_flow_return_times(desk):
    zr, path = desk
    h0 = [float(h) for h in zr.heights]
    level = 3
    ladder = ReturnLadder(zr, induction_path(zr.iet, level))
    got = path.carry(np.asarray(h0), 0, level)
    tower = ladder.tower
    total_lv = float(tower.tot[level])
    for i in range(zr.m):
        left = float(tower.bps[level, i - 1]) if i > 0 else 0.0
        x = left + 0.5 * float(tower.lengths[level, i])
        elapsed, z = 0.0, x
        while True:
            elapsed += h0[zr.iet.interval_index(z)]
            z = float(iet_apply(zr.iet, z))
            if z < total_lv:
                break
        assert abs(got[i] - elapsed) <= 1e-9 * max(1.0, elapsed)


def test_markov_heights_stay_balanced(torus_path):
    h0 = [1.0, 1.0]
    for level in (2, 5, 9):
        hn = torus_path.carry(np.asarray(h0), 0, level)
        assert hn.min() > 0
        assert hn.max() / hn.min() <= 10.0


# ------------------------------------------- vertical-time measure (surrogate)

def test_vertical_time_measure_equals_duration(desk):
    zr, path = desk
    phi = build_phi_from_vector(zr, frame_of(zr, path),
                                [float(h) for h in zr.heights])
    for T in (0.37, 1.234, 5.6789):
        value, bound = evaluate_on_flow_arc(phi, SurfacePoint(0.21, 0.13), T)
        assert value == pytest.approx(T, abs=1e-12)
        assert bound <= 2 * phi.endpoint_error_bound
    assert evaluate_on_flow_arc(phi, SurfacePoint(0.21, 0.13), 0.0) == (0.0, 0.0)


def test_full_crossing_arc_has_zero_bound(desk):
    zr, path = desk
    phi = build_phi_from_vector(zr, frame_of(zr, path),
                                [float(h) for h in zr.heights])
    i = 2
    left = float(zr.iet.breakpoints[1])
    x = left + 0.4 * float(zr.iet.lengths[i])
    value, bound = evaluate_on_flow_arc(phi, SurfacePoint(x, 0.0),
                                        float(zr.heights[i]))
    assert value == float(zr.heights[i])
    assert bound == 0.0


def test_flow_arc_rejects_negative_time(desk):
    zr, path = desk
    phi = build_phi_from_vector(zr, frame_of(zr, path),
                                [float(h) for h in zr.heights])
    with pytest.raises(DomainError):
        evaluate_on_flow_arc(phi, SurfacePoint(0.2, 0.1), -1.0)


# ----------------------------------------------------- building from vectors

def test_second_direction_has_no_length_pairing(desk):
    zr, path = desk
    h0 = np.array([float(h) for h in zr.heights])
    lam = np.array([float(l) for l in zr.iet.lengths])
    v2 = origin_frame(path, h0, 80).second
    assert abs(lam @ v2) < 1e-12


def test_build_from_vector_rejects_non_expanding(desk):
    zr, path = desk
    with pytest.raises(NotUnstable):
        build_phi_from_vector(zr, frame_of(zr, path), [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(NotUnstable):
        build_phi_from_vector(zr, frame_of(zr, path), [0.0, 0.0, 0.0, 0.0])


def dense(seq, n: int) -> np.ndarray:
    """Level-n vector of an equivariant sequence, unit vector times norm."""
    unit, log_norm = seq.vector(n)
    return unit * math.exp(log_norm)


def test_equivariant_sequence_matches_exact_pushes(desk):
    zr, path = desk
    h0 = np.array([float(h) for h in zr.heights])
    seq = _equivariant_sequence(h0, 6, path.carry)
    v = h0.copy()
    for n in range(6):
        assert np.allclose(dense(seq, n), v, rtol=1e-9)
        v = path.matrix(n).T.astype(float) @ v


# ---------------------------------------------------- building from functions

def test_cell_function_series_has_one_term(desk):
    zr, path = desk
    f = centered_cell_function(zr, 0)
    assert abs(f.nu_integral(zr)) < 1e-12
    phi = build_phi_f(zr, frame_of(zr, path), f, depth=10)
    terms = phi.diagnostics["series_terms"]
    assert len(terms) == 2 and terms[1] == 0.0
    # centered input leaves no top-exponent component
    assert abs(phi.diagnostics["unstable_coeffs"][0]) < 1e-12


def test_build_phi_f_requires_centered_input(desk):
    zr, path = desk
    with pytest.raises(DomainError):
        build_phi_f(zr, frame_of(zr, path),
                    CellFunction((1.0, 1.0, 1.0, 1.0)), depth=5)


def test_zero_function_gives_zero_measure(desk):
    zr, path = desk
    phi = build_phi_f(zr, frame_of(zr, path),
                      CellFunction((0.0, 0.0, 0.0, 0.0)), depth=5)
    assert np.allclose(phi.base_values, 0.0)
    assert ladder_sum(phi, 0.3, 1000) == pytest.approx(0.0, abs=1e-12)


def test_lipschitz_series_converges_and_truncates(torus_path):
    f = LipschitzFunction(
        lambda x, y: math.sin(2 * math.pi * 9 * x) * math.sin(1.3 * y), "osc")
    c = f.nu_integral(TORUS)
    centered = LipschitzFunction(
        lambda x, y: math.sin(2 * math.pi * 9 * x) * math.sin(1.3 * y) - c,
        "osc-centered")
    phi = build_phi_f(TORUS, frame_of(TORUS, torus_path), centered, depth=18)
    terms = phi.diagnostics["series_terms"]
    assert len(terms) <= 8  # geometric-decay stop long before the depth cap
    assert terms[-1] < terms[1]
    assert phi.diagnostics["tail_estimate"] >= 0


def test_lipschitz_series_divergence_when_depth_too_small(torus_path):
    f = LipschitzFunction(
        lambda x, y: math.sin(2 * math.pi * 9 * x) * math.sin(1.3 * y), "osc")
    c = f.nu_integral(TORUS)
    centered = LipschitzFunction(
        lambda x, y: math.sin(2 * math.pi * 9 * x) * math.sin(1.3 * y) - c,
        "osc-centered")
    with pytest.raises(SeriesDivergence):
        build_phi_f(TORUS, frame_of(TORUS, torus_path), centered, depth=2)


def test_quadrature_path_refuses_levels_over_the_step_limit(desk):
    # a non-cell observable is integrated one level-0 step per return; a
    # level past the limit must raise before any crossing is integrated
    zr, path = desk
    ladder = ReturnLadder(zr, path)
    sums = ladder.tower.q.sum(axis=1).tolist()
    depth = next(n for n, q in enumerate(sums) if q > _MAX_QUADRATURE_STEPS)
    crossings = []

    class Counted(LipschitzFunction):
        def crossing_integral(self, zr, rect_index, x, order=24):
            crossings.append(x)
            return super().crossing_integral(zr, rect_index, x, order)

    mean = LipschitzFunction(lambda x, y: x).nu_integral(zr) / float(zr.area)
    f = Counted(lambda x, y: x - mean, "x-centered")
    with pytest.raises(SizeLimit):
        build_phi_f(zr, frame_of(zr, path), f, depth=depth, ladder=ladder)
    assert crossings == []


def test_remainder_after_extraction_stays_bounded(desk):
    zr, path = desk
    f = centered_cell_function(zr, 0)
    phi = build_phi_f(zr, frame_of(zr, path), f, depth=10)
    w = f.level0_values(zr)
    raw = phi.ladder.register(w)
    base_points = (0.123, 0.345, 0.567, 0.789, 0.912)
    sizes = (10**3, 10**4, 10**5, 10**6)
    worst = []
    for n in sizes:
        diffs = [abs(phi.ladder.evaluate(raw, [x], [[n]]).total.item(0)
                     - ladder_sum(phi, x, n)) for x in base_points]
        worst.append(max(diffs))
    slope = np.polyfit(np.log(sizes), np.log(worst), 1)[0]
    assert slope <= 0.1


# ------------------------------------------------------------- evaluation

def direct_sum_on_returns(phi, x, n_returns, with_extrema=False):
    """Scalar oracle: the level-0 values summed one base return at a time;
    with extrema, also the least and greatest prefix sum (0 included)."""
    iet = phi.zr.iet
    total = mn = mx = 0
    for _ in range(int(n_returns)):
        total = total + phi.base_values[iet.interval_index(x)]
        mn = min(mn, total)
        mx = max(mx, total)
        x = float(iet_apply(iet, x))
    return (total, mn, mx) if with_extrema else total


def test_walk_extrema_match_direct_with_signed_values(desk):
    # several return counts per point in one walk: each column's sum and
    # prefix extrema are those of the direct sum over that many returns
    zr, path = desk
    frame = frame_of(zr, path)
    phi = build_phi_from_vector(zr, frame, frame.second)
    xs, counts = [0.05, 0.31, 0.62, 0.9], [1, 17, 500, 20000]
    walk = phi.ladder.evaluate(phi.stats, xs, [counts] * len(xs))
    for j, x in enumerate(xs):
        for k, n in enumerate(counts):
            want = direct_sum_on_returns(phi, x, n, with_extrema=True)
            got = walk.total[j, k], walk.low[j, k], walk.high[j, k]
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-9 * max(1.0, abs(w))
    assert (walk.low < -1.0).any() and (walk.high > 1.0).any()


def genus3_setup(n_steps=400):
    rng = default_rng(13)
    lengths = rng.random(6) + 0.05
    iet = IetData(tuple(lengths / lengths.sum()),
                  Permutation((2, 4, 3, 6, 1, 5)))
    return random_surface(iet, default_rng(17)), induction_path(iet, n_steps)


@pytest.mark.parametrize("extrema", [False, True])
@pytest.mark.parametrize("surface", ["desk", "genus3"])
def test_walk_of_stacked_stats_equals_separate_walks(desk, surface, extrema):
    # three value vectors stacked on a trailing axis share one walk: the
    # blocks a point takes depend only on its budget, so each slice of the
    # sums is the walk of that vector alone, bit for bit
    zr, path = desk if surface == "desk" else genus3_setup()
    ladder = ReturnLadder(zr, path)
    tower = ladder.tower
    rng = default_rng(19)
    stats = [ladder.register(list(v)) for v in rng.normal(size=(3, zr.iet.m))]
    stacked = tuple(np.stack(parts, axis=-1) for parts in zip(*stats))
    cost = ladder.register([float(h) for h in zr.heights]).totals
    x = rng.random(200) * tower.tot[0]
    budget = np.sort(np.exp(rng.uniform(-2.0, 12.0, (200, 5))), axis=1)
    walk = tower.walk(x, budget, cost, stacked, extrema)
    assert walk.total.shape == (200, 5, 3)
    for k, one in enumerate(tower.walk(x, budget, cost, st, extrema)
                            for st in stats):
        for name in ("total", "low", "high") if extrema else ("total",):
            got, want = getattr(walk, name)[..., k], getattr(one, name)
            assert got.tobytes() == want.tobytes(), name
        for name in ("spent", "end", "ok"):
            assert getattr(walk, name).tobytes() == \
                getattr(one, name).tobytes(), name
    if not extrema:
        assert walk.low is None and walk.high is None
    assert walk.ok.all() and (walk.spent[:, -1] > 0.0).all()


def walk_oracle(tower, x, budget, cost, stats=None, extrema=False,
                spent=None, total=None):
    """Oracle: `Tower.walk` as a plain bisection from below the upper
    bound, with 2-D table lookups and the block index carried through the
    probes."""
    bps, shift, tot, m = tower.bps, tower.shift, tower.tot, tower.m

    def index(n, xs):
        return np.minimum((bps[n] <= xs[:, None]).sum(axis=1), m - 1)

    x = np.array(x, dtype=float)
    n_pts, n_cols = budget.shape
    floor = np.minimum.accumulate(cost.min(axis=1)[::-1])[::-1]
    reach = -np.maximum.accumulate(tot[::-1])[::-1]
    ok = np.ones(n_pts, dtype=bool)
    state = {"spent": np.zeros(n_pts, dtype=cost.dtype)
             if spent is None else np.array(spent), "end": x}
    if stats is not None:
        state["total"] = sums = np.zeros(
            (n_pts,) + stats[0].shape[2:], dtype=stats[0].dtype) \
            if total is None else np.array(total)
        if extrema:
            state["low"], state["high"] = low, high = \
                np.zeros_like(sums), np.zeros_like(sums)
    used = state["spent"]
    out = {k: np.empty(budget.shape + v.shape[1:], dtype=v.dtype)
           for k, v in state.items()}
    for col in range(n_cols):
        room = budget[:, col]
        live = np.flatnonzero(ok)
        while live.size:
            xl = x[live]
            bad = ~(xl >= 0.0)
            if bad.any():
                ok[live[bad]] = False
                live, xl = live[~bad], xl[~bad]
            have, cap = used[live], room[live]
            hi = np.minimum(floor.searchsorted(cap - have, side="right"),
                            reach.searchsorted(-xl, side="left"))
            lo = np.full(live.size, -1)
            idx = np.zeros(live.size, dtype=np.int64)
            act = np.flatnonzero(hi > 0)
            n = hi[act] - 1
            while act.size:
                xs = xl[act]
                i = index(n, xs)
                fits = (xs < tot[n]) & (have[act] + cost[n, i] <= cap[act])
                lo[act[fits]] = n[fits]
                idx[act[fits]] = i[fits]
                hi[act[~fits]] = n[~fits]
                act = act[hi[act] - lo[act] > 1]
                n = (lo[act] + hi[act]) // 2
            moved = lo >= 0
            live, n, i = live[moved], lo[moved], idx[moved]
            if stats is not None:
                if extrema:
                    low[live] = np.minimum(low[live],
                                           sums[live] + stats[1][n, i])
                    high[live] = np.maximum(high[live],
                                            sums[live] + stats[2][n, i])
                sums[live] += stats[0][n, i]
            used[live] += cost[n, i]
            x[live] += shift[n, i]
        for k, v in state.items():
            out[k][:, col] = v
    return Walk(out.get("total"), out.get("low"), out.get("high"),
                out["spent"], out["end"], ok)


def assert_same_walk(got, want):
    for name in Walk._fields:
        g, w = getattr(got, name), getattr(want, name)
        assert (g is None) == (w is None), name
        if w is not None:
            assert (g.dtype, g.shape) == (w.dtype, w.shape), name
            assert g.tobytes() == w.tobytes(), name


def test_walk_holds_a_point_where_tot_rises():
    # a hand-built tower whose level 2 is level 1 with its last length one
    # ulp longer, so tot rises: the point x = tot[1] is outside level 1 but
    # inside level 2, and the lower bound must not count level 1 as
    # holding it.  The walk takes level-0 block 3 first, then level-1
    # blocks (level 2's cost more than the budget): 3 + 4 + 6 + 6 + 6 = 25
    rows, perms = [(0.4, 0.3, 0.2, 0.1)], [Permutation((4, 3, 2, 1))]
    moves = []
    for _ in range(2):
        move, perm, lengths, _ = induction_update(rows[-1], perms[-1])
        rows.append(lengths)
        perms.append(perm)
        moves.append(move)
    rows[2] = (*rows[1][:-1], float(np.nextafter(rows[1][-1], 1.0)))
    tower = Tower(rows, perms, moves)
    assert tower.tot[1] < tower.tot[2]
    cost = np.array([[1.0] * 4, [1.0] * 4, [10.0] * 4])
    stats = (np.arange(12).reshape(3, 4),)
    args = ([tower.tot[1]], np.array([[5.0]]), cost, stats)
    walk = tower.walk(*args)
    assert_same_walk(walk, walk_oracle(tower, *args))
    assert walk.total[0, 0] == 25 and walk.spent[0, 0] == 5.0


@pytest.fixture(scope="module", params=["4,3,2,1", "6,5,4,3,2,1",
                                        "2,4,3,6,1,5"])
def cli_ladder(request):
    # the CLI's surface at seed 1, on a path of 300 elementary steps
    perm = tuple(int(v) for v in request.param.split(","))
    rng = default_rng(1)
    lengths = rng.random(len(perm)) + 0.05
    iet = IetData(tuple(float(v) for v in lengths / lengths.sum()),
                  Permutation(perm))
    zr = random_surface(iet, default_rng(2))
    return zr, ReturnLadder(zr, induction_path(iet, 300))


def oddities(tower, rng, n):
    """n points in [0, tot[0]), then the base's end, points past it, and
    negative and nan points."""
    end = float(tower.tot[0])
    return np.concatenate([rng.random(n) * end,
                           [end, np.nextafter(end, 2.0), 2.0 * end,
                            -1e-300, -0.5, np.nan]])


@pytest.mark.parametrize("extrema", [False, True])
def test_walk_equals_oracle_on_flow_durations(cli_ladder, extrema):
    # float costs, stacked stats, nonzero starts, zero and nan budgets
    zr, ladder = cli_ladder
    tower, rng = ladder.tower, default_rng(23)
    x = oddities(tower, rng, 300)
    parts = [ladder.register(list(v)) for v in rng.normal(size=(2, zr.iet.m))]
    stats = tuple(np.stack(p, axis=-1) for p in zip(*parts))
    budget = np.sort(np.exp(rng.uniform(-2.0, 12.0, (len(x), 6))), axis=1)
    budget[:, 0] = 0.0
    budget[::3, :3] = 0.0
    budget[1, 2:] = np.nan  # a nan budget admits no block
    spent = np.where(rng.random(len(x)) < 0.5, rng.random(len(x)), 0.0)
    total = rng.normal(size=(len(x), 2)) * (spent > 0.0)[:, None]
    for start in ((None, None), (spent, total)):
        args = (x, budget, ladder.durations, stats, extrema, *start)
        walk = tower.walk(*args)
        assert_same_walk(walk, walk_oracle(tower, *args))
        assert not walk.ok[-3:].any() and walk.ok[:-3].all()
        assert (walk.spent[1, 2:] == walk.spent[1, 1]).all()
        # a point that cannot move keeps its start in every column
        assert (walk.end[-6:-3] == x[-6:-3, None]).all()
        assert (walk.spent[:, 0] == (0.0 if start[0] is None else spent)).all()


def test_walk_equals_oracle_on_return_counts(cli_ladder):
    # int64 return-count costs with extrema, as in `ReturnLadder.evaluate`
    zr, ladder = cli_ladder
    tower, rng = ladder.tower, default_rng(29)
    x = oddities(tower, rng, 300)
    stats = ladder.register(list(rng.normal(size=zr.iet.m)))
    budget = np.sort(rng.integers(0, 10**7, (len(x), 6)), axis=1)
    budget[::4, :2] = 0
    spent = rng.integers(0, 3, len(x))
    for start in (None, spent):
        args = (x, budget, tower.q, stats, True, start)
        walk = tower.walk(*args)
        assert walk.spent.dtype == np.int64
        assert_same_walk(walk, walk_oracle(tower, *args))


def test_walk_bound_survives_a_budget_left_that_rounds_up(cli_ladder):
    # spent 1.5 ulp and budget c + 1 ulp, for a level's largest block cost c
    # with an even last bit: cap - spent rounds up to exactly c, and
    # spent + c rounds up past the budget, so that block must not be taken
    # although c is not below the rounded budget left
    zr, ladder = cli_ladder
    tower, cost = ladder.tower, ladder.durations
    rows = np.arange(tower.size)
    big = cost.argmax(axis=1)
    c = cost[rows, big]
    even = (c.view(np.int64) & 1 == 0) & (np.frexp(c)[0] != 0.5)
    levels = rows[even & (rows > 0)]
    assert levels.size
    left_end = np.where(big > 0, tower.bps[rows, big - 1], 0.0)
    x = (left_end + 0.5 * tower.lengths[rows, big])[levels]
    c, u = c[levels], np.spacing(c[levels])
    spent, budget = 1.5 * u, (c + u)[:, None]
    assert ((budget[:, 0] - spent) == c).all()
    assert (spent + c > budget[:, 0]).all()
    walk = tower.walk(x, budget, cost, spent=spent)
    assert_same_walk(walk, walk_oracle(tower, x, budget, cost, spent=spent))
    assert (walk.spent <= budget).all()


def test_walk_caps_a_cost_that_fits_only_after_rounding(cli_ladder):
    # spent s large and budget s + c, for the cheapest block c of a level
    # that no deeper block undercuts: s + c rounds down to the budget, so
    # the block fits, but budget - spent rounds below c, and the upper
    # bound leaves that level out.  The walk takes what walk_oracle takes,
    # a shallower level, although every level up to that one fits
    zr, ladder = cli_ladder
    tower, cost = ladder.tower, ladder.durations
    floor = np.minimum.accumulate(cost.min(axis=1)[::-1])[::-1]
    levels = np.flatnonzero(cost.min(axis=1) == floor)[1:]
    cheap = cost[levels].argmin(axis=1)
    c = cost[levels, cheap]
    left_end = np.where(cheap > 0, tower.bps[levels, cheap - 1], 0.0)
    x = left_end + 0.5 * tower.lengths[levels, cheap]
    tries = 1e6 + 0.37 * np.arange(64)
    low = (tries[:, None] + c) - tries[:, None] < c
    keep = low.any(axis=0)
    assert keep.sum() >= 3
    x, c, spent = x[keep], c[keep], tries[low.argmax(axis=0)][keep]
    budget = (spent + c)[:, None]
    assert ((budget[:, 0] - spent) < c).all()
    walk = tower.walk(x, budget, cost, spent=spent)
    assert_same_walk(walk, walk_oracle(tower, x, budget, cost, spent=spent))
    assert (walk.spent <= budget).all()


def test_walk_table_reaches_as_deep_with_a_nan_budget(cli_ladder,
                                                      monkeypatch):
    # the levels a walk tabulates come from its largest budget step; a nan
    # column adds no step, so it neither empties the table nor fills it.
    # The cap is lifted so that it cannot hide either
    monkeypatch.setattr(rauzy, "_WALK_TABLE", 1 << 30)
    zr, ladder = cli_ladder
    tower, cost, rng = ladder.tower, ladder.durations, default_rng(43)
    x = rng.random(50) * tower.tot[0]
    budget = np.sort(np.exp(rng.uniform(-2.0, 9.0, (50, 4))), axis=1)
    floor = np.minimum.accumulate(cost.min(axis=1)[::-1])[::-1]
    spent = np.zeros(50)
    clean = tower._levels(budget, cost, spent, floor)[3]
    budget[7, 1:] = np.nan
    assert tower._levels(budget, cost, spent, floor)[3] == clean > 1
    assert clean < tower.size
    walk = tower.walk(x, budget, cost)
    assert_same_walk(walk, walk_oracle(tower, x, budget, cost))
    assert (walk.spent[7, 1:] == walk.spent[7, 0]).all()


def test_walk_takes_infinite_zero_and_nan_budgets(cli_ladder):
    # a first column far above every later step sizes the table; points
    # that cannot move (past the base's end, below 0, nan) get an infinite
    # budget, which makes every level reachable and leaves the table to
    # its cap; zero and nan columns admit no block
    zr, ladder = cli_ladder
    tower, rng = ladder.tower, default_rng(41)
    x = oddities(tower, rng, 300)
    steps = np.exp(rng.uniform(-3.0, 1.0, (len(x), 6)))
    steps[:, 0] = np.exp(rng.uniform(6.0, 10.0, len(x)))
    budget = np.cumsum(steps, axis=1)
    budget[::5, :2] = 0.0
    budget[3, 3:] = np.nan
    budget[-5:] = np.inf
    stats = ladder.register(list(rng.normal(size=zr.iet.m)))
    for extrema in (False, True):
        args = (x, budget, ladder.durations, stats, extrema)
        walk = tower.walk(*args)
        assert_same_walk(walk, walk_oracle(tower, *args))
    assert (walk.spent[-5:] == 0.0).all() and not walk.ok[-3:].any()
    assert (walk.spent[::5, :2] == 0.0).all()


@pytest.mark.parametrize("table", [1, 1 << 9])
def test_walk_continues_past_a_capped_table(cli_ladder, monkeypatch, table):
    # a table cut to one level, or to a few, leaves the deep stages to the
    # bisection from its last level, the one place the index kernel runs
    monkeypatch.setattr(rauzy, "_WALK_TABLE", table)
    kernel, calls = rauzy._subinterval, []

    def counted(*args):
        calls.append(len(args[2]))
        return kernel(*args)

    monkeypatch.setattr(rauzy, "_subinterval", counted)
    zr, ladder = cli_ladder
    tower, rng = ladder.tower, default_rng(37)
    x = oddities(tower, rng, 200)
    stats = ladder.register(list(rng.normal(size=zr.iet.m)))
    budget = np.sort(np.exp(rng.uniform(-2.0, 12.0, (len(x), 4))), axis=1)
    counts = np.sort(rng.integers(0, 10**7, (len(x), 4)), axis=1)
    for cost, room in ((ladder.durations, budget), (tower.q, counts)):
        args = (x, room, cost, stats, True)
        assert_same_walk(tower.walk(*args), walk_oracle(tower, *args))
    assert calls


@pytest.mark.parametrize("table", [None, 1 << 9])
def test_walk_block_table_is_the_subinterval_of_each_cell(cli_ladder,
                                                          monkeypatch, table):
    # the block a stage reads with its (cell, rank) key is the flat offset
    # level * m + i of the level it takes (-m: none), where i is the
    # subinterval of the cell's representative at that level: the cell's
    # left edge, or -inf for the cell below every edge
    if table is not None:
        monkeypatch.setattr(rauzy, "_WALK_TABLE", table)
    zr, ladder = cli_ladder
    tower, cost, m = ladder.tower, ladder.durations, ladder.tower.m
    rng = default_rng(47)
    budget = np.sort(np.exp(rng.uniform(-2.0, 9.0, (50, 6))), axis=1)
    floor = np.minimum.accumulate(cost.min(axis=1)[::-1])[::-1]
    edges, costs, blocks, size = tower._levels(budget, cost, np.zeros(50),
                                               floor)
    levels = blocks // m
    assert blocks.shape == (edges.size + 1, costs.size + 2)
    assert 1 < size < tower.size and levels.max() == size - 1
    reps = np.concatenate(([-np.inf], edges))
    cells, ranks = np.nonzero(levels >= 0)
    n = levels[cells, ranks]
    want = n * m + rauzy._subinterval(tower.bps.ravel(), n * m, reps[cells],
                                      m)
    assert (blocks[cells, ranks] == want).all()
    assert len(set(want % m)) == m  # every subinterval is some cell's
    assert (levels[:, :1] == -1).all()  # rank 0: no cost is below it


def prefix_walk_oracle(tower, x, budget, cost, values):
    """Oracle of the walk's level rule, with every level tested at every
    stage: each stage takes the deepest level, below the upper bound on
    the budget left, such that it and every shallower level hold the point
    and their blocks fit.  Returns the sums of the block `values`, the
    budget spent and the point reached, a column per budget."""
    bps, shift, tot, m = tower.bps, tower.shift, tower.tot, tower.m
    floor = np.minimum.accumulate(cost.min(axis=1)[::-1])[::-1]
    x = np.array(x, dtype=float)
    state = (np.zeros(len(x), dtype=values.dtype),
             np.zeros(len(x), dtype=cost.dtype), x)
    sums, used, _ = state
    out = [np.empty(budget.shape, dtype=a.dtype) for a in state]
    for col in range(budget.shape[1]):
        live = np.flatnonzero(x >= 0.0)
        while live.size:
            xl, have, room = x[live], used[live], budget[live, col]
            hi = floor.searchsorted(room - have, side="right")
            top = np.arange(hi.max())[:, None]  # the levels below the bound
            idx = np.minimum((bps[top] <= xl[:, None]).sum(axis=2), m - 1)
            fits = (xl < tot[top]) & (have + cost[top, idx] <= room) \
                & (top < hi)
            depth = np.logical_and.accumulate(fits, axis=0).sum(axis=0)
            live, n = live[depth > 0], depth[depth > 0] - 1
            i = idx[n, depth > 0]
            sums[live] += values[n, i]
            used[live] += cost[n, i]
            x[live] += shift[n, i]
        for o, a in zip(out, state):
            o[:, col] = a
    return out


def test_walk_on_breakpoints_takes_the_longest_fitting_prefix(
        cli_ladder, monkeypatch):
    # points on every breakpoint and total of every level, and one ulp
    # below each.  Neighbouring levels' float breakpoints differ there by
    # a few ulps, so a point's level-n block need not begin with its
    # level-(n-1) block, and its cost can fall as the level grows: whether
    # a level fits is then not monotone in the level.  The walk takes the
    # deepest level of the run of fitting levels from level 0, bit for
    # bit.  A bisection's level there depends on the order of its probes,
    # so walk_oracle takes other levels on some of these points.  The
    # table holds every level, so no bisection runs
    monkeypatch.setattr(rauzy, "_WALK_TABLE", 1 << 30)
    zr, ladder = cli_ladder
    tower, cost, m = ladder.tower, ladder.durations, ladder.tower.m
    edges = np.unique(tower.bps)
    x = np.concatenate([edges, np.nextafter(edges, 0.0)])
    x = x[x < tower.tot[0]]
    levels = np.arange(tower.size)[:, None]
    idx = np.minimum((tower.bps[:, None, :m - 1] <= x[:, None]).sum(axis=2),
                     m - 1)
    held = np.logical_and.accumulate(x < tower.tot[:, None], axis=0)
    assert (held[1:] & (tower.first[levels[1:], idx[1:]] != idx[:-1])).any()
    assert (held[1:] & (np.diff(cost[levels, idx], axis=0) < 0)).any()
    rng = default_rng(31)
    own = cost[levels, idx][rng.integers(0, 60, (2, len(x))),
                            np.arange(len(x))].T
    budget = np.sort(np.concatenate(
        [own, np.exp(rng.uniform(-4.0, 8.0, (len(x), 2)))], axis=1), axis=1)
    values = ladder.register(list(rng.normal(size=zr.iet.m))).totals
    walk = tower.walk(x, budget, cost, (values,))
    got = (walk.total, walk.spent, walk.end)
    for g, want in zip(got, prefix_walk_oracle(tower, x, budget, cost,
                                               values)):
        assert g.tobytes() == want.tobytes()
    assert (walk_oracle(tower, x, budget, cost).spent != walk.spent).any()


def continued_fraction_denominators(x: Fraction, k: int) -> set:
    """The first k + 1 continued-fraction denominators of x in (0, 1),
    or all of them when x has fewer."""
    q0, q1, out = 0, 1, {1}
    for _ in range(k):
        if x == math.floor(x):
            break
        x = 1 / (x - math.floor(x))
        q0, q1 = q1, math.floor(x) * q1 + q0
        out.add(q1)
    return out


def test_block_sums_obey_denjoy_koksma_in_genus_one():
    # on 2,1 with lengths (alpha, 1 - alpha) the exchange is a rotation,
    # and f = (1 - alpha, -alpha) is centered, with variation
    # V = 2|c0 - c1| on the circle.  A Zorich run ends at a level whose
    # return times are continued-fraction denominators of alpha (checked
    # exactly over the first 8 runs, where the float path is the exact
    # one), and Denjoy-Koksma bounds every block sum there by V.  The
    # bound is exact, so the only slack is the fold's roundoff: each of a
    # block's q - 1 additions rounds a sum of size at most V by at most
    # eps V / 2
    eps, checked = np.finfo(float).eps, 0
    for alpha in default_rng(53).random(50):
        c = (1 - float(alpha), -float(alpha))
        iet = IetData((float(alpha), 1 - float(alpha)), Permutation((2, 1)))
        path = induction_path(iet, 400)
        ladder = ReturnLadder(random_surface(iet, default_rng(59)), path)
        ends = [n + 1 for n in range(ladder.depth - 1)
                if path.moves[n] != path.moves[n + 1]]
        assert set(ladder.tower.q[ends[:8]].ravel().tolist()) <= \
            continued_fraction_denominators(Fraction(float(alpha)), 16)
        bound = 2 * abs(c[0] - c[1])
        sums = np.abs(ladder.register(list(c)).totals[ends])
        assert (sums <= bound * (1 + eps * ladder.tower.q[ends])).all()
        checked += sums.size
    assert checked >= 1000


def test_fast_and_direct_evaluators_agree(desk):
    zr, path = desk
    frame = frame_of(zr, path)
    v2 = frame.second
    phi = build_phi_from_vector(zr, frame, v2)
    n = 10**5
    for x in (0.21, 0.64):
        fast = ladder_sum(phi, x, n)
        direct = direct_sum_on_returns(phi, x, n)
        assert abs(fast - direct) <= 1e-6 * max(1.0, abs(direct))
    assert ladder_sum(phi, 0.21, 0) == 0.0


def test_partial_sums_match_direct(desk):
    zr, path = desk
    frame = frame_of(zr, path)
    v2 = frame.second
    phi = build_phi_from_vector(zr, frame, v2)
    checkpoints = [10, 100, 1000, 5000]
    partials = phi.ladder.evaluate(phi.stats, [0.3],
                                   [checkpoints]).total[0].tolist()
    for n, value in zip(checkpoints, partials):
        direct = direct_sum_on_returns(phi, 0.3, n)
        assert abs(value - direct) <= 1e-8 * max(1.0, abs(direct))


@given(st.floats(min_value=0.01, max_value=0.95),
       st.integers(min_value=1, max_value=400),
       st.integers(min_value=1, max_value=400))
def test_finite_additivity_over_concatenation(x, n1, n2):
    zr, path = _CACHED_DESK
    phi = _CACHED_PHI
    first = ladder_sum(phi, x, n1)
    z = x
    for _ in range(n1):
        z = float(iet_apply(zr.iet, z))
    second = ladder_sum(phi, z, n2)
    combined = ladder_sum(phi, x, n1 + n2)
    assert first + second == pytest.approx(combined, abs=1e-9)


_CACHED_DESK = desk_setup()
_CACHED_PHI = build_phi_from_vector(
    _CACHED_DESK[0], frame_of(*_CACHED_DESK),
    [float(h) for h in _CACHED_DESK[0].heights])


def test_holonomy_invariance_same_rectangle(desk):
    zr, path = desk
    frame = frame_of(zr, path)
    v2 = frame.second
    phi = build_phi_from_vector(zr, frame, v2)
    i = 2
    left = float(zr.iet.breakpoints[1])
    height = float(zr.heights[i])
    vals = []
    for frac in (0.1, 0.5, 0.77):
        x = left + frac * float(zr.iet.lengths[i])
        value, bound = evaluate_on_flow_arc(phi, SurfacePoint(x, 0.0), height)
        vals.append(value)
        assert bound == 0.0
    assert vals[0] == vals[1] == vals[2] == float(v2[i])


def test_expectation_identity_and_variance(desk):
    zr, path = desk
    frame = frame_of(zr, path)
    v2 = frame.second
    phi = build_phi_from_vector(zr, frame, v2)
    rng = default_rng(2024)
    values = np.array([evaluate_on_flow_arc(phi, sample_point(zr, rng), 1.0)[0]
                       for _ in range(3000)])
    mean = values.mean()
    stderr = values.std(ddof=1) / math.sqrt(len(values))
    # the second-direction measure is centered: <v2, lengths> = 0
    assert abs(mean) <= 3 * stderr
    var = values.var(ddof=1)
    m4 = ((values - mean) ** 4).mean()
    n = len(values)
    var_stderr = math.sqrt((m4 - (n - 3) / (n - 1) * var**2) / n)
    assert var >= 10 * var_stderr


# ------------------------------------------------------------------ duals

def test_dual_pairing_constant_along_levels(desk):
    zr, path = desk
    frame = frame_of(zr, path)
    seq = _equivariant_sequence(frame.second, 60, path.carry)
    dual = dual_from_vector(path, frame.dual)
    base = float(np.dot(dense(seq, 0), dense(dual.eq_seq, 0)))
    assert base == pytest.approx(1.0, abs=1e-9)
    for level in (5, 20, 60):
        paired = float(np.dot(dense(seq, level), dense(dual.eq_seq, level)))
        assert paired == pytest.approx(base, rel=1e-8)


def test_measure_integral_against_length_dual_is_exact(desk):
    zr, path = desk
    ladder = ReturnLadder(zr, path)
    lam = [float(l) for l in zr.iet.lengths]
    dual = dual_from_vector(path, lam, "area_dual")
    f = CellFunction((1.0, -0.5, 2.0, 0.3))
    exact = f.nu_integral(zr)
    for level in (0, 2, 5):
        got, diag = measure_integral(zr, f, dual, level, ladder)
        assert got == pytest.approx(exact, abs=1e-12)
        assert len(diag["levels"]) >= 1


def test_measure_integral_extracts_second_coefficient(desk):
    zr, path = desk
    f = centered_cell_function(zr, 0)
    frame = frame_of(zr, path)
    phi = build_phi_f(zr, frame, f, depth=10)
    w2 = frame.dual
    dual = dual_from_vector(path, w2)
    got, _ = measure_integral(zr, f, dual, 0, phi.ladder)
    coefficient = phi.diagnostics["unstable_coeffs"][1]
    assert got == pytest.approx(coefficient, abs=1e-3)


def test_montecarlo_oracle_for_measure_integral(desk):
    zr, path = desk
    ladder = ReturnLadder(zr, path)
    lam = [float(l) for l in zr.iet.lengths]
    dual = dual_from_vector(path, lam, "area_dual")
    f = LipschitzFunction(lambda x, y: x * x + 0.5 * math.cos(y), "poly")
    got, _ = measure_integral(zr, f, dual, 3, ladder)
    rng = default_rng(99)
    samples = []
    for _ in range(20000):
        p = sample_point(zr, rng)
        samples.append(f.value(zr, p.x, p.y))
    samples = np.array(samples)
    mc = samples.mean() * float(zr.area)
    mc_err = samples.std(ddof=1) / math.sqrt(len(samples)) * float(zr.area)
    assert abs(got - mc) <= 4 * mc_err


# ------------------------------------------------------------ scaling slopes

def test_vertical_time_scaling_exponent_is_one(desk):
    zr, path = desk
    phi = build_phi_from_vector(zr, frame_of(zr, path),
                                [float(h) for h in zr.heights])
    grid = [10 ** (k / 4) for k in range(8, 25)]
    result = holder_exponents(phi, 0.37, grid)
    assert result["top"] == pytest.approx(1.0, abs=0.02)


def test_second_measure_scaling_matches_second_exponent(desk):
    zr, path = desk
    frame = frame_of(zr, path)
    v2 = frame.second
    phi = build_phi_from_vector(zr, frame, v2)
    grid = [10 ** (k / 4) for k in range(8, 25)]
    result = holder_exponents(phi, 0.37, grid)
    # second exponent of this class sits near 0.34
    assert 0.15 <= result["top"] <= 0.5
    assert 0.2 <= result["lower"] <= 0.5


def test_holder_requires_three_decades(desk):
    zr, path = desk
    phi = build_phi_from_vector(zr, frame_of(zr, path),
                                [float(h) for h in zr.heights])
    with pytest.raises(InsufficientRange):
        holder_exponents(phi, 0.37, [10.0, 50.0, 100.0])
