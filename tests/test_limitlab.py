"""Tests for the distributional limit laboratory.

Frozen values were cross-checked against independent oracles: generic
discrete-LP transport solvers, brute-force Prohorov set enumeration, and
exact hand computations on point masses and two-letter exchanges.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.random import default_rng
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from ietlab.errors import (
    DegenerateVariance,
    DomainError,
    NonConvergenceError,
    RejectionOverflow,
    SizeLimit,
)
from ietlab.rauzy import IetData, Permutation
from ietlab.zippered import (
    LipschitzFunction,
    SurfacePoint,
    ZipperedRectangle,
    area,
    random_surface,
    sample_point,
    sample_points,
    vertical_flow,
)
from ietlab.cocycle import induction_path, origin_frame
from ietlab.finadd import (
    CellFunction,
    ReturnLadder,
    build_phi_from_vector,
    evaluate_on_flow_arc,
)
from ietlab.limitlab import (
    EmpiricalDistribution,
    EmpiricalProcess,
    _pairs_within,
    _path_reaching_tau,
    _sample_arcs,
    component_index,
    default_tau_grid,
    delta_measure,
    kr_coupling_oracle,
    kr_distance,
    limit_decay_report,
    lp_distance,
    lp_distance_grid,
    lp_distance_small_oracle,
    matching_network,
    maximum_bipartite_matching as matching_size,
    normalize_process,
    second_component_observable,
)

GOLD = (math.sqrt(5) - 1) / 2

TORUS_IET = IetData((0.7, 0.3), Permutation((2, 1)))


def desk_setup(n_steps=400):
    rng = default_rng(7)
    lengths = rng.random(4) + 0.05
    lengths = lengths / lengths.sum()
    iet = IetData(tuple(lengths), Permutation((4, 3, 2, 1)))
    zr = random_surface(iet, default_rng(11))
    return zr, induction_path(iet, n_steps)


@pytest.fixture(scope="module")
def desk():
    return desk_setup()


def frame_of(zr, path, window=80):
    return origin_frame(path, [float(h) for h in zr.heights], window)


@pytest.fixture(scope="module")
def desk_phi2(desk):
    zr, path = desk
    v2 = frame_of(zr, path, 160).second
    ladder = ReturnLadder(zr, path)
    phi2 = build_phi_from_vector(zr, frame_of(zr, path), v2, ladder=ladder)
    return v2, phi2, ladder


# --------------------------------------------------- distributions and grids

def test_empirical_distribution_basics():
    mu = EmpiricalDistribution((1.0, -1.0), (0.5, 0.5))
    assert mu.n == 2
    assert delta_measure(3.0).samples == (3.0,)
    with pytest.raises(DomainError):
        EmpiricalDistribution(())
    with pytest.raises(DomainError):
        EmpiricalDistribution((1.0, 2.0), (0.7, 0.7))
    with pytest.raises(DomainError):
        EmpiricalDistribution((1.0, 2.0), (1.2, -0.2))


def test_default_tau_grid_shape():
    grid = default_tau_grid()
    assert len(grid) == 17
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert all(b > a for a, b in zip(grid, grid[1:]))


def test_process_validation():
    grid = (0.0, 0.5, 1.0)
    with pytest.raises(DomainError):
        EmpiricalProcess((0.5, 1.0), np.zeros((3, 2)))
    with pytest.raises(DomainError):
        EmpiricalProcess(grid, np.ones((3, 3)))  # paths must start at zero
    with pytest.raises(DomainError):
        EmpiricalProcess(grid, np.zeros((0, 3)))
    proc = EmpiricalProcess(grid, np.array([[0.0, 0.5, 2.0],
                                            [0.0, -0.5, -2.0]]))
    assert proc.n_samples == 2


# ------------------------------------------------------------- sampling ops

def sample_paths(ladder, values, s, grid, n_samples, rng):
    """Paths tau -> arc integral of the level-0 crossing `values` over
    duration tau * e^s from area-uniform starts: the ladder's arc walk and
    the resampling loop."""
    stats = [ladder.register(values)]
    T = np.asarray(grid) * math.exp(s)

    def arcs(x, y):
        vals, ok = ladder.arcs(stats, x, y, T)
        return vals[..., 0], ok

    rows, _ = _sample_arcs(ladder.zr, rng, n_samples, arcs)
    return EmpiricalProcess(tuple(grid), rows)


def test_sample_process_zero_function(desk):
    zr, path = desk
    proc = sample_paths(ReturnLadder(zr, path), [0.0] * 4, 1.0,
                        (0.0, 0.5, 1.0), 100, default_rng(1))
    assert np.all(proc.paths == 0.0)
    with pytest.raises(DegenerateVariance):
        normalize_process(proc)


def test_sample_process_area_form_paths_linear(desk):
    # the heights vector values every crossing by its duration, so the
    # arc integral is elapsed time itself
    zr, path = desk
    h0 = [float(h) for h in zr.heights]
    grid = (0.0, 0.25, 1.0)
    s = 1.3
    proc = sample_paths(ReturnLadder(zr, path), h0, s, grid, 100,
                        default_rng(2))
    expected = np.array(grid) * math.exp(s)
    assert np.allclose(proc.paths, expected[None, :], atol=1e-9)


def test_sample_process_rejects_uncentered(desk):
    zr, path = desk
    with pytest.raises(DomainError, match="zero area integral"):
        limit_decay_report(zr, source=CellFunction((1.0, 1.0, 1.0, 1.0)),
                           s_values=(1.0,), n_samples=100,
                           rng=default_rng(4), path=path)
    with pytest.raises(DomainError, match="100 sample paths"):
        limit_decay_report(zr, source=CellFunction((0.0,) * 4),
                           s_values=(1.0,), n_samples=50,
                           rng=default_rng(4), path=path)


def _flow_oracle(zr, dens, x, y, T):
    """Integral of a cell function and of its absolute value, summed
    crossing by crossing along the vertical flow."""
    hts = [float(h) for h in zr.heights]
    end, crossings = vertical_flow(zr, SurfacePoint(x, y), T)
    pieces = [(c.interval_index - 1, hts[c.interval_index - 1] -
               (y if j == 0 else 0.0)) for j, c in enumerate(crossings)]
    pieces.append((zr.iet.interval_index(end.x),
                   end.y - (0.0 if crossings else y)))
    return (sum(dens[i] * dt for i, dt in pieces),
            sum(abs(dens[i]) * dt for i, dt in pieces))


def test_batched_arc_walk_matches_flow_oracle(desk):
    zr, path = desk
    dens = default_rng(90).normal(size=4)
    ladder = ReturnLadder(zr, path)
    stats = [ladder.register(CellFunction(tuple(dens)).level0_values(zr))]
    hts = np.array([float(h) for h in zr.heights])
    x, y = sample_points(zr, default_rng(91), 300)
    y[200:] = 0.0  # starts on the base as well as inside a rectangle
    roof = hts[np.searchsorted(zr.iet.breakpoints, x, side="right")] - y
    # zero, inside the first partial crossing, exactly at its roof, and
    # across a few up to hundreds of crossings (many ladder blocks)
    T = np.sort(np.column_stack([np.zeros(300), roof / 3.0, roof,
                                 np.full(300, 3.3), np.full(300, 41.0),
                                 np.full(300, 400.0)]), axis=1)
    vals, ok = ladder.arcs(stats, x, y, T)
    assert ok.all()
    for j in range(300):
        for k in range(T.shape[1]):
            want, scale = _flow_oracle(zr, dens, x[j], y[j], T[j, k])
            assert abs(vals[j, k, 0] - want) <= 1e-9 * max(scale, 1e-300)
    # starts off the base interval are refused, not evaluated
    _, ok = ladder.arcs(stats, np.array([-1e-3, float(zr.iet.total), 0.5]),
                        np.array([0.0, 0.0, 0.0]), [0.0, 5.0])
    assert ok.tolist() == [False, False, True]


def test_arc_evaluator_stacks_observables(desk, desk_phi2):
    # observables stacked in one arc walk each get the values of their own
    # walk, bit for bit; a point refused by any of them is refused
    zr, _ = desk
    _, phi2, ladder = desk_phi2
    cell = CellFunction(tuple(default_rng(92).normal(size=4)))
    stats = [ladder.register(cell.level0_values(zr)), phi2.stats]
    x, y = sample_points(zr, default_rng(93), 40)
    T = [0.0, 0.7, 3.3, 41.0]
    vals, ok = ladder.arcs(stats, x, y, T)
    assert vals.shape == (40, 4, 2)
    want_ok = np.ones(40, dtype=bool)
    for k, one_stats in enumerate(stats):
        one, ok_one = ladder.arcs([one_stats], x, y, T)
        want_ok &= ok_one
        assert vals[ok_one, :, k].tobytes() == one[ok_one, :, 0].tobytes()
    assert ok.tolist() == want_ok.tolist()


def test_resampling_redraws_in_stream_order(desk):
    # a batch redraw of the rejected starts keeps the rows, the rejection
    # count and the overflow condition of drawing one start at a time.
    # Every third start of the stream is refused, so the refusals fall in
    # several redraw rounds; 200 samples allow 50 + 200 // 10 of them
    zr, _ = desk
    budget = 50 + 200 // 10
    stream, _ = sample_points(zr, default_rng(5), 3 * budget + 3)
    for n_refused in (budget, budget + 1):
        refused = stream[:3 * n_refused:3]

        def arcs(x, y):
            return np.column_stack([x, y]), ~np.isin(x, refused)

        rng = default_rng(5)
        want, rejected = [], 0
        while len(want) < 200:
            p = sample_point(zr, rng)
            if p.x in refused:
                rejected += 1
            else:
                want.append([p.x, p.y])
        assert rejected == n_refused
        if n_refused > budget:
            with pytest.raises(RejectionOverflow):
                _sample_arcs(zr, default_rng(5), 200, arcs)
            continue
        rows, resamples = _sample_arcs(zr, default_rng(5), 200, arcs)
        assert resamples == rejected
        assert rows.tolist() == want


def test_normalize_process_unit_endpoint_variance():
    rng = default_rng(9)
    rows = np.cumsum(rng.normal(size=(300, 5)), axis=1)
    rows[:, 0] = 0.0
    proc = EmpiricalProcess((0.0, 0.2, 0.5, 0.8, 1.0), rows)
    out = normalize_process(proc)
    assert abs(np.var(out.paths[:, -1], ddof=1) - 1.0) < 1e-12
    again = normalize_process(EmpiricalProcess(proc.tau_grid,
                                               proc.paths * 7.0))
    assert np.allclose(again.paths, out.paths, atol=1e-12)
    flat = EmpiricalProcess((0.0, 1.0), np.zeros((50, 2)))
    with pytest.raises(DegenerateVariance):
        normalize_process(flat)


# ------------------------------------------------------------------ metrics

def test_kr_distance_point_masses():
    assert kr_distance(delta_measure(0.0), delta_measure(0.0)) == 0.0
    assert abs(kr_distance(delta_measure(0.0), delta_measure(0.5))
               - 0.5) < 1e-9
    # test functions are capped at sup norm 1, so far-apart masses max out
    assert abs(kr_distance(delta_measure(0.0), delta_measure(3.0))
               - 2.0) < 1e-9


def test_kr_distance_matches_generic_lp_oracle():
    rng = default_rng(12)
    for _ in range(4):
        mu = EmpiricalDistribution(tuple(rng.normal(size=15)))
        nu = EmpiricalDistribution(tuple(rng.normal(size=15) + 0.4))
        assert abs(kr_distance(mu, nu) -
                   kr_coupling_oracle(mu, nu)) < 1e-8


def test_lp_distance_point_masses():
    assert lp_distance(delta_measure(1.0), delta_measure(1.0)) == 0.0
    assert abs(lp_distance(delta_measure(0.0), delta_measure(0.5))
               - 0.5) < 1e-9
    # the Prohorov distance never exceeds one
    assert abs(lp_distance(delta_measure(0.0), delta_measure(3.0))
               - 1.0) < 1e-9


def test_lp_distance_matches_brute_force_oracle():
    rng = default_rng(13)
    for _ in range(4):
        mu = EmpiricalDistribution(tuple(rng.normal(size=6)))
        nu = EmpiricalDistribution(tuple(rng.normal(size=5) * 1.3))
        assert abs(lp_distance(mu, nu) -
                   lp_distance_small_oracle(mu, nu)) < 1e-8


@st.composite
def small_measures(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pts = draw(st.lists(st.floats(min_value=-5, max_value=5,
                                  allow_nan=False), min_size=n, max_size=n))
    return EmpiricalDistribution(tuple(pts))


@settings(max_examples=40, deadline=None)
@given(small_measures(), small_measures(), small_measures())
def test_metric_axioms(mu, nu, rho):
    for dist in (kr_distance, lp_distance):
        d_mn = dist(mu, nu)
        assert d_mn >= 0.0
        assert abs(dist(mu, mu)) < 1e-9
        assert abs(d_mn - dist(nu, mu)) < 1e-9
        assert d_mn <= dist(mu, rho) + dist(rho, nu) + 1e-9


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-3, max_value=3, allow_nan=False),
                min_size=2, max_size=12),
       st.floats(min_value=0.0, max_value=0.5))
def test_paired_sample_image_bound(xs, eps):
    # samples moved pointwise by at most eps stay within eps in both metrics
    rng = default_rng(abs(hash((tuple(xs), eps))) % (2 ** 32))
    shift = rng.uniform(-eps, eps, size=len(xs))
    mu = EmpiricalDistribution(tuple(xs))
    nu = EmpiricalDistribution(tuple(np.asarray(xs) + shift))
    assert lp_distance(mu, nu) <= eps + 1e-9
    assert kr_distance(mu, nu) <= eps + 1e-9


def test_grid_metrics_same_law_and_guards():
    rng = default_rng(21)
    rows = np.cumsum(rng.normal(size=(80, 4)), axis=1)
    rows[:, 0] = 0.0
    grid = (0.0, 0.3, 0.6, 1.0)
    p = EmpiricalProcess(grid, rows)
    assert lp_distance_grid(p, p) == 0.0
    q = EmpiricalProcess(grid, rows + np.array([0.0, 0.01, -0.02, 0.015]))
    # paired perturbation bounded by 0.02 in sup norm bounds the metric
    assert lp_distance_grid(p, q) <= 0.02 + 1e-12
    other = EmpiricalProcess(grid, rows[:40])
    with pytest.raises(DomainError):
        lp_distance_grid(p, other)
    # a guard on the path count, checked before any matching
    many = EmpiricalProcess((0.0, 1.0), np.zeros((2049, 2)))
    with pytest.raises(SizeLimit):
        lp_distance_grid(many, many)


def _lp_grid_dense(p1, p2) -> float:
    """Levy-Prohorov distance of path laws by a scan over every candidate:
    all pairwise sup distances, the multiples of 1/n, and 1 (reference)."""
    a, b = p1.paths, p2.paths
    n = len(a)
    dmat = np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)
    cands = np.unique(np.concatenate([dmat.ravel(), np.arange(n + 1) / n,
                                      [1.0]]))
    for eps in cands[cands <= 1.0]:
        match = maximum_bipartite_matching(csr_matrix(dmat <= eps),
                                           perm_type="column")
        if (n - int((match != -1).sum())) / n <= eps + 1e-15:
            return float(eps)
    raise AssertionError("eps = 1 is always feasible")


@given(st.integers(0, 2**32 - 1), st.integers(1, 30),
       st.sampled_from(["empty", "sparse", "dense", "complete"]),
       st.booleans())
def test_matching_size_equals_hopcroft_karp(seed, n, kind, repeat):
    # the flow solver on one network, at every prefix of its edge list,
    # against scipy's Hopcroft-Karp on that prefix's graph
    rng = default_rng(seed)
    if kind == "complete":
        rows, cols = np.divmod(rng.permutation(n * n), n)
    else:
        edges = {"empty": 0, "sparse": n, "dense": n * n // 2}[kind]
        rows, cols = rng.integers(0, n, edges), rng.integers(0, n, edges)
    if repeat:  # every edge listed twice, in shuffled order
        order = rng.permutation(2 * len(rows))
        rows = np.concatenate([rows, rows])[order]
        cols = np.concatenate([cols, cols])[order]
    network = matching_network(rows, cols, n)
    for edges in range(len(rows) + 1):
        adj = csr_matrix((np.ones(edges, dtype=bool),
                          (rows[:edges], cols[:edges])), shape=(n, n))
        expected = maximum_bipartite_matching(adj, perm_type="column")
        assert matching_size(network, edges) == int((expected != -1).sum())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 14), st.integers(2, 5),
       st.sampled_from(["paired", "shuffled", "coarse"]),
       st.floats(min_value=0.0, max_value=1.0))
def test_lp_distance_grid_matches_dense_search(seed, n, k, kind, noise):
    # paired rows give a tight identity-pairing bound, shuffled rows a weak
    # one; coarse values create ties between distances and multiples of 1/n
    rng = default_rng(seed)
    a = np.cumsum(rng.normal(size=(n, k)), axis=1)
    b = a + noise * rng.normal(size=(n, k))
    if kind == "shuffled":
        b = b[rng.permutation(n)]
    if kind == "coarse":
        a, b = np.round(a * 4) / 4, np.round(b * 4) / 4
    a[:, 0] = b[:, 0] = 0.0
    grid = tuple(np.linspace(0.0, 1.0, k))
    p, q = EmpiricalProcess(grid, a), EmpiricalProcess(grid, b)
    assert lp_distance_grid(p, q) == _lp_grid_dense(p, q)
    assert lp_distance_grid(q, p) == _lp_grid_dense(q, p)
    assert lp_distance_grid(p, p) == 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pairs_within_matches_all_pairs(seed):
    # values on a 1/64 grid, so sup distances tie and differences are exact
    rng = default_rng(seed)
    bound = 0.375
    a = rng.integers(0, 64, (60, 7)) / 64.0
    b = rng.integers(0, 64, (60, 7)) / 64.0
    a[11] = a[10]                      # duplicate rows on both sides
    b[5] = b[4]
    b[7] = a[3]                        # a pair at distance 0
    b[20] = a[20]
    a[20, 3] = 0.25
    b[20, 3] = 0.25 + bound            # a pair at exactly the bound
    a[30, 2] = np.nan                  # nan rows meet no bound
    b[40] = np.nan
    rows, cols, dist = _pairs_within(a, b, bound)
    sup = np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)
    want = {(i, j, sup[i, j]) for i, j in zip(*np.nonzero(sup <= bound))}
    got = list(zip(rows.tolist(), cols.tolist(), dist.tolist()))
    assert len(got) == len(set(got)) and set(got) == want
    assert {(3, 7, 0.0), (20, 20, bound)} <= want
    assert (np.diff(dist) >= 0.0).all()


# ----------------------------------------------------------- limit processes

def test_d2_plus_battery(desk, desk_phi2):
    # the limit object of `limit`: the normalized process of the second
    # cocycle over unit-time arcs, on the default grid
    zr, path = desk
    v2, _, ladder = desk_phi2

    def process(v):
        return normalize_process(sample_paths(
            ladder, v.tolist(), 0.0, default_tau_grid(), 600,
            default_rng(5)))

    proc = process(v2)
    assert abs(np.var(proc.paths[:, -1], ddof=1) - 1.0) < 1e-8
    assert np.all(np.abs(proc.paths.mean(axis=0)) <= 0.25)
    assert np.all(proc.paths[:, 0] == 0.0)
    mirror = process(-v2)
    assert np.allclose(mirror.paths, -proc.paths, atol=1e-9)
    # dyadic increment modulus: sup |xi(t+d) - xi(t)| ~ d^0.23 (measured
    # slope 0.23 on this surface; exponent floor from the second/top
    # exponent ratio minus the stated slack)
    grid = np.asarray(proc.tau_grid)
    gaps, sups = [], []
    for step in (1, 2, 4, 8):
        diffs = np.abs(proc.paths[:, step:] - proc.paths[:, :-step])
        gaps.append(math.log(grid[step] - grid[0]))
        sups.append(math.log(float(diffs.max())))
    slope = np.polyfit(gaps, sups, 1)[0]
    assert 0.1 < slope < 0.6


def test_d2_plus_rejects_genus_one():
    # the limit object is the second cocycle's process: none in genus one
    golden = ZipperedRectangle(IetData((GOLD, 1.0 - GOLD),
                                       Permutation((2, 1))), (-1.0, 1.0))
    with pytest.raises(DomainError, match="genus 1"):
        limit_decay_report(golden, s_values=(1.0,), n_samples=100,
                           rng=default_rng(6))


def test_component_index_classification(desk, desk_phi2):
    zr, path = desk
    v2, _, _ = desk_phi2
    h0 = np.array([float(h) for h in zr.heights])
    frame, wide = frame_of(zr, path), frame_of(zr, path, 160)
    assert component_index(zr, frame, h0) == 1
    assert component_index(zr, frame, v2) == 2
    w2 = frame.dual
    plane = wide.plane
    w = plane[:, 0] - float(w2 @ plane[:, 0]) * v2
    w = w / np.linalg.norm(w)
    assert component_index(zr, frame, w) == 3
    assert component_index(zr, frame, CellFunction((1.0,) * 4)) == 1
    f = second_component_observable(wide, frame)
    assert component_index(zr, frame, f) == 2


def test_component_index_classifies_a_centered_function(desk):
    # a function that is not constant per cell is classified by the
    # correction series built by quadrature, against the size of its
    # level-0 crossing integrals (measured: w2 . v = 0.267, |v| = 0.267)
    zr, path = desk
    wave = LipschitzFunction(lambda x, y: math.cos(2 * math.pi * x))
    mean = wave.nu_integral(zr) / float(zr.area)
    f = LipschitzFunction(lambda x, y: math.cos(2 * math.pi * x) - mean)
    assert component_index(zr, frame_of(zr, path), f) == 2


@pytest.mark.parametrize("sampler", [limit_decay_report],
                         ids=["limit_decay_report"])
def test_samplers_need_a_hundred_samples(desk, sampler):
    zr, path = desk
    with pytest.raises(DomainError, match="100 sample paths"):
        sampler(zr, s_values=(2.0,), n_samples=99, path=path)


def test_limit_decay_report_structure(desk):
    zr, path = desk
    rep = limit_decay_report(zr, s_values=(2.0, 4.0), n_samples=400,
                             rng=default_rng(50), path=path)
    assert rep["component"] == 2
    assert rep["n_increments"] == 1
    assert len(rep["distances"]) == 2
    assert all(0.0 < d < 1.0 for d in rep["distances"])
    assert all(c >= 0.0 for c in rep["refinement_changes"])
    assert rep["final_distance"] == rep["distances"][-1]


def test_limit_decay_report_rejects_bad_inputs(desk, desk_phi2,
                                               monkeypatch):
    from ietlab import limitlab

    zr, path = desk
    v2, _, _ = desk_phi2
    with pytest.raises(DomainError):
        limit_decay_report(zr, s_values=(-1.0, 2.0), n_samples=200,
                           path=path)
    with pytest.raises(DomainError):
        limit_decay_report(zr, s_values=(2.0,), n_samples=50, path=path)
    h0 = np.array([float(h) for h in zr.heights])
    w2 = frame_of(zr, path).dual
    plane = frame_of(zr, path, 160).plane
    w = plane[:, 0] - float(w2 @ plane[:, 0]) * v2
    w = w / np.linalg.norm(w)
    third = CellFunction(tuple(w / h0))
    with pytest.raises(DomainError):
        limit_decay_report(zr, source=third, s_values=(2.0,),
                           n_samples=200, path=path)

    # an observable that is not constant per cell has no ladder values:
    # refused before any level-0 frame is built
    def no_frame(*args):
        raise AssertionError("frame built for a refused source")

    monkeypatch.setattr(limitlab, "origin_frame", no_frame)
    wave = LipschitzFunction(lambda x, y: math.cos(2 * math.pi * x))
    with pytest.raises(DomainError, match="constant on each rectangle"):
        limit_decay_report(zr, source=wave, s_values=(2.0,),
                           n_samples=200, path=path)


def test_limit_decay_report_walks_once_per_batch(desk, monkeypatch):
    # both sides of the paired sample take the same ladder blocks, so each
    # batch of starts costs one walk of the tower, not one per side
    from ietlab import limitlab, rauzy

    walks, per_batch = [], []
    walk, sample_arcs = rauzy.Tower.walk, limitlab._sample_arcs

    def counted_walk(tower, *args, **kwargs):
        walks.append(tower)
        return walk(tower, *args, **kwargs)

    def counted_sample_arcs(zr, rng, n_samples, arcs):
        def batch(x, y):
            before = len(walks)
            out = arcs(x, y)
            per_batch.append(len(walks) - before)
            return out
        return sample_arcs(zr, rng, n_samples, batch)

    monkeypatch.setattr(rauzy.Tower, "walk", counted_walk)
    monkeypatch.setattr(limitlab, "_sample_arcs", counted_sample_arcs)
    zr, path = desk
    limit_decay_report(zr, s_values=(2.0,), n_samples=100,
                       rng=default_rng(51), path=path)
    assert per_batch and per_batch == [1] * len(per_batch)


def test_path_reaching_tau_stops_on_a_rational_exchange():
    # induction of the 0.7/0.3 torus reaches lengths of roundoff size after
    # a few steps, and its clock stays at 2.302585 from then on: the first
    # doubling that adds no time raises, long before the 10^6-step cap
    start = time.perf_counter()
    with pytest.raises(NonConvergenceError):
        _path_reaching_tau(TORUS_IET, 10.0)
    assert time.perf_counter() - start < 1.0


def test_origin_frames_sweep_each_window_once(desk, monkeypatch, tmp_path):
    # every level-0 frame is built once per path and window and passed on:
    # no QR sweep repeats an earlier one on the same path over the same
    # levels from the same frame, in `limit_decay_report` or in `cocycle`
    from ietlab import cli, cocycle

    sweeps = []
    original = cocycle.CocyclePath.sweep

    def recorder(path, q, start, stop):
        sweeps.append((path, start, stop, np.array(q)))
        return original(path, q, start, stop)

    monkeypatch.setattr(cocycle.CocyclePath, "sweep", recorder)
    zr, path = desk
    limit_decay_report(zr, s_values=(2.0,), n_samples=100,
                       rng=default_rng(51), path=path)
    n_limit = len(sweeps)
    assert cli.main(["cocycle", "--perm", "4,3,2,1", "--seed", "1",
                     "--out", str(tmp_path)]) == 0
    # `cocycle` builds one frame, over the window of its second direction
    assert n_limit > 0 and len(sweeps) - n_limit == 2
    for i, (p, start, stop, q) in enumerate(sweeps):
        for p0, start0, stop0, q0 in sweeps[:i]:
            assert not (p is p0 and (start, stop) == (start0, stop0)
                        and np.array_equal(q, q0)), \
                f"sweep {i} repeats an earlier one"


# ------------------------------------------------------------ atom analysis

def test_big_rectangle_atom():
    # surface with a dominant first rectangle: arcs of duration h1 started
    # where both the point and its exchange image lie in the first interval
    # all integrate to the same value, an atom of predictable mass
    rest = default_rng(29).random(3) + 0.05
    rest *= 0.3 / rest.sum()
    iet = IetData((0.7, *map(float, rest)), Permutation((4, 3, 2, 1)))
    zr0 = random_surface(iet, default_rng(3))
    a0 = area(zr0)
    zr = ZipperedRectangle(iet, tuple(float(d) / a0 for d in zr0.delta))
    h1 = float(zr.heights[0])
    path = induction_path(iet, 120)
    v2 = frame_of(zr, path, 120).second
    phi2 = build_phi_from_vector(zr, frame_of(zr, path), v2)
    rng = default_rng(17)
    n = 2000
    vals, hits = [], 0
    while len(vals) < n:
        p = sample_point(zr, rng)
        try:
            value, _ = evaluate_on_flow_arc(phi2, p, h1)
        except DomainError:
            continue
        vals.append(value)
        # under the reversal the first interval shifts by 1 - lambda_1
        if p.x < 2 * 0.7 - 1.0 and p.y < h1:
            hits += 1
            assert abs(value - v2[0]) < 1e-9
    predicted = (2 * 0.7 - 1.0) * h1
    at_value = np.abs(np.array(vals) - v2[0]) < 1e-7
    assert at_value.any(), "no values at the predicted constant value"
    slack = 3.0 * math.sqrt(predicted * (1 - predicted) / n)
    assert at_value.mean() >= predicted - slack
    assert hits / n >= predicted - slack


def test_probe_atom_mass_at_fat_time():
    lam1 = 1.0 - 1.0 / (99.0 + GOLD)
    torus = ZipperedRectangle(IetData((lam1, 1.0 - lam1),
                                      Permutation((2, 1))), (-1.0, 1.0))
    f = CellFunction((1.0, -lam1 / (1.0 - lam1)))
    ladder = ReturnLadder(torus, _path_reaching_tau(torus.iet, 6.0))
    proc = normalize_process(sample_paths(
        ladder, f.level0_values(torus), 0.0, (0.0, 1.0), 2000,
        default_rng(71)))
    # the largest atom: a run of sorted values with gaps of at most 1e-9
    end = np.sort(proc.paths[:, -1])
    runs = np.split(end, np.flatnonzero(np.diff(end) > 1e-9) + 1)
    largest = max(len(run) for run in runs) / len(end)
    predicted = 2 * lam1 - 1.0  # h1 = 1 on this torus
    assert largest >= predicted - 3.0 * math.sqrt(
        predicted * (1 - predicted) / 2000)
