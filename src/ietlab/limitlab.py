"""Distributional limit experiments for vertical-arc functionals.

Empirical scalar distributions and path processes sampled from the
suspension flow, and probability metrics (bounded-Lipschitz and
Levy-Prohorov) computed exactly on empirical data, with small LP oracles
for validation.  The Levy-Prohorov search between paired samples keeps
only the pairs its matchings can use, pruned one grid column at a time.

`limit_decay_report` runs the limit experiment: it builds one induction
path, long enough for the largest stretch time, and one return ladder,
which it shares with `component_index`.  Both sides of the comparison are
cell observables registered on that ladder, the integrand and the second
cocycle, and `ReturnLadder.arcs` sums both over the sample arcs in one
walk per batch.  `_sample_arcs` redraws refused starts within a budget of
50 + n_samples // 10.

scipy is imported inside the metric functions that use it, on their first
call, not with this module: importing it costs about 0.6 s and 40 MB, and
only `limit` and `metrics-selftest` compute these metrics, while every
`ietlab` command imports this module through the CLI.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng

from .cocycle import OriginFrame, induction_path, origin_frame
from .errors import (DegenerateVariance, DomainError, NonConvergenceError,
                     RejectionOverflow, SizeLimit)
from .finadd import (CellFunction, ReturnLadder, _arc_integral_vector,
                     build_phi_f)
from .zippered import sample_points

# Levels of the correction series that classify an observable.
_SERIES_DEPTH = 18


# ------------------------------------------------------------- data types

@dataclass(frozen=True)
class EmpiricalDistribution:
    """Weighted atomic probability measure on the line."""

    samples: tuple
    weights: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "samples",
                           tuple(float(x) for x in self.samples))
        if len(self.samples) == 0:
            raise DomainError("empirical distribution needs at least one atom")
        if self.weights is not None:
            w = tuple(float(v) for v in self.weights)
            if len(w) != len(self.samples):
                raise DomainError("one weight per sample required")
            if min(w) < 0:
                raise DomainError("weights must be non-negative")
            if abs(sum(w) - 1.0) > 1e-9:
                raise DomainError("weights must sum to one")
            object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return len(self.samples)

    def weight_array(self) -> np.ndarray:
        if self.weights is None:
            return np.full(self.n, 1.0 / self.n)
        return np.asarray(self.weights, dtype=float)


def delta_measure(x: float = 0.0) -> EmpiricalDistribution:
    """Point mass at x."""
    return EmpiricalDistribution((float(x),))


def default_tau_grid(n_points: int = 17) -> tuple:
    """Evenly spaced time grid on [0, 1] including both endpoints."""
    if n_points < 2:
        raise DomainError("grid needs at least the two endpoints")
    return tuple(float(t) for t in np.linspace(0.0, 1.0, n_points))


def _check_tau_grid(tau_grid) -> tuple:
    grid = tuple(float(t) for t in tau_grid)
    if len(grid) < 2:
        raise DomainError("grid needs at least the two endpoints")
    if grid[0] != 0.0 or grid[-1] != 1.0:
        raise DomainError("grid must start at 0 and end at 1")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("grid must be strictly increasing")
    return grid


@dataclass(frozen=True, eq=False)
class EmpiricalProcess:
    """Sampled paths of a scalar process on a fixed time grid in [0, 1]."""

    tau_grid: tuple
    paths: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        grid = _check_tau_grid(self.tau_grid)
        object.__setattr__(self, "tau_grid", grid)
        paths = np.asarray(self.paths, dtype=float)
        if paths.ndim != 2 or paths.shape[1] != len(grid):
            raise DomainError("paths must be a samples-by-grid matrix")
        if paths.shape[0] == 0:
            raise DomainError("process needs at least one sample path")
        if np.any(paths[:, 0] != 0.0):
            raise DomainError("every path must start at zero")
        object.__setattr__(self, "paths", paths)

    @property
    def n_samples(self) -> int:
        return self.paths.shape[0]


def _path_reaching_tau(iet, tau_target: float):
    """Elementary induction path whose total renormalization time covers
    the target, grown by doubling from 64 steps.

    A doubling that adds under 1e-9 of time only moves lengths of roundoff
    size (an exchange with rational lengths, induced down to float noise),
    so the loop stops there: a true length ratio that small would need
    more than the 10^6-step cap.
    """
    n, reached = 64, -math.inf
    while True:
        path = induction_path(iet, n)
        tau = path.total_tau(len(path))
        if tau >= tau_target:
            return path
        if n > 1_000_000 or tau - reached < 1e-9:
            raise NonConvergenceError("induction path fails to accumulate "
                                      "renormalization time")
        n, reached = 2 * n, tau


def _check_centered(zr, source) -> None:
    total = float(source.nu_integral(zr))
    scale = max(abs(v) for v in source.level0_values(zr))
    if abs(total) > 1e-8 * max(1.0, scale):
        raise DomainError("integrand must have zero area integral")


def _sample_arcs(zr, rng, n_samples: int, arcs):
    """Rows of arc values from area-uniform starts on `zr`.

    `arcs(x, y)` evaluates a batch of starts and returns their rows and a
    mask of the accepted ones.  Rejected starts are redrawn from the stream,
    so the rows are those of the first accepted starts in draw order, the
    same as drawing and evaluating one start at a time; more than
    50 + n_samples // 10 rejections raise RejectionOverflow.  Returns (rows,
    number of rejected starts).
    """
    max_resamples = 50 + n_samples // 10
    parts = []
    resamples = 0
    need = n_samples
    while need:
        x, y = sample_points(zr, rng, need)
        rows, ok = arcs(x, y)
        accepted = int(ok.sum())
        resamples += need - accepted
        if resamples > max_resamples:
            raise RejectionOverflow(
                f"{resamples} rejected starts for {n_samples} samples")
        parts.append(rows[ok])
        need -= accepted
    return np.concatenate(parts), resamples


def normalize_process(proc: EmpiricalProcess) -> EmpiricalProcess:
    """Divide all paths by the standard deviation of the endpoint values."""
    end = proc.paths[:, -1]
    v = float(np.var(end, ddof=1))
    if v < 1e-12:
        raise DegenerateVariance("endpoint variance too small to normalize")
    scl = math.sqrt(v)
    meta = dict(proc.meta)
    meta["variance_scale"] = scl
    meta["normalized"] = True
    return EmpiricalProcess(proc.tau_grid, proc.paths / scl, meta)


# ------------------------------------------------- bounded-Lipschitz metric

def _merged_signed_atoms(mu: EmpiricalDistribution,
                         nu: EmpiricalDistribution):
    pts = np.concatenate([np.asarray(mu.samples), np.asarray(nu.samples)])
    support, inverse = np.unique(pts, return_inverse=True)
    c = np.zeros(len(support))
    np.add.at(c, inverse[:mu.n], mu.weight_array())
    np.add.at(c, inverse[mu.n:], -nu.weight_array())
    return support, c

def kr_distance(mu: EmpiricalDistribution,
                nu: EmpiricalDistribution) -> float:
    """Bounded-Lipschitz distance: sup of the integral difference over test
    functions with Lipschitz constant and sup norm both at most one.

    Solved exactly as a linear program over the merged support (adjacent
    Lipschitz constraints suffice on the line).
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix
    support, c = _merged_signed_atoms(mu, nu)
    n = len(support)
    if n == 1:
        return 0.0
    gaps = np.diff(support)
    rows, cols, data, b = [], [], [], []
    for i in range(n - 1):
        rows += [2 * i, 2 * i, 2 * i + 1, 2 * i + 1]
        cols += [i + 1, i, i + 1, i]
        data += [1.0, -1.0, -1.0, 1.0]
        b += [gaps[i], gaps[i]]
    a_ub = csr_matrix((data, (rows, cols)), shape=(2 * (n - 1), n))
    res = linprog(-c, A_ub=a_ub, b_ub=np.array(b), bounds=(-1.0, 1.0),
                  method="highs")
    if not res.success:
        raise NonConvergenceError("test-function linear program failed")
    return max(0.0, float(-res.fun))


def kr_coupling_oracle(mu: EmpiricalDistribution,
                       nu: EmpiricalDistribution) -> float:
    """Primal transport form of the bounded-Lipschitz distance (validation).

    Minimizes the coupling integral of min(|x - y|, 2); small instances
    only (at most 50 atoms a side).
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix
    if mu.n > 50 or nu.n > 50:
        raise SizeLimit("coupling oracle limited to small instances")
    x = np.asarray(mu.samples)
    y = np.asarray(nu.samples)
    cost = np.minimum(np.abs(x[:, None] - y[None, :]), 2.0)
    n, m = cost.shape
    rows, cols, data = [], [], []
    for i in range(n):
        for j in range(m):
            rows.append(i)
            cols.append(i * m + j)
            data.append(1.0)
    for j in range(m):
        for i in range(n):
            rows.append(n + j)
            cols.append(i * m + j)
            data.append(1.0)
    a_eq = csr_matrix((data, (rows, cols)), shape=(n + m, n * m))
    b_eq = np.concatenate([mu.weight_array(), nu.weight_array()])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    if not res.success:
        raise NonConvergenceError("coupling linear program failed")
    return float(res.fun)


# --------------------------------------------------- Levy-Prohorov metric

def _one_sided_excess(apts, aw, bpts, bcum, eps: float) -> float:
    """max over atom sets S of first measure of  a(S) - b(closed eps-hull)."""
    n = len(apts)
    best = 0.0
    dp = np.empty(n)
    keys = np.empty(n)  # dp_j + b-mass up to a_j + eps (chain extension key)
    dq: deque = deque()
    ptr = 0
    pref_best = 0.0
    for i in range(n):
        ai = apts[i]
        lo = ai - 2.0 * eps
        while ptr < i and apts[ptr] < lo:
            pref_best = max(pref_best, dp[ptr])
            while dq and dq[0] <= ptr:
                dq.popleft()
            ptr += 1
        right_mass = bcum[bisect.bisect_right(bpts, ai + eps)]
        left_mass = bcum[bisect.bisect_left(bpts, ai - eps)]
        val = aw[i] - right_mass + left_mass + max(0.0, pref_best)
        if dq:
            val = max(val, aw[i] - right_mass + keys[dq[0]])
        dp[i] = val
        keys[i] = val + right_mass
        while dq and keys[dq[-1]] <= keys[i]:
            dq.pop()
        dq.append(i)
        if val > best:
            best = val
    return best


def _atoms_sorted(mu: EmpiricalDistribution):
    pts = np.asarray(mu.samples)
    support, inverse = np.unique(pts, return_inverse=True)
    w = np.zeros(len(support))
    np.add.at(w, inverse, mu.weight_array())
    cum = np.concatenate([[0.0], np.cumsum(w)])
    return support, w, cum


def _prohorov_feasible(a, b, eps: float) -> bool:
    if _one_sided_excess(a[0], a[1], b[0], b[2], eps) > eps + 1e-14:
        return False
    return _one_sided_excess(b[0], b[1], a[0], a[2], eps) <= eps + 1e-14


def lp_distance(mu: EmpiricalDistribution,
                nu: EmpiricalDistribution) -> float:
    """Levy-Prohorov distance between atomic measures on the line.

    Uses closed eps-inflations; the worst Borel set on either side is a
    union of atoms, maximized exactly by a left-to-right chain scan, and
    the smallest feasible eps is found by bisection (always at most 1) to
    within 1e-12.
    """
    a = _atoms_sorted(mu)
    b = _atoms_sorted(nu)
    lo, hi = 0.0, 1.0
    if _prohorov_feasible(a, b, 0.0):
        return 0.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if _prohorov_feasible(a, b, mid):
            hi = mid
        else:
            lo = mid
    return hi


def lp_distance_small_oracle(mu: EmpiricalDistribution,
                             nu: EmpiricalDistribution) -> float:
    """Brute-force Levy-Prohorov value over all atom subsets (validation;
    at most 12 atoms a side)."""
    a = _atoms_sorted(mu)
    b = _atoms_sorted(nu)
    if len(a[0]) > 12 or len(b[0]) > 12:
        raise SizeLimit("brute-force oracle limited to small instances")

    def side_requirement(first, second) -> float:
        fpts, fw, _ = first
        spts, sw, _ = second
        worst = 0.0
        nf = len(fpts)
        for mask in range(1, 1 << nf):
            idx = [i for i in range(nf) if mask >> i & 1]
            mass = float(sum(fw[i] for i in idx))
            dists = np.array([min(abs(s - fpts[i]) for i in idx)
                              for s in spts])
            order = np.argsort(dists)
            # scan the step function eps -> mass - second(closed hull)
            breaks = [0.0] + [float(dists[j]) for j in order]
            covered = [0.0]
            run = 0.0
            for j in order:
                run += float(sw[j])
                covered.append(run)
            best_eps = math.inf
            for k in range(len(breaks)):
                seg_lo = breaks[k]
                seg_hi = breaks[k + 1] if k + 1 < len(breaks) else math.inf
                need = mass - covered[k]
                cand = max(seg_lo, need)
                if cand < seg_hi:
                    best_eps = min(best_eps, cand)
            worst = max(worst, best_eps)
        return worst

    return max(0.0, side_requirement(a, b), side_requirement(b, a))


def _pairs_within(a: np.ndarray, b: np.ndarray, bound: float):
    """Pairs (i, j) with sup distance |a_i - b_j| at most `bound`.

    The sup distance is at least the gap between the last grid values, so
    sorting that column of b finds every pair in reach.  The distance of
    those pairs is then a running maximum taken one column at a time, from
    the last, and a pair leaves as soon as it exceeds the bound (a nan
    never meets it); a float maximum is exact in any order, so the
    survivors' distances are their full sup distances.  Returns row and
    column indices and distances, sorted by distance.
    """
    n, k = a.shape
    order = np.argsort(b[:, -1])
    ends = b[order, -1]
    # widened so that rounding in the window ends cannot drop a pair; the
    # exact test below decides
    reach = bound + 1e-9 * (1.0 + np.abs(a[:, -1]))
    lo = ends.searchsorted(a[:, -1] - reach, side="left")
    hi = ends.searchsorted(a[:, -1] + reach, side="right")
    counts = hi - lo
    rows = np.repeat(np.arange(n), counts)
    at = np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts,
                                             counts)
    # the last column's values of b are the sorted ends
    dist = np.abs(np.repeat(a[:, -1], counts) - ends[at])
    keep = np.flatnonzero(dist <= bound)
    rows, cols, dist = rows[keep], order[at[keep]], dist[keep]
    a_cols, b_cols = a.T.copy(), b.T.copy()  # a contiguous row per column
    for c in range(k - 2, -1, -1):
        np.maximum(dist, np.abs(a_cols[c].take(rows) - b_cols[c].take(cols)),
                   out=dist)
        keep = np.flatnonzero(dist <= bound)
        rows, cols, dist = rows[keep], cols[keep], dist[keep]
    keep = np.argsort(dist)
    return rows[keep], cols[keep], dist[keep]


def matching_network(rows: np.ndarray, cols: np.ndarray, n: int):
    """Flow network of the bipartite graph on n rows and n columns with an
    edge from row rows[k] to column cols[k] for each k, for matchings on
    any prefix of that edge list.

    Vertices are rows 0..n-1, columns n..2n-1, source 2n and sink 2n+1;
    arcs run source -> rows -> columns -> sink.  Returns the arcs as a
    CSR matrix, one slot per distinct arc in CSR order, and each slot's
    rank: the first k at which its edge is listed, negative for the source
    and sink arcs.  Repeated edges share a slot.
    """
    from scipy.sparse import csr_matrix
    size, source, sink = 2 * n + 2, 2 * n, 2 * n + 1
    ends = np.arange(n)
    tails = np.concatenate([np.full(n, source), ends + n, rows])
    heads = np.concatenate([ends, np.full(n, sink), cols + n])
    arcs, first = np.unique(tails * size + heads, return_index=True)
    indptr = (arcs // size).searchsorted(np.arange(size + 1))
    graph = csr_matrix((np.ones(len(arcs), dtype=np.int32), arcs % size,
                        indptr), shape=(size, size))
    return graph, first - 2 * n


def maximum_bipartite_matching(network, edges: int) -> int:
    """Size of a maximum matching of a :func:`matching_network`'s graph
    restricted to its first `edges` listed edges.

    Only the capacities change: 1 on the source and sink arcs and on the
    slots of rank below `edges`, 0 on the rest.  Solved as a unit-capacity
    maximum flow by Dinic's method, which takes O(E sqrt(V)) time on such
    networks whatever the graph.  scipy's Hopcroft-Karp
    `maximum_bipartite_matching` has no such bound in practice: it ran for
    minutes on one graph of `limit --perm 4,3,2,1 --seed 4`.
    """
    from scipy.sparse.csgraph import maximum_flow
    graph, rank = network
    graph.data[:] = rank < edges
    size = graph.shape[0]
    return int(maximum_flow(graph, size - 2, size - 1,
                            method="dinic").flow_value)


# Most paths per law that `lp_distance_grid` matches.
_MAX_GRID_PATHS = 2048


def lp_distance_grid(p1: EmpiricalProcess, p2: EmpiricalProcess) -> float:
    """Levy-Prohorov distance between empirical path laws (sup metric).

    For equal uniform sample counts the smallest feasible inflation is
    determined by maximum matchings: mass that cannot be matched within
    eps must be at most eps.  The answer is the smallest feasible value
    among the candidates: every pairwise sup distance, every multiple of
    1/n, and 1.  Pairing path i with path i is itself a matching, so the
    smallest candidate at which that pairing is feasible bounds the answer
    and is feasible.  Only the pairs within that bound are computed, and
    the bisection runs over the candidates up to it; feasibility is
    monotone in eps, so the search is exact.  The pairs, sorted by
    distance, make one :func:`matching_network`; the solve at eps matches
    on the prefix of pairs within eps, which only sets capacities.
    """
    if p1.n_samples != p2.n_samples:
        raise DomainError("process distance needs equal sample counts")
    n = p1.n_samples
    if n > _MAX_GRID_PATHS:
        raise SizeLimit("too many paths for the matching search")
    if p1.tau_grid != p2.tau_grid:
        raise DomainError("processes live on different grids")
    a, b = p1.paths, p2.paths
    levels = np.concatenate([np.arange(n + 1) / n, [1.0]])
    diag = np.sort(np.abs(a - b).max(axis=1))
    cands = np.unique(np.concatenate([diag, levels]))
    cands = cands[cands <= 1.0]
    unmatched = n - diag.searchsorted(cands, side="right")
    bound = float(cands[np.argmax(unmatched / n <= cands + 1e-15)])
    rows, cols, dist = _pairs_within(a, b, bound)
    network = matching_network(rows, cols, n)

    def feasible(eps: float) -> bool:
        edges = int(dist.searchsorted(eps, side="right"))
        matched = maximum_bipartite_matching(network, edges)
        return (n - matched) / n <= eps + 1e-15

    cands = np.unique(np.concatenate([dist, levels]))
    cands = cands[cands <= bound]
    lo, hi = 0, len(cands) - 1
    if feasible(float(cands[0])):
        return float(cands[0])
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(float(cands[mid])):
            hi = mid
        else:
            lo = mid
    return float(cands[hi])


# ------------------------------------------------------- limit experiment

def component_index(zr, frame: OriginFrame, source,
                    ladder: ReturnLadder | None = None) -> int:
    """Index of the first expanding component carried by the observable.

    1 for a non-centered observable (or a vector with top-direction mass),
    2 when the second expanding coefficient is above the relative threshold
    1e-6, and 3 when no expanding component remains (deeper indices are not
    separated here).  The correction series of a function runs on `ladder`,
    built along the frame's path when None.
    """
    threshold = 1e-6
    h0 = np.array([float(h) for h in zr.heights])
    lam = np.array([float(l) for l in zr.iet.lengths])
    ref = None
    if isinstance(source, (list, tuple, np.ndarray)):
        v = np.asarray(source, dtype=float)
    else:
        level0 = source.level0_values(zr)
        scale = max(abs(x) for x in level0) if level0 else 1.0
        if abs(float(source.nu_integral(zr))) > threshold * max(1.0, scale):
            return 1
        phi = build_phi_f(zr, frame, source, depth=_SERIES_DEPTH,
                          ladder=ladder)
        v = np.array([float(x) for x in phi.base_values])
        # classify against the size of the observable itself (its level-0
        # crossing integrals), not of its expanding projection: a purely
        # contracted observable projects to a vector of roundoff size whose
        # direction is meaningless
        crossings = _arc_integral_vector(zr, source, phi.ladder, 0)
        ref = float(np.linalg.norm(crossings * h0))
    norm = float(np.linalg.norm(v))
    if ref is None:
        ref = norm
    if norm == 0 or ref == 0:
        return 3
    if abs(float(lam @ v)) > threshold * float(np.linalg.norm(lam)) * ref:
        return 1
    if abs(float(frame.dual @ v)) > threshold * ref:
        return 2
    return 3


def second_component_observable(wide: OriginFrame,
                                frame: OriginFrame) -> CellFunction:
    """A centered cell observable dominated by the second cocycle.

    The observable integrates, per column crossing, to the second unstable
    direction of `wide` plus 0.15 times an in-plane contracted direction,
    the one that the dual covector of `frame` does not see; its ergodic
    integrals then equal the second-cocycle paths up to a bounded
    remainder, which is the regime where the normalized integral law
    approaches the pure cocycle law.  Both frames belong to one surface's
    path, `wide` over the longer window.
    """
    v2, plane = wide.second, wide.plane
    w = plane[:, 0] - float(frame.dual @ plane[:, 0]) * v2
    w = w / np.linalg.norm(w)
    return CellFunction(tuple((v2 + 0.15 * w) / frame.h0))


def limit_decay_report(zr, source=None, s_values=(2.0, 4.0, 6.0, 8.0),
                       tau_grid=None, n_samples: int = 2000, rng=None,
                       path=None) -> dict:
    """Distance from the normalized integral law to its limit object.

    For each stretch time s the law of the normalized ergodic-integral
    process of `source` over arcs of duration e^s is compared with the
    pure second-cocycle process of the time-s flowed surface, presented
    through the chart correspondence as the cocycle on the matching arcs.
    Both sides are evaluated on common starting points (the paired-sample
    construction), so the Levy-Prohorov distances estimate the law
    distance without the independent-two-sample floor, which at this
    sample size would exceed the distances being measured.  Both sides
    are cell observables, so each batch of starting points goes through
    one `ReturnLadder.arcs` walk that sums both; a start refused there is
    redrawn, and a `source` that is not constant on each rectangle is
    refused.  Pairing each path with its
    own partner bounds each distance, which keeps the matching search to
    the pairs within that bound.

    Every distance is recomputed on the midpoint-refined grid.  The
    refinement study reports changes relative to the largest distance in
    the sweep: once the decay has run its course the distances sit at the
    scale of the bounded remainder's oscillation, where a point-relative
    ratio no longer measures grid quality.
    """
    s_vals = [float(s) for s in s_values]
    if not s_vals or not all(0.0 <= s < math.inf for s in s_vals):
        raise DomainError("stretch times must be finite and nonnegative")
    grid = _check_tau_grid(default_tau_grid() if tau_grid is None else
                           tau_grid)
    if n_samples < 100:
        raise DomainError("need at least 100 sample paths")
    if source is not None and source.level0_values(zr) is None:
        raise DomainError("the ladder walks only observables that are "
                          "constant on each rectangle")
    rng = default_rng(0) if rng is None else rng
    if path is None:
        path = _path_reaching_tau(zr.iet, max(s_vals) + 7.0)
    h0 = [float(h) for h in zr.heights]
    frame = origin_frame(path, h0, 80)
    wide = origin_frame(path, h0, 160)
    if source is None:
        source = second_component_observable(wide, frame)
    _check_centered(zr, source)
    ladder = ReturnLadder(zr, path)
    idx = component_index(zr, frame, source, ladder)
    if idx != 2:
        raise DomainError("decay comparison needs a second-component "
                          f"observable, got index {idx}")
    stats = [ladder.register(source.level0_values(zr)),
             ladder.register(wide.second.tolist())]
    garr = np.asarray(grid)
    fine = np.sort(np.concatenate([garr, (garr[:-1] + garr[1:]) / 2.0]))
    rows = []
    for s in s_vals:
        T_list = fine * math.exp(s)
        pairs, resamples = _sample_arcs(
            zr, rng, n_samples,
            lambda x, y: ladder.arcs(stats, x, y, T_list))
        rf, rp = pairs[..., 0], pairs[..., 1]
        rf[:, 0] = 0.0
        rp[:, 0] = 0.0
        d_coarse = lp_distance_grid(
            normalize_process(EmpiricalProcess(grid, rf[:, ::2], {"s": s})),
            normalize_process(EmpiricalProcess(grid, rp[:, ::2], {"s": s})))
        d_fine = lp_distance_grid(
            normalize_process(EmpiricalProcess(tuple(fine), rf, {"s": s})),
            normalize_process(EmpiricalProcess(tuple(fine), rp, {"s": s})))
        rows.append({"s": s, "distance": d_coarse,
                     "refined_distance": d_fine,
                     "resamples": int(resamples)})
    dists = [r["distance"] for r in rows]
    dmax = max(dists)
    for r in rows:
        r["refinement_change"] = (abs(r["refined_distance"] - r["distance"])
                                  / dmax if dmax > 0 else 0.0)
    inc = np.diff(dists)
    return {"component": idx,
            "s_values": s_vals,
            "distances": dists,
            "refined_distances": [r["refined_distance"] for r in rows],
            "refinement_changes": [r["refinement_change"] for r in rows],
            "max_refinement_change": max(r["refinement_change"]
                                         for r in rows),
            "decreasing_increments": int((inc < 0).sum()),
            "n_increments": int(len(inc)),
            "final_distance": dists[-1],
            "n_samples": int(n_samples),
            "rows": rows}
