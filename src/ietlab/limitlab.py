"""Distributional limit experiments for vertical-arc functionals.

Samples are plain arrays: a law on the line is a 1-D array of samples and
a law of paths an (n, k) array, one sampled path per row on a fixed time
grid, each sample an atom of weight 1/n.  The Levy-Prohorov distances
between them are exact, and both run one kernel, `_lp_matching`: a
search over the finitely many candidate values, each tested by a maximum
matching between two equal-size uniform samples (exact by Strassen's
theorem and Birkhoff-von Neumann).  The path metric runs it on the
sampled paths, and the line's metric on one sorted column, each law's
atoms repeated to the lcm of the two counts.  The search keeps only the
pairs its matchings can use, found on a grid of cells over two columns
and pruned one column at a time.  Its matchings are Hopcroft-Karp phases
on plain arrays, each solve starting from the matching of a shorter
prefix of the same pairs.  Both distances refuse empty, misshapen or
non-finite samples.

`limit_decay_report` runs the limit experiment: it builds one induction
path, long enough for the largest stretch time, and one return ladder,
which it shares with `component_index`.  Both sides of the comparison are
cell observables registered on that ladder, the integrand and the second
cocycle, and `ReturnLadder.arcs` sums both over the sample arcs in one
walk per batch.  `_sample_arcs` redraws refused starts within a budget of
50 + n_samples // 10.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.random import default_rng

from .cocycle import OriginFrame, induction_path, origin_frame
from .errors import (DegenerateVariance, DomainError, NonConvergenceError,
                     RejectionOverflow, SizeLimit)
from .finadd import (CellFunction, ReturnLadder, _arc_integral_vector,
                     build_phi_f)
from .rauzy import _distinct
from .zippered import sample_points

# Levels of the correction series that classify an observable.
_SERIES_DEPTH = 18


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


def normalize_process(paths: np.ndarray) -> np.ndarray:
    """Divide (n, k) sample paths by the standard deviation of their
    endpoint values."""
    v = float(np.var(paths[:, -1], ddof=1))
    if v < 1e-12:
        raise DegenerateVariance("endpoint variance too small to normalize")
    return paths / math.sqrt(v)


# --------------------------------------------------- Levy-Prohorov metric

# Cells per axis of the grid in `_pairs_within`: wider cells keep its cut
# exact, and the cell keys stay below 2**40.
_GRID_CELLS = 1 << 20


def _runs(start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The indices start[i]..stop[i] - 1 of every run, concatenated."""
    count = stop - start
    return np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count,
                                              count)


def _pairs_within(a: np.ndarray, b: np.ndarray, bound: float):
    """Pairs (i, j) with sup distance |a_i - b_j| at most `bound`.

    The sup distance is at least the gap in any one column, so the first
    cut puts the rows of a and b on a grid of cells over two columns, the
    last and the middle one (twice the one column when k = 1).  Each axis
    has at most 2**20 cells, each at least as wide as the reach: the bound,
    widened so that rounding in the cell keys cannot put a pair in reach
    two cells apart.  A pair in reach then lies in neighbouring cells, and
    with b's rows sorted by cell key the 3 x 3 cells around a row of a are
    three runs.  The distance of the candidates is then a running maximum
    taken one column at a time, from the last, and a pair leaves as soon
    as it exceeds the bound; a float maximum is exact in any order, so the
    survivors' distances are their full sup distances.  The rows of a and
    b are finite.  Returns row and column indices and distances, sorted by
    distance.
    """
    k = a.shape[1]
    cut = [k - 1, (k - 1) // 2]
    va, vb = a[:, cut], b[:, cut]
    lo = np.minimum(va.min(axis=0), vb.min(axis=0))
    hi = np.maximum(va.max(axis=0), vb.max(axis=0))
    reach = bound + 1e-9 * (1.0 + np.maximum(-lo, hi))
    width = np.maximum(reach, hi / _GRID_CELLS - lo / _GRID_CELLS)
    # a neighbour's key may wrap into the next line of cells, which only
    # adds candidates; the three runs of a row stay disjoint
    ka, kb = (np.clip(np.floor(v / width - lo / width), 0, _GRID_CELLS - 1)
              .astype(np.int64) @ [_GRID_CELLS, 1] for v in (va, vb))
    cols = np.argsort(kb)
    kb = kb[cols]
    centres = np.concatenate([ka - _GRID_CELLS, ka, ka + _GRID_CELLS])
    start = kb.searchsorted(centres - 1, side="left")
    stop = kb.searchsorted(centres + 1, side="right")
    rows = np.repeat(np.tile(np.arange(len(a)), 3), stop - start)
    cols = cols[_runs(start, stop)]
    a_cols, b_cols = a.T.copy(), b.T.copy()  # a contiguous row per column
    dist = np.zeros(len(rows))
    for c in range(k - 1, -1, -1):
        np.maximum(dist, np.abs(a_cols[c].take(rows) - b_cols[c].take(cols)),
                   out=dist)
        keep = np.flatnonzero(dist <= bound)
        rows, cols, dist = rows[keep], cols[keep], dist[keep]
    keep = np.argsort(dist)
    return rows[keep], cols[keep], dist[keep]


def matching_network(rows: np.ndarray, cols: np.ndarray, n: int):
    """The bipartite graph on n rows and n columns with an edge from row
    rows[k] to column cols[k] for each k, for maximum matchings on any
    prefix of that edge list.

    Each row's edges are one run of a plain array, in list order, so the
    edges of a prefix are the first few of every run.  Repeated edges are
    kept.  Returns `rows`; `start` and `heads`, where row r's edges go to
    the columns heads[start[r]:start[r + 1]]; the first list index of
    each identity edge (i, i), or the edge count where there is none; and
    a dict that keeps, by prefix length, each matching that
    :func:`maximum_bipartite_matching` finds (the column of each row, -1
    where free), for the solves that follow.
    """
    order = np.argsort(rows, kind="stable")
    start = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    identity = np.full(n, len(rows))
    same = np.flatnonzero(rows == cols)
    np.minimum.at(identity, rows[same], same)
    return rows, start, cols[order], identity, {0: np.full(n, -1)}


def _augment(heads, start, stop, match, owner) -> bool:
    """One Hopcroft-Karp phase on the edges heads[start[r]:stop[r]] of
    each row r.  `match` (the column of each row) and `owner` (the row of
    each column), -1 where free, grow in place along a maximal set of
    shortest augmenting paths.  False when there is none: the matching is
    then maximum.

    The free rows are layer 0, and a row first reached through the column
    it owns is one layer beyond the row that reached it; the layers stop
    at the first one with an edge to a free column.  The search for paths
    along the layers is a loop with an explicit stack, since a path can
    pass through every row.
    """
    n = len(match)
    layer = np.full(n, -1)
    roots = frontier = np.flatnonzero(match < 0)
    layer[roots] = depth = 0
    while True:
        if not len(frontier):
            return False
        reached = owner[heads[_runs(start[frontier], stop[frontier])]]
        if (reached < 0).any():
            break
        frontier = _distinct(reached[layer[reached] < 0])
        depth += 1
        layer[frontier] = depth
    # the edges a shortest path can take: to a free column from the last
    # layer, or to a column owned by the next layer
    tails = np.flatnonzero(layer >= 0)
    tail = np.repeat(tails, stop[tails] - start[tails])
    head = heads[_runs(start[tails], stop[tails])]
    up = owner[head]
    useful = np.where(up < 0, layer[tail] == depth,
                      layer[up] == layer[tail] + 1)
    per_row = np.bincount(tail[useful], minlength=n)
    end = np.cumsum(per_row)
    nxt, end = (end - per_row).tolist(), end.tolist()
    heads_of = head[useful].tolist()
    layer_of, col_of, row_of = layer.tolist(), match.tolist(), owner.tolist()
    for root in roots.tolist():
        path, via = [root], []
        while path:
            r = path[-1]
            if nxt[r] == end[r]:
                layer_of[r] = -1  # no path left through r in this phase
                path.pop()
                if via:
                    via.pop()
                continue
            c = heads_of[nxt[r]]
            nxt[r] += 1
            up = row_of[c]
            if up < 0:  # a column free at the start: r is in the last layer
                via.append(c)
                for r, c in zip(path, via):
                    col_of[r], row_of[c] = c, r
                break
            if layer_of[up] == layer_of[r] + 1:
                path.append(up)
                via.append(c)
    match[:], owner[:] = col_of, row_of
    return True


def maximum_bipartite_matching(network, edges: int) -> int:
    """Size of a maximum matching of a :func:`matching_network`'s graph
    restricted to its first `edges` listed edges.

    The solve starts from the matching kept for the longest solved prefix
    no longer than this one: a longer prefix only adds edges, so it is
    still a matching.  Each identity pair (i, i) of the prefix whose row
    and column are both free joins it.  Hopcroft-Karp phases then grow it
    to a maximum; the breadth-first layers of a phase are array operations
    and its augmenting paths come from an iterative depth-first search.
    A maximum takes O(sqrt(V)) phases on the V = 2n vertices, each O(E) on
    the prefix's E edges, so a solve takes O(E sqrt(V)) time whatever the
    graph.  The network keeps the matching for later solves.
    """
    rows, start, heads, identity, solved = network
    base = max(p for p in solved if p <= edges)
    match = solved[base].copy()
    if base < edges:
        n = len(match)
        owner = np.full(n, -1)
        paired = np.flatnonzero(match >= 0)
        owner[match[paired]] = paired
        free = np.flatnonzero((identity < edges) & (match < 0) & (owner < 0))
        match[free] = owner[free] = free
        stop = start[:-1] + np.bincount(rows[:edges], minlength=n)
        while _augment(heads, start[:-1], stop, match, owner):
            pass
        solved[edges] = match
    return int(np.count_nonzero(match >= 0))


# Most samples per law that the matching search takes.
_MAX_GRID_PATHS = 2048


def _lp_matching(a: np.ndarray, b: np.ndarray) -> float:
    """Levy-Prohorov distance between the uniform laws of the n rows of a
    and the n rows of b, two (n, k) arrays, under the sup metric on rows.

    The smallest feasible inflation is determined by maximum matchings:
    mass that cannot be matched within eps must be at most eps.  The
    answer is the smallest feasible value among the candidates: every
    pairwise sup distance, every multiple of 1/n, and 1.  Pairing row i
    with row i is itself a matching, so the smallest candidate at which
    that pairing is feasible bounds the answer and is feasible.  Only the
    pairs within that bound are computed, and the bisection runs over the
    candidates up to it; feasibility is monotone in eps, so the search is
    exact.  At eps a row or column with no pair within eps stays
    unmatched, so eps is infeasible while the larger of the two counts of
    such rows and columns exceeds n eps; the bisection starts above the
    candidates this rules out.  They include every eps below 1 with no
    pair within it, so no solve runs on an empty prefix.  The pairs,
    sorted by distance, make one :func:`matching_network`; the solve at
    eps matches on the prefix of pairs within eps.
    """
    n = len(a)
    levels = np.concatenate([np.arange(n + 1) / n, [1.0]])
    diag = np.sort(np.abs(a - b).max(axis=1))
    cands = _distinct(np.concatenate([diag, levels]))
    cands = cands[cands <= 1.0]
    unmatched = n - diag.searchsorted(cands, side="right")
    bound = float(cands[np.argmax(unmatched / n <= cands + 1e-15)])
    rows, cols, dist = _pairs_within(a, b, bound)
    network = matching_network(rows, cols, n)
    cands = _distinct(np.concatenate([dist, levels]))
    cands = cands[cands <= bound]
    lonely = 0
    for ends in (rows, cols):
        nearest = np.full(n, np.inf)
        np.minimum.at(nearest, ends, dist)
        lonely = np.maximum(lonely, n - np.sort(nearest).searchsorted(
            cands, side="right"))
    lo = int(np.count_nonzero(lonely / n > cands + 1e-15)) - 1
    hi = len(cands) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        eps = float(cands[mid])
        edges = int(dist.searchsorted(eps, side="right"))
        matched = maximum_bipartite_matching(network, edges)
        if (n - matched) / n <= eps + 1e-15:
            hi = mid
        else:
            lo = mid
    return float(cands[hi])


def _samples(x, ndim: int) -> np.ndarray:
    """x as a float array of `ndim` axes: refuses, with DomainError, one
    of another shape, with no sample or with a value that is not finite."""
    x = np.asarray(x, dtype=float)
    if x.ndim != ndim or x.size == 0:
        raise DomainError(f"samples must be a nonempty {ndim}-D array")
    if not np.isfinite(x).all():
        raise DomainError("samples must be finite")
    return x


def lp_distance(x, y) -> float:
    """Levy-Prohorov distance between the uniform laws of two 1-D sample
    arrays on the line, with closed eps-inflations; exact.

    By Strassen's theorem the distance is at most eps exactly when some
    coupling puts mass at most eps on pairs farther apart than eps.  Each
    law is written as L = lcm(n_x, n_y) samples of weight 1/L, every
    sample repeated L/n times, which changes neither law; between two
    uniform L-atom laws such a coupling can be taken to be a permutation
    (Birkhoff-von Neumann), so the matching search of the path metric,
    on one column, is exact here too.  Both columns are sorted, so pairing
    row i with row i is the quantile coupling and the search's first bound
    is tight; the answer does not depend on the order of the samples.
    Refuses L above 2048 with SizeLimit before any matching.
    """
    x, y = _samples(x, 1), _samples(y, 1)
    size = math.lcm(len(x), len(y))
    if size > _MAX_GRID_PATHS:
        raise SizeLimit("too many samples for the matching search")
    a = np.sort(np.repeat(x, size // len(x)))
    b = np.sort(np.repeat(y, size // len(y)))
    return _lp_matching(a[:, None], b[:, None])


def lp_distance_grid(a, b) -> float:
    """Levy-Prohorov distance between the uniform laws of the sampled
    paths of two (n, k) arrays, one path per row on one time grid, under
    the sup metric; for equal sample counts of at most 2048.  Exact, by
    the matching search of :func:`_lp_matching`."""
    a, b = _samples(a, 2), _samples(b, 2)
    if a.shape != b.shape:
        raise DomainError("process distance needs equal sample counts on "
                          "one grid")
    if len(a) > _MAX_GRID_PATHS:
        raise SizeLimit("too many paths for the matching search")
    return _lp_matching(a, b)


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
        d_coarse = lp_distance_grid(normalize_process(rf[:, ::2]),
                                    normalize_process(rp[:, ::2]))
        d_fine = lp_distance_grid(normalize_process(rf),
                                  normalize_process(rp))
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
