"""Finitely-additive transverse measures built from the induction cocycle.

A measure here is determined by one vector of level-0 rectangle values; its
value on any orbit arc follows by finite additivity.  The return ladder is
the surface's Rauzy-Veech tower along an induction path (a `rauzy.Tower`).
`ReturnLadder.register` folds a value vector into per-level block totals
and prefix extrema, which the caller keeps (each cocycle holds its own).
The tower's one batched greedy walk, which consumes whole renormalization
blocks, sums them for many base points at once, in two ways:
`ReturnLadder.evaluate` over return counts, an O(poly log N) alternative to
the O(N) direct sum that agrees with it exactly up to float associativity,
and `ReturnLadder.arcs` over vertical flow durations, with each block's
duration (the folded heights) as its cost and several observables stacked
in one walk.  `holder_exponents` reads the sums and their prefix extrema.

Built either from a vector in the estimated expanding space, or from a
centered function on the suspension via the telescoping correction series.
Every vector moves between levels through the path's `carry`: heights and
per-cell arc integrals forward, the expanding frame one level at a time,
and each correction term back to level 0 by the steps' exact integer
inverses, which the path reads from the move graph
(`CocyclePath.matrices`), never a float solve.  The expanding directions
and the contracted complement they project along at level 0 come from the
path's level-0 frame (`cocycle.origin_frame`), which the caller builds once
and passes in; the builders read the path from it.  Forward-equivariant
families and the reverse-equivariant dual family, which steps by those
inverses themselves, come from one sequence builder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DomainError,
    InsufficientRange,
    NotUnstable,
    SeriesDivergence,
    SizeLimit,
)
from .rauzy import Tower, Walk, iet_apply
from .cocycle import (
    CocyclePath,
    OriginFrame,
    backward_flag_at_origin,
    symplectic_data,
)
from .zippered import (
    SurfacePoint,
    ZipperedRectangle,
    vertical_flow,
)


@dataclass(frozen=True)
class CellFunction:
    """Function on the suspension that is constant on each level-0 rectangle."""

    values: tuple

    def nu_integral(self, zr: ZipperedRectangle) -> float:
        hts = zr.heights
        return float(sum(v * float(l) * float(h) for v, l, h in
                         zip(self.values, zr.iet.lengths, hts)))

    def crossing_integral(self, zr: ZipperedRectangle, rect_index: int,
                          x: float) -> float:
        return float(self.values[rect_index] * float(zr.heights[rect_index]))

    def level0_values(self, zr: ZipperedRectangle):
        return [float(v * float(h)) for v, h in zip(self.values, zr.heights)]

    def value(self, zr: ZipperedRectangle, x: float, y: float) -> float:
        return float(self.values[zr.iet.interval_index(x)])


# ------------------------------------------------------------ return ladder

class BlockStats(NamedTuple):
    """A level-0 value vector folded up a ladder: per level and block, the
    block's total and the minimum and maximum of its running sums (with 0,
    the empty prefix)."""

    totals: np.ndarray
    mins: np.ndarray
    maxes: np.ndarray


class ReturnLadder:
    """The renormalization tower of a surface along an elementary path.

    Level n is the n-times renormalized exchange with its physical
    (unnormalized) lengths (a :class:`Tower` built from the path); each
    level-n block decomposes into level-(n-1) blocks by the recorded
    induction move.  The ladder holds no per-cocycle state: :meth:`register`
    returns a value vector's block statistics to the caller, and
    :meth:`evaluate` sums them over return counts.
    """

    def __init__(self, zr: ZipperedRectangle, path: CocyclePath):
        if path.unit != "elementary":
            raise DomainError("return ladder needs an elementary path")
        if path.perms[0] != zr.perm or path.lengths[0].tolist() != \
                [float(l) for l in zr.iet.lengths]:
            raise DomainError("path does not start at the surface's exchange")
        if not zr.iet.is_normalized():
            raise DomainError("ladder base exchange must have unit total")
        self.zr = zr
        self.path = path
        self.tower = Tower.from_path(path)
        # flow duration of each block: the folded heights
        self.hts = np.array([float(h) for h in zr.heights])
        self.durations = self.register(self.hts.tolist()).totals

    @property
    def depth(self) -> int:
        return self.tower.size - 1

    def register(self, values: Sequence) -> BlockStats:
        """Fold a level-0 value vector up the ladder, level by level.

        The arrays keep the values' type, so Fractions stay exact.
        """
        t = list(values)
        rows = [(t, [min(0, v) for v in t], [max(0, v) for v in t])]
        for first, last in zip(self.tower.first.tolist()[1:],
                               self.tower.last.tolist()[1:]):
            t, lo, hi = rows[-1]
            word = list(zip(first, last))
            rows.append((
                [t[a] + t[b] if a != b else t[a] for a, b in word],
                [min(lo[a], t[a] + lo[b]) if a != b else lo[a]
                 for a, b in word],
                [max(hi[a], t[a] + hi[b]) if a != b else hi[a]
                 for a, b in word]))
        return BlockStats(*(np.array(stat) for stat in zip(*rows)))

    def evaluate(self, stats: BlockStats | None, x, n_returns) -> Walk:
        """Sums of registered values over base returns, for many points,
        with their running extrema.

        Row j of `n_returns` lists nondecreasing return counts from x[j];
        the result has one column per count (see :meth:`Tower.walk`).  The
        greedy walk consumes the deepest renormalization block available at
        each stage; exact (same additions as the direct sum, reassociated).
        """
        x = np.asarray(x, dtype=float)
        counts = np.broadcast_to(np.asarray(n_returns, dtype=np.int64),
                                 (len(x), np.shape(n_returns)[-1]))
        if (counts < 0).any():
            raise DomainError("negative return count")
        if (np.diff(counts, axis=1) < 0).any():
            raise DomainError("return counts must be nondecreasing")
        if not ((x >= 0.0) & (x < self.tower.tot[0])).all():
            raise DomainError("base point outside the exchanged interval")
        walk = self.tower.walk(x, counts, self.tower.q, stats, extrema=True)
        if not (walk.ok.all() and (walk.spent == counts).all()):
            raise DomainError("orbit left the exchanged interval")
        return walk

    def arcs(self, stats: Sequence[BlockStats], x, y, T
             ) -> tuple[np.ndarray, np.ndarray]:
        """Integrals of registered observables over vertical flow arcs.

        Arcs start at the points (x, y) and run for the durations T: one
        sorted list shared by every point, or one sorted row per point.
        The walk is :meth:`Tower.walk` with each block's flow duration as
        its cost, so every point consumes the deepest block that fits in
        its remaining duration and a duration-T arc costs polylog T block
        steps.  The observables' block totals are stacked on a trailing
        axis and share the walk, since the blocks a point takes depend only
        on the durations; `totals[0]` holds each observable's value per
        level-0 crossing, and a partial crossing counts the fraction of its
        height that the arc covers.  Returns the (points, durations,
        observables) values and a mask of the accepted points; a point is
        refused when its flow leaves the base interval.
        """
        x = np.array(x, dtype=float)
        y = np.asarray(y, dtype=float)
        T = np.broadcast_to(np.asarray(T, dtype=float),
                            (len(x), np.shape(T)[-1]))
        totals = np.stack([np.asarray(s.totals, dtype=float) for s in stats],
                          axis=-1)
        hts, vals, tower = self.hts, totals[0], self.tower
        total = tower.tot[0]
        spent = np.zeros(len(x))
        acc = np.zeros((len(x), vals.shape[1]))
        # a start above the base first finishes its partial crossing;
        # durations that end inside it are a fraction of that cell's value
        up = np.flatnonzero(y > 0.0)
        ok = ~(y > 0.0) | ((x >= 0.0) & (x < total))
        up = up[ok[up]]
        i0 = tower.index(0, x[up])
        t_top = hts[i0] - y[up]
        early = np.zeros(T.shape, dtype=bool)
        early[up] = inside = np.logical_and.accumulate(
            T[up] <= t_top[:, None], axis=1)
        acc[up] = vals[i0] * t_top[:, None] / hts[i0][:, None]
        spent[up] = t_top
        x[up] += tower.shift[0, i0]
        walk = tower.walk(x, T, self.durations, (totals,),
                          spent=spent, total=acc)
        # each duration ends in a partial crossing of the cell reached
        end = walk.end
        ok &= walk.ok & ((end >= 0.0) & (end < total) | early).all(axis=1)
        i = tower.index(0, end.ravel())
        rest, ht = (T - walk.spent).ravel(), hts.take(i)
        out = walk.total
        for o, row in enumerate(vals.T):
            out[..., o] += (row.take(i) * rest / ht).reshape(T.shape)
        rows, cols = inside.nonzero()
        cell, rows = i0[rows], up[rows]
        out[rows, cols] = vals[cell] * T[rows, cols][:, None] \
            / hts[cell][:, None]
        return out, ok

# ------------------------------------------------------- equivariant storage

@dataclass(frozen=True)
class EquivariantSequence:
    """Forward-pushed vector family, stored as unit vectors plus log-norms."""

    base: np.ndarray
    units: tuple
    log_norms: tuple

    def vector(self, n: int):
        return self.units[n], self.log_norms[n]

    def __len__(self) -> int:
        return len(self.units)


def _equivariant_sequence(v0: np.ndarray, n_levels: int,
                          carry: Callable[[np.ndarray, int, int], np.ndarray]
                          ) -> EquivariantSequence:
    """Unit vectors and log norms of v0 moved level by level.

    `carry(u, n, n + 1)` moves a level-n vector to level n + 1: a path's
    `carry` for forward families, the step inverses for the
    reverse-equivariant dual family.
    """
    v = np.asarray(v0, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm == 0:
        zero = np.zeros_like(v)
        return EquivariantSequence(base=zero,
                                   units=(zero,) * (n_levels + 1),
                                   log_norms=(0.0,) * (n_levels + 1))
    units = [v / norm]
    lognorms = [math.log(norm)]
    u = v / norm
    ln = lognorms[0]
    for n in range(n_levels):
        u = carry(u, n, n + 1)
        s = float(np.linalg.norm(u))
        u = u / s
        ln += math.log(s)
        units.append(u)
        lognorms.append(ln)
    return EquivariantSequence(base=v, units=tuple(units),
                               log_norms=tuple(lognorms))


@dataclass(frozen=True)
class HoelderCocycle:
    """A finitely-additive measure given by level-0 rectangle values."""

    zr: ZipperedRectangle
    ladder: ReturnLadder
    stats: BlockStats
    base_values: tuple
    endpoint_error_bound: float
    diagnostics: dict


@dataclass(frozen=True)
class DualCocycle:
    """Reverse-equivariant family pairing invariantly with forward ones."""

    source: str
    eq_seq: EquivariantSequence


def build_phi_from_vector(zr: ZipperedRectangle, frame: OriginFrame,
                          v: Sequence, ladder: ReturnLadder | None = None
                          ) -> HoelderCocycle:
    """Finitely-additive measure with the given expanding level-0 values,
    along the path of the level-0 `frame`."""
    path = frame.path
    varr = np.asarray([float(x) for x in v], dtype=float)
    norm = float(np.linalg.norm(varr))
    if norm == 0:
        raise NotUnstable("zero vector")
    # accept anything in the forward-equivariant span of the top direction
    # and the second plane: transported vectors then pass exactly, while the
    # most contracted directions stay rejected (relative residual 1e-3)
    basis = np.column_stack([frame.top, frame.plane])
    coeffs, *_ = np.linalg.lstsq(basis, varr, rcond=None)
    resid = float(np.linalg.norm(basis @ coeffs - varr))
    if resid > 1e-3 * norm:
        raise NotUnstable(
            f"vector leaves the estimated expanding space "
            f"(relative residual {resid / norm:.3g})")
    ladder = ReturnLadder(zr, path) if ladder is None else ladder
    return HoelderCocycle(
        zr=zr, ladder=ladder, stats=ladder.register(list(v)),
        base_values=tuple(v),
        endpoint_error_bound=float(np.abs(varr).max()),
        diagnostics={"unstable_residual": resid / norm,
                     "unstable_coeffs": coeffs.tolist()},
    )


# Scalar level-0 steps allowed for one level of `_arc_integral_vector`'s
# quadrature path.  A `LipschitzFunction` crossing (24-point Gauss rule)
# costs about 0.6 ms, so this is about a minute; a ladder's return times
# reach 10^9, which would run for days.
_MAX_QUADRATURE_STEPS = 10**5


def _arc_integral_vector(zr: ZipperedRectangle, f, ladder: ReturnLadder,
                         n: int) -> np.ndarray:
    """Integrals of f over the level-n vertical blocks (one per rectangle).

    An f that is not constant per cell is integrated crossing by crossing,
    one level-0 step per return; that raises SizeLimit when level n needs
    more than _MAX_QUADRATURE_STEPS of them.
    """
    vals = f.level0_values(zr)
    if vals is not None:
        # crossing integrals do not depend on the abscissa: push exactly
        return ladder.path.carry(np.asarray(vals, dtype=float), 0, n)
    tower, level0 = ladder.tower, ladder.zr.iet
    steps = int(tower.q[n].sum())
    if steps > _MAX_QUADRATURE_STEPS:
        raise SizeLimit(f"level {n} needs {steps} quadrature steps, more "
                        f"than {_MAX_QUADRATURE_STEPS}")
    out = np.zeros(zr.m)
    for i in range(zr.m):
        left = float(tower.bps[n, i - 1]) if i > 0 else 0.0
        x = left + 0.5 * float(tower.lengths[n, i])
        acc = 0.0
        for _ in range(int(tower.q[n, i])):
            j = level0.interval_index(x)
            acc += f.crossing_integral(zr, j, x)
            x = float(iet_apply(level0, x))
        out[i] = acc
    return out


def build_phi_f(zr: ZipperedRectangle, frame: OriginFrame, f, depth: int,
                ladder: ReturnLadder | None = None) -> HoelderCocycle:
    """Expanding part of a centered function, via the correction series.

    Integrates f over the renormalization blocks level by level, projects
    each equivariance defect onto the estimated expanding space along the
    contracted complement, and pulls the corrections back to level 0.  At
    level 0 both come from `frame`; deeper levels push its expanding
    columns and pull their own complement over the frame's window.
    """
    path = frame.path
    mean = f.nu_integral(zr) / float(zr.area)
    if abs(mean) > 1e-9:
        raise DomainError("function must be centered against the area measure")
    ladder = ReturnLadder(zr, path) if ladder is None else ladder
    if depth > ladder.depth:
        raise DomainError("depth exceeds the available ladder")
    h0 = np.asarray([float(h) for h in zr.heights])
    basis_u0 = frame.expanding
    dim_h = 2 * symplectic_data(path.perms[0]).genus
    k_u = basis_u0.shape[1]

    # deepest level first: return times grow with the level, so a level over
    # the quadrature limit raises before the cheaper ones have run
    arcs = [_arc_integral_vector(zr, f, ladder, n)
            for n in range(depth, -1, -1)][::-1]

    def project_u(n: int, pushed: np.ndarray, u: np.ndarray) -> np.ndarray:
        # expanding frame at level n = pushed level-0 frame (equivariant);
        # contracted complement pulled from the future, plus any degenerate
        # directions of the pairing form at that level
        if n == 0:
            rest = frame.contracted[:, :dim_h - k_u]
        else:
            rest = backward_flag_at_origin(
                path.tail(n), dim_h - k_u, min(frame.window, len(path) - n))
        blocks = [pushed, rest]
        sd_n = symplectic_data(path.perms[n])
        if sd_n.N_basis.shape[1] > 0:
            blocks.append(sd_n.N_basis)
        full = np.column_stack(blocks)
        coeff = np.linalg.solve(full, u) if full.shape[0] == full.shape[1] \
            else np.linalg.lstsq(full, u, rcond=None)[0]
        return pushed @ coeff[:k_u]

    pushed = basis_u0
    v_plus = project_u(0, pushed, arcs[0])
    terms = [float(np.linalg.norm(v_plus))]
    scale = max(float(np.abs(arcs[0]).max()), 1e-300)

    def settled():
        """Tail estimate if the correction terms certify decay, else None."""
        if terms[-1] <= 1e-10 * max(terms):
            return terms[-1]  # noise floor
        if len(terms) >= 4:
            t1, t2, t3 = terms[-3:]
            if t1 > 0 and t3 < t2 < t1 and (t3 / t1) ** 0.5 < 0.95:
                r = (t3 / t1) ** 0.5
                return t3 * r / (1 - r)
        return None

    tail = 0.0
    converged = depth == 0
    for n in range(1, depth + 1):
        u_n = arcs[n] - path.carry(arcs[n - 1], n - 1, n)
        if float(np.abs(u_n).max()) <= 1e-12 * scale:
            terms.append(0.0)
            converged = True
            break
        pushed = path.carry(pushed, n - 1, n)
        pushed /= np.linalg.norm(pushed, axis=0, keepdims=True)
        # pull the correction back to level 0 through the inverse steps
        w = path.carry(project_u(n, pushed, u_n), n, 0)
        v_plus = v_plus + w
        terms.append(float(np.linalg.norm(w)))
        est = settled()
        if est is not None:
            tail = est
            converged = True
            break
    if not converged:
        raise SeriesDivergence(
            f"correction terms not decaying by the requested depth: "
            f"last terms {terms[-3:]}")
    # a centered function has no top-exponent component; the length covector
    # annihilates every other direction, so the strip is exact
    lam0 = np.asarray([float(l) for l in zr.iet.lengths])
    v_plus = v_plus - h0 * float(lam0 @ v_plus) / float(lam0 @ h0)
    coeffs, *_ = np.linalg.lstsq(basis_u0, v_plus, rcond=None)
    return HoelderCocycle(
        zr=zr, ladder=ladder, stats=ladder.register(list(v_plus)),
        base_values=tuple(float(x) for x in v_plus),
        endpoint_error_bound=float(np.abs(v_plus).max()),
        diagnostics={"series_terms": terms, "tail_estimate": tail,
                     "unstable_coeffs": coeffs.tolist(),
                     "n_terms": len(terms)},
    )


def dual_from_vector(path: CocyclePath, w: Sequence[float],
                     source: str = "custom") -> DualCocycle:
    w = np.asarray(w, dtype=float)
    if not w.any():
        raise DomainError("zero vector has no direction to pull")
    return DualCocycle(source=source, eq_seq=_equivariant_sequence(
        w, min(len(path), 400),
        lambda u, n, _: path.matrices(n)[1].astype(float) @ u))


# ------------------------------------------------------------- evaluation

def evaluate_on_flow_arc(phi: HoelderCocycle, p: SurfacePoint, T: float):
    """Value over a vertical arc of duration T, plus an interpolation bound.

    Full crossings are exact; the two possible partial crossings are valued
    by their height fraction, each contributing at most max|base value| to
    the reported bound.
    """
    if T < 0:
        raise DomainError("flow arcs run forward")
    if T == 0:
        return 0.0, 0.0
    zr = phi.zr
    hts = [float(h) for h in zr.heights]
    vals = phi.base_values
    endpoint, index, _ = vertical_flow(zr, p, T)
    # crossing values added one by one from 0.0, in crossing order
    terms = np.empty(len(index) + 1)
    terms[0] = 0.0
    terms[1:] = np.array(vals, dtype=float)[index - 1]
    n_partials = 0
    if index.size and p.y > 0:
        i = int(index[0]) - 1
        terms[1] = vals[i] * (hts[i] - p.y) / hts[i]
        n_partials += 1
    value = float(np.add.accumulate(terms)[-1])
    if endpoint.y > 0:
        if index.size:
            i = zr.iet.interval_index(endpoint.x)
            value += vals[i] * endpoint.y / hts[i]
            n_partials += 1
        else:
            # the whole arc sits inside one rectangle
            i = zr.iet.interval_index(p.x)
            value += vals[i] * T / hts[i]
            n_partials += 1
    return value, n_partials * phi.endpoint_error_bound


def measure_integral(zr: ZipperedRectangle, f, dual: DualCocycle,
                     level: int, ladder: ReturnLadder):
    """Pair arc integrals of f at one level with the dual vector there; the
    diagnostics list the pairings at up to three levels below it too."""
    if level >= len(dual.eq_seq):
        raise DomainError("dual sequence too short for this level")

    def value_at(n):
        varc = _arc_integral_vector(zr, f, ladder, n)
        unit, ln = dual.eq_seq.vector(n)
        return float(varc @ unit) * math.exp(ln)

    val = value_at(level)
    diag = [value_at(k) for k in
            range(max(0, level - 3), level)] + [val]
    return val, {"levels": diag}


# -------------------------------------------------------- Hölder exponents

def holder_exponents(phi: HoelderCocycle, x: float, T_grid: Sequence[float]):
    """Scaling exponents of the measure along the orbit of one base point.

    Top: regression of the running supremum of |value| over return counts
    from x against log time.  Lower: regression of log block values against
    log block return times over the first ladder levels.  The top slope
    takes one base point: its error on a short grid is a finite-time bias
    that every base point of a surface shares, so a mean over base points
    keeps the bias and only shrinks the apparent error bar.
    """
    grid = sorted(float(t) for t in T_grid)
    if len(grid) < 3 or grid[0] <= 0:
        raise InsufficientRange("need at least three positive grid points")
    if math.log10(grid[-1] / grid[0]) < 3 - 1e-9:
        raise InsufficientRange("grid must span at least three decades")
    counts = [int(round(T)) for T in grid]
    # one row per count: each sum restarts from the base point
    walk = phi.ladder.evaluate(phi.stats, [x] * len(counts),
                               np.array(counts)[:, None])
    xs, ys = [], []
    run = 0.0
    for n, mn, mx in zip(counts, walk.low.ravel().tolist(),
                         walk.high.ravel().tolist()):
        run = max(run, abs(mn), abs(mx))
        if run > 0:
            xs.append(math.log(n))
            ys.append(math.log(run))
    if len(xs) < 3:
        raise InsufficientRange("no usable supremum values on the grid")
    top = float(np.polyfit(xs, ys, 1)[0])

    # small-scale estimate from block values across the first levels
    ladder = phi.ladder
    xs, ys = [], []
    for n in range(1, ladder.depth + 1):
        q = ladder.tower.q[n]
        biggest = float(np.abs(phi.stats.totals[n]).max())
        if biggest > 0 and float(q.max()) <= grid[-1]:
            xs.append(math.log(float(q.max())))
            ys.append(math.log(biggest))
    if len(set(xs)) < 3:
        raise InsufficientRange("fewer than three distinct return times "
                                "inside the grid")
    lower = float(np.polyfit(xs, ys, 1)[0])
    resid = np.polyval(np.polyfit(xs, ys, 1), xs) - np.array(ys)
    lower_se = float(np.sqrt(resid @ resid / max(1, len(xs) - 2))
                     / math.sqrt(len(xs)))
    return {"top": top, "lower": lower, "lower_stderr": lower_se}
