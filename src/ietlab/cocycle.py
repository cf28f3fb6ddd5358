"""Induction-matrix cocycles: transport, Lyapunov spectra, level-0 frames.

A :class:`CocyclePath` is a walk on the Rauzy graph: per step a move and a
run length, per level a permutation, the renormalization clock and the
normalized lengths.  The cocycle is locally constant on the graph, so the
path stores no matrix: step i's bookkeeping matrix is read from `perms[i]`
(`step_matrices`, or `run_product` for a Zorich group), its exact integer
inverse from the step inverses (`step_inverses`, multiplied out on demand
for a Zorich group), and nothing is ever inverted in floating point.  The
acting matrix of a step on height-like vectors is the transpose of the
bookkeeping matrix; length-like vectors move by the inverse.  Every
transport along a path goes through two methods of :class:`CocyclePath`:
`carry(v, start, stop)` moves a vector or frame by the height cocycle,
forward by the transposed step matrices or backward by the transposed
inverses, without renormalizing; `sweep(q, start, stop)` takes the same
steps one at a time and re-orthonormalizes after each with the two LAPACK
kernels of `np.linalg.qr`, called directly.  A float transport keeps a
float copy of a matrix the move graph keeps from its second read in the
call on.  A forward transport never builds an inverse.  The order of
`start` and `stop` gives the direction.  An exact carry (integer or
Fraction input) escalates from int64 to Python big integers when entries
grow too large.

`induction_path` threads length tuples through one `rauzy_step` per
elementary step and builds no exchange; a Zorich path keeps one move and run
length per group, so equal groups share one memoized product matrix.

Exponents are normalized by the renormalization clock (the cumulative log
contraction), so the top exponent of the length/height cocycle is 1.

`origin_frame` estimates a path's level-0 Oseledets frame in three stages,
one sweep at most each: the contracted directions (`backward_flag_at_origin`),
the second plane among them (`second_plane_at_origin`), and on first use the
second expanding direction (`unstable_vector_at_origin`) and its dual.
"""

from __future__ import annotations

import contextvars
import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DomainError, NonConvergenceError, NotUnstable
from .rauzy import IetData, Permutation, rauzy_step

logger = logging.getLogger(__name__)

_INT64_GUARD = 2**55


@dataclass(frozen=True)
class CocyclePath:
    """A finite induction orbit: moves on the Rauzy graph plus the clock.

    Step i takes `runs[i]` consecutive `moves[i]` from `perms[i]` to
    `perms[i + 1]` (one move on an elementary path, a maximal run on a
    Zorich one).  Level n has the permutation `perms[n]`, the clock
    `cumulative_tau[n]` (0 at the start) and the normalized lengths
    `lengths[n]`, a row of one (n + 1, m) float array.
    """

    moves: tuple
    runs: tuple
    perms: tuple
    cumulative_tau: tuple
    lengths: np.ndarray
    unit: str

    def __post_init__(self):
        n = len(self.moves)
        if len(self.runs) != n or not (len(self.perms) ==
                                       len(self.cumulative_tau) ==
                                       len(self.lengths) == n + 1):
            raise DomainError("need a run length per move, and a "
                              "permutation, clock value and length row per "
                              "step boundary")
        if any(b < a - 1e-15 for a, b in zip(self.cumulative_tau,
                                             self.cumulative_tau[1:])):
            raise DomainError("renormalization clock must be nondecreasing")

    def __len__(self) -> int:
        return len(self.moves)

    @property
    def m(self) -> int:
        return self.perms[0].m

    def tail(self, n: int) -> "CocyclePath":
        """The path from level n on."""
        return CocyclePath(self.moves[n:], self.runs[n:], self.perms[n:],
                           self.cumulative_tau[n:], self.lengths[n:],
                           self.unit)

    def matrix(self, i: int) -> np.ndarray:
        """Step i's bookkeeping matrix, a read-only array kept on the move
        graph."""
        perm, move, run = self.perms[i], self.moves[i], self.runs[i]
        if run == 1:
            return perm.step_matrices[move]
        return perm.run_product(move, run)

    def matrices(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Step i's bookkeeping matrix and its exact inverse.  A single
        step's inverse is kept on the move graph; a group's is multiplied
        out from the step inverses, last step first, on each call."""
        return self.matrix(i), self._inverse(i)

    def _inverse(self, i: int) -> np.ndarray:
        """Step i's exact inverse, as :meth:`matrices` gives it."""
        perm, move, run = self.perms[i], self.moves[i], self.runs[i]
        inv = perm.step_inverses[move]
        for _ in range(1, run):
            perm = perm.successors[move]
            inv = perm.step_inverses[move] @ inv
        inv.setflags(write=False)
        return inv

    def _acting(self, start: int, stop: int,
                floats: dict | None) -> Iterator[np.ndarray]:
        """Matrices that move heights from level start to stop: transposed
        bookkeeping matrices forward, transposed exact inverses backward.

        Integer with `floats` None.  Given a dict, they come in floats.  An
        array the move graph keeps (every bookkeeping matrix, a single
        step's inverse) is converted on its first read, and on its second
        its float transpose is kept for the reads after it: the dict holds
        the array by its id, so that no other array takes that id while the
        dict lives, next to its float copy once there is one.  An array
        read once keeps no copy.  A group's inverse, built per step, is
        converted per step.
        """
        if not (0 <= start <= len(self) and 0 <= stop <= len(self)):
            raise DomainError("level outside the path")
        forward = start <= stop
        for i in range(start, stop) if forward else \
                range(start - 1, stop - 1, -1):
            mat = self.matrix(i) if forward else self._inverse(i)
            if floats is None:
                yield mat.T
            elif forward or self.runs[i] == 1:
                kept = floats.get(id(mat))
                if kept is None:
                    floats[id(mat)] = mat, None
                    yield mat.T.astype(float)
                    continue
                if kept[1] is None:
                    kept = floats[id(mat)] = mat, mat.T.astype(float)
                yield kept[1]
            else:
                yield mat.T.astype(float)

    def carry(self, v: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Move a level-start vector or frame (columns) to level stop.

        Float input moves in floats, by float copies of the step matrices,
        kept for the rest of the call from a matrix's second read; integer
        or object input (ints, Fractions) moves exactly, escalating to big
        integers as needed.
        """
        v = np.asarray(v)
        if v.dtype.kind in "iuO":
            for op in self._acting(start, stop, None):
                v = _int_matmul(op, v)
        else:
            for op in self._acting(start, stop, {}):
                v = op @ v
        return v

    def sweep(self, q: np.ndarray, start: int,
              stop: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Carry the frame q (at most m columns) one step at a time,
        yielding QR factors (q, r) of the moved frame after each step.

        The frame moves by float copies of the step matrices, kept from a
        matrix's second read in the sweep on (see `carry`).
        Each step runs the two LAPACK kernels behind `np.linalg.qr` on the
        fresh moved frame, which the first factors in place, so (q, r) are
        that function's bit for bit without its per-call checks and copies.
        """
        lower = np.tri(q.shape[1], q.shape[1], -1, dtype=bool)
        # np.linalg.qr's error state, set once per sweep in a context of
        # the kernels' own, so the caller's state holds between steps
        ctx = contextvars.copy_context()
        ctx.run(np.seterrcall, _qr_failed)
        ctx.run(np.seterr, invalid="call", over="ignore", divide="ignore",
                under="ignore")
        for op in self._acting(start, stop, {}):
            a = op @ q
            tau, q = ctx.run(_qr_kernels, a)
            r = a[:len(tau)]
            np.copyto(r, 0.0, where=lower)  # triu in place: a is read out
            yield q, r

    def total_tau(self, n: int | None = None) -> float:
        n = len(self) if n is None else n
        return float(self.cumulative_tau[n] - self.cumulative_tau[0])


def induction_path(iet: IetData, n_steps: int,
                   unit: str = "elementary") -> CocyclePath:
    """Iterate induction from a normalized exchange.

    unit="elementary" records every step; unit="zorich" groups maximal runs of
    equal move type into single aggregated steps (n_steps counts groups).
    """
    if unit not in ("elementary", "zorich"):
        raise DomainError(f"unknown path unit {unit!r}")
    moves, runs = [], []
    cur, perm = iet.lengths, iet.perm
    perms, taus, lengths = [perm], [0.0], [cur]
    if unit == "elementary":
        for _ in range(n_steps):
            move, tau, cur, perm = rauzy_step(cur, perm)
            moves.append(move)
            perms.append(perm)
            taus.append(taus[-1] + tau)
            lengths.append(cur)
        runs = [1] * n_steps
    else:
        # zorich grouping: a run closes when the first different move
        # shows, so the step that opens group n_steps + 1 is taken too
        if n_steps > 0:
            move, tau, nxt, nxt_perm = rauzy_step(cur, perm)
        while len(moves) < n_steps:
            run_move, run_len, run_tau = move, 1, tau
            cur, perm = nxt, nxt_perm
            move, tau, nxt, nxt_perm = rauzy_step(cur, perm)
            while move is run_move:
                run_len += 1
                run_tau += tau
                cur, perm = nxt, nxt_perm
                move, tau, nxt, nxt_perm = rauzy_step(cur, perm)
            moves.append(run_move)
            runs.append(run_len)
            perms.append(perm)
            taus.append(taus[-1] + run_tau)
            lengths.append(cur)
    lengths = np.array(lengths, dtype=float)
    lengths.setflags(write=False)
    return CocyclePath(tuple(moves), tuple(runs), tuple(perms), tuple(taus),
                       lengths, unit)


def _qr_kernels(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.qr's two LAPACK calls on a C-contiguous float64 frame,
    which the first factors in place: Householder scalars and reduced Q."""
    tau = _umath_linalg.qr_r_raw(a, signature="d->d")
    return tau, _umath_linalg.qr_reduced(a, tau, signature="dd->d")


def _qr_failed(err, flag):
    raise np.linalg.LinAlgError(
        "Incorrect argument found while performing QR factorization")


def _int_matmul(acc: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """Exact integer product with automatic big-integer escalation."""
    if acc.dtype == object or nxt.dtype == object:
        return acc.astype(object, copy=False) @ nxt.astype(object, copy=False)
    bound = int(acc.shape[1]) * int(np.abs(acc).max(initial=0)) * \
        int(np.abs(nxt).max(initial=0))
    if bound > _INT64_GUARD:
        logger.info("integer cocycle product escalated to big integers")
        return acc.astype(object) @ nxt.astype(object)
    return acc @ nxt


# ------------------------------------------------------------ symplectic data

@dataclass(frozen=True)
class SymplecticData:
    """Alternating pairing attached to a permutation."""

    L: np.ndarray
    H_basis: np.ndarray
    N_basis: np.ndarray
    genus: int


def symplectic_data(perm: Permutation) -> SymplecticData:
    """Alternating matrix, its image/kernel bases, and the genus.

    L[i,j] for i<j is +1 when the exchange reverses the order of intervals
    i and j (images decrease) and 0 otherwise; antisymmetric below.
    """
    m = perm.m
    L = np.zeros((m, m), dtype=np.int64)
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            if perm(i) > perm(j):
                L[i - 1, j - 1] = 1
                L[j - 1, i - 1] = -1
    u, s, vt = np.linalg.svd(L.astype(float))
    rank = int((s > 1e-9 * max(1.0, s[0])).sum())
    if rank % 2:
        raise DomainError("alternating matrix with odd rank")
    H_basis = u[:, :rank]
    N_basis = vt[rank:].T
    H_basis.setflags(write=False)
    N_basis.setflags(write=False)
    L.setflags(write=False)
    return SymplecticData(L=L, H_basis=H_basis, N_basis=N_basis,
                          genus=rank // 2)


# --------------------------------------------------------- Lyapunov spectrum

@dataclass(frozen=True)
class OseledetsEstimate:
    """Exponent estimates with their block standard errors."""

    exponents: tuple
    stderr: tuple
    teich_time: float
    n_steps: int


# Orbit blocks behind each spectrum's standard errors.
_N_BLOCKS = 10


def _spectrum_from_path(path: CocyclePath, k: int,
                        basis: np.ndarray) -> tuple:
    n = len(path)
    q, _ = np.linalg.qr(basis[:, :k])
    diags = np.zeros((n, k))
    for i, (_, r) in enumerate(path.sweep(q, 0, n)):
        diags[i] = r.diagonal()
    diags = np.abs(diags)
    if (diags == 0).any():
        raise NonConvergenceError("degenerate frame during QR sweep")
    logs = np.log(diags)
    total_tau = path.total_tau()
    if total_tau <= 0:
        raise NonConvergenceError("zero renormalization time on path")
    exponents = logs.sum(axis=0) / total_tau
    # per-block estimates, weighted by block duration so the weighted mean
    # reproduces the global estimate (short blocks carry little information)
    edges = np.linspace(0, n, _N_BLOCKS + 1).astype(int)
    block_vals = []
    block_w = []
    for a, b in zip(edges, edges[1:]):
        if a == b:
            continue
        dt = path.cumulative_tau[b] - path.cumulative_tau[a]
        if dt <= 0:
            continue
        block_vals.append(logs[a:b].sum(axis=0) / dt)
        block_w.append(dt / total_tau)
    block_vals = np.array(block_vals)
    block_w = np.array(block_w)
    nb = len(block_vals)
    if nb < 2:
        raise NonConvergenceError("not enough blocks for an error estimate")
    dev = block_vals - exponents
    stderr = np.sqrt(nb / (nb - 1) *
                     (block_w[:, None] ** 2 * dev ** 2).sum(axis=0))
    return exponents, stderr


def lyapunov_spectrum(iet: IetData, n_steps: int,
                      k: int) -> OseledetsEstimate:
    """Top-k exponents of the height cocycle restricted to the image of L.

    QR-renormalized frame pushed along a Zorich induction path of n_steps
    groups (one QR step per maximal run of a move); exponents are the
    accumulated log diagonals divided by the total renormalization time, so
    the top exponent is 1.  Standard errors come from consecutive orbit
    blocks; they are reported, not checked against a threshold.
    """
    if n_steps <= 0:
        raise NonConvergenceError("need a positive number of steps")
    sd = symplectic_data(iet.perm)
    if k > sd.genus * 2:
        raise DomainError("requested more exponents than the pairing rank")
    path = induction_path(iet, n_steps, unit="zorich")
    exponents, stderr = _spectrum_from_path(path, k, sd.H_basis)
    order = np.argsort(-exponents)
    exponents = exponents[order]
    stderr = stderr[order]
    return OseledetsEstimate(
        exponents=tuple(float(t) for t in exponents),
        stderr=tuple(float(s) for s in stderr),
        teich_time=path.total_tau(),
        n_steps=len(path),
    )


# ------------------------------------------------ level-0 Oseledets frame

def backward_flag_at_origin(path: CocyclePath, dim: int,
                            window: int) -> np.ndarray:
    """Columns 1..dim span the dim most-contracted directions at level 0."""
    if window > len(path):
        raise DomainError("window exceeds path length")
    sd = symplectic_data(path.perms[window])
    rng = np.random.default_rng(987654321)
    seed = sd.H_basis + 1e-3 * rng.standard_normal(sd.H_basis.shape)
    q, _ = np.linalg.qr(seed)
    for q, _ in path.sweep(q, window, 0):
        pass
    return q[:, :dim]


def _strip_top(path: CocyclePath, h0: np.ndarray, x: np.ndarray):
    """Remove the top-direction content of x exactly: the level-0 length
    covector annihilates every other Oseledets direction."""
    lam = path.lengths[0]
    return x - np.multiply.outer(h0, lam @ x) / float(lam @ h0)


def second_plane_at_origin(path: CocyclePath, h0: Sequence[float],
                           contracted: np.ndarray) -> np.ndarray:
    """Plane of the second expanding and second contracting directions.

    Intersects the 2g-1 most contracted directions `contracted` (the
    complement of the top direction) with the L-orthogonal of h0 and strips
    residual top-direction content.  The span is forward-equivariant;
    individual directions inside it are not determined by forward data
    alone.
    """
    sd = symplectic_data(path.perms[0])
    if sd.N_basis.shape[1] != 0:
        raise DomainError("needs a permutation with full pairing rank")
    if sd.genus < 2:
        raise DomainError("no second expanding direction in genus 1")
    h0 = np.asarray(h0, dtype=float)
    u = np.linalg.lstsq(sd.L.astype(float), h0, rcond=None)[0]
    coeff = u @ contracted
    _, _, vt = np.linalg.svd(coeff.reshape(1, -1))
    plane = contracted @ vt[1:].T  # directions annihilating <., L^{-1}h0>
    plane, _ = np.linalg.qr(_strip_top(path, h0, plane))
    return plane


def unstable_vector_at_origin(path: CocyclePath, h0: Sequence[float],
                              plane: np.ndarray) -> np.ndarray:
    """Second expanding direction at level 0, certified two ways.

    Picks the most forward-expanded direction inside `plane` (from
    :func:`second_plane_at_origin`).  The forward horizon extends until the
    in-plane growth gap certifies the pick, over at least two steps and at
    most clock time 30 (before double precision degenerates), and never
    past the path's end.  The result is a canonical representative modulo
    contracted directions; it is not equivariant under the
    renormalization, so comparisons across surfaces must transport one
    choice rather than re-estimate.
    """
    if plane.shape[1] == 0:
        raise DomainError("no second expanding direction in genus 1")
    taus = np.asarray(path.cumulative_tau)
    limit = int(np.searchsorted(taus, taus[0] + 30.0))
    limit = min(max(2, limit), len(path))
    r_prod = np.eye(plane.shape[1])
    for i, (_, r) in enumerate(path.sweep(plane, 0, limit)):
        r_prod = r @ r_prod
        if i % 16 == 15:
            sv = np.linalg.svd(r_prod, compute_uv=False)
            if sv[0] > 1e9 * sv[-1]:
                break
    _, _, vt = np.linalg.svd(r_prod)
    vec = _strip_top(path, np.asarray(h0, dtype=float), plane @ vt[0])
    return vec / np.linalg.norm(vec)


@dataclass(frozen=True)
class OriginFrame:
    """The level-0 Oseledets frame of a path, estimated over one window.

    `top` is the unit h0; `contracted` the 2g-1 most contracted directions,
    pulled back from level `window`; `plane` the second expanding and
    contracting directions (none in genus 1).  `second` (v2), `expanding`
    (top, then v2) and `dual` (w2, w2 . v2 = 1) are built on first use.
    """

    path: CocyclePath
    window: int
    h0: np.ndarray
    top: np.ndarray
    contracted: np.ndarray
    plane: np.ndarray

    @cached_property
    def second(self) -> np.ndarray:
        return unstable_vector_at_origin(self.path, self.h0, self.plane)

    @cached_property
    def expanding(self) -> np.ndarray:
        """Columns spanning the estimated expanding space."""
        genus_one = self.plane.shape[1] == 0
        return np.column_stack([self.top] if genus_one else
                               [self.top, self.second])

    @cached_property
    def dual(self) -> np.ndarray:
        """Covector isolating the second-exponent coefficient: orthogonal
        to the top direction and to the 2g-2 most contracted directions."""
        v2 = self.second
        span = np.column_stack([self.top, self.contracted[:, :-1]])
        u, _, _ = np.linalg.svd(span, full_matrices=True)
        w = u[:, span.shape[1]:]
        if w.shape[1] != 1:
            raise DomainError("covector is not one-dimensional")
        scale = float(w[:, 0] @ v2)
        if abs(scale) < 1e-12:
            raise NotUnstable("covector does not see the second direction")
        return w[:, 0] / scale


def origin_frame(path: CocyclePath, h0: Sequence[float],
                 window: int) -> OriginFrame:
    """The level-0 frame of `path` for heights h0, with the contracted
    directions pulled over `window` steps (at most the path's length)."""
    h0 = np.asarray(h0, dtype=float)
    window = min(window, len(path))
    genus = symplectic_data(path.perms[0]).genus
    contracted = backward_flag_at_origin(path, 2 * genus - 1, window)
    plane = second_plane_at_origin(path, h0, contracted) if genus >= 2 \
        else np.empty((path.m, 0))
    return OriginFrame(path, window, h0, h0 / np.linalg.norm(h0),
                       contracted, plane)
