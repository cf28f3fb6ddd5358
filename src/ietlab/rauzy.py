"""Interval exchange maps, Rauzy classes, and the Rauzy-Veech induction step.

The induction renormalizes an interval exchange by first return to a shorter
interval.  Each step is one of two combinatorial moves (`a` when the last
image interval wins, `b` when the last domain interval wins), bookkept by a
nonnegative unimodular matrix.  A tie between the two competing lengths is a
measure-zero degeneracy and raises :class:`BoundaryError` instead of being
tie-broken.

Lengths may be floats or :class:`fractions.Fraction`; the exact-rational mode
makes short-orbit computations usable as brute-force oracles.  The step,
:func:`rauzy_step`, maps a plain length tuple and permutation to the next
pair, so induction paths build no exchange per step.

Each :class:`Permutation` memoizes its two successors, its two step
matrices and their exact inverses, its two substitution words, and the
product of every run of equal moves that starts from it and has been asked
for (`run_product`, the matrix of a Zorich group; its inverse is built only
when read, from the step inverses).  A run of one move comes back to its
start after a period of at most m - 1 steps, so a run at least a period
long is the product of one period raised to a power by squaring, times the
product of the steps that remain; integer products are exact, so this is
bitwise the left-to-right product.  A step's matrices and word depend only
on its permutation and move, so induction paths keep moves and read every
matrix and word from this graph.  Permutations reached by moves from one
root share one `images -> instance` dict, so equal permutations along an
induction path are one object, and a path over a Rauzy class of k
permutations calls :func:`apply_move`, :func:`induction_matrix` and
:func:`inverse_induction_matrix` at most 2k times each.  The dict lives on
the instances, not in module state; a permutation built separately starts a
graph of its own.

One array-backed :class:`Tower` holds an exchange's Rauzy-Veech tower: per
level the induced exchange's lengths, breakpoints, translations and total,
the return time q of each block and the substitution word that spells it in
blocks of the level below, as read-only rows of 2-D arrays.  Its one
constructor takes every level's lengths, permutation and move at once and
computes the rest in a few array operations; a tower never grows.  Two
sources choose the rows: an elementary induction path with physical lengths
(the return ladder of `finadd`), and an exchange induced for as long as its
blocks stay short (the orbit kernel's predictor).  Its one batched greedy
walk, :meth:`Tower.walk`, sums block statistics over many points and
budgets at once; the budget is a number of returns (block cost q) or a flow
time (block cost the block's duration).  Each walk tabulates the levels
its stages can reach by cell of the base and rank of cost, so a stage
finds its level with two searches and a lookup, and only a point past the
table bisects over levels.

Long float orbits run on one vectorized kernel, :func:`_orbit`, in three
stages per chunk.  Predict: a scalar greedy walk on the exchange's own tower
(kept on the :class:`IetData`) guesses the itinerary.  That tower ends at
the last level whose blocks are at most _TABLE_Q steps long, and its first
prediction tables every block's level-0 itinerary, so the guess is one
gather from the table.  Rebuild: `np.add.accumulate` recomputes the points
with the same float additions, in the same order, as the step-by-step loop.
Verify: one `searchsorted` over the exchange's breakpoints checks every
index; at the first wrong guess the verified prefix is kept and the rest
predicted again from that point.  The prediction affects speed only: the
output is bitwise that of the loop.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .errors import BoundaryError, DomainError

Scalar = Union[float, Fraction]


class RauzyMove(Enum):
    A = "a"
    B = "b"

    # members are singletons, so equality is identity; the identity hash
    # is a C slot, while Enum's hashes the name in Python on every lookup
    __hash__ = object.__hash__


# the moves as module names for the induction step: Enum's metaclass
# defines __getattr__, which sends every attribute read on the class
# through a slower hook
_A, _B = RauzyMove.A, RauzyMove.B


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..m} stored as its image sequence pi(1..m).

    Irreducibility is required: pi{1..k} = {1..k} may hold only for k = m.

    `successors[move]`, `step_matrices[move]`, `step_inverses[move]` and
    `substitutions[move]` are computed on first use by :func:`apply_move`,
    :func:`induction_matrix`, :func:`inverse_induction_matrix` and
    :func:`_substitution`, then kept.  A
    successor equal to a permutation already visited from the same root is
    that instance, so its caches are hit.  Equality and hashing look at
    `images` only.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(int(i) for i in self.images)
        object.__setattr__(self, "images", images)
        m = len(images)
        if m == 0:
            raise ValueError("empty permutation")
        if sorted(images) != list(range(1, m + 1)):
            raise ValueError(f"not a permutation of 1..{m}: {images!r}")
        top = 0
        for k, img in enumerate(images[:-1], start=1):
            top = max(top, img)
            if top == k:
                raise ValueError(f"reducible permutation: {images!r}")

    @property
    def m(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    @cached_property
    def inverse_images(self) -> tuple[int, ...]:
        inv = [0] * self.m
        for pos, img in enumerate(self.images, start=1):
            inv[img - 1] = pos
        return tuple(inv)

    def inverse(self, j: int) -> int:
        """Position i with pi(i) = j."""
        return self.inverse_images[j - 1]

    @cached_property
    def _graph(self) -> dict[tuple[int, ...], "Permutation"]:
        """The `images -> instance` dict shared with every visited successor."""
        return {self.images: self}

    @cached_property
    def successors(self) -> dict[RauzyMove, "Permutation"]:
        graph = self._graph
        out = {}
        for move in RauzyMove:
            fresh = apply_move(self, move)
            shared = graph.setdefault(fresh.images, fresh)
            if shared is fresh:  # first visit: join this root's graph
                fresh.__dict__["_graph"] = graph
            out[move] = shared
        return out

    @cached_property
    def _step_data(self) -> tuple:
        """What :func:`induction_update` reads: m, p = pi^-1(m) and the
        successors by `a` and by `b`."""
        after = self.successors
        return (len(self.images), self.inverse_images[-1],
                after[RauzyMove.A], after[RauzyMove.B])

    @cached_property
    def step_matrices(self) -> dict[RauzyMove, np.ndarray]:
        """Read-only bookkeeping matrix of each move from this permutation."""
        return {move: induction_matrix(self, move) for move in RauzyMove}

    @cached_property
    def step_inverses(self) -> dict[RauzyMove, np.ndarray]:
        """Read-only exact inverse of each move's bookkeeping matrix."""
        return {move: inverse_induction_matrix(self, move)
                for move in RauzyMove}

    @cached_property
    def substitutions(self) -> dict[RauzyMove, np.ndarray]:
        """Read-only substitution word of each move from this permutation:
        the blocks one level down that each block of the next level
        spells (see :func:`_substitution`)."""
        return {move: _substitution(self, move) for move in RauzyMove}

    @cached_property
    def run_products(self) -> dict[tuple[RauzyMove, int], np.ndarray]:
        """The products :meth:`run_product` has computed, by (move, length)."""
        return {}

    def run_period(self, move: RauzyMove) -> int:
        """Steps after which a run of `move` comes back to this permutation.
        Each `a` rotates the images of the m - pi^-1(m) intervals after
        the winner by one place, and each `b` the m - pi(m) image places
        after the winner's, so the period is that count."""
        last = self.inverse_images[-1] if move is RauzyMove.A else \
            self.images[-1]
        return len(self.images) - last

    def run_product(self, move: RauzyMove, length: int) -> np.ndarray:
        """Read-only product of the step matrices of `length` (>= 1)
        consecutive `move`s from this permutation, kept in `run_products`.

        A run shorter than the period P of `run_period` multiplies its
        steps left to right.  A run of P steps or more repeats the product
        C of its first P steps: it is C ** (length // P), by squaring,
        times the product of the first length % P steps.  Either way only the
        permutations the run leaves read their step matrices, and int64
        products are exact (modulo 2 ** 64 at worst), so the result is
        bitwise the left-to-right product.
        """
        mat = self.run_products.get((move, length))
        if mat is None:
            if length < 1:
                raise DomainError(f"a run takes at least one step, not "
                                  f"{length!r}")
            period = self.run_period(move)
            power, rest = divmod(length, period)
            perm, mat = self, self.step_matrices[move]
            head = mat if rest == 1 else None  # the first `rest` steps
            for k in range(2, min(length, period) + 1):
                perm = perm.successors[move]
                mat = mat @ perm.step_matrices[move]
                if k == rest:
                    head = mat
            if power:
                mat = np.linalg.matrix_power(mat, power)
                if rest:
                    mat = mat @ head
            mat.setflags(write=False)
            self.run_products[move, length] = mat
        return mat


def parse_permutation(text: str) -> Permutation:
    """Parse a comma-separated image list such as "4,3,2,1"."""
    try:
        images = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse permutation {text!r}") from exc
    return Permutation(images)


@dataclass(frozen=True)
class IetData:
    """Length vector plus permutation: the interval exchange T(lengths, perm).

    Domain subintervals are I_i = [beta_{i-1}, beta_i) with beta the running
    sums of `lengths`; the image order is prescribed by `perm`.
    """

    lengths: tuple[Scalar, ...]
    perm: Permutation

    def __post_init__(self):
        lengths = self.lengths
        if type(lengths) is not tuple:
            lengths = tuple(lengths)
            object.__setattr__(self, "lengths", lengths)
        if len(lengths) != len(self.perm.images):
            raise ValueError("lengths / permutation size mismatch")
        if any(not (l > 0) for l in lengths):
            raise ValueError(f"lengths must be positive: {lengths!r}")

    @property
    def m(self) -> int:
        return self.perm.m

    @property
    def total(self) -> Scalar:
        tot = self.lengths[0]
        for l in self.lengths[1:]:
            tot = tot + l
        return tot

    def is_normalized(self) -> bool:
        return abs(float(self.total) - 1.0) <= 1e-12

    @cached_property
    def breakpoints(self) -> tuple[Scalar, ...]:
        """Right endpoints beta_1..beta_m of the domain subintervals."""
        out = []
        acc = None
        for l in self.lengths:
            acc = l if acc is None else acc + l
            out.append(acc)
        return tuple(out)

    @cached_property
    def image_lengths(self) -> tuple[Scalar, ...]:
        """Lengths reordered as the image intervals appear left to right."""
        inv = self.perm.inverse_images
        return tuple(self.lengths[i - 1] for i in inv)

    @cached_property
    def translations(self) -> tuple[Scalar, ...]:
        """T(x) = x + translations[i-1] on subinterval I_i."""
        image_left = []
        acc = 0
        for l in self.image_lengths:
            image_left.append(acc)
            acc = acc + l
        out = []
        dom_left = 0
        for i, l in enumerate(self.lengths, start=1):
            out.append(image_left[self.perm(i) - 1] - dom_left)
            dom_left = dom_left + l
        return tuple(out)

    def interval_index(self, x: Scalar) -> int:
        """0-based index of the subinterval containing x in [0, total)."""
        bps = self.breakpoints  # bps[-1] is the total, summed once
        if not (0 <= x) or not (x < bps[-1]):
            raise DomainError(f"point {x!r} outside [0, {bps[-1]!r})")
        idx = bisect.bisect_right(bps, x)
        return min(idx, self.m - 1)

    @cached_property
    def _tower(self) -> "Tower":
        """Itinerary predictor of :func:`_orbit`."""
        return Tower.of_exchange(self)


def iet_apply(iet: IetData, x: Scalar) -> Scalar:
    """Apply the interval exchange to a point of [0, |lengths|)."""
    idx = iet.interval_index(x)
    return x + iet.translations[idx]


def apply_move(perm: Permutation, move: RauzyMove) -> Permutation:
    """Apply one combinatorial move; irreducibility is preserved."""
    m = perm.m
    if move is RauzyMove.A:
        p = perm.inverse(m)
        images = [0] * m
        for j in range(1, m + 1):
            if j <= p:
                images[j - 1] = perm(j)
            elif j == p + 1:
                images[j - 1] = perm(m)
            else:
                images[j - 1] = perm(j - 1)
        return Permutation(tuple(images))
    if move is RauzyMove.B:
        last = perm(m)
        images = [0] * m
        for j in range(1, m + 1):
            pj = perm(j)
            if pj <= last:
                images[j - 1] = pj
            elif pj < m:
                images[j - 1] = pj + 1
            else:
                images[j - 1] = last + 1
        return Permutation(tuple(images))
    raise DomainError(f"unknown move {move!r}")


def induction_matrix(perm: Permutation, move: RauzyMove) -> np.ndarray:
    """The nonnegative unimodular bookkeeping matrix of one move.

    Maps the induced lengths back to the original ones: lengths = M @ induced.
    """
    m = perm.m
    mat = np.zeros((m, m), dtype=np.int64)
    p = perm.inverse(m)
    if move is RauzyMove.A:
        for i in range(1, p + 1):
            mat[i - 1, i - 1] = 1
        mat[m - 1, p] = 1
        for i in range(p, m):
            mat[i - 1, i] = 1
    elif move is RauzyMove.B:
        for i in range(m):
            mat[i, i] = 1
        mat[m - 1, p - 1] = 1
    else:
        raise DomainError(f"unknown move {move!r}")
    mat.setflags(write=False)
    return mat


def inverse_induction_matrix(perm: Permutation, move: RauzyMove) -> np.ndarray:
    """Exact integer inverse of :func:`induction_matrix`."""
    m = perm.m
    mat = np.zeros((m, m), dtype=np.int64)
    p = perm.inverse(m)
    if move is RauzyMove.A:
        for i in range(1, p):
            mat[i - 1, i - 1] = 1
        mat[p - 1, p - 1] = 1
        mat[p - 1, m - 1] = -1
        mat[p, m - 1] = 1
        for j in range(p + 2, m + 1):
            mat[j - 1, j - 2] = 1
    elif move is RauzyMove.B:
        for i in range(m):
            mat[i, i] = 1
        mat[m - 1, p - 1] = -1
    else:
        raise DomainError(f"unknown move {move!r}")
    mat.setflags(write=False)
    return mat


def induction_update(lengths: Sequence[Scalar], perm: Permutation):
    """One unnormalized induction step on a positive length vector.

    Returns (move, new_perm, new_lengths, shrink) where shrink is the length
    removed from the total.  Works for floats and Fractions alike; raises
    BoundaryError on ties.
    """
    m, p, after_a, after_b = perm._step_data
    last_image = lengths[p - 1]
    last_domain = lengths[m - 1]
    if last_image > last_domain:
        return _A, after_a, (*lengths[:p - 1], last_image - last_domain,
                             last_domain, *lengths[p:m - 1]), last_domain
    if last_domain > last_image:
        return _B, after_b, (*lengths[:m - 1], last_domain - last_image), \
            last_image
    raise BoundaryError(
        f"tie between competing lengths {last_image!r}; step undefined")


def _substitution(perm: Permutation, move: RauzyMove) -> np.ndarray:
    """Level-(n+1) block i expands to level-n blocks word[i, 0], word[i, 1].

    0-based; the two entries are equal for a one-letter word.  A point of
    the induced interval's i-th subinterval visits the level-n subintervals
    of the word, in order, before it first returns.
    """
    m = perm.m
    p = perm.inverse(m)
    word = np.repeat(np.arange(m, dtype=np.int64)[:, None], 2, axis=1)
    if move is RauzyMove.A:
        word[p + 1:] -= 1
        word[p] = p - 1, m - 1
    else:
        word[p - 1] = p - 1, m - 1
    word.setflags(write=False)
    return word


def rauzy_step(lengths: Sequence[Scalar], perm: Permutation):
    """One induction step on normalized lengths: (move, tau, lengths, perm).

    The image lengths are renormalized to unit total; `tau` is the log of the
    normalization factor (the return-time increment of the renormalization
    clock).  The input is checked as an :class:`IetData` is, plus a unit total.
    """
    if len(lengths) != len(perm.images):
        raise ValueError("lengths / permutation size mismatch")
    if not abs(float(sum(lengths)) - 1.0) <= 1e-9:  # also NaN and inf
        raise DomainError("rauzy_step requires |lengths| = 1")
    if not min(lengths) > 0:  # after the total: min can skip a NaN
        raise ValueError(f"lengths must be positive: {lengths!r}")
    move, new_perm, new_lengths, _ = induction_update(lengths, perm)
    remaining = sum(new_lengths)
    tau = -math.log(float(remaining))
    return move, tau, tuple([l / remaining for l in new_lengths]), new_perm


@dataclass(frozen=True)
class RauzyClass:
    """A full Rauzy class with its labeled diagram.

    `members` are sorted lexicographically by image sequences so fixtures are
    reproducible; `edges` holds (source_index, move_kind, target_index).
    """

    members: tuple[Permutation, ...]
    edges: tuple[tuple[int, str, int], ...]

    def __len__(self) -> int:
        return len(self.members)


def rauzy_class(perm: Permutation) -> RauzyClass:
    """Closure of a permutation under both moves, with the labeled diagram
    (at most 100,000 members)."""
    seen = {perm.images: perm}
    frontier = [perm]
    raw_edges = []
    while frontier:
        current = frontier.pop()
        for move, image in current.successors.items():
            raw_edges.append((current.images, move.value, image.images))
            if image.images not in seen:
                seen[image.images] = image
                frontier.append(image)
                if len(seen) > 100_000:
                    raise DomainError("class exceeds 100000 permutations")
    members = tuple(seen[images] for images in sorted(seen))
    order = {p.images: i for i, p in enumerate(members)}
    edges = tuple(sorted((order[src], kind, order[dst])
                         for src, kind, dst in raw_edges))
    return RauzyClass(members=members, edges=edges)


# ------------------------------------------------------------ float orbits

_CHUNK = 1 << 14  # most orbit steps one chunk predicts, rebuilds and verifies
_TABLE_Q = 256  # blocks at most this long expand by one table lookup
_WALK_TABLE = 1 << 12  # most entries of one walk's level table
_Q_CAP = 10**9  # a tower ends at its first level of blocks all longer


def _left_ends(lengths: np.ndarray) -> np.ndarray:
    """Exclusive running sums along each row: 0, l0, l0 + l1, ..."""
    out = np.zeros_like(lengths)
    np.cumsum(lengths[:, :-1], axis=1, out=out[:, 1:])
    return out


def _return_times(q: list, word: np.ndarray) -> list:
    """Return times of the blocks that `word` spells from blocks one level
    down with return times q."""
    return [q[a] + q[b] if a != b else q[a] for a, b in word.tolist()]


class Walk(NamedTuple):
    """:meth:`Tower.walk`'s record: a row per point, a column per budget
    (and, for the sums, the block values' trailing axes)."""

    total: np.ndarray | None  # running sum of the block values
    low: np.ndarray | None  # its prefix minimum, when extrema are asked for
    high: np.ndarray | None  # its prefix maximum, likewise
    spent: np.ndarray  # budget used
    end: np.ndarray  # point reached
    ok: np.ndarray  # False for a point that fell below 0


class Tower:
    """Rauzy-Veech tower of one exchange, one row of arrays per level.

    Level n is the exchange induced n times, with unnormalized float
    lengths.  A point of its i-th subinterval first returns to level n
    after q[n, i] level-0 steps; that itinerary is the block (n, i), whose
    letters at level n - 1 are first[n, i] and last[n, i] (equal for a
    one-letter word).  Lengths, breakpoints, translations, return times
    and words are read-only rows of 2-D arrays; `tot` is the breakpoints'
    last column.

    The one constructor takes each level's lengths and permutation and the
    moves between levels, and computes every array at once; a tower never
    grows.  Its two sources only choose the rows: :meth:`from_path` takes
    an elementary induction path's (the return ladder of `finadd`), and
    :meth:`of_exchange` induces an exchange down to its last level whose
    blocks are all at most _TABLE_Q steps long (the orbit kernel's
    itinerary predictor, kept as `IetData._tower`).  The predictor's
    table of each block's level-0 itinerary, and the list form of the rows
    it reads, are built on the first :meth:`predict`, so a ladder, which
    is walked and never predicted from, builds neither.
    """

    def __init__(self, lengths: Sequence, perms: Sequence[Permutation],
                 moves: Sequence[RauzyMove]):
        """Level n has the physical lengths `lengths[n]` and the
        permutation `perms[n]`, and `moves[n]` leads from it to level
        n + 1.  The tower ends at the last row, or at the first level whose
        every block is longer than _Q_CAP steps, so that q and sums of
        block values stay far from int64 overflow.  Breakpoints and
        translations take the same float operations as an :class:`IetData`
        of each level: breakpoints are sequential running sums.
        """
        m = len(perms[0].images)
        q = [1] * m
        qs, words = [q], [np.repeat(np.arange(m)[:, None], 2, axis=1)]
        for perm, move in zip(perms, moves):
            words.append(perm.substitutions[move])
            q = _return_times(q, words[-1])
            qs.append(q)
            if min(q) > _Q_CAP:
                break
        self.m, self.size = m, len(qs)
        lengths = np.array(lengths[:self.size], dtype=float)
        images = np.array([p.images for p in perms[:self.size]]) - 1
        image_lengths = np.take_along_axis(
            lengths, np.argsort(images, axis=1), axis=1)
        words = np.stack(words)
        self.lengths, self.bps = lengths, np.cumsum(lengths, axis=1)
        self.shift = np.take_along_axis(_left_ends(image_lengths), images,
                                        axis=1) - _left_ends(lengths)
        self.tot = self.bps[:, -1].copy()
        self.q = np.array(qs, dtype=np.int64)
        self.first, self.last = words[..., 0], words[..., 1]
        for arr in (self.lengths, self.bps, self.shift, self.tot, self.q,
                    self.first, self.last):
            arr.setflags(write=False)

    @classmethod
    def from_path(cls, path) -> "Tower":
        """The tower of an elementary induction path's first exchange.

        Level n's lengths are the path's normalized ones, `path.lengths[n]`,
        scaled by the surviving total exp(-tau_n), so its moves are the
        recorded ones.
        """
        scale = [math.exp(-path.total_tau(n)) for n in range(len(path) + 1)]
        return cls(path.lengths * np.array(scale)[:, None], path.perms,
                   path.moves)

    @classmethod
    def of_exchange(cls, iet: IetData) -> "Tower":
        """The orbit kernel's itinerary predictor for a float exchange.

        Iterates :func:`induction_update` and keeps each level until the
        next would hold a block longer than _TABLE_Q steps.  A tie ends the
        tower sooner, and so does float resolution: a level whose total
        (the sequential running sum, as in the constructor) is not below
        the total of the level above.
        """
        rows, perms, moves = [[float(l) for l in iet.lengths]], [iet.perm], []
        q, tot = [1] * iet.m, np.cumsum(rows[0])[-1]
        while True:
            try:
                move, perm, lengths, _ = induction_update(rows[-1], perms[-1])
            except BoundaryError:
                break
            q = _return_times(q, perms[-1].substitutions[move])
            below = np.cumsum(lengths)[-1]
            if max(q) > _TABLE_Q or not below < tot:
                break
            rows.append(lengths)
            perms.append(perm)
            moves.append(move)
            tot = below
        return cls(rows, perms, moves)

    def index(self, n, x: np.ndarray) -> np.ndarray:
        """Subinterval of each x at level n (one level, or one per point)."""
        return _subinterval(self.bps.ravel(), np.multiply(n, self.m), x,
                            self.m)

    @cached_property
    def _table(self) -> np.ndarray:
        """Level-0 itinerary of block (n, i) in the first q[n, i] entries
        of row (n, i), zeros after: the itineraries of its word's letters,
        joined."""
        table = np.zeros((self.size, self.m, _TABLE_Q), dtype=np.int64)
        table[0, :, 0] = np.arange(self.m)
        q = self.q.tolist()
        for n in range(1, self.size):
            for i, (a, b) in enumerate(zip(self.first[n].tolist(),
                                           self.last[n].tolist())):
                k = q[n - 1][a]
                table[n, i, :k] = table[n - 1, a, :k]
                table[n, i, k:q[n][i]] = table[n - 1, b, :q[n][i] - k]
        return table

    @cached_property
    def _lists(self) -> tuple:
        """The rows :meth:`predict` reads, as Python lists: breakpoints,
        translations, return times, each level's least return time and
        minus its total."""
        return (self.bps.tolist(), self.shift.tolist(), self.q.tolist(),
                self.q.min(axis=1).tolist(), (-self.tot).tolist())

    def predict(self, x: float, n: int) -> np.ndarray:
        """Guessed level-0 indices of at most n steps of the orbit of x.

        Greedy walk: each stage takes the deepest block that holds x and
        fits in the steps left, and the blocks' itineraries are one gather
        from the table, so every block must be at most _TABLE_Q steps long
        (as in a tower built by :meth:`of_exchange`).  Stops early when x
        leaves [0, total).
        """
        bps, shifts, q, qmin, neg_total = self._lists
        levels, blocks = [], []
        left = n
        while left > 0 and x >= 0:
            top = min(bisect.bisect_right(qmin, left),
                      bisect.bisect_left(neg_total, -x)) - 1
            if top < 0:
                break
            for lev in range(top, -1, -1):
                i = bisect.bisect_right(bps[lev], x)
                if q[lev][i] <= left:
                    break
            levels.append(lev)
            blocks.append(i)
            left -= q[lev][i]
            x = x + shifts[lev][i]
        lev = np.array(levels, dtype=np.int64)
        idx = np.array(blocks, dtype=np.int64)
        keep = np.arange(_TABLE_Q) < self.q[lev, idx][:, None]
        return self._table[lev, idx][keep]

    def walk(self, x, budget: np.ndarray, cost: np.ndarray, stats=None,
             extrema: bool = False, spent=None, total=None) -> Walk:
        """One greedy block walk of many points at once.

        Point j starts at x[j] with spent[j] of its budget used and running
        sum total[j] (both zero by default).  For each budget column k,
        nondecreasing along a row, it then consumes one block per stage:
        the deepest block (n, i) whose level holds the point and whose cost
        still fits, spent + cost[n, i] <= budget[j, k].  The block adds
        stats[0][n, i] to the sum; with `extrema`, stats[1] and stats[2]
        (the block's prefix minimum and maximum) update the sum's running
        extrema.  Stats of shape (levels, blocks, k) sum k value vectors in
        the one walk: each slice of the (points, budgets, k) sums is the
        walk of that vector alone, bit for bit.  Once no block fits, the
        column records where the point stands and the next column continues
        from there.

        A point's level-n block begins with its level-(n-1) block, so in
        exact arithmetic whether a level holds the point and whether its
        block fits both change once, from true to false, as the level
        grows.  Within the block table below, a stage takes the deepest
        level n such that every level from 0 to n holds the point and fits
        (the prefix rule), below an upper bound: levels whose deeper blocks
        all cost more than the computed budget left, budget - spent, are
        out.  On a point within a few ulps of a breakpoint, neighbouring
        levels' float breakpoints can place it in blocks that do not nest,
        and a deeper level can fit again after one that does not; the
        prefix rule stops at the first level that fails.  Past the table
        the level comes from a bisection, which on such a point can take
        another level.

        The walk first tabulates the levels a stage can reach: those whose
        deeper blocks do not all cost more than the largest budget step
        plus the largest level-0 cost.  Their breakpoints and totals cut
        the base into cells, on each of which every tabulated level's
        block and holding are fixed, and their distinct block costs are
        ranked.  The depth of entry (cell, rank) of the block table counts
        the levels, up from level 0, that hold the cell with a block of
        lower rank: a running maximum of the rank over the levels, where a
        level that does not hold the cell ranks past every cost.  The entry
        holds the flat offset of the block at that depth, level * m +
        subinterval, so the level is the offset // m: every tabulated
        breakpoint is an edge, so a point of a cell lies in the subinterval
        of the cell's left edge at every tabulated level, and the
        comparisons that decide holding also count that subinterval.  A
        stage searches the cell of each point and the rank of its budget
        left.  The costs
        below the budget left fit, with no margin: the computed budget -
        spent is the true difference correctly rounded, so a cost below it
        is below the true difference (a difference that rounds up can
        reach a cost that does not fit, but never pass it), and spent +
        cost then rounds to at most the budget.  A short loop then admits
        the costs not below it for which spent + cost still rounds to at
        most the budget.  One lookup in the block table gives the level
        and its block.  The points that loop
        admitted a cost for have their level capped by the upper bound, and
        the points that fit every tabulated level go on past the table (see
        below); for every point of these two kinds :func:`_subinterval`
        gives the block at the level they end on.  A nan budget admits no
        cost.  The block table holds at most _WALK_TABLE entries,
        enough for the flow-time walks of `limit` on short-run ladders, so
        a walk that can reach deep levels (long Zorich runs, or budgets of
        many returns) tabulates fewer levels than it can reach.  A point
        that fits every tabulated level goes on by bisection between the
        last of them and the upper bound, which there also leaves out the
        levels whose deeper domains all end at or before the point.  The
        bisection's first probe is the deepest level below the bound.
        Where fitting is not monotone in the level, its answer depends on
        the order of its probes, so there the walk follows the prefix rule
        only as far as the table reaches.

        Tables are read flat: level n's row starts at n * m in C-contiguous
        copies of the breakpoints, translations and costs, so each lookup is
        one `take`.  The sums and their extrema are held as one row of
        points per block value (the stats' trailing axes, flattened), and
        each stat as one flat table per block value, so a stage updates
        each value with 1-D gathers; the record has the shape given above.

        A point below 0 (or nan) drops out with `ok` false.  A point at or
        past the base's end cannot move, so callers check `spent` or `end`.
        """
        x = np.array(x, dtype=float)
        n_pts, n_cols = budget.shape
        m, tot = self.m, self.tot
        bps, shift = self.bps.ravel(), self.shift.ravel()
        price = np.ascontiguousarray(cost).ravel()
        floor = np.minimum.accumulate(cost.min(axis=1)[::-1])[::-1]
        reach = -np.maximum.accumulate(tot[::-1])[::-1]
        ok = np.ones(n_pts, dtype=bool)
        used = np.zeros(n_pts, dtype=cost.dtype) if spent is None \
            else np.array(spent)
        state = {"spent": used, "end": x}
        trail = () if stats is None else stats[0].shape[2:]
        if stats is not None:  # k rows of points, one per block value
            k = math.prod(trail)
            state["total"] = sums = \
                np.zeros((k, n_pts), dtype=stats[0].dtype) if total is None \
                else np.array(total).reshape(n_pts, k).T.copy()
            values = [np.ascontiguousarray(s.reshape(-1, k).T)
                      for s in stats[:3 if extrema else 1]]
            if extrema:
                state["low"], state["high"] = low, high = \
                    np.zeros_like(sums), np.zeros_like(sums)
        out = {key: np.empty(budget.shape + v.shape[:-1], dtype=v.dtype)
               for key, v in state.items()}
        edges, costs, blocks, size = self._levels(budget, cost, used, floor)
        width = blocks.shape[1]
        blocks = blocks.ravel()
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
                left = cap - have
                if left.dtype.kind == "f":
                    left = np.fmax(left, -np.inf)  # a nan budget: no cost fits
                cell = edges.searchsorted(xl, side="right")
                rank = costs.searchsorted(left, side="left")
                near = (rank < costs.size) & \
                    (have + costs.take(rank, mode="clip") <= cap)
                act = np.flatnonzero(near)
                while act.size:  # costs not below the budget left that fit
                    rank[act] += 1
                    act = act[rank[act] < costs.size]
                    act = act[have[act] + costs.take(rank[act]) <= cap[act]]
                flat = blocks.take(cell * width + rank)
                lo = flat // m
                act = np.flatnonzero(near | (lo == size - 1))
                if act.size:  # the upper bound, and past the table
                    hi = floor.searchsorted(left[act], side="right")
                    lo[act] = np.minimum(lo[act], hi - 1)
                    deep = (lo[act] == size - 1) & (hi > size)
                    far, hi = act[deep], hi[deep]
                    hi = np.minimum(hi, reach.searchsorted(-xl[far],
                                                           side="left"))
                    low_n = lo[far]
                    sub = np.flatnonzero(hi - low_n > 1)
                    n = hi[sub] - 1
                    while sub.size:
                        pts = far[sub]
                        xs, base = xl[pts], n * m
                        i = _subinterval(bps, base, xs, m)
                        fits = (xs < tot.take(n)) & \
                            (have[pts] + price.take(base + i) <= cap[pts])
                        low_n[sub[fits]] = n[fits]
                        hi[sub[~fits]] = n[~fits]
                        sub = sub[hi[sub] - low_n[sub] > 1]
                        n = (low_n[sub] + hi[sub]) // 2
                    lo[far] = low_n
                    # the blocks at the levels set here; a point that stops
                    # (level -1) reads a level-0 block and does not move
                    base = np.maximum(lo[act], 0) * m
                    flat[act] = base + _subinterval(bps, base, xl[act], m)
                moved = lo >= 0
                live, flat = live[moved], flat[moved]
                if stats is not None:
                    for o, row in enumerate(sums):
                        now = row[live]
                        if extrema:
                            lows, highs = low[o], high[o]
                            lows[live] = np.minimum(
                                lows[live], now + values[1][o].take(flat))
                            highs[live] = np.maximum(
                                highs[live], now + values[2][o].take(flat))
                        row[live] = now + values[0][o].take(flat)
                used[live] += price.take(flat)
                x[live] += shift.take(flat)
            for key, v in state.items():
                out[key][:, col] = v.T
        rows = [out[key].reshape(budget.shape + trail) if key in out else None
                for key in ("total", "low", "high")]
        return Walk(*rows, out["spent"], out["end"], ok)

    def _levels(self, budget, cost, spent, floor) -> tuple:
        """:meth:`walk`'s tables of the levels its stages can reach: the
        sorted breakpoints and totals that cut the base into cells (cell c
        >= 1 starts at edges[c - 1], cell 0 lies below them), the sorted
        distinct costs, the (cell, rank) table of the block a stage takes
        as a flat offset, level * m + subinterval (-m for none, so that the
        level is the offset // m), and the number of levels tabulated."""
        m = self.m
        with np.errstate(invalid="ignore"):  # inf - inf: an infinite budget
            gaps = np.concatenate((budget[:, :1] - spent[:, None],
                                   np.diff(budget, axis=1)), axis=1)
        most = np.max(gaps, where=gaps == gaps, initial=0)
        size = max(1, int(floor.searchsorted(most + cost[0].max(),
                                             side="right")))
        while True:
            edges, costs = _distinct(self.bps[:size]), \
                _distinct(cost[:size])
            entries = (edges.size + 1) * (costs.size + 2)
            if entries <= _WALK_TABLE or size == 1:
                break
            size = max(1, int(size * math.sqrt(_WALK_TABLE / entries)))
        n_cells = edges.size + 1
        reps = np.concatenate(([-np.inf], edges))  # a point of each cell
        bps = self.bps[:size].T.copy()[..., None]  # a column per breakpoint
        inv = costs.searchsorted(cost[:size]).astype(
            np.int16 if costs.size < 1 << 15 else np.int32)
        jump = np.diff(inv, axis=1, append=inv.dtype.type(costs.size)).T
        # entry (c, r) codes the deepest level n such that every level from
        # 0 to n holds cell c with a block ranked below r, as n * m + the
        # cell's subinterval at level n, plus m (0: no such level).  The
        # deepest level of each run of equal running ranks writes its code
        # one column past that rank, and a running maximum along the ranks
        # fills the row, since codes grow with the level.  Levels go in
        # chunks, so the (level, cell) ranks are never all held at once.
        # Every tabulated breakpoint is an edge, so the first m - 1 that
        # hold a cell's representative count the subinterval of each point
        # of the cell
        dtype = np.min_scalar_type((size + 1) * m)
        table = np.zeros((n_cells, costs.size + 2), dtype=dtype)
        flat = table.ravel()
        keys = np.arange(1, table.size, table.shape[1])
        firsts = np.arange(m, (size + 1) * m, m, dtype=dtype)
        top = 0  # the running rank before level 0
        for start in range(0, size, 64):
            part = slice(start, start + 64)
            rank = np.repeat(inv[part, :1], n_cells, axis=1)
            codes = np.repeat(firsts[part, None], n_cells, axis=1)
            for j in range(m):  # past the total, the last breakpoint: not held
                held = bps[j, part] <= reps
                np.add(rank, jump[j, part, None], out=rank, where=held)
                if j < m - 1:
                    codes += held
            np.maximum(rank[0], top, out=rank[0])
            np.maximum.accumulate(rank, axis=0, out=rank)
            top = rank[-1]
            last = np.ones(rank.shape, dtype=bool)
            np.not_equal(rank[1:], rank[:-1], out=last[:-1])
            flat[(keys + rank)[last]] = codes[last]
        np.maximum.accumulate(table, axis=1, out=table)
        return edges, costs, table.astype(np.intp) - m, size


def _distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a, as `np.unique(a)` gives them for
    values without nan: one sort, and a comparison of neighbours."""
    a = np.sort(a, axis=None)
    keep = np.empty(a.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _subinterval(bps: np.ndarray, base, x: np.ndarray, m: int) -> np.ndarray:
    """Subinterval of each x at the level whose m breakpoints start at
    bps[base] in a flat table: how many of the first m - 1 are at or below
    x, so a point at or past the level's end counts m - 1."""
    i = np.zeros(np.shape(x), dtype=np.intp)
    for j in range(m - 1):
        i += bps.take(base + j) <= x
    return i


def _orbit(iet: IetData, x: float, n: int):
    """The float orbit of x for n steps, in chunks of at most _CHUNK steps.

    Yields (idx, xs): idx[k] is the subinterval of xs[k], and xs[k + 1] is
    xs[k] + translations[idx[k]] in floating point, so consecutive chunks
    share their boundary point.  Bitwise equal to the scalar loop
    `idx = iet.interval_index(x); x = x + iet.translations[idx]`: the tower
    predicts the indices, `np.add.accumulate` rebuilds the points by the
    same additions in the same order, and one `searchsorted` checks every
    index against the exchange's own breakpoints.
    After a wrong guess the verified prefix is kept, the true index taken,
    and the rest predicted again.  A point outside [0, total) raises
    DomainError when the step that indexes it is requested.
    """
    bps = np.array(iet.breakpoints, dtype=float)
    shift = np.array(iet.translations, dtype=float)
    top = iet.m - 1
    x = float(x)
    left = int(n)
    while left > 0:
        idx = iet._tower.predict(x, min(left, _CHUNK))
        if not idx.size:  # x is outside the tower: let the check raise
            idx = np.zeros(1, dtype=np.intp)
        xs = np.empty(idx.size + 1)
        xs[0] = x
        np.take(shift, idx, out=xs[1:])
        np.add.accumulate(xs, out=xs)
        pts = xs[:-1]
        true = bps.searchsorted(pts, side="right")
        np.minimum(true, top, out=true)
        outside = ~(pts >= 0.0) | ~(pts < bps[-1])
        wrong = ((true != idx) | outside).nonzero()[0]
        if wrong.size:
            j = int(wrong[0])
            if outside[j]:
                if j:
                    yield idx[:j], xs[:j + 1]
                raise DomainError(f"point {float(pts[j])!r} outside "
                                  f"[0, {iet.breakpoints[-1]!r})")
            idx = idx[:j + 1]
            idx[j] = true[j]
            xs = xs[:j + 2]
            xs[j + 1] = xs[j] + shift[idx[j]]
        yield idx, xs
        x = float(xs[-1])
        left -= idx.size


def birkhoff_sum(
    iet: IetData,
    f: Union[Sequence[Scalar], Callable[[Scalar], Scalar]],
    x: Scalar,
    n_steps: int,
):
    """Partial sums [S_0..S_N] of f along the forward orbit of x, S_0 = 0.

    `f` is either a per-subinterval value vector (piecewise-constant case) or
    a callable on points.
    """
    if n_steps < 0:
        raise DomainError("n_steps must be >= 0")
    if callable(f):
        evaluate = f
    else:
        values = list(f)
        if len(values) != iet.m:
            raise DomainError("value vector length mismatch")
        evaluate = lambda pt: values[iet.interval_index(pt)]

    total = 0
    partials = [0]
    point = x
    for _ in range(n_steps):
        total = total + evaluate(point)
        partials.append(total)
        point = iet_apply(iet, point)
    return partials


def running_sup_profile(
    iet: IetData,
    f: Union[Sequence[Scalar], Callable[[Scalar], Scalar]],
    x: Scalar,
    checkpoints: Sequence[int],
):
    """sup of |partial sums| over the first N orbit steps, per checkpoint.

    One pass over the orbit; checkpoints must be increasing positive step
    counts.  Returns a list of floats aligned with the checkpoints.  Float
    exchanges and values run on the vectorized orbit with sequential
    accumulation, bitwise equal to :func:`birkhoff_sum`, which serves
    callables and exact lengths.
    """
    marks = [int(n) for n in checkpoints]
    if not marks or marks[0] <= 0 or \
            any(b <= a for a, b in zip(marks, marks[1:])):
        raise DomainError("checkpoints must be increasing positive counts")
    values = None if callable(f) else list(f)
    if values is not None and len(values) != iet.m:
        raise DomainError("value vector length mismatch")
    if values is None or not all(isinstance(v, float) for v in
                                 (*iet.lengths, *values, x)):
        partials = birkhoff_sum(iet, f, x, marks[-1])
        peaks = list(itertools.accumulate(map(abs, partials[1:]), max,
                                          initial=0.0))
        return [float(peaks[n]) for n in marks]
    vals = np.array(values, dtype=float)
    want = np.array(marks)
    sups = []
    total = peak = 0.0
    done = 0
    for idx, _ in _orbit(iet, x, marks[-1]):
        run = np.empty(idx.size + 1)
        run[0] = total
        np.take(vals, idx, out=run[1:])
        np.add.accumulate(run, out=run)  # partial sums
        total = run[-1]
        np.abs(run, out=run)
        run[0] = peak
        np.maximum.accumulate(run, out=run)  # running sup of |sum|
        here = want[(want > done) & (want <= done + idx.size)]
        sups.extend(float(v) for v in run[here - done])
        peak = run[-1]
        done += idx.size
    return sups
