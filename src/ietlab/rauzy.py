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
when read, from the step inverses).  A step's matrices and word depend only
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
blocks of the level below, as rows of 2-D arrays.  It is built either from
an exchange, grown in place on demand, or from an elementary induction path
with physical lengths (the return ladder of `finadd`), all levels at once
from the path's arrays.  Its one batched greedy walk, :meth:`Tower.walk`,
sums block statistics over many points and budgets at once; the budget is a
number of returns (block cost q) or a flow time (block cost the block's
duration).

Long float orbits run on one vectorized kernel, :func:`_orbit`, in three
stages per chunk.  Predict: a scalar greedy walk on the exchange's own tower
(kept on the :class:`IetData`) guesses the itinerary.  The tower grows only
one level past its itinerary table, the levels whose blocks are at most
_TABLE_Q steps long and keep their level-0 itineraries; the walk takes
blocks from those levels alone, so the guess is one gather from the table.
Rebuild: `np.add.accumulate` recomputes the points with the same float
additions, in the same order, as the step-by-step loop.  Verify: one
`searchsorted` over the exchange's breakpoints checks every index; at the
first wrong guess the verified prefix is kept and the rest predicted again
from that point.  The prediction affects speed only: the output is bitwise
that of the loop.
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

    def inverted(self) -> "Permutation":
        return Permutation(self.inverse_images)

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

    def run_product(self, move: RauzyMove, length: int) -> np.ndarray:
        """Read-only product of the step matrices of `length` (>= 1)
        consecutive `move`s from this permutation, kept in `run_products`.
        It goes on from the longest shorter run kept, taking each next
        step matrix on the right, in the order of the left-to-right
        product."""
        mat = self.run_products.get((move, length))
        if mat is None:
            done = max((k for mv, k in self.run_products
                        if mv is move and k < length), default=1)
            perm = self
            mat = self.run_products.get((move, done),
                                        perm.step_matrices[move])
            for k in range(1, length):
                perm = perm.successors[move]
                if k >= done:
                    mat = mat @ perm.step_matrices[move]
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

    def inverted(self) -> "IetData":
        """The inverse exchange: image lengths with the inverse permutation."""
        return IetData(self.image_lengths, self.perm.inverted())

    @cached_property
    def _tower(self) -> "Tower":
        """Itinerary predictor of :func:`_orbit`, grown as orbits need."""
        return Tower(self)


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
    m = len(perm.images)
    p = perm.inverse_images[-1]
    last_image = lengths[p - 1]
    last_domain = lengths[m - 1]
    if last_image > last_domain:
        move = RauzyMove.A
        new = (*lengths[:p - 1], last_image - last_domain, last_domain,
               *lengths[p:m - 1])
        shrink = last_domain
    elif last_domain > last_image:
        move = RauzyMove.B
        new = (*lengths[:m - 1], last_domain - last_image)
        shrink = last_image
    else:
        raise BoundaryError(
            f"tie between competing lengths {last_image!r}; step undefined")
    return move, perm.successors[move], new, shrink


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

    def index(self, perm: Permutation) -> int:
        return self.members.index(perm)


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


def _room(buf: np.ndarray, n: int) -> np.ndarray:
    """`buf` if it has a row n, else a copy with twice the rows."""
    if n < len(buf):
        return buf
    grown = np.zeros((2 * len(buf),) + buf.shape[1:], dtype=buf.dtype)
    grown[:n] = buf[:n]
    return grown


def _left_ends(lengths: np.ndarray) -> np.ndarray:
    """Exclusive running sums along each row: 0, l0, l0 + l1, ..."""
    out = np.zeros_like(lengths)
    np.cumsum(lengths[:, :-1], axis=1, out=out[:, 1:])
    return out


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
    and words are rows of 2-D arrays; `tot` is the breakpoints' last
    column.

    `Tower(iet)` starts at an exchange and grows in place on first use
    (the orbit kernel's itinerary predictor, kept as `IetData._tower`).
    Its levels 0..n_tab, whose blocks are at most _TABLE_Q steps long,
    also keep each block's level-0 itinerary; :meth:`predict` reads those
    levels only, so :meth:`grow` stops one level past them.
    :meth:`from_path` builds the tower along an elementary induction path
    with physical lengths (the return ladder) in a few array operations;
    a ladder is walked, never predicted from, so it keeps no itinerary
    table.
    """

    def __init__(self, iet: IetData):
        m = iet.m
        self.m, self.size, self.n_tab, self.final = m, 0, 0, False
        self._f = np.zeros((8, 3, m))  # lengths, breakpoints, translations
        self._i = np.zeros((8, 3, m), dtype=np.int64)  # q, first, last
        self._table = np.zeros((8, m, _TABLE_Q), dtype=np.int64)
        self._table[0, :, 0] = np.arange(m)
        self._push(iet, None)

    lengths = property(lambda self: self._f[:self.size, 0])
    bps = property(lambda self: self._f[:self.size, 1])
    shift = property(lambda self: self._f[:self.size, 2])
    tot = property(lambda self: self._f[:self.size, 1, -1])
    q = property(lambda self: self._i[:self.size, 0])
    first = property(lambda self: self._i[:self.size, 1])
    last = property(lambda self: self._i[:self.size, 2])

    @classmethod
    def from_path(cls, path, q_cap: int) -> "Tower":
        """The tower of an elementary induction path's first exchange.

        Level n's lengths are the path's normalized ones, `path.lengths[n]`,
        scaled by the surviving total exp(-tau_n), so its moves are the
        recorded ones.  Stops after the path's last level, or after the
        first level whose every block is longer than q_cap steps.  The
        words and return times follow the moves' substitutions; lengths,
        breakpoints and translations are computed for all levels at once,
        by the same float operations as an :class:`IetData` of each level.
        """
        q = [1] * path.m
        qs, words = [q], [np.repeat(np.arange(path.m)[:, None], 2, axis=1)]
        for perm, move in zip(path.perms, path.moves):
            words.append(perm.substitutions[move])
            q = [q[a] + q[b] if a != b else q[a]
                 for a, b in words[-1].tolist()]
            qs.append(q)
            if min(q) > q_cap:
                break
        size, words = len(qs), np.stack(words)
        scale = [math.exp(-path.total_tau(n)) for n in range(size)]
        lengths = path.lengths[:size] * np.array(scale)[:, None]
        images = np.array([p.images for p in path.perms[:size]]) - 1
        image_lengths = np.take_along_axis(
            lengths, np.argsort(images, axis=1), axis=1)
        shift = np.take_along_axis(_left_ends(image_lengths), images,
                                   axis=1) - _left_ends(lengths)
        tower = cls.__new__(cls)
        tower.m, tower.size, tower.final = path.m, size, True
        tower.perm, tower.n_tab, tower._table = path.perms[size - 1], 0, None
        tower._f = np.stack([lengths, np.cumsum(lengths, axis=1), shift],
                            axis=1)
        tower._i = np.stack([np.array(qs, dtype=np.int64), words[..., 0],
                             words[..., 1]], axis=1)
        return tower

    def _push(self, level: IetData, move: RauzyMove | None) -> None:
        """Append `level`, reached from the top level by `move`."""
        n, m = self.size, self.m
        if move is None:
            word = np.repeat(np.arange(m)[:, None], 2, axis=1)
            q = np.ones(m, dtype=np.int64)
        else:
            word = self.perm.substitutions[move]
            prev = self.q[-1]
            q = prev[word[:, 0]] + np.where(word[:, 0] != word[:, 1],
                                            prev[word[:, 1]], 0)
        self._f, self._i = _room(self._f, n), _room(self._i, n)
        self._f[n] = level.lengths, level.breakpoints, level.translations
        self._i[n] = q, word[:, 0], word[:, 1]
        self.perm = level.perm
        self.size = n + 1
        if self.n_tab == n - 1 and q.max() <= _TABLE_Q:
            self._table = table = _room(self._table, n)
            for i, (a, b) in enumerate(word):
                k = self._i[n - 1, 0, a]
                table[n, i, :k] = table[n - 1, a, :k]
                table[n, i, k:q[i]] = table[n - 1, b, :q[i] - k]
            self.n_tab = n

    def grow(self) -> None:
        """Add levels until one is too long to table (a block longer than
        _TABLE_Q steps), or a tie or float resolution ends the tower."""
        while not self.final and self.n_tab == self.size - 1:
            try:
                move, perm, lengths, _ = induction_update(
                    self.lengths[-1].tolist(), self.perm)
            except BoundaryError:
                self.final = True
                return
            level = IetData(lengths, perm)
            if not level.breakpoints[-1] < self.tot[-1]:
                self.final = True  # below float resolution: no new level
                return
            self._push(level, move)

    def index(self, n, x: np.ndarray) -> np.ndarray:
        """Subinterval of each x at level n (one level, or one per point)."""
        return _subinterval(self.bps.ravel(), np.multiply(n, self.m), x,
                            self.m)

    def predict(self, x: float, n: int) -> np.ndarray:
        """Guessed level-0 indices of at most n steps of the orbit of x.

        Greedy walk over the tabled levels 0..n_tab: each stage takes the
        deepest tabled block that holds x and fits in the steps left.
        Stops early when x leaves [0, total).
        """
        self.grow()
        tab = self.n_tab + 1
        bps, shifts, q = self.bps[:tab].tolist(), \
            self.shift[:tab].tolist(), self.q[:tab].tolist()
        qmin = self.q[:tab].min(axis=1).tolist()
        neg_total = (-self.tot[:tab]).tolist()
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
        return self._expand(np.array(levels, dtype=np.int64),
                            np.array(blocks, dtype=np.int64))

    def _expand(self, lev: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Level-0 itinerary of a sequence of tabled blocks (level, index):
        one gather from the table."""
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

        A point's level-n block begins with its level-(n-1) block, so
        whether a level holds the point and whether its block fits both
        change once, from true to false, as the level grows, and each stage
        finds its level by bisection between two bounds.  Upper: levels
        whose deeper blocks all cost more than the budget left, or whose
        deeper domains all end at or before the point, are out.  Lower: a
        level is in when it and every shallower level hold the point and
        all their blocks cost less than the budget left, budget - spent.
        That comparison is strict, which makes it exact for float costs
        with no margin: the computed budget - spent is the true difference
        correctly rounded, so a cost below it is below the true difference
        (a difference that rounds up can reach a cost that does not fit,
        but never pass it), and spent + cost then rounds to at most the
        budget.  A nan budget gives no lower bound.  The first probe is the
        deepest level below the upper bound, where the points of some
        return-count walks mostly stop; the later ones take the middle
        level between the bounds.  The block index is computed once, at the
        level taken.

        Tables are read flat: level n's row starts at n * m in C-contiguous
        copies of the breakpoints, translations, costs and stats, so each
        lookup is one `take`, and :func:`_subinterval` is the one index
        kernel.

        A point below 0 (or nan) drops out with `ok` false.  A point at or
        past the base's end cannot move, so callers check `spent` or `end`.
        """
        x = np.array(x, dtype=float)
        n_pts, n_cols = budget.shape
        m, tot = self.m, np.ascontiguousarray(self.tot)
        bps, shift = self.bps.ravel(), self.shift.ravel()
        price = np.ascontiguousarray(cost).ravel()
        floor = np.minimum.accumulate(cost.min(axis=1)[::-1])[::-1]
        reach = -np.maximum.accumulate(tot[::-1])[::-1]
        ceil = np.maximum.accumulate(cost.max(axis=1))
        hold = -np.minimum.accumulate(tot)
        if np.array_equal(hold, reach):
            hold = None  # tot nonincreasing: one count serves both bounds
        ok = np.ones(n_pts, dtype=bool)
        state = {"spent": np.zeros(n_pts, dtype=cost.dtype)
                 if spent is None else np.array(spent), "end": x}
        if stats is not None:
            state["total"] = sums = np.zeros(
                (n_pts,) + stats[0].shape[2:], dtype=stats[0].dtype) \
                if total is None else np.array(total)
            blocks = [np.ascontiguousarray(s).reshape((-1,) + s.shape[2:])
                      for s in stats[:3 if extrema else 1]]
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
                left = cap - have
                held = reach.searchsorted(-xl, side="left")
                hi = np.minimum(floor.searchsorted(left, side="right"), held)
                if hold is not None:
                    held = hold.searchsorted(-xl, side="left")
                if left.dtype.kind == "f":
                    left = np.fmax(left, -np.inf)  # a nan budget: no bound
                # bisection: level lo fits (-1: none), level hi does not
                lo = np.minimum(ceil.searchsorted(left, side="left"),
                                held) - 1
                act = np.flatnonzero(hi - lo > 1)
                n = hi[act] - 1
                while act.size:
                    xs, base = xl[act], n * m
                    i = _subinterval(bps, base, xs, m)
                    fits = (xs < tot.take(n)) & \
                        (have[act] + price.take(base + i) <= cap[act])
                    lo[act[fits]] = n[fits]
                    hi[act[~fits]] = n[~fits]
                    act = act[hi[act] - lo[act] > 1]
                    n = (lo[act] + hi[act]) // 2
                moved = lo >= 0
                live, base = live[moved], lo[moved] * m
                flat = base + _subinterval(bps, base, xl[moved], m)
                if stats is not None:
                    if extrema:
                        low[live] = np.minimum(
                            low[live], sums[live] + blocks[1].take(flat, 0))
                        high[live] = np.maximum(
                            high[live], sums[live] + blocks[2].take(flat, 0))
                    sums[live] += blocks[0].take(flat, 0)
                used[live] += price.take(flat)
                x[live] += shift.take(flat)
            for k, v in state.items():
                out[k][:, col] = v
        return Walk(out.get("total"), out.get("low"), out.get("high"),
                    out["spent"], out["end"], ok)


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
