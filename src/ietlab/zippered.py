"""Zippered-rectangle suspensions and their flows.

A suspension datum is (lengths, perm, delta) with delta in the closed
suspension cone; the derived rectangle heights give a special flow over the
interval exchange (flow up at unit speed, jump by the exchange at the roof).
The vertical flow runs in forward time only; no command flows downward.
Observables on the surface are cell functions (in `finadd`), Lipschitz
functions and indicators of boxes inside one rectangle.

Cone-point hits (an orbit meeting a discontinuity exactly) raise
:class:`ConePointError`; callers resample, the engine never perturbs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConePointError,
    DomainError,
    NonRecurrentError,
    RejectionOverflow,
)
from .rauzy import (
    _CHUNK,
    IetData,
    Permutation,
    Scalar,
    iet_apply,
    _orbit,
)

CONE_TOL = 1e-9


def heights(perm: Permutation, delta: Sequence[Scalar]) -> tuple:
    """Rectangle heights derived from the suspension vector.

    h_j = -(delta_1 + .. + delta_{j-1}) + (delta^im_1 + .. + delta^im_{pi(j)-1})
    where delta^im_l = delta at the position mapped to image slot l.
    """
    m = perm.m
    if len(delta) != m:
        raise DomainError("delta length mismatch")
    dom_prefix = [0]
    for d in delta[:-1]:
        dom_prefix.append(dom_prefix[-1] + d)
    img_prefix = [0]
    for l in range(1, m):
        img_prefix.append(img_prefix[-1] + delta[perm.inverse(l) - 1])
    return tuple(-dom_prefix[j - 1] + img_prefix[perm(j) - 1]
                 for j in range(1, m + 1))


def _cone_margin(perm: Permutation, delta: Sequence[Scalar]) -> float:
    """Worst violation of the cone inequalities (<= 0 means inside)."""
    m = perm.m
    worst = -math.inf
    acc = 0.0
    for d in delta[:-1]:
        acc += float(d)
        worst = max(worst, acc)
    acc = 0.0
    for l in range(1, m):
        acc += float(delta[perm.inverse(l) - 1])
        worst = max(worst, -acc)
    return worst


@dataclass(frozen=True)
class ZipperedRectangle:
    """Suspension surface: interval exchange base plus rectangle heights."""

    iet: IetData
    delta: tuple

    def __post_init__(self):
        delta = tuple(self.delta)
        object.__setattr__(self, "delta", delta)
        if len(delta) != self.iet.m:
            raise DomainError("delta / lengths size mismatch")
        scale = max((abs(float(d)) for d in delta), default=0.0) or 1.0
        if _cone_margin(self.iet.perm, delta) > CONE_TOL * scale:
            raise DomainError("delta outside the suspension cone")

    @property
    def m(self) -> int:
        return self.iet.m

    @property
    def perm(self) -> Permutation:
        return self.iet.perm

    @cached_property
    def heights(self) -> tuple:
        return heights(self.iet.perm, self.delta)

    @cached_property
    def area(self):
        total = 0
        for l, h in zip(self.iet.lengths, self.heights):
            total = total + l * h
        return total

    def normalize_area(self) -> "ZipperedRectangle":
        a = self.area
        if not a > 0:
            raise DomainError("cannot normalize zero-area surface")
        return ZipperedRectangle(self.iet, tuple(d / a for d in self.delta))


def sample_delta(perm: Permutation, rng: np.random.Generator,
                 max_attempts: int = 10**6) -> tuple:
    """Gaussian-rejection sample from the open interior of the cone."""
    m = perm.m
    for _ in range(max_attempts):
        cand = rng.standard_normal(m)
        dom = np.cumsum(cand[:-1])
        img = np.cumsum([cand[perm.inverse(l) - 1] for l in range(1, m)])
        if (dom < 0).all() and (img > 0).all():
            return tuple(float(c) for c in cand)
    raise RejectionOverflow(
        f"no interior cone sample for {perm.images} in {max_attempts} draws")


def random_surface(iet: IetData, rng: np.random.Generator) -> ZipperedRectangle:
    """Unit-area suspension over the given exchange with a random cone datum."""
    delta = sample_delta(iet.perm, rng)
    zr = ZipperedRectangle(iet, delta)
    return zr.normalize_area()


# ------------------------------------------------------------ vertical flow

@dataclass(frozen=True)
class SurfacePoint:
    """Base coordinate plus height above the base, inside one rectangle."""

    x: float
    y: float = 0.0


def vertical_flow(zr: ZipperedRectangle, p: SurfacePoint, t: float):
    """Flow a surface point up the vertical field for a time t >= 0.

    Returns (endpoint, index, base_x): roof crossing k enters rectangle
    index[k] (1-based) at base abscissa base_x[k], two arrays.
    The flow runs forward only: a negative t raises :class:`DomainError`.
    Hitting a discontinuity point exactly raises :class:`ConePointError`
    carrying the elapsed time.  The flow runs chunk by chunk on the
    vectorized base orbit: crossing k happens while the remaining time r_k
    is positive and at least the hop to the roof, and r and the elapsed
    time accumulate hop by hop, so every test sees the values of a loop
    over the crossings.
    """
    idx = zr.iet.interval_index(p.x)
    if not (0 <= p.y < float(zr.heights[idx])):
        raise DomainError(f"height {p.y} outside rectangle {idx + 1}")
    if not t >= 0:
        raise DomainError(f"flow time {t} is not a forward time")
    iet = zr.iet
    if not all(isinstance(l, float) for l in iet.lengths):
        raise DomainError("the upward flow needs float lengths")
    hts = [float(h) for h in zr.heights]
    h = np.array(hts)
    lowest = float(h.min())
    disc = np.array([float(b) for b in iet.breakpoints[:-1]])
    x, y = float(p.x), float(p.y)
    remaining, elapsed = float(t), 0.0
    index, base_x = [], []
    while True:
        # every crossing after the first takes at least the lowest height
        bound = int(min(remaining / lowest + 2, _CHUNK)) if lowest > 0 \
            else _CHUNK
        for idx, xs in _orbit(iet, x, bound):
            hops = h[idx]
            if not index:  # only the flow's first hop starts above the base
                hops[0] = hts[idx[0]] - y
            rem = np.subtract.accumulate(np.concatenate(([remaining], hops)))
            stop = (~((rem[:-1] > 0) & (rem[:-1] >= hops))).nonzero()[0]
            s = int(stop[0]) if stop.size else idx.size
            elapsed_at = np.add.accumulate(np.concatenate(([elapsed], hops)))
            cone = (xs[1:s + 1, None] == disc).any(axis=1).nonzero()[0]
            if cone.size:
                raise ConePointError("orbit hit a discontinuity",
                                     float(elapsed_at[cone[0] + 1]))
            index.append(idx[:s] + 1)
            base_x.append(xs[:s])
            if s < idx.size:
                index, base_x = np.concatenate(index), np.concatenate(base_x)
                if index.size:
                    y = 0.0
                return SurfacePoint(float(xs[s]), y + float(rem[s])), \
                    index, base_x
            remaining, elapsed = float(rem[-1]), float(elapsed_at[-1])
            x = float(xs[-1])


def sample_points(zr: ZipperedRectangle, rng: np.random.Generator,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    """n area-uniform random points of the suspension surface, as (x, y).

    Each point takes three consecutive uniforms of the stream: a rectangle
    through the area CDF, then the abscissa and the height inside it.  So
    n single draws and one batch of n consume the stream alike.
    """
    lengths = np.array([float(l) for l in zr.iet.lengths])
    hts = np.array([float(h) for h in zr.heights])
    weights = lengths * hts
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    u = rng.random((n, 3))
    i = cdf.searchsorted(u[:, 0], side="right")
    left = np.concatenate([[0.0], [float(b) for b in
                                   zr.iet.breakpoints[:-1]]])
    return left[i] + u[:, 1] * lengths[i], u[:, 2] * hts[i]


def sample_point(zr: ZipperedRectangle, rng: np.random.Generator) -> SurfacePoint:
    """Area-uniform random point of the suspension surface."""
    xs, ys = sample_points(zr, rng, 1)
    return SurfacePoint(float(xs[0]), float(ys[0]))


# ------------------------------------------------- function families on the surface

@dataclass(frozen=True)
class RectangleIndicator:
    """Indicator of a box inside a single rectangle of the suspension.

    The box [x_left, x_left+width) x [y_bottom, y_bottom+height) must stay
    within one rectangle, which makes it an admissible rectangle and its
    indicator weakly Lipschitz.  Height None means the full rectangle height.
    """

    x_left: float
    width: float
    y_bottom: float = 0.0
    height: float | None = None

    def _resolved(self, zr: ZipperedRectangle):
        idx = zr.iet.interval_index(self.x_left)
        left = float(zr.iet.breakpoints[idx - 1]) if idx > 0 else 0.0
        right = float(zr.iet.breakpoints[idx])
        h = float(zr.heights[idx])
        height = h - self.y_bottom if self.height is None else self.height
        if self.x_left + self.width > right + 1e-12:
            raise DomainError("box straddles a vertical boundary")
        if self.y_bottom < 0 or self.y_bottom + height > h + 1e-12:
            raise DomainError("box exceeds the rectangle height")
        return idx, left, height

    @classmethod
    def full(cls, zr: ZipperedRectangle, index: int) -> "RectangleIndicator":
        """Indicator of the whole rectangle with the given 0-based index."""
        left = float(zr.iet.breakpoints[index - 1]) if index > 0 else 0.0
        return cls(x_left=left, width=float(zr.iet.lengths[index]),
                   y_bottom=0.0, height=float(zr.heights[index]))

    def value(self, zr: ZipperedRectangle, x: float, y: float) -> float:
        idx, _, height = self._resolved(zr)
        if zr.iet.interval_index(x) != idx:
            return 0.0
        inside_x = self.x_left <= x < self.x_left + self.width
        inside_y = self.y_bottom <= y < self.y_bottom + height
        return 1.0 if (inside_x and inside_y) else 0.0

    def nu_integral(self, zr: ZipperedRectangle) -> float:
        _, _, height = self._resolved(zr)
        return self.width * height

    def crossing_integral(self, zr: ZipperedRectangle, rect_index: int,
                          x: float) -> float:
        """Integral over one full bottom-to-roof crossing at abscissa x."""
        idx, _, height = self._resolved(zr)
        if rect_index != idx:
            return 0.0
        if self.x_left <= x < self.x_left + self.width:
            return height
        return 0.0

    def level0_values(self, zr: ZipperedRectangle):
        """Per-rectangle crossing integrals when x-independent, else None."""
        idx, left, height = self._resolved(zr)
        if (abs(self.x_left - left) > 0 or
                abs(self.width - float(zr.iet.lengths[idx])) > 0):
            return None
        vals = [0.0] * zr.m
        vals[idx] = height
        return tuple(vals)


@cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order
    and kept read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@dataclass(frozen=True)
class LipschitzFunction:
    """A Lipschitz function of (x, y), weakly Lipschitz on the suspension."""

    func: Callable[[float, float], float]
    name: str = "f"

    def value(self, zr: ZipperedRectangle, x: float, y: float) -> float:
        return float(self.func(x, y))

    def nu_integral(self, zr: ZipperedRectangle) -> float:
        nodes, weights = _gauss_legendre(24)
        total = 0.0
        left = 0.0
        for i in range(zr.m):
            lam = float(zr.iet.lengths[i])
            h = float(zr.heights[i])
            xs = left + (nodes + 1) * lam / 2
            ys = (nodes + 1) * h / 2
            vals = np.array([[self.func(x, y) for y in ys] for x in xs])
            total += (lam / 2) * (h / 2) * weights @ vals @ weights
            left += lam
        return float(total)

    def crossing_integral(self, zr: ZipperedRectangle, rect_index: int,
                          x: float, order: int = 24) -> float:
        nodes, weights = _gauss_legendre(order)
        h = float(zr.heights[rect_index])
        ys = (nodes + 1) * h / 2
        return float((h / 2) * sum(w * self.func(x, y)
                                   for w, y in zip(weights, ys)))

    def level0_values(self, zr: ZipperedRectangle):
        return None


# ------------------------------------------------- admissible flow boxes

@dataclass(frozen=True)
class AdmissibleRectangle:
    """A flow box: horizontal segment at the anchor flowed for time t1."""

    anchor: SurfacePoint
    t1: float
    t2: float


def is_admissible(zr: ZipperedRectangle, rect: AdmissibleRectangle) -> bool:
    """Exact check that the flow box avoids discontinuities.

    The horizontal segment must stay inside a single base subinterval at every
    level it crosses; within one rectangle the roof is flat, so the whole
    segment crosses together.
    """
    iet = zr.iet
    x, y = float(rect.anchor.x), float(rect.anchor.y)
    remaining = float(rect.t1)
    for _ in range(10**5):
        idx = iet.interval_index(x)
        right = float(iet.breakpoints[idx])
        if x + rect.t2 > right:
            return False
        room = float(zr.heights[idx]) - y
        if remaining <= room:
            return True
        remaining -= room
        x = float(iet_apply(iet, x))
        y = 0.0
    raise NonRecurrentError("admissibility scan exceeded crossing budget")
