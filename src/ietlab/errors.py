"""Exception types shared across the laboratory.

Numerical diagnostics are surfaced as errors rather than silently accepted;
measure-zero degeneracies (ties, cone-point hits) are surfaced rather than
perturbed.
"""

from __future__ import annotations


class IetLabError(Exception):
    """Base class for all library-specific errors."""


class DomainError(IetLabError, ValueError):
    """Input outside the operation's domain (bad point, bad scale, bad flag)."""


class BoundaryError(IetLabError):
    """The two competing lengths tie; the induction step is undefined here."""


class RejectionOverflow(IetLabError):
    """Rejection sampler exceeded its attempt budget; signals a degenerate cone."""


class ConePointError(IetLabError):
    """A flow orbit hit a singular point exactly.

    Carries the offending flow time so callers can resample; the engine never
    perturbs the orbit itself.
    """

    def __init__(self, message: str, time: float):
        super().__init__(f"{message} (at flow time {time!r})")
        self.time = float(time)


class NonRecurrentError(IetLabError):
    """A scan exceeded its step budget; input looks non-generic."""


class NonConvergenceError(IetLabError):
    """Estimator variance above threshold; the run is reported, not trusted."""


class NotUnstable(IetLabError):
    """Vector fails the angle check against the estimated expanding space."""


class SeriesDivergence(IetLabError):
    """Correction series failed its decay test; the level-0 frame is suspect."""


class DegenerateVariance(IetLabError):
    """Normalizing variance below floor; the law cannot be rescaled."""


class SizeLimit(IetLabError):
    """Instance exceeds the configured size cap for an exact solver."""


class InsufficientRange(IetLabError):
    """Scale grid spans too few decades for a slope estimate."""


class NotSimple(IetLabError):
    """Requested exponent is not numerically simple; use the general-case path."""
