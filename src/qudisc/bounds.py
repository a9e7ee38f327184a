"""Query-count lower bounds for discriminating two unitaries.

Everything here is a function of theta, the eigenphase spread of U1†U2,
and the tolerated failure probability. ``raw_value`` is the real-valued
bound before rounding; ``t_lower`` applies the ceiling after subtracting
a guard, ``CEILING_GUARD`` or, above a raw value of 3e6, the raw value's
own rounding, so analytically exact integers are not bumped by
floating-point noise.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError, IndistinguishableError
from .linalg import TWO_PI, check_integer
from .tolerances import CEILING_GUARD, CEILING_ROUNDING


class ErrorMode(str, enum.Enum):
    BOUNDED = "bounded_error"
    ONE_SIDED = "one_sided_error"


@dataclass(frozen=True)
class BoundReport:
    theta: float
    epsilon: float
    mode: ErrorMode
    t_lower: int
    raw_value: float

    def slack(self, t: int) -> float:
        """Slack of t queries against the bound: t*theta/2 minus the half-span the budget needs.

        Negative when a protocol making t queries meets the budget below the bound.
        """
        return t * self.theta / 2.0 - _needed_half_span(self.epsilon, self.mode)


def _check_theta(theta: float) -> None:
    if theta == 0.0:
        raise IndistinguishableError(
            "theta is 0: the pair differs by a global phase at most, no query count helps"
        )
    if not 0.0 < theta < TWO_PI:
        raise DomainError(f"theta must lie in (0, 2*pi), got {theta!r}")


def _check_epsilon(epsilon: float, mode: ErrorMode) -> None:
    hi = 0.5 if mode is ErrorMode.BOUNDED else 1.0
    if not 0.0 <= epsilon <= hi:
        raise DomainError(f"epsilon must lie in [0, {hi}] for {mode.value}, got {epsilon!r}")


def _ceil_guarded(raw: float, theta: float) -> int:
    """ceil(raw - guard) for the guard max(CEILING_GUARD, CEILING_ROUNDING*u*raw), u = 2**-53.

    raw is a quotient, pi/theta or 2h/theta, rounded once, and ``math.pi``
    is low by 0.36u relative, so raw lies within 1.4u*raw of the exact count
    x (for 2h/theta, exact in theta and in the half-span h as computed); the
    subtraction rounds by at most u*raw more. With CEILING_ROUNDING = 3 the
    guard covers both. The answer is k + 1, for k = floor(raw), only where
    raw - guard > k, so x > k; it is k only where raw - guard rounds to at
    most k, so x <= k + guard + 2.4u*raw < k + 2*guard. Hence
    ceil(x - 2*guard) <= answer <= ceil(x) while 1.4u*raw < 1, that is for
    raw below about 6e15. Below a raw count of 3e6 the guard is
    ``CEILING_GUARD``, and every answer is ceil(raw - CEILING_GUARD) as
    computed in floating point. An integral raw is its own answer.
    """
    if not math.isfinite(raw):  # a tiny theta overflows the quotient to inf
        raise DomainError(f"theta {theta!r} is too small: its bound {raw} is not finite")
    guard = max(CEILING_GUARD, CEILING_ROUNDING * 2.0**-53 * raw)
    k = math.floor(raw)
    return k if raw - guard <= k else k + 1


def _needed_half_span(epsilon: float, mode: ErrorMode) -> float:
    """Half-span T*theta/2 that budget epsilon needs; every bound and slack derives from it.

    sqrt(1 - 4*eps*(1-eps)) for bounded error, sqrt(1 - eps^2) one-sided.
    """
    if mode is ErrorMode.BOUNDED:
        return math.sqrt(max(0.0, 1.0 - 4.0 * epsilon * (1.0 - epsilon)))
    return math.sqrt(max(0.0, 1.0 - epsilon * epsilon))


def _t_min(theta: float, epsilon: float, mode: ErrorMode) -> BoundReport:
    _check_theta(theta)
    _check_epsilon(epsilon, mode)
    raw = 2.0 * _needed_half_span(epsilon, mode) / theta
    return BoundReport(theta, epsilon, mode, _ceil_guarded(raw, theta), raw)


def t_min_bounded(theta: float, epsilon: float) -> BoundReport:
    """Minimum query count for bounded-error discrimination at budget epsilon.

    raw_value = 2*sqrt(1 - 4*eps*(1-eps)) / theta.
    """
    return _t_min(theta, epsilon, ErrorMode.BOUNDED)


def t_min_onesided(theta: float, epsilon: float) -> BoundReport:
    """Minimum query count for unambiguous discrimination at inconclusive budget epsilon.

    raw_value = 2*sqrt(1 - eps^2) / theta.
    """
    return _t_min(theta, epsilon, ErrorMode.ONE_SIDED)


def optimal_overlap(theta: float, t: int) -> float:
    """Least final overlap |<s1|s2>| that any protocol reaches with t queries at spread theta.

    cos(t*theta/2) while t*theta < pi, else 0: each query turns the Bures
    angle between the two branches by at most theta/2, with or without an
    ancilla, and the parallel plan turns it by exactly that (Acin, PRL 87,
    177901, 2001). theta must lie in [0, 2*pi) and t be an integer >= 0.
    """
    if not 0.0 <= theta < TWO_PI:
        raise DomainError(f"theta must lie in [0, 2*pi), got {theta!r}")
    t = check_integer(t, "query count", 0)
    return 0.0 if t * theta >= math.pi else math.cos(t * theta / 2.0)


def t_perfect(theta: float) -> int:
    """Query count at which perfect discrimination becomes achievable: ceil(pi/theta).

    Computed as ceil(pi/theta - guard), with the guard of ``_ceil_guarded``:
    ``CEILING_GUARD``, or 3u*pi/theta (u = 2**-53) from pi/theta = 3e6 on,
    where the quotient's rounding outgrows it. So it is exact only up to the
    guard: it never answers above ceil(pi/theta) or below
    ceil(pi/theta - 2*guard), and where the computed pi/theta lies at most
    the guard above an integer k it answers k. There the best final overlap
    is not 0 but at most max(theta*CEILING_GUARD/2, 1.5u*pi) plus the
    rounding: 1e-15 beyond theta*CEILING_GUARD/2 at most.
    """
    _check_theta(theta)
    return _ceil_guarded(math.pi / theta, theta)

