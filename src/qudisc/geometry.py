"""Spectral geometry on the unit circle.

Two independent routes to the fidelity of a unitary pair live here: the
closed form through the smallest covering arc of the eigenphases, and an
exact convex-hull distance computation that never looks at arcs. Keeping
both routes honest against each other is one of the toolkit's main checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DomainError, ShapeError
from .linalg import TWO_PI, PhaseSpectrum, require_normalized, wrap_phase
from .tolerances import UNITARY_TOL


@dataclass(frozen=True)
class ArcResult:
    """Smallest closed arc covering a phase set, counter-clockwise from start to end."""

    theta: float
    start_phase: float
    end_phase: float
    start: int  # first index of start_phase in the ascending phases
    end: int  # first index of end_phase in the ascending phases


def _require_unit_circle(points: list[complex]) -> None:
    """Refuse a point off the unit circle; a NaN fails the comparison, so it is refused too."""
    off = [e for z in points if not (e := abs(abs(z) - 1.0)) <= UNITARY_TOL]
    if off:
        raise DomainError(f"points must lie on the unit circle (modulus error {off[0]:.3e})")


def smallest_arc(spectrum: PhaseSpectrum) -> ArcResult:
    """Smallest closed arc containing every phase of a spectrum.

    Removes the largest circular gap between the ascending phases: the
    covering arc is the complement of that gap, so theta = 2*pi - max_gap.
    Ties in the max gap are broken toward the gap with the smallest
    starting phase; theta is unaffected, only the reported endpoints. The
    phases are taken as they are, checked ascending in [0, 2*pi), and the
    arc is found once and kept on the spectrum.

    Raises:
        ShapeError: the argument is not a PhaseSpectrum.
        DomainError: no phases, or phases that are not ascending in
            [0, 2*pi) (a NaN among them included).
    """
    if not isinstance(spectrum, PhaseSpectrum):
        raise ShapeError(f"smallest_arc takes a PhaseSpectrum, got {type(spectrum).__name__}")
    if spectrum.arc is None:
        spectrum.arc = _covering_arc(spectrum.phases)
    return spectrum.arc


def _covering_arc(p: np.ndarray) -> ArcResult:
    """Smallest covering arc of phases, refused unless nonempty and ascending in [0, 2*pi).

    On Python floats: the same subtractions numpy would make, without its
    per-call overhead on the few phases of a small spectrum. A NaN fails
    every comparison of the check.
    """
    ps = p.tolist()
    if not ps:
        raise DomainError("spectrum is empty")
    gaps = [b - a for a, b in zip(ps, ps[1:])]  # gap i runs from ps[i] to its successor
    if not (0.0 <= ps[0] and ps[-1] < TWO_PI and all(g >= 0.0 for g in gaps)):
        raise DomainError("a spectrum's phases must be ascending in [0, 2*pi)")
    gaps.append(ps[0] + TWO_PI - ps[-1])
    best = max(range(len(ps)), key=gaps.__getitem__)  # max keeps the first (smallest start) on ties
    theta = 0.0 if len(ps) == 1 else TWO_PI - gaps[best]
    start = (best + 1) % len(ps)  # first of its phase; ties of the end phase may precede best
    return ArcResult(theta, ps[start], ps[best], start, ps.index(ps[best]))


def fidelity_closed_form(theta: float) -> float:
    """Fidelity of a unitary pair from its eigenphase spread.

    cos(theta/2) while the spread is below pi; exactly 0 from pi onward
    (the hull of the eigenvalues then contains the origin).
    """
    if not 0.0 <= theta < TWO_PI:
        raise DomainError(f"theta must lie in [0, 2*pi), got {theta!r}")
    if theta >= np.pi:
        return 0.0
    return float(np.cos(theta / 2.0))


def fidelity_hull_oracle(points) -> float:
    """Distance from the origin to the convex hull of unit-circle points.

    Independent of the arc-based closed form by construction; see
    ``closest_hull_point``.
    """
    return closest_hull_point(points)[0]


def closest_hull_point(points) -> tuple[float, np.ndarray]:
    """Distance from the origin to the convex hull of unit-circle points, with weights.

    The weights are convex weights over the input points whose combination
    is the hull point nearest the origin; at most 3 of them are nonzero.
    Computed exactly from the polygon geometry: points on a circle are all
    extreme, so sorting by angle yields the hull boundary in CCW order.
    If the origin lies in a triangle of the fan from the first vertex, the
    distance is 0 and the weights are its barycentric coordinates there.
    Otherwise the minimum is attained on an edge or vertex.

    The order comes from numpy's ``angle``, as the phases of a spectrum do: points of one phase
    (equal phases of a degenerate spectrum, or the arc's steps j*theta = k*theta mod 2*pi) keep
    the order numpy gives them. Every later step is O(m) work on Python floats, which at the few
    points of a plan costs less than numpy's per-call overhead; one 3x3 solve is left to LAPACK.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    zs = pts.tolist()
    if not zs:
        raise DomainError("need at least one point")
    _require_unit_circle(zs)
    order = np.argsort(wrap_phase(np.angle(pts))).tolist()
    p = [zs[k] for k in order]
    weights = [0.0] * len(p)
    if len(p) == 1:
        weights[order[0]] = 1.0
        return 1.0, np.array(weights)

    fan = _fan_weights(p) if len(p) > 2 else None
    if fan is not None:
        for k, w in fan:
            weights[order[k]] = w
        return 0.0, np.array(weights)

    # two points bound a single segment, not two edges
    edges = [(k, (k + 1) % len(p)) for k in range(1 if len(p) == 2 else len(p))]
    dist, t, (i, j) = min(_closest_on_segment(p[i], p[j]) + ((i, j),) for i, j in edges)
    weights[order[i]] += 1.0 - t
    weights[order[j]] += t
    return dist, np.array(weights)


# right-hand side of the barycentric system: the combination is the origin, weights sum to 1
_ORIGIN = np.array([0.0, 0.0, 1.0])


def _fan_weights(p: list[complex]) -> list[tuple[int, float]] | None:
    """Convex weights over CCW-sorted circle points that sum them to the origin, or None.

    Looks for the origin in the fan of triangles (p_0, p_i, p_i+1). Twice
    the areas the origin cuts from a triangle are its barycentric weights
    unnormalised; the triangle whose smallest one is largest holds the
    origin deepest. The weights come from a pivoted solve, which leaves a
    residual of rounding size whenever they are all nonnegative. None when
    the origin lies outside, or on the boundary within rounding, where the
    nearest edge answers to rounding as well. Returns (index into p, weight)
    for the triangle's three corners.
    """
    a = p[0]
    depths = [min(_cross(b, c), _cross(c, a), _cross(a, b)) for b, c in zip(p[1:-1], p[2:])]
    best = max(range(len(depths)), key=depths.__getitem__)  # the first deepest, as argmax
    if depths[best] < 0.0:
        return None
    b, c = p[best + 1], p[best + 2]
    system = np.array([[a.real, b.real, c.real], [a.imag, b.imag, c.imag], [1.0, 1.0, 1.0]])
    # np.linalg.solve's LAPACK call; a singular system (two equal corners) fills w with NaN,
    # which the sign test refuses, where np.linalg.solve would raise
    with np.errstate(all="ignore"):
        w = _umath_linalg.solve1(system, _ORIGIN, signature="dd->d").tolist()
    if not (w[0] >= 0.0 and w[1] >= 0.0 and w[2] >= 0.0):
        return None
    total = w[0] + w[1] + w[2]
    return [(0, w[0] / total), (best + 1, w[1] / total), (best + 2, w[2] / total)]


def _cross(u: complex, v: complex) -> float:
    """z-component of the cross product of complex numbers as plane vectors: Im(conj(u) v)."""
    return u.real * v.imag - u.imag * v.real


def _closest_on_segment(a: complex, b: complex) -> tuple[float, float]:
    """Distance from the origin to the segment [a, b], and t of its nearest point a + t(b - a)."""
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(a), 0.0
    t = -(a.real * ab.real + a.imag * ab.imag) / denom
    t = min(1.0, max(0.0, t))
    return abs(a + t * ab), t


def trace_distance_pure(states):
    """Trace distance of normalized pure states: 2*sqrt(1 - |<a|b>|^2).

    Takes one array with the two states on axis 0: shape (2, n) gives a
    float, shape (2, m, n) an array with one distance per row. The array is
    read as given, with no copy; all states are checked in one pass over it.

    Evaluated as twice the norm of the component of b orthogonal to a,
    which equals the same quantity without the catastrophic cancellation
    of 1 - |<a|b>|^2 near identical states. The projection divides by
    <a|a> itself, formed as <a|b> is, so equal inputs give exactly 0.
    """
    shape = np.shape(states)
    if len(shape) not in (2, 3) or shape[0] != 2:
        raise ShapeError(f"expected a (2, n) or (2, m, n) array of states, got shape {shape}")
    (va, vb), (aa, bb) = require_normalized(states)
    perp = vb - va * ((va.conj() * vb).sum(axis=-1) / aa)[..., None]
    perp_norm = np.sqrt((perp.conj() * perp).sum(axis=-1).real)
    d = np.minimum(2.0, 2.0 * perp_norm / np.sqrt(bb.real))
    return float(d) if d.ndim == 0 else d
