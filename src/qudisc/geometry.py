"""Spectral geometry on the unit circle.

Two independent routes to the fidelity of a unitary pair live here: the
closed form through the smallest covering arc of the eigenphases, and an
exact convex-hull distance computation that never looks at arcs. Keeping
both routes honest against each other is one of the toolkit's main checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _require_unit_circle(points: np.ndarray) -> None:
    off = np.max(np.abs(np.abs(points) - 1.0))
    if not off <= UNITARY_TOL:  # a NaN point is refused too
        raise DomainError(f"points must lie on the unit circle (max modulus error {off:.3e})")


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
    """
    pts = np.asarray(points, dtype=complex).ravel()
    if pts.size == 0:
        raise DomainError("need at least one point")
    _require_unit_circle(pts)

    order = np.argsort(wrap_phase(np.angle(pts)))
    p = pts[order]
    weights = np.zeros(pts.size)
    if p.size == 1:
        weights[order[0]] = 1.0
        return 1.0, weights

    if p.size > 2:
        weights_in = _fan_weights(p)
        if weights_in is not None:
            weights[order] = weights_in
            return 0.0, weights

    # two points bound a single segment, not two edges
    edges = [(k, (k + 1) % p.size) for k in range(1 if p.size == 2 else p.size)]
    dist, t, (i, j) = min(_closest_on_segment(p[i], p[j]) + ((i, j),) for i, j in edges)
    weights[order[i]] += 1.0 - t
    weights[order[j]] += t
    return float(dist), weights


def _fan_weights(p: np.ndarray) -> np.ndarray | None:
    """Convex weights over CCW-sorted circle points that sum them to the origin, or None.

    Looks for the origin in the fan of triangles (p_0, p_i, p_i+1). Twice
    the areas the origin cuts from a triangle are its barycentric weights
    unnormalised; the triangle whose smallest one is largest holds the
    origin deepest. The weights come from a pivoted solve, which leaves a
    residual of rounding size whenever they are all nonnegative. None when
    the origin lies outside, or on the boundary within rounding, where the
    nearest edge answers to rounding as well.
    """
    a, b, c = p[0], p[1:-1], p[2:]
    areas = np.array([_cross(b, c), _cross(c, a), _cross(a, b)])
    best = int(np.argmax(areas.min(axis=0)))
    if areas[:, best].min() < 0.0:
        return None
    tri = [0, best + 1, best + 2]
    system = np.array([p[tri].real, p[tri].imag, np.ones(3)])
    try:
        w = np.linalg.solve(system, np.array([0.0, 0.0, 1.0]))
    except np.linalg.LinAlgError:
        return None
    if not np.all(w >= 0.0):
        return None
    out = np.zeros(p.size)
    out[tri] = w / w.sum()
    return out


def _cross(u, v):
    """z-component of the cross product of complex numbers as plane vectors."""
    return (np.conj(u) * v).imag


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
