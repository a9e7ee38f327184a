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


@dataclass(frozen=True)
class ArcResult:
    """Smallest closed arc covering a phase set, counter-clockwise from start to end."""

    theta: float
    start_phase: float
    end_phase: float


def _require_unit_circle(points: np.ndarray, tol: float = 1e-10) -> None:
    off = np.max(np.abs(np.abs(points) - 1.0))
    if off > tol:
        raise DomainError(f"points must lie on the unit circle (max modulus error {off:.3e})")


def smallest_arc(spectrum) -> ArcResult:
    """Smallest closed arc containing every phase of a spectrum.

    Sorts the phases and removes the largest circular gap: the covering
    arc is the complement of that gap, so theta = 2*pi - max_gap. Ties in
    the max gap are broken toward the gap with the smallest starting
    phase; theta is unaffected, only the reported endpoints.

    Accepts a PhaseSpectrum or a bare sequence of phases (radians).
    """
    if isinstance(spectrum, PhaseSpectrum):
        phases = spectrum.phases
    else:
        phases = np.asarray(spectrum, dtype=float).ravel()
    if phases.size == 0:
        raise DomainError("spectrum is empty")
    p = np.sort(wrap_phase(phases))
    k = p.size
    if k == 1:
        return ArcResult(theta=0.0, start_phase=float(p[0]), end_phase=float(p[0]))

    gaps = np.diff(p, append=p[0] + TWO_PI)  # gap i runs from p[i] to its successor
    best = int(np.argmax(gaps))  # argmax keeps the first (smallest start) on ties
    theta = float(TWO_PI - gaps[best])
    start = float(p[(best + 1) % k])
    end = float(p[best])
    return ArcResult(theta=theta, start_phase=start, end_phase=end)


def arc_contains(arc: ArcResult, phase: float, tol: float = 1e-9) -> bool:
    """Whether a phase lies on the closed arc, up to tolerance."""
    d = (phase - arc.start_phase) % TWO_PI
    return d <= arc.theta + tol or d >= TWO_PI - tol


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

    Computed exactly from the polygon geometry: points on a circle are all
    extreme, so sorting by angle yields the hull boundary in CCW order.
    If the origin passes the left-of-every-edge test it is inside and the
    distance is 0; otherwise the minimum is attained on an edge or vertex.
    Independent of the arc-based closed form by construction.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    if pts.size == 0:
        raise DomainError("need at least one point")
    _require_unit_circle(pts)

    order = np.argsort(wrap_phase(np.angle(pts)))
    pts = pts[order]
    if pts.size == 1:
        return 1.0
    if pts.size == 2:
        return _segment_distance(pts[0], pts[1])

    nxt = np.roll(pts, -1)
    # cross(v_i, v_{i+1}) >= 0 for every CCW edge <=> origin inside (or on) the hull
    if np.all((np.conj(pts) * nxt).imag >= 0.0):
        return 0.0
    return float(min(_segment_distance(a, b) for a, b in zip(pts, nxt)))


def _segment_distance(a: complex, b: complex) -> float:
    """Distance from the origin to the segment [a, b] in the complex plane."""
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(a)
    t = -(a.real * ab.real + a.imag * ab.imag) / denom
    t = min(1.0, max(0.0, t))
    return abs(a + t * ab)


def trace_distance_pure(a, b) -> float:
    """Trace distance of two normalized pure states: 2*sqrt(1 - |<a|b>|^2).

    Evaluated as twice the norm of the component of b orthogonal to a,
    which equals the same quantity without the catastrophic cancellation
    of 1 - |<a|b>|^2 near identical states: equal inputs give exactly 0.
    """
    va = require_normalized(a)
    vb = require_normalized(b)
    if va.shape != vb.shape:
        raise ShapeError(f"dimension mismatch: {va.shape[0]} vs {vb.shape[0]}")
    perp = vb - va * (np.vdot(va, vb) / np.vdot(va, va).real)
    d = 2.0 * float(np.linalg.norm(perp)) / float(np.linalg.norm(vb))
    return min(2.0, d)
