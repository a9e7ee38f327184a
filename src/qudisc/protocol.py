"""Sequential query protocols and their simulation.

A protocol interleaves T queries to an unknown unitary with T+1 fixed
unitaries on system+ancilla, starting from a fixed probe state. Running
it against both candidate unitaries side by side yields the per-step
trace distances that every bound audit in the toolkit consumes.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, NumericalError, ShapeError, ValidationError
from .geometry import fidelity_closed_form, trace_distance_pure
from .linalg import (
    DIM_CAP,
    haar_isometry_from_rng,
    pair_args,
    random_state_from_rng,
    require_normalized,
    require_unitary,
)
from .tolerances import COINCIDE_TOL, UNITARY_TOL


@dataclass(eq=False)
class Protocol:
    """A fixed discrimination procedure: probe, interleavers, query count.

    Interleavers act on the full system*ancilla space; the queried unitary
    acts on the system factor only. ``interleavers[0]`` is applied before
    the first query and ``interleavers[T]`` after the last one.
    """

    system_dim: int
    ancilla_dim: int
    queries: int
    interleavers: list[np.ndarray]
    probe: np.ndarray

    def __post_init__(self):
        if self.system_dim < 1 or self.ancilla_dim < 1:
            raise ValidationError("system and ancilla dimensions must be >= 1")
        if self.queries < 0:
            raise ValidationError("query count must be nonnegative")
        total = self.system_dim * self.ancilla_dim
        if total > DIM_CAP:
            raise CapacityError(f"system*ancilla dimension {total} exceeds cap {DIM_CAP}")
        if len(self.interleavers) != self.queries + 1:
            raise ValidationError(
                f"need {self.queries + 1} interleavers for {self.queries} queries, "
                f"got {len(self.interleavers)}"
            )
        for k, w in enumerate(self.interleavers):
            if np.shape(w) != (total, total):
                raise ShapeError(
                    f"interleaver {k} has shape {np.shape(w)}, expected ({total}, {total})"
                )
        # one stacked check of all T+1; an error names the first bad interleaver k
        self.interleavers = list(require_unitary(self.interleavers, name="interleaver"))
        self.probe = require_normalized(self.probe, name="probe")
        if self.probe.shape[0] != total:
            raise ShapeError(f"probe has dimension {self.probe.shape[0]}, expected {total}")


@dataclass(eq=False)
class SimulationTrace:
    """States and distances recorded while running one protocol on both candidates.

    ``states_1[k]`` / ``states_2[k]`` are the states after interleaver k;
    ``distances[k]`` is their trace distance, so ``distances[0]`` is always 0
    and ``distances[T]`` equals 2*sqrt(1 - final_overlap^2).
    """

    states_1: list[np.ndarray]
    states_2: list[np.ndarray]
    distances: list[float]
    final_overlap: float

    @property
    def queries(self) -> int:
        return len(self.distances) - 1


def apply_query(state: np.ndarray, u: np.ndarray, system_dim: int, ancilla_dim: int) -> np.ndarray:
    """Apply U on the system factor of a system*ancilla state vector."""
    return (u @ state.reshape(system_dim, ancilla_dim)).ravel()


def evolve_branches(ws, probe: np.ndarray, u1: np.ndarray, u2: np.ndarray, d: int, anc: int):
    """Both branches' states right after each interleaver W_k of ``ws``, W_0 first.

    Branch i: state_0 = W_0 |probe>, then state_{k+1} = W_{k+1} (U_i x I) state_k.
    """
    y1 = [ws[0] @ probe]
    y2 = [y1[0]]
    for w in ws[1:]:
        y1.append(w @ apply_query(y1[-1], u1, d, anc))
        y2.append(w @ apply_query(y2[-1], u2, d, anc))
    return y1, y2


def run_protocol(u1, u2=None, protocol=None) -> SimulationTrace:
    """Run the protocol against both candidate unitaries and record the trace.

    Takes the two unitaries, or a UnitaryPair in their place:
    ``run_protocol(pair, protocol)``. The states are those of ``evolve_branches``.
    """
    pair, protocol = pair_args(u1, u2, protocol)
    a, b = pair.u1, pair.u2
    d = protocol.system_dim
    if a.shape[0] != d or b.shape[0] != d:
        raise ShapeError(
            f"candidate unitaries have dimension {a.shape[0]}/{b.shape[0]}, "
            f"protocol expects {d}"
        )
    y1, y2 = evolve_branches(protocol.interleavers, protocol.probe, a, b, d, protocol.ancilla_dim)
    return record_trace(zip(y1, y2))


def simulate_random(u1, u2=None, ancilla_dim=None, queries=None, rng=None) -> SimulationTrace:
    """Run a protocol with a Haar-random probe and Haar interleavers on both candidates.

    Takes the two unitaries, or a UnitaryPair in their place:
    ``simulate_random(pair, ancilla_dim, queries, rng)``.

    Only the pair's span is sampled. A Haar W_0 turns any probe into a
    uniform random state. Before interleaver k+1 the branches hold t_1 and
    t_2 = c t_1 + r e with c = <t_1|t_2>, r = ||t_2 - c t_1|| and e a unit
    vector orthogonal to t_1; a Haar W maps the orthonormal pair (t_1, e)
    to the columns of a Haar n x 2 isometry V. So the next pair is
    (V[:, 0], c V[:, 0] + r V[:, 1]), distributed exactly as under a dense
    Haar W, at O(n) memory and no n x n array.

    The probe is drawn first, then the isometries in stacked draws of up to
    64 queries each, one QR and one Gram check per draw. They take the
    stream in the order one draw per query would, and what the draws hold
    beyond the recorded states stays O(n) for any T.
    """
    pair, ancilla_dim, queries, rng = pair_args(u1, u2, ancilla_dim, queries, rng)
    a, b = pair.u1, pair.u2
    if ancilla_dim < 1:
        raise ValidationError("ancilla dimension must be >= 1")
    if queries < 0:
        raise ValidationError("query count must be nonnegative")
    d = a.shape[0]
    n = d * ancilla_dim
    if n > DIM_CAP:
        raise CapacityError(f"system*ancilla dimension {n} exceeds cap {DIM_CAP}")

    def steps():
        s1 = random_state_from_rng(n, rng)
        s2 = s1.copy()
        yield s1, s2
        for v in _haar_isometries(n, queries, rng):
            t1 = apply_query(s1, a, d, ancilla_dim)
            t2 = apply_query(s2, b, d, ancilla_dim)
            c = np.vdot(t1, t2)
            r = np.linalg.norm(t2 - c * t1)
            s1 = v[:, 0]
            s2 = c * s1 + r * v[:, 1]
            yield s1, s2

    return record_trace(steps())


_DRAW_BLOCK = 64  # queries per stacked isometry draw


def _haar_isometries(n: int, queries: int, rng: np.random.Generator):
    """The checked n x 2 isometries of the T queries in order, drawn and Gram-checked in blocks."""
    for first in range(0, queries, _DRAW_BLOCK):
        block = haar_isometry_from_rng(n, 2, rng, (min(_DRAW_BLOCK, queries - first),))
        defects = np.abs(block.conj().swapaxes(1, 2) @ block - np.eye(2)).max(axis=(1, 2))
        if defects.max() > UNITARY_TOL:
            k = int(np.argmax(defects > UNITARY_TOL))
            raise NumericalError(
                f"interleaver {first + k + 1} is not an isometry within {UNITARY_TOL:g} "
                f"(defect {defects[k]:.3e})"
            )
        yield from block


def record_trace(steps: Iterable[tuple[np.ndarray, np.ndarray]]) -> SimulationTrace:
    """Trace of the state pairs a simulation passes through, the starting pair first.

    Every simulator feeds its pairs through here, so distances and the
    final overlap are computed one way for all of them. Both branches go to
    ``trace_distance_pure`` as one stack, which checks every state and forms
    every distance in one pass. That pass holds a stacked copy of the
    recorded states and temporaries of their size, so its peak memory is
    O(T n), about twice that of the states themselves.
    """
    states_1: list[np.ndarray] = []
    states_2: list[np.ndarray] = []
    for s1, s2 in steps:
        states_1.append(s1)
        states_2.append(s2)
    distances = trace_distance_pure(states_1, states_2).tolist()
    # Coinciding final states (orthogonal part below COINCIDE_TOL) report overlap exactly 1.
    if distances[-1] < 2.0 * COINCIDE_TOL:
        overlap = 1.0
    else:
        overlap = min(1.0, float(abs(np.vdot(states_1[-1], states_2[-1]))))
    return SimulationTrace(states_1, states_2, distances, overlap)


def audit_step_slacks(trace: SimulationTrace, theta: float) -> list[float]:
    """Per-step slack of the distance-growth bound along a trace.

    Each query can grow the trace distance by at most 2*sqrt(1 - F^2)
    with F the fidelity at spread theta; returns
    D_k + 2*sqrt(1 - F^2) - D_{k+1} for every step; a correct simulation
    keeps all of them at or above ``tolerances.LEMMA_SLACK_TOL``.
    """
    if len(trace.distances) != len(trace.states_1) or len(trace.distances) != len(trace.states_2):
        raise ShapeError("trace distances and state lists are inconsistent")
    f = fidelity_closed_form(theta)
    step = 2.0 * np.sqrt(max(0.0, 1.0 - f * f))
    d = trace.distances
    return [float(d[k] + step - d[k + 1]) for k in range(len(d) - 1)]
