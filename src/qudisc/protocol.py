"""Sequential query protocols and their simulation.

A protocol interleaves T queries to an unknown unitary with T+1 fixed
unitaries on system+ancilla, starting from a fixed probe state. Running
it against both candidate unitaries side by side yields the per-step
trace distances that every bound audit in the toolkit consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, NumericalError, ShapeError, ValidationError
from .geometry import trace_distance_pure
from .linalg import (
    DIM_CAP,
    UnitaryPair,
    _defects,
    check_integer,
    haar_isometry_from_rng,
    pair_args,
    random_state_from_rng,
    require_entries,
    require_normalized,
    require_unitary,
)
from .measurement import StatePair
from .tolerances import UNITARY_TOL


@dataclass(eq=False)
class Protocol:
    """A fixed discrimination procedure: probe, a (T+1, n, n) stack of interleavers, T queries.

    Interleavers act on the full system*ancilla space; the queried unitary
    acts on the system factor only. ``interleavers[0]`` is applied before
    the first query and ``interleavers[T]`` after the last one.
    """

    system_dim: int
    ancilla_dim: int
    queries: int
    interleavers: np.ndarray
    probe: np.ndarray

    def __post_init__(self):
        for name in ("system_dim", "ancilla_dim", "queries"):
            setattr(self, name, check_integer(getattr(self, name), f"protocol: {name}"))
        # a type test, not a numpy pass: the search builds one protocol per problem
        for name, kind in (("interleavers", "a list of matrices"), ("probe", "a state vector")):
            if not isinstance(getattr(self, name), (np.ndarray, list, tuple)):
                raise ValidationError(f"protocol: {name} must be {kind}")
        total = simulation_size(self.system_dim, self.ancilla_dim, self.queries)
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
        self.interleavers = require_unitary(self.interleavers, name="interleaver")
        self.probe, _ = require_normalized(self.probe, name="probe")
        if self.probe.shape != (total,):
            raise ShapeError(f"probe has shape {self.probe.shape}, expected ({total},)")


def simulation_size(system_dim: int, ancilla_dim: int, queries: int) -> int:
    """n = system_dim * ancilla_dim of a simulation at T queries, once all three are integers,
    n fits ``DIM_CAP`` and the trace's 2(T+1) recorded states of n amplitudes fit ``ENTRY_CAP``."""
    system_dim = check_integer(system_dim, "system_dim")
    ancilla_dim = check_integer(ancilla_dim, "ancilla_dim")
    queries = check_integer(queries, "queries")
    if system_dim < 1 or ancilla_dim < 1:
        raise ValidationError("system and ancilla dimensions must be >= 1")
    if queries < 0:
        raise ValidationError("query count must be nonnegative")
    n = system_dim * ancilla_dim
    if n > DIM_CAP:
        raise CapacityError(f"system*ancilla dimension {n} exceeds cap {DIM_CAP}")
    require_entries(2 * (queries + 1) * n, f"a trace of {queries} queries at dimension {n}")
    return n


@dataclass(eq=False)
class SimulationTrace:
    """States and distances recorded while running one protocol on both candidates.

    ``states[i, k]`` is branch i's state after interleaver k, branch 0
    queried with U1 and branch 1 with U2; ``distances[k]`` is the trace
    distance of ``states[:, k]``, so ``distances[0]`` is always 0 and
    ``distances[T]`` equals 2*sqrt(1 - final_overlap^2). ``final`` is the last pair.
    """

    states: np.ndarray
    distances: list[float]
    final_overlap: float
    final: StatePair


def apply_query(state: np.ndarray, u: np.ndarray, system_dim: int, ancilla_dim: int) -> np.ndarray:
    """Apply U on the system factor of a system*ancilla state vector."""
    return (u @ state.reshape(system_dim, ancilla_dim)).ravel()


def evolve_branches(ws, probe: np.ndarray, u1: np.ndarray, u2: np.ndarray, d: int, anc: int):
    """Both branches' states right after each interleaver W_k of the (T+1, n, n) stack ``ws``,
    W_0 first, as one (2, T+1, n) array.

    Branch i: state_0 = W_0 |probe>, then state_{k+1} = W_{k+1} (U_i x I) state_k.
    """
    y = np.empty((2, len(ws), probe.shape[0]), dtype=complex)
    y[:, 0] = ws[0] @ probe
    for k in range(1, len(ws)):
        y[0, k] = ws[k] @ apply_query(y[0, k - 1], u1, d, anc)
        y[1, k] = ws[k] @ apply_query(y[1, k - 1], u2, d, anc)
    return y


def run_protocol(u1, u2=None, protocol=None) -> SimulationTrace:
    """Run the protocol against both candidate unitaries and record the trace.

    Takes a UnitaryPair and the protocol: ``run_protocol(pair, protocol)``.
    The two unitaries in the pair's place are accepted only because the
    benchmark's workloads pass them so. The states are those of ``evolve_branches``.
    """
    pair, protocol = pair_args(u1, u2, protocol)
    a, b = pair.u1, pair.u2
    d = protocol.system_dim
    if a.shape[0] != d or b.shape[0] != d:
        raise ShapeError(
            f"candidate unitaries have dimension {a.shape[0]}/{b.shape[0]}, "
            f"protocol expects {d}"
        )
    return record_trace(
        evolve_branches(protocol.interleavers, protocol.probe, a, b, d, protocol.ancilla_dim))


def simulate_random(pair: UnitaryPair, ancilla_dim: int, queries: int,
                    rng: np.random.Generator) -> SimulationTrace:
    """Run a protocol with a Haar-random probe and Haar interleavers on both candidates.

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
    a, b = pair.u1, pair.u2
    d = a.shape[0]
    n = simulation_size(d, ancilla_dim, queries)

    states = np.empty((2, queries + 1, n), dtype=complex)
    s1 = s2 = random_state_from_rng(n, rng)
    states[:, 0] = s1
    for k, v in enumerate(_haar_isometries(n, queries, rng), 1):
        t1 = apply_query(s1, a, d, ancilla_dim)
        t2 = apply_query(s2, b, d, ancilla_dim)
        c = np.vdot(t1, t2)
        x = t2 - c * t1
        r = math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))  # as np.linalg.norm forms it
        s1 = v[:, 0]
        s2 = c * s1 + r * v[:, 1]
        states[0, k], states[1, k] = s1, s2
    return record_trace(states)


_DRAW_BLOCK = 64  # queries per stacked isometry draw


def _haar_isometries(n: int, queries: int, rng: np.random.Generator):
    """The checked n x 2 isometries of the T queries in order, drawn and Gram-checked in blocks."""
    for first in range(0, queries, _DRAW_BLOCK):
        block = haar_isometry_from_rng(n, 2, rng, (min(_DRAW_BLOCK, queries - first),))
        defects = _defects(block)
        if not defects.max() <= UNITARY_TOL:  # a NaN defect is refused too
            k = int(np.argmax(~(defects <= UNITARY_TOL)))
            raise NumericalError(
                f"interleaver {first + k + 1} is not an isometry within {UNITARY_TOL:g} "
                f"(defect {defects[k]:.3e})"
            )
        yield from block


def record_trace(states: np.ndarray) -> SimulationTrace:
    """Trace of a simulation's (2, T+1, n) array of states, the starting pair first.

    Every simulator fills such an array and hands it here, so distances,
    the final overlap and the final pair are formed one way for all of
    them. The array goes to ``trace_distance_pure`` as it is, which checks
    every state and forms every distance in one pass without copying it;
    the pass's temporaries are O(T n): ``tracemalloc`` reads a peak of 2.1
    times the states' bytes over ``simulate_random`` at n = 16, T = 4000.
    The final pair is a (2, n) view of the array.
    """
    if states.ndim != 3 or states.shape[0] != 2 or states.shape[1] == 0:
        raise ShapeError(f"expected a (2, T+1, n) array of states, got shape {states.shape}")
    distances = trace_distance_pure(states).tolist()
    final = StatePair(states[:, -1], distances[-1])
    overlap = 1.0 if final.coincide else min(1.0, float(abs(np.vdot(*final.states))))
    return SimulationTrace(states, distances, overlap, final)


def audit_step_slacks(trace: SimulationTrace, theta: float) -> list[float]:
    """Per-step slack of the distance-growth bound along a trace.

    Each query can grow the trace distance by at most 2*sqrt(1 - F^2)
    with F the fidelity at spread theta; returns
    D_k + 2*sqrt(1 - F^2) - D_{k+1} for every step; a correct simulation
    keeps all of them at or above ``tolerances.LEMMA_SLACK_TOL``.
    """
    # sqrt(1 - F^2) with F = cos(theta/2), written as a sine: 1 - F^2 cancels for small theta.
    step = 2.0 * math.sin(min(theta, math.pi) / 2.0)
    d = trace.distances
    return [float(d[k] + step - d[k + 1]) for k in range(len(d) - 1)]
