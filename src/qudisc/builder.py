"""Construction of discrimination protocols.

Two routes: an explicit parallel plan whose final overlap is known in
closed form, and a Gauss-Newton search over interleavers at a fixed query
count, driven by the analytic derivative of the final overlap. The search
makes no optimality promise; it is monotone within a restart,
deterministic for a fixed seed, and asserts that whatever it returns
respects the query-count lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import t_min_bounded
from .errors import CapacityError, DomainError, IndistinguishableError, ValidationError
from .geometry import smallest_arc
from .linalg import (
    DIM_CAP,
    haar_unitary_from_rng,
    random_state_from_rng,
    relative_spectrum,
    require_unitary,
)
from .measurement import helstrom_error
from .protocol import Protocol, SimulationTrace, apply_query, record_trace, run_protocol

# The search stops early once the overlap drops this low: the pair is
# discriminated perfectly for every practical purpose.
_PERFECT_OVERLAP = 1e-5
# Slack allowed when asserting the returned protocol against the bound.
_BOUND_SAFETY_TOL = 1e-6


@dataclass(eq=False)
class ParallelPlan:
    """Probe T copies at once with an equal superposition of extremal eigenvectors.

    The probe (|a>^T + |b>^T)/sqrt(2) built from the endpoints of the
    smallest covering arc gives final overlap |cos(T*theta/2)| exactly.
    """

    copies: int
    extremal_phases: tuple[float, float]
    extremal_vectors: tuple[np.ndarray, np.ndarray]
    probe: np.ndarray
    predicted_overlap: float


def build_parallel(u1, u2, t: int) -> ParallelPlan:
    """Parallel plan for t simultaneous copies of the unknown unitary.

    Raises IndistinguishableError when the pair has zero phase spread and
    CapacityError when d**t exceeds the dense-dimension cap.
    """
    a = require_unitary(u1, name="u1")
    require_unitary(u2, name="u2")
    if t < 1:
        raise DomainError(f"copy count must be >= 1, got {t!r}")
    d = a.shape[0]
    if d**t > DIM_CAP:
        raise CapacityError(f"tensor power dimension {d}**{t} exceeds cap {DIM_CAP}")

    spectrum = relative_spectrum(u1, u2)
    arc = smallest_arc(spectrum)
    if arc.theta == 0.0:
        raise IndistinguishableError(
            "the pair differs by a global phase at most; parallel probing cannot help"
        )
    # First exact match in spectrum order; arc endpoints come from this array.
    i_start = int(np.argmax(spectrum.phases == arc.start_phase))
    i_end = int(np.argmax(spectrum.phases == arc.end_phase))
    va = spectrum.vectors[:, i_start]
    vb = spectrum.vectors[:, i_end]

    pa = va
    pb = vb
    for _ in range(t - 1):
        pa = np.kron(pa, va)
        pb = np.kron(pb, vb)
    probe = (pa + pb) / math.sqrt(2.0)
    return ParallelPlan(
        copies=t,
        extremal_phases=(arc.start_phase, arc.end_phase),
        extremal_vectors=(va, vb),
        probe=probe,
        predicted_overlap=abs(math.cos(t * arc.theta / 2.0)),
    )


def _apply_on_factor(state: np.ndarray, u: np.ndarray, axis: int, copies: int, d: int) -> np.ndarray:
    tensor = state.reshape((d,) * copies)
    moved = np.tensordot(u, tensor, axes=(1, axis))
    return np.moveaxis(moved, 0, axis).ravel()


def simulate_parallel(u1, u2, plan: ParallelPlan) -> SimulationTrace:
    """Run the parallel plan one copy at a time so step audits apply.

    Applying the unknown unitary to successive tensor factors is the same
    procedure as the swap-interleaver realization up to fixed unitaries,
    which leave every recorded distance unchanged.
    """
    a = require_unitary(u1, name="u1")
    b = require_unitary(u2, name="u2")
    d = a.shape[0]
    t = plan.copies

    def steps():
        s1 = plan.probe.copy()
        s2 = s1.copy()
        yield s1, s2
        for k in range(t):
            s1 = _apply_on_factor(s1, a, k, t, d)
            s2 = _apply_on_factor(s2, b, k, t, d)
            yield s1, s2

    return record_trace(steps())


@dataclass(frozen=True)
class SearchConfig:
    """Budget and seeding for the Gauss-Newton protocol search."""

    queries: int
    restarts: int = 8
    max_iterations: int = 60
    step_tolerance: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.queries < 0:
            raise ValidationError("query count must be nonnegative")
        if self.restarts < 1:
            raise ValidationError("restarts must be >= 1")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if not self.step_tolerance > 0.0:
            raise ValidationError("step_tolerance must be positive")


@dataclass(eq=False)
class SearchResult:
    protocol: Protocol
    overlap: float
    budget_exhausted: bool
    best_restart: int
    histories: list[list[float]]


def _forward(ws: np.ndarray, probe: np.ndarray, u1, u2, d: int, anc: int):
    """Both branches' states right after each interleaver, W_0 first."""
    y1 = [ws[0] @ probe]
    y2 = [y1[0]]
    for w in ws[1:]:
        y1.append(w @ apply_query(y1[-1], u1, d, anc))
        y2.append(w @ apply_query(y2[-1], u2, d, anc))
    return y1, y2


def _overlap_derivatives(ws: np.ndarray, y1, y2, u1, u2, d: int, anc: int) -> np.ndarray:
    """N_k such that replacing W_k by exp(X)W_k changes <s1|s2> by tr(X N_k).

    ``b1``/``b2`` carry the other branch's final state back through this
    branch's remaining steps, so one backward pass per branch gives every N_k.
    """
    b1, b2 = y2[-1], y1[-1]
    ns = np.empty_like(ws)
    for k in range(len(ws) - 1, -1, -1):
        ns[k] = np.outer(y2[k], b2.conj()) - np.outer(b1, y1[k].conj())
        if k:
            b1 = apply_query(ws[k].conj().T @ b1, u1.conj().T, d, anc)
            b2 = apply_query(ws[k].conj().T @ b2, u2.conj().T, d, anc)
    return ns


def _gauss_newton_step(c: complex, ns: np.ndarray) -> np.ndarray:
    """Smallest skew-Hermitian (X_0..X_T) whose first-order change cancels c.

    Re tr(X N) and Im tr(X N) are inner products of X with the skew-Hermitian
    directions below, so the step lies in their span and one damped 2x2
    system (Levenberg-Marquardt with lambda = |c|^2 * tr(G)) fixes it.
    """
    nh = ns.conj().transpose(0, 2, 1)
    dirs = ((nh - ns) / 2.0, 0.5j * (nh + ns))
    g = np.array([[np.vdot(p, q).real for q in dirs] for p in dirs])
    g += abs(c) ** 2 * np.trace(g) * np.eye(2)
    alpha, beta = np.linalg.lstsq(g, np.array([c.real, c.imag]), rcond=None)[0]
    return -(alpha * dirs[0] + beta * dirs[1])


def _descend(ws: np.ndarray, probe: np.ndarray, u1, u2, d: int, anc: int,
             cfg: SearchConfig) -> tuple[np.ndarray, list[float], bool]:
    """Gauss-Newton iterations on the final overlap.

    Each step is halved until the overlap drops; the restart ends once the
    step has shrunk below ``step_tolerance`` of the full Gauss-Newton step.
    """
    y1, y2 = _forward(ws, probe, u1, u2, d, anc)
    c = np.vdot(y1[-1], y2[-1])
    history = [float(abs(c))]
    for _ in range(cfg.max_iterations):
        x = _gauss_newton_step(c, _overlap_derivatives(ws, y1, y2, u1, u2, d, anc))
        # exp(tX) through the eigenbasis of the Hermitian -iX: unitary to machine precision
        vals, vecs = np.linalg.eigh(-1j * x)
        scale = 1.0
        improved = False
        while scale >= cfg.step_tolerance:
            rotations = (vecs * np.exp(1j * vals)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
            trial = rotations @ ws
            t1, t2 = _forward(trial, probe, u1, u2, d, anc)
            trial_c = np.vdot(t1[-1], t2[-1])
            if abs(trial_c) < abs(c):
                ws, y1, y2, c = trial, t1, t2, trial_c
                improved = True
                break
            vals = vals / 2.0
            scale /= 2.0
        history.append(float(abs(c)))
        if abs(c) < _PERFECT_OVERLAP or not improved:
            return ws, history, False
    return ws, history, True


def optimize_protocol(u1, u2, cfg: SearchConfig) -> SearchResult:
    """Search interleavers for the lowest final overlap at fixed T.

    The search keeps the T+1 interleavers themselves as its state; the
    probe stays fixed per restart, since W_0 reaches every state. Restart
    0 starts from identity interleavers (enough for commuting pairs);
    later restarts start from Haar ones. Restarts draw from independent
    streams derived from (seed, restart), so the result is reproducible
    and independent of evaluation order. The best protocol is re-simulated
    and asserted against the query-count bound before being returned.
    """
    a = require_unitary(u1, name="u1")
    b = require_unitary(u2, name="u2")
    if a.shape != b.shape:
        raise ValidationError("candidate unitaries must have equal dimensions")
    spectrum = relative_spectrum(u1, u2)
    theta = smallest_arc(spectrum).theta
    if theta == 0.0:
        raise IndistinguishableError(
            "the pair differs by a global phase at most; no protocol separates it"
        )
    d = a.shape[0]
    ancilla = d
    n = d * ancilla
    if n > DIM_CAP:
        raise CapacityError(f"system*ancilla dimension {n} exceeds cap {DIM_CAP}")

    identity = np.array([np.eye(n, dtype=complex)] * (cfg.queries + 1))
    if cfg.queries == 0:
        # The single interleaver cancels in the overlap: nothing to optimize.
        probe = random_state_from_rng(n, np.random.default_rng([cfg.seed, 0]))
        return SearchResult(
            protocol=Protocol(d, ancilla, 0, list(identity), probe),
            overlap=1.0,
            budget_exhausted=False,
            best_restart=0,
            histories=[[1.0]],
        )

    best: tuple[float, int, np.ndarray, np.ndarray, bool] | None = None
    histories: list[list[float]] = []
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        probe = random_state_from_rng(n, rng)
        if r == 0:
            ws = identity
        else:
            ws = np.array([haar_unitary_from_rng(n, rng) for _ in range(cfg.queries + 1)])
        ws, history, exhausted = _descend(ws, probe, a, b, d, ancilla, cfg)
        histories.append(history)
        if best is None or history[-1] < best[0]:
            best = (history[-1], r, ws, probe, exhausted)
        if best[0] < _PERFECT_OVERLAP:
            break  # perfect discrimination found: later restarts cannot do better

    assert best is not None
    _, best_restart, ws, probe, best_exhausted = best
    protocol = Protocol(d, ancilla, cfg.queries, list(ws), probe)
    trace = run_protocol(u1, u2, protocol)
    overlap = trace.final_overlap

    eps = min(0.5, helstrom_error(overlap))
    bound = t_min_bounded(theta, eps)
    if bound.raw_value * theta > cfg.queries * theta + _BOUND_SAFETY_TOL:
        raise AssertionError(
            f"search produced a protocol beating the query bound "
            f"({bound.raw_value:.9f} > {cfg.queries} at theta {theta:.9f}): this is a bug"
        )
    return SearchResult(
        protocol=protocol,
        overlap=overlap,
        budget_exhausted=best_exhausted,
        best_restart=best_restart,
        histories=histories,
    )
