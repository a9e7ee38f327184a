"""Construction of discrimination protocols.

Two routes: an explicit parallel plan whose final overlap is known in
closed form, and a derivative-free search over probes and interleavers at
a fixed query count. The search makes no optimality promise; it is
monotone within a restart, deterministic for a fixed seed, and asserts
that whatever it returns respects the query-count lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import t_min_bounded
from .errors import CapacityError, DomainError, IndistinguishableError, ValidationError
from .geometry import smallest_arc
from .linalg import DIM_CAP, relative_spectrum, require_unitary
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
    """Budget and seeding for the derivative-free protocol search."""

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


def _hermitian_from_params(p: np.ndarray, n: int) -> np.ndarray:
    h = np.zeros((n, n), dtype=complex)
    iu = np.triu_indices(n, 1)
    m = iu[0].size
    h[iu] = p[n : n + m] + 1j * p[n + m :]
    h = h + h.conj().T
    h[np.diag_indices(n)] = p[:n]
    return h


def _unitary_from_params(p: np.ndarray, n: int) -> np.ndarray:
    # exp(iH) via the eigenbasis; unitary to machine precision by construction
    vals, vecs = np.linalg.eigh(_hermitian_from_params(p, n))
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


class _Objective:
    """Squared final overlap of a parametrized protocol, with block caching.

    Parameter layout: 2n probe reals (real parts then imaginary parts),
    then T+1 blocks of n^2 reals, one Hermitian generator per interleaver.
    Only the block touched by a coordinate move is rebuilt.
    """

    def __init__(self, u1: np.ndarray, u2: np.ndarray, ancilla_dim: int, queries: int):
        self.u1 = u1
        self.u2 = u2
        self.d = u1.shape[0]
        self.a = ancilla_dim
        self.n = self.d * self.a
        self.t = queries
        self.n_params = 2 * self.n + (queries + 1) * self.n * self.n
        self._probe: np.ndarray | None = None
        self._ws: list[np.ndarray] = [np.eye(self.n, dtype=complex)] * (queries + 1)

    def block_of(self, i: int) -> int:
        """-1 for probe coordinates, else the interleaver index."""
        if i < 2 * self.n:
            return -1
        return (i - 2 * self.n) // (self.n * self.n)

    def set_block(self, block: int, x: np.ndarray) -> None:
        n = self.n
        if block == -1:
            v = x[:n] + 1j * x[n : 2 * n]
            norm = float(np.linalg.norm(v))
            self._probe = None if norm < 1e-12 else v / norm
        else:
            lo = 2 * n + block * n * n
            self._ws[block] = _unitary_from_params(x[lo : lo + n * n], n)

    def refresh(self, x: np.ndarray) -> None:
        self.set_block(-1, x)
        for k in range(self.t + 1):
            self.set_block(k, x)

    def value(self) -> float:
        if self._probe is None:
            return 1.0  # degenerate probe parameters: report the worst objective
        s1 = self._ws[0] @ self._probe
        s2 = s1
        for k in range(self.t):
            w = self._ws[k + 1]
            s1 = w @ apply_query(s1, self.u1, self.d, self.a)
            s2 = w @ apply_query(s2, self.u2, self.d, self.a)
        return float(abs(np.vdot(s1, s2)) ** 2)

    def protocol(self) -> Protocol:
        if self._probe is None:
            raise ValidationError("degenerate probe parameters")
        return Protocol(
            system_dim=self.d,
            ancilla_dim=self.a,
            queries=self.t,
            interleavers=[w.copy() for w in self._ws],
            probe=self._probe.copy(),
        )


def _descend(obj: _Objective, x: np.ndarray, cfg: SearchConfig) -> tuple[np.ndarray, float, list[float], bool]:
    """Coordinate descent with a three-point quadratic fit and shrinking step."""
    obj.refresh(x)
    f = obj.value()
    h = 0.5
    history = [math.sqrt(f)]
    exhausted = True
    for _ in range(cfg.max_iterations):
        improved = False
        for i in range(x.size):
            block = obj.block_of(i)
            xi = x[i]

            def trial(v: float) -> float:
                x[i] = v
                obj.set_block(block, x)
                return obj.value()

            fp = trial(xi + h)
            fm = trial(xi - h)
            best_v, best_f = xi, f
            if fp < best_f:
                best_v, best_f = xi + h, fp
            if fm < best_f:
                best_v, best_f = xi - h, fm
            curvature = fp + fm - 2.0 * f
            if curvature > 1e-15:
                delta = -0.5 * h * (fp - fm) / curvature
                if abs(delta) <= 2.0 * h and delta != 0.0:
                    ft = trial(xi + delta)
                    if ft < best_f:
                        best_v, best_f = xi + delta, ft
            x[i] = best_v
            obj.set_block(block, x)
            if best_f < f - 1e-18:
                f = best_f
                improved = True
        history.append(math.sqrt(f))
        if f < _PERFECT_OVERLAP**2:
            exhausted = False
            break
        if not improved:
            h *= 0.5
            if h < cfg.step_tolerance:
                exhausted = False
                break
    return x, f, history, exhausted


def optimize_protocol(u1, u2, cfg: SearchConfig) -> SearchResult:
    """Search probes and interleavers for the lowest final overlap at fixed T.

    Restart 0 starts from identity interleavers (enough for commuting
    pairs); later restarts start from random generators. Restarts draw
    from independent streams derived from (seed, restart), so the result
    is reproducible and independent of evaluation order. The best
    protocol is re-simulated and asserted against the query-count bound
    before being returned.
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
    if d * ancilla > DIM_CAP:
        raise CapacityError(f"system*ancilla dimension {d * ancilla} exceeds cap {DIM_CAP}")

    obj = _Objective(a, b, ancilla, cfg.queries)
    if cfg.queries == 0:
        # The single interleaver cancels in the overlap: nothing to optimize.
        rng = np.random.default_rng([cfg.seed, 0])
        x = np.zeros(obj.n_params)
        x[: 2 * obj.n] = rng.standard_normal(2 * obj.n)
        obj.refresh(x)
        return SearchResult(
            protocol=obj.protocol(),
            overlap=1.0,
            budget_exhausted=False,
            best_restart=0,
            histories=[[1.0]],
        )

    best: tuple[float, int] | None = None
    best_x: np.ndarray | None = None
    best_exhausted = False
    histories: list[list[float]] = []
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        x = np.zeros(obj.n_params)
        x[: 2 * obj.n] = rng.standard_normal(2 * obj.n)
        if r > 0:
            x[2 * obj.n :] = rng.standard_normal(obj.n_params - 2 * obj.n) * 0.5
        x, f, history, exhausted = _descend(obj, x, cfg)
        histories.append(history)
        if best is None or f < best[0]:
            best = (f, r)
            best_x = x.copy()
            best_exhausted = exhausted
        if best[0] < _PERFECT_OVERLAP**2:
            break  # perfect discrimination found: later restarts cannot do better

    assert best is not None and best_x is not None
    obj.refresh(best_x)
    protocol = obj.protocol()
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
        best_restart=best[1],
        histories=histories,
    )
