"""Dense complex linear algebra for small dimensions.

Matrices and state vectors are plain ``numpy.ndarray`` objects of dtype
complex128; the helpers here validate the invariants the rest of the
toolkit relies on (unitarity, normalization, orthonormal eigenbases).
All dense objects are capped at dimension ``DIM_CAP`` to bound memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
import scipy.linalg

from .errors import CapacityError, DomainError, NumericalError, ShapeError
from .tolerances import EIGEN_TOL, UNITARY_TOL

# Hard cap on any dense matrix dimension handled by the toolkit.
DIM_CAP = 4096

TWO_PI = 2.0 * np.pi


def as_complex_matrix(m, name="matrix") -> np.ndarray:
    """Coerce to a square complex matrix, or a stack of equal ones along a leading axis.

    Rejects bad shapes and sizes, then non-finite entries in one test over
    the whole stack; its error names the first bad member as
    ``require_unitary`` does.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ShapeError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if 0 in a.shape:
        raise ShapeError(f"matrix dimension and stack size must be positive, got shape {a.shape}")
    if a.shape[-1] > DIM_CAP:
        raise CapacityError(f"matrix dimension {a.shape[-1]} exceeds cap {DIM_CAP}")
    if not np.isfinite(a).all():
        bad = int(np.argmax(~np.isfinite(a).all(axis=(-2, -1)))) if a.ndim == 3 else None
        raise DomainError(f"{_member(name, bad)} entries must be finite")
    return a


def as_state(v) -> np.ndarray:
    """Coerce to a nonempty 1-D complex vector within the cap, with finite entries."""
    a = np.asarray(v, dtype=complex)
    if a.ndim != 1 or a.shape[0] == 0:
        raise ShapeError(f"expected a nonempty vector, got shape {a.shape}")
    if a.shape[0] > DIM_CAP:
        raise CapacityError(f"state dimension {a.shape[0]} exceeds cap {DIM_CAP}")
    if not np.isfinite(a).all():
        raise DomainError("state amplitudes must be finite")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(m).T


def _member(name, k: int | None) -> str:
    """Name of stack member k (None: the lone matrix): name[k] for a sequence, else "name k"."""
    if k is None:
        return name
    return f"{name} {k}" if isinstance(name, str) else name[k]


def _defects(a: np.ndarray) -> np.ndarray:
    """Elementwise max deviation of M†M from the identity, per matrix of a checked array."""
    gram = a.conj().swapaxes(-2, -1) @ a
    return np.abs(gram - np.eye(a.shape[-1])).max(axis=(-2, -1))


def require_unitary(m, name="matrix") -> np.ndarray:
    """One square matrix, or a stack of them, checked unitary within ``UNITARY_TOL``.

    A stack is checked in one pass: one finiteness test, one batched
    M†M - I and one max. An error names the first bad member: ``name[k]``
    when ``name`` is a sequence of names, else "name k".
    """
    a = as_complex_matrix(m, name)
    defects = _defects(a)
    if defects.max() > UNITARY_TOL:
        k = int(np.argmax(defects > UNITARY_TOL)) if a.ndim == 3 else None
        worst = defects if k is None else defects[k]
        raise DomainError(
            f"{_member(name, k)} is not unitary within {UNITARY_TOL:g} (defect {worst:.3e})"
        )
    return a


def require_normalized(v, name: str = "state") -> np.ndarray:
    a = as_state(v)
    norm = math.sqrt(np.vdot(a, a).real)
    if abs(norm - 1.0) > UNITARY_TOL:
        raise DomainError(f"{name} is not normalized within {UNITARY_TOL:g} (norm {norm:.12f})")
    return a


def require_normalized_stack(m) -> tuple[np.ndarray, np.ndarray]:
    """States along the last axis of an array, each checked as ``require_normalized`` checks one.

    One pass covers every state; an error names the first failing one by
    its index over the leading axes. Returns the array and each state's
    <v|v>, complex as formed, for callers that divide by it.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim == 0 or 0 in a.shape:
        raise ShapeError(f"expected a nonempty stack of nonempty vectors, got shape {a.shape}")
    if a.shape[-1] > DIM_CAP:
        raise CapacityError(f"state dimension {a.shape[-1]} exceeds cap {DIM_CAP}")
    if not np.isfinite(a).all():
        where = _first(~np.isfinite(a).all(axis=-1))
        raise DomainError(f"state ({where}) amplitudes must be finite")
    inner = (a.conj() * a).sum(axis=-1)
    off = np.abs(np.sqrt(inner.real) - 1.0)
    if off.max() > UNITARY_TOL:
        bad = off > UNITARY_TOL
        norm = math.sqrt(inner.real[bad][0])
        raise DomainError(
            f"state ({_first(bad)}) is not normalized within {UNITARY_TOL:g} (norm {norm:.12f})"
        )
    return a, inner


def _first(mask: np.ndarray) -> str:
    """Index of the first True entry of a boolean array, as "i, j"."""
    return ", ".join(str(i) for i in np.argwhere(mask)[0])


@dataclass(eq=False)
class PhaseSpectrum:
    """Eigenphases of a unitary matrix with an aligned orthonormal eigenbasis.

    ``phases`` is ascending in [0, 2*pi); column j of ``vectors`` is the
    eigenvector belonging to ``phases[j]``.
    """

    phases: np.ndarray
    vectors: np.ndarray
    # The smallest covering arc (a geometry.ArcResult), kept by
    # geometry.smallest_arc the first time it is asked for this spectrum.
    arc: object = field(default=None, init=False, repr=False)

    @property
    def dim(self) -> int:
        return int(self.phases.shape[0])

    def points(self) -> np.ndarray:
        """Eigenvalues as points on the unit circle."""
        return np.exp(1j * self.phases)


def wrap_phase(phases) -> np.ndarray:
    """Reduce angles to [0, 2*pi); the right endpoint folds to 0."""
    p = np.mod(np.asarray(phases, dtype=float), TWO_PI)
    # np.mod can round up to the modulus itself for tiny negative inputs
    p[p >= TWO_PI] = 0.0
    return p


# LAPACK's complex Schur routine, called directly: scipy.linalg.schur would
# query the workspace and re-check finiteness on every call.
_gees, = scipy.linalg.get_lapack_funcs(("gees",), dtype=np.complex128)


def _no_sort(_):
    """Eigenvalue selector for an unsorted Schur form; LAPACK never calls it."""


@cache
def _gees_lwork(n: int) -> int:
    """Optimal zgees workspace for dimension n, which depends on n alone."""
    work = _gees(_no_sort, np.eye(n, dtype=complex), lwork=-1)[-2]
    return int(work[0].real)


def eigen_system(u) -> PhaseSpectrum:
    """Orthonormal eigendecomposition of a unitary matrix.

    Uses the complex Schur form: for a normal matrix the Schur factor is
    diagonal and the Schur vectors form an exactly orthonormal eigenbasis,
    which plain ``eig`` does not guarantee on degenerate spectra. LAPACK's
    ``zgees`` is called directly, with its workspace size queried once per
    dimension, and gives the same bits as ``scipy.linalg.schur``.

    Args:
        u: square matrix, unitary within ``UNITARY_TOL``.

    Returns:
        PhaseSpectrum with phases sorted ascending in [0, 2*pi).

    Raises:
        DomainError: input not unitary.
        NumericalError: the Schur form did not converge, or the largest
            eigenvector residual or orthonormality defect exceeds ``EIGEN_TOL``.
    """
    a = require_unitary(u)
    _, _, eigvals, q, _, info = _gees(_no_sort, a, lwork=_gees_lwork(a.shape[0]))
    if info != 0:
        raise NumericalError(f"eigendecomposition did not converge (zgees info {info})")
    phases = wrap_phase(np.angle(eigvals))
    order = np.argsort(phases, kind="stable")
    phases = phases[order]
    vectors = q[:, order]

    residual = float(np.max(np.linalg.norm(a @ vectors - vectors * np.exp(1j * phases), axis=0)))
    ortho = float(_defects(vectors))
    if residual > EIGEN_TOL or ortho > EIGEN_TOL:
        raise NumericalError(
            f"eigendecomposition failed accuracy contract: "
            f"max residual {residual:.3e}, orthonormality defect {ortho:.3e}"
        )
    return PhaseSpectrum(phases=phases, vectors=vectors)


@dataclass(frozen=True, eq=False)
class UnitaryPair:
    """Two checked candidate unitaries of equal dimension.

    Build it with ``UnitaryPair.of``, which checks both as one stack.
    ``spectrum``, the relative spectrum of U1†U2, is decomposed on first
    use and kept, and the spectrum keeps its smallest covering arc once
    ``geometry.smallest_arc`` has found it. The functions that take two
    candidate unitaries accept a UnitaryPair in their place, so a pair used
    by several of them is checked, decomposed and given its arc once.
    """

    u1: np.ndarray
    u2: np.ndarray

    @classmethod
    def of(cls, u1, u2) -> "UnitaryPair":
        if np.shape(u1) != np.shape(u2):
            raise ShapeError(f"dimension mismatch: shapes {np.shape(u1)} vs {np.shape(u2)}")
        a, b = require_unitary((u1, u2), name=("u1", "u2"))
        return cls(a, b)

    @property
    def dim(self) -> int:
        return int(self.u1.shape[0])

    @cached_property
    def spectrum(self) -> PhaseSpectrum:
        return eigen_system(dagger(self.u1) @ self.u2)


def pair_args(u1, u2=None, *rest) -> tuple:
    """``(pair, *rest)`` for a call ``f(u1, u2, *rest)`` or ``f(pair, *rest)``.

    A UnitaryPair fills the places of both unitaries, so whether the later
    arguments come by position or by keyword, one parameter of ``f`` is
    left at its default of None; it is dropped here.
    """
    if not isinstance(u1, UnitaryPair):
        return (UnitaryPair.of(u1, u2), *rest)
    args = [u2, *rest]
    unfilled = [k for k, a in enumerate(args) if a is None]
    if not unfilled:
        raise TypeError("a UnitaryPair stands for both unitaries: one argument too many")
    del args[unfilled[0]]
    return (u1, *args)


def relative_spectrum(u1, u2=None) -> PhaseSpectrum:
    """Spectrum of U1†U2, the object all discrimination quantities derive from.

    Takes the two unitaries, or a UnitaryPair alone.
    """
    (pair,) = pair_args(u1, u2)
    return pair.spectrum


def haar_isometry_from_rng(n: int, k: int, rng: np.random.Generator,
                           batch: tuple[int, ...] = ()) -> np.ndarray:
    """Haar-distributed n x k isometry: the first k columns of a Haar unitary.

    QR of an n x k complex Gaussian matrix, with the triangular factor's
    diagonal phases folded into Q so the distribution is exactly
    left-invariant (Mezzadri, Notices AMS 54, 592, 2007).

    A ``batch`` shape gives independent isometries of shape batch + (n, k)
    from one draw and one stacked QR. They take the real, then the
    imaginary, Gaussians of each isometry in turn from the stream, as one
    call per isometry does, so they equal such calls bit for bit.
    """
    if not 1 <= k <= n:
        raise DomainError(f"isometry needs 1 <= k <= n, got k={k} for n={n}")
    g = rng.standard_normal((*batch, 2, n, k))
    q, r = np.linalg.qr(g[..., 0, :, :] + 1j * g[..., 1, :, :])
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def haar_unitary_from_rng(d: int, rng: np.random.Generator,
                          batch: tuple[int, ...] = ()) -> np.ndarray:
    """Haar-distributed unitary drawn from an existing generator.

    A ``batch`` shape gives a stack of independent ones, as
    ``haar_isometry_from_rng`` does, equal bit for bit to one call each.
    """
    return haar_isometry_from_rng(d, d, rng, batch)


def random_state_from_rng(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized state with complex Gaussian amplitudes."""
    if dim < 1:
        raise DomainError("dimension must be >= 1")
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)
