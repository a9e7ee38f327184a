"""Dense complex linear algebra for small dimensions.

Matrices and state vectors are plain ``numpy.ndarray`` objects of dtype
complex128; the helpers here validate the invariants the rest of the
toolkit relies on (unitarity, normalization, orthonormal eigenbases).
All dense objects are capped at dimension ``DIM_CAP`` to bound memory.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import operator
import os
import sys
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import CapacityError, DomainError, NumericalError, ShapeError, ValidationError
from .tolerances import EIGEN_TOL, UNITARY_TOL

# Hard cap on any dense matrix dimension handled by the toolkit.
DIM_CAP = 4096
# Most entries any one array of an instance may hold: one capped matrix, 256 MiB of complex.
ENTRY_CAP = DIM_CAP * DIM_CAP

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


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(m).T


def _member(name, k: int | None) -> str:
    """Name of stack member k (None: the lone matrix): name[k] for a sequence, else "name k"."""
    if k is None:
        return name
    return f"{name} {k}" if isinstance(name, str) else name[k]


def _defects(a: np.ndarray) -> np.ndarray:
    """Elementwise max deviation of M†M from the identity, per matrix of an array.

    A matrix with a NaN entry has a NaN defect, which no ``defect <= tol``
    test accepts.
    """
    gram = a.conj().swapaxes(-2, -1) @ a
    np.einsum("...ii->...i", gram)[...] -= 1  # M†M - I in place, no identity built
    return np.abs(gram).max(axis=(-2, -1))


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


def require_normalized(m, name: str = "state") -> tuple[np.ndarray, np.ndarray]:
    """One state, or states along the last axis of an array, each checked normalized.

    One pass covers every state. An error names a lone state ``name`` and a
    member of a stack ``name (i, j)``, by its index over the leading axes.
    Returns the array and each state's <v|v>, complex as formed, for callers
    that divide by it.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim == 0 or 0 in a.shape:
        raise ShapeError(f"expected a nonempty state or stack of states, got shape {a.shape}")
    if a.shape[-1] > DIM_CAP:
        raise CapacityError(f"state dimension {a.shape[-1]} exceeds cap {DIM_CAP}")
    if not np.isfinite(a).all():
        bad = ~np.isfinite(a).all(axis=-1)
        raise DomainError(f"{_first(name, bad)} amplitudes must be finite")
    inner = (a.conj() * a).sum(axis=-1)
    off = np.abs(np.sqrt(inner.real) - 1.0)
    if off.max() > UNITARY_TOL:
        bad = off > UNITARY_TOL
        norm = math.sqrt(inner.real[bad][0])
        raise DomainError(
            f"{_first(name, bad)} is not normalized within {UNITARY_TOL:g} (norm {norm:.12f})"
        )
    return a, inner


def _first(name: str, mask: np.ndarray) -> str:
    """``name (i, j)`` for the first True entry of a mask over a stack; ``name`` for a 0-d mask."""
    return name if mask.ndim == 0 else f"{name} ({', '.join(map(str, np.argwhere(mask)[0]))})"


def require_entries(count: int, what: str) -> None:
    """Refuse an array of more than ``ENTRY_CAP`` entries before it is allocated."""
    if count > ENTRY_CAP:
        raise CapacityError(f"{what} needs {count} entries, above the cap of {ENTRY_CAP}")


def check_integer(value, what: str) -> int:
    """Every count and seed is an integer: what ``operator.index`` takes, but not a bool.

    Returns it as a Python int, which the configs and protocols store, so a
    numpy integer reaches a JSON file as a plain number.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None


@dataclass(eq=False)
class PhaseSpectrum:
    """Eigenphases of a unitary matrix, with an aligned orthonormal eigenbasis if one was formed.

    ``phases`` is ascending in [0, 2*pi). ``vectors`` is None for a spectrum
    decomposed for its phases alone (``relative_spectrum``); otherwise
    column j is the eigenvector belonging to ``phases[j]``.
    """

    phases: np.ndarray
    vectors: np.ndarray | None = None
    # The smallest covering arc (a geometry.ArcResult), kept by
    # geometry.smallest_arc the first time it is asked for this spectrum.
    arc: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        # attributes only: every verified instance builds a spectrum, so no pass over the phases
        p = self.phases
        if not isinstance(p, np.ndarray) or p.ndim != 1:
            raise ShapeError(f"phases must be a 1-D array, got {type(p).__name__} "
                             f"of shape {np.shape(p)}")
        if p.dtype.kind != "f":
            raise DomainError(f"phases must be real floats, got dtype {p.dtype}")

    @property
    def dim(self) -> int:
        return int(self.phases.shape[0])

    def points(self) -> np.ndarray:
        """Eigenvalues as points on the unit circle."""
        return np.exp(1j * self.phases)


def wrap_phase(phases) -> np.ndarray:
    """Reduce angles to [0, 2*pi); the right endpoint folds to 0."""
    # np.mod gives a 0-d input back as a scalar; asarray keeps it a 0-d array
    p = np.asarray(np.mod(np.asarray(phases, dtype=float), TWO_PI))
    # np.mod can round up to the modulus itself for tiny negative inputs
    p[p >= TWO_PI] = 0.0
    return p


_FLAPACK = "scipy.linalg._flapack"


def _flapack_gees():
    """zgees from scipy's f2py LAPACK wrapper, loaded without scipy.linalg's package init.

    The wrapper is one extension module in scipy's package directory, found
    without importing scipy and loaded under its own name. The load enters
    it in ``sys.modules`` (it is a single-phase extension); that entry is
    removed, so a later ``import scipy.linalg`` runs whole. None when scipy
    or the file is missing or the load fails: on Windows, scipy's own init
    registers the DLL directory the wrapper needs.
    """
    if _FLAPACK in sys.modules:  # scipy.linalg is imported already
        return sys.modules[_FLAPACK].zgees
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec is not None else None
    paths = (os.path.join(root, "linalg", "_flapack" + suffix)
             for root in roots or () for suffix in importlib.machinery.EXTENSION_SUFFIXES)
    path = next(filter(os.path.isfile, paths), None)
    if path is None:
        return None
    flapack = importlib.util.spec_from_loader(
        _FLAPACK, importlib.machinery.ExtensionFileLoader(_FLAPACK, path))
    try:
        return importlib.util.module_from_spec(flapack).zgees
    except (ImportError, OSError):
        return None
    finally:
        sys.modules.pop(_FLAPACK, None)


def _scipy_linalg_gees():
    """zgees as ``scipy.linalg.schur`` finds it, through scipy.linalg's package init."""
    import scipy.linalg

    gees, = scipy.linalg.get_lapack_funcs(("gees",), dtype=np.complex128)
    return gees


# LAPACK's complex Schur routine, called directly: scipy.linalg.schur would
# query the workspace and re-check finiteness on every call. Both loaders give
# the same routine; the direct one spares every process scipy.linalg's import.
_gees = _flapack_gees() or _scipy_linalg_gees()


def _no_sort(_):
    """Eigenvalue selector for an unsorted Schur form; LAPACK never calls it."""


@cache
def _gees_lwork(n: int) -> int:
    """Optimal zgees workspace for dimension n, which depends on n alone."""
    work = _gees(_no_sort, np.eye(n, dtype=complex), lwork=-1)[-2]
    return int(work[0].real)


def _schur(a: np.ndarray, vectors: bool) -> tuple:
    """One zgees call on a: (ascending phases, their order, Schur factor, Schur vectors).

    Without ``vectors`` LAPACK forms no Schur vectors and the last item is
    a placeholder. The phases are the same bits either way: the Schur
    factor is reduced alike, and both calls take the workspace queried
    once per dimension.
    """
    t, _, eigvals, q, _, info = _gees(_no_sort, a, compute_v=vectors,
                                      lwork=_gees_lwork(a.shape[0]))
    if info != 0:
        raise NumericalError(f"eigendecomposition did not converge (zgees info {info})")
    phases = wrap_phase(np.angle(eigvals))
    order = np.argsort(phases, kind="stable")
    return phases[order], order, t, q


def _eigen_system(a: np.ndarray) -> PhaseSpectrum:
    """Orthonormal eigendecomposition of a square matrix whose factors were checked unitary.

    Uses the complex Schur form: for a normal matrix the Schur factor is
    diagonal and the Schur vectors form an exactly orthonormal eigenbasis,
    which plain ``eig`` does not guarantee on degenerate spectra. LAPACK's
    ``zgees`` is called directly, with its workspace size queried once per
    dimension, and gives the same bits as ``scipy.linalg.schur``: it is
    scipy's own f2py wrapper, loaded without scipy.linalg's package init
    where it can be and through ``scipy.linalg`` otherwise.

    Returns the phases ascending in [0, 2*pi) and their eigenvectors.

    Raises:
        NumericalError: the Schur form did not converge, or the largest
            eigenvector residual or orthonormality defect exceeds ``EIGEN_TOL``.
    """
    phases, order, _, q = _schur(a, vectors=True)
    vectors = q[:, order]

    # largest column norm of the eigen-equation residual
    diff = a @ vectors - vectors * np.exp(1j * phases)
    residual = math.sqrt(np.add.reduce(diff.real * diff.real + diff.imag * diff.imag).max())
    ortho = float(_defects(vectors))
    if not (residual <= EIGEN_TOL and ortho <= EIGEN_TOL):
        raise NumericalError(
            f"eigendecomposition failed accuracy contract: "
            f"max residual {residual:.3e}, orthonormality defect {ortho:.3e}"
        )
    return PhaseSpectrum(phases=phases, vectors=vectors)


def _eigen_phases(a: np.ndarray) -> PhaseSpectrum:
    """Eigenphases alone of a square matrix whose factors were checked unitary already.

    The contract covers what is returned. A unitary's Schur factor is
    diagonal, and its diagonal holds the eigenvalues, on the unit circle;
    so every strictly upper entry, and each diagonal entry's distance from
    the circle, must stay within ``EIGEN_TOL``. A NaN in either fails.
    """
    phases, _, t, _ = _schur(a, vectors=False)
    # |T| with each diagonal entry replaced by its distance from the circle, in place;
    # LAPACK leaves T's strictly lower part zero
    deviation = np.abs(t)
    radial = np.einsum("ii->i", deviation)
    radial -= 1.0
    np.abs(radial, out=radial)
    worst = deviation.max()
    if not worst <= EIGEN_TOL:
        raise NumericalError(
            f"Schur form failed accuracy contract: off-diagonal entry or distance of an "
            f"eigenvalue from the unit circle {worst:.3e}"
        )
    return PhaseSpectrum(phases=phases)


@dataclass(frozen=True, eq=False)
class UnitaryPair:
    """Two checked candidate unitaries of equal dimension.

    Build it with ``UnitaryPair.of``, which checks both as one stack; their
    product U1†U2 is not checked again. U1†U2 is decomposed on first use,
    as far as the first reader needs: ``relative_spectrum`` takes its phases
    alone, ``spectrum`` (for the parallel plan) its eigenvectors too. Each
    is kept, and a spectrum keeps its smallest covering arc once
    ``geometry.smallest_arc`` has found it. Every builder and simulator
    takes a pair, so a pair used by several of them is checked, decomposed
    and given its arc once.
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
        """Eigenphases and eigenvectors of U1†U2: the one eigenvector decomposition."""
        return _eigen_system(dagger(self.u1) @ self.u2)

    @cached_property
    def _phase_spectrum(self) -> PhaseSpectrum:
        """``spectrum`` if it is held already, else the eigenphases of U1†U2 alone."""
        held = self.__dict__.get("spectrum")
        return held if held is not None else _eigen_phases(dagger(self.u1) @ self.u2)


def pair_args(u1, u2=None, *rest) -> tuple:
    """``(pair, *rest)`` for a call ``f(u1, u2, *rest)`` or ``f(pair, *rest)``.

    Kept only for ``relative_spectrum``, ``run_protocol`` and
    ``optimize_protocol``, which the benchmark's workloads call with two
    matrices; every other function takes the pair alone. A UnitaryPair
    fills the places of both unitaries, so whether the later arguments come
    by position or by keyword, one parameter of ``f`` is left at its
    default of None; it is dropped here. Every other argument is required:
    one more left at None is a TypeError, before any other check.
    """
    is_pair = isinstance(u1, UnitaryPair)
    args = [u2, *rest]
    unfilled = [k for k, a in enumerate(args) if a is None]
    if len(unfilled) > is_pair:
        raise TypeError(f"missing {len(unfilled) - is_pair} required argument(s)")
    if not is_pair:
        return (UnitaryPair.of(u1, u2), *rest)
    if not unfilled:
        raise TypeError("a UnitaryPair stands for both unitaries: one argument too many")
    del args[unfilled[0]]
    return (u1, *args)


def relative_spectrum(u1, u2=None) -> PhaseSpectrum:
    """Eigenphases of U1†U2, the object all discrimination quantities derive from.

    Takes a UnitaryPair; the two unitaries in its place are accepted only
    because the benchmark's workloads pass them so. Forms no eigenvectors
    (``vectors`` is None) unless the pair already holds its ``spectrum``,
    which is then returned as it is. The phases are the same bits as
    ``spectrum``'s. Kept on the pair, so a pair is decomposed once.

    Raises:
        NumericalError: the Schur form did not converge, or its largest
            strictly upper entry or an eigenvalue's distance from the unit
            circle exceeds ``EIGEN_TOL``.
    """
    (pair,) = pair_args(u1, u2)
    return pair._phase_spectrum


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

    Refuses n above ``DIM_CAP``, or more than ``ENTRY_CAP`` complex entries
    in all, with a CapacityError before the stream is touched.
    """
    if not 1 <= k <= n:
        raise DomainError(f"isometry needs 1 <= k <= n, got k={k} for n={n}")
    if n > DIM_CAP:
        raise CapacityError(f"isometry dimension {n} exceeds cap {DIM_CAP}")
    require_entries(math.prod(batch) * n * k, "a Haar draw")
    g = rng.standard_normal((*batch, 2, n, k))
    # numpy's QR kernels, the LAPACK calls its qr wrapper makes, called directly:
    # qr_r_raw factors the fresh stack in place (R on and above the diagonal)
    a = g[..., 0, :, :] + 1j * g[..., 1, :, :]
    tau = _umath_linalg.qr_r_raw(a, signature="D->D")
    diag = np.diagonal(a, axis1=-2, axis2=-1)
    q = _umath_linalg.qr_reduced(a, tau, signature="DD->D")
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
    # the 2-norm as np.linalg.norm forms it, without its wrapper
    return v / math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))
