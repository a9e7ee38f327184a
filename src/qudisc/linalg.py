"""Dense complex linear algebra for small dimensions.

Matrices and state vectors are plain ``numpy.ndarray`` objects of dtype
complex128; the helpers here validate the invariants the rest of the
toolkit relies on (unitarity, normalization, orthonormal eigenbases).
All dense objects are capped at dimension ``DIM_CAP`` to bound memory.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import CapacityError, DomainError, NumericalError, ShapeError, ValidationError
from .tolerances import EIGEN_TOL, INVERSE_SHIFT, UNITARY_TOL

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


def check_integer(value, what: str, lo: int | None = None) -> int:
    """Every count and seed is an integer: what ``operator.index`` takes, but not a bool; a
    count below its floor ``lo`` is refused too. Either is a ``ValidationError`` naming ``what``.

    Returns it as a Python int, which the configs and protocols store, so a
    numpy integer reaches a JSON file as a plain number.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        n = operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None
    if lo is not None and n < lo:
        raise ValidationError(f"{what} must be >= {lo}, got {n}")
    return n


@dataclass(eq=False)
class PhaseSpectrum:
    """Eigenphases of a unitary matrix, ascending in [0, 2*pi), without eigenvectors: a plan's
    few are found on demand, by their phases' indices, by ``_eigenvectors``."""

    phases: np.ndarray
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


def _eigenphases(a: np.ndarray) -> np.ndarray:
    """Eigenphases of U1†U2, from the eigenvalues of one Hermitian matrix.

    ``a`` is a product of checked unitaries, so it is normal, and its Cayley
    transform is Hermitian with the same eigenvectors:
    1. The eigenvalues of A + A† are twice the cosines of the phases, so the
       symmetrised set ±arccos c holds every phase. The centre beta of its
       largest gap lies at least pi/(2d) from each, as 2d points leave a gap
       of pi/d.
    2. B = -e^{-i beta} A has its eigenvalues e^{i psi} at least gap/2 from
       -1 in angle, so H = i(I + B)^{-1}(I - B), formed by one solve, is
       Hermitian, with eigenvalues tan(psi/2).
    3. The phases are 2 arctan(w) + beta - pi for the eigenvalues w of
       H's Hermitian part.

    LAPACK's Hermitian eigenvalue solver, numpy's own, is called directly and forms no
    eigenvectors. The gap, and the phases from w, are found on Python floats: O(d) work, which
    costs less than numpy's per-call overhead at small d. beta = pi, the centre for a spectrum
    near 1, leaves A unturned.

    Returns the phases ascending in [0, 2*pi). H - H† is
    2i (I + B)^{-1}(I - BB†)(I + B)^{-†}: a unitarity defect of A, or a
    rounding of the solve, shows in H magnified by up to
    2|(I + B)^{-1}|^2 <= 1 / (2 sin^2(gap/4)). H's Hermitian defect, taken
    back to A's scale by that factor, must stay within ``EIGEN_TOL``; to
    first order a phase then moves by no more than A's own defect. A NaN in
    H fails it, and a NaN eigenvalue is a failure to converge; each is a
    ``NumericalError``.
    """
    twice_cos = _umath_linalg.eigvalsh_lo(a + a.conj().T, signature="D->d").tolist()
    # the arccos of each cosine, ascending in [0, pi]; rounding can take |c| past 1
    arcs = [math.acos(0.5 * c) if -2.0 <= c <= 2.0 else (0.0 if c > 0.0 else math.pi)
            for c in reversed(twice_cos)]
    # the set is symmetric about 0: the gaps at 0 and at pi, then those between the arcs
    gap, beta = 2.0 * arcs[0], 0.0
    if 2.0 * (math.pi - arcs[-1]) > gap:
        gap, beta = 2.0 * (math.pi - arcs[-1]), math.pi
    for lo, hi in zip(arcs, arcs[1:]):
        if hi - lo > gap:
            gap, beta = hi - lo, 0.5 * (lo + hi)
    # -e^{-i beta} = e^{i (pi - beta)}, with pi - beta exactly 0 at beta = pi
    shift = math.pi - beta
    turn = complex(math.cos(shift), math.sin(shift))
    # I + B and i(I - B), each A scaled with its diagonal raised in place: no identity formed
    step = a.shape[0] + 1
    plus = turn * a
    plus.ravel()[::step] += 1.0
    minus = (-1j * turn) * a
    minus.ravel()[::step] += 1j
    h = _umath_linalg.solve(plus, minus, signature="DD->D")
    h_adj = h.conj().T
    defect = np.abs(h - h_adj).max() * 2.0 * math.sin(0.25 * gap) ** 2
    if not defect <= EIGEN_TOL:
        raise NumericalError(f"eigendecomposition failed accuracy contract: Hermitian "
                             f"defect of the Cayley transform {defect:.3e} on A's scale")
    # twice H's Hermitian part, exactly Hermitian, whose eigenvalues are 2w
    h += h_adj
    w = _umath_linalg.eigvalsh_lo(h, signature="D->d")
    phases = [2.0 * math.atan(0.5 * x) - shift for x in w.tolist()]
    if not math.isfinite(sum(phases)):
        raise NumericalError("eigendecomposition did not converge (NaN eigenvalue)")
    # into [0, 2*pi) as wrap_phase does: a tiny negative phase rounds up to 2*pi, which folds to 0
    return np.array(sorted(p if p >= 0.0 else (q if (q := p + TWO_PI) < TWO_PI else 0.0)
                           for p in phases))


@dataclass(frozen=True, eq=False)
class UnitaryPair:
    """Two checked candidate unitaries of equal dimension: one (2, d, d) stack, ``unitaries``.

    Build it with ``UnitaryPair.of``, which checks both as that one stack;
    ``u1`` and ``u2`` are views of it, and a query acts on both in one
    product. Their product U1†U2 is not checked again. Its eigenphases are
    the pair's one decomposition, found on first use by ``relative_spectrum``
    and kept, with the smallest covering arc once ``geometry.smallest_arc``
    has found it. Every builder and simulator takes a pair, so a pair used
    by several of them is checked, decomposed and given its arc once.
    """

    unitaries: np.ndarray

    @classmethod
    def of(cls, u1, u2) -> "UnitaryPair":
        if np.shape(u1) != np.shape(u2):
            raise ShapeError(f"dimension mismatch: shapes {np.shape(u1)} vs {np.shape(u2)}")
        return cls(require_unitary((u1, u2), name=("u1", "u2")))

    @property
    def u1(self) -> np.ndarray:
        return self.unitaries[0]

    @property
    def u2(self) -> np.ndarray:
        return self.unitaries[1]

    @property
    def dim(self) -> int:
        return int(self.unitaries.shape[-1])

    @cached_property
    def _spectrum(self) -> PhaseSpectrum:
        return PhaseSpectrum(_eigenphases(self.u1.conj().T @ self.u2))


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
    because the benchmark's workloads pass them so. The phases are found
    once per pair and kept, so every caller gets the one spectrum.

    Raises:
        NumericalError: the Cayley transform's Hermitian defect, on the
            scale of U1†U2, exceeds ``EIGEN_TOL``, or an eigenvalue is NaN.
    """
    (pair,) = pair_args(u1, u2)
    return pair._spectrum


def _eigenvectors(pair: UnitaryPair, indices: list[int]) -> np.ndarray:
    """Orthonormal eigenvectors of U1†U2 at ``relative_spectrum(pair).phases[indices]``: the
    columns of a d x m matrix, m <= 3, by two steps of inverse iteration and one QR.

    Each step solves (A - mu_j I) y = x_j for every column j in one call, an LU per column,
    mu_j being e^{i phi_j} pushed off the circle by ``INVERSE_SHIFT``. Column j starts from
    e^{i k f_j}, k = 1..d, with f_j = sqrt(j + 2) no rational multiple of pi, so no start is
    orthogonal to an eigenvector of a diagonal or a circulant matrix. The QR keeps columns of
    one eigenspace, or of close phases, orthonormal.

    Raises:
        NumericalError: the residual |A Q - Q diag(e^{i phi})|_F or the
            orthonormality defect exceeds ``EIGEN_TOL``; a NaN fails it.
    """
    a = pair.u1.conj().T @ pair.u2
    d, m = a.shape[0], len(indices)
    eigenvalues = np.exp(1j * relative_spectrum(pair).phases[indices])
    shifted = np.repeat(a[None], m, axis=0)
    shifted.reshape(m, d * d)[:, ::d + 1] -= ((1.0 + INVERSE_SHIFT) * eigenvalues)[:, None]
    x = np.exp(1j * np.multiply.outer(np.sqrt(np.arange(2.0, m + 2.0)), np.arange(1.0, d + 1.0)))
    for _ in range(2):
        x = _umath_linalg.solve(shifted, x[..., None], signature="DD->D")[..., 0]
    x = x.T.copy()  # d x m; numpy's QR kernels, called directly, factor it in place
    q = _umath_linalg.qr_reduced(x, _umath_linalg.qr_r_raw(x, signature="D->D"),
                                 signature="DD->D")
    diff = a @ q - q * eigenvalues
    residual, ortho = math.sqrt(np.vdot(diff, diff).real), float(_defects(q))
    if not (residual <= EIGEN_TOL and ortho <= EIGEN_TOL):
        raise NumericalError(f"eigenvectors failed accuracy contract: residual "
                             f"{residual:.3e}, orthonormality defect {ortho:.3e}")
    return q


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

    Refuses before the stream is touched: with a ``ValidationError`` a non-integer n, k or
    batch size, or one below its floor (k >= 1, n >= k, batch sizes >= 0); with a
    ``CapacityError`` n above ``DIM_CAP`` or more than ``ENTRY_CAP`` complex entries in all.
    """
    k = check_integer(k, "isometry column count", 1)
    n = check_integer(n, "isometry dimension", k)
    batch = tuple(check_integer(b, "batch size", 0) for b in batch)
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
    d = check_integer(d, "unitary dimension", 1)
    return haar_isometry_from_rng(d, d, rng, batch)


def random_state_from_rng(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized state with complex Gaussian amplitudes, of an integer dimension from 1 to
    ``DIM_CAP``. Before the stream is touched, a non-integer or one below 1 is refused with
    a ``ValidationError``, one above the cap with a ``CapacityError``."""
    dim = check_integer(dim, "state dimension", 1)
    if dim > DIM_CAP:
        raise CapacityError(f"state dimension {dim} exceeds cap {DIM_CAP}")
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    # the 2-norm as np.linalg.norm forms it, without its wrapper
    return v / math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))
