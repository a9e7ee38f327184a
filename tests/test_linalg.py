import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from qudisc import (
    DIM_CAP,
    CampaignConfig,
    CapacityError,
    DomainError,
    NumericalError,
    SearchConfig,
    ShapeError,
    UnitaryPair,
    ValidationError,
    build_parallel,
    haar_unitary_from_rng,
    optimize_protocol,
    relative_spectrum,
    run_protocol,
    simulate_parallel,
    simulate_random,
)
from qudisc import builder, linalg
from qudisc import protocol as protocol_mod
from qudisc.geometry import smallest_arc
from qudisc.protocol import Protocol
from qudisc.serialize import matrix_from_obj
from qudisc.linalg import (
    TWO_PI,
    as_complex_matrix,
    haar_isometry_from_rng,
    random_state_from_rng,
    require_normalized,
    require_unitary,
    wrap_phase,
)


class TestIsUnitary:
    def test_identity(self):
        assert np.array_equal(require_unitary(np.eye(4)), np.eye(4))

    def test_diagonal_phases(self):
        u = np.diag([1.0, np.exp(1j * np.pi / 3)])
        assert np.array_equal(require_unitary(u), u)

    def test_shrinking_column_fails(self):
        with pytest.raises(DomainError):
            require_unitary(np.diag([1.0, 0.5]))

    def test_non_square_raises(self):
        with pytest.raises(ShapeError):
            require_unitary(np.ones((2, 3)))

    def test_stack_names_its_first_bad_member_and_defect(self):
        good, shrunk = [np.eye(2), np.diag([1.0, -1.0])], np.diag([1.0, 0.5])
        for stack, k in (([good[0], shrunk, good[1]], 1), ([*good, shrunk], 2)):
            with pytest.raises(DomainError, match=rf"matrix {k} is not unitary .*defect 7.500e-01"):
                require_unitary(stack)
        assert require_unitary(good).shape == (2, 2, 2)


class TestStackedChecks:
    BAD = np.diag([1.0, 1.001])

    @pytest.mark.parametrize("u1, u2, named", [
        (np.eye(2), BAD, "u2"),
        (BAD, np.eye(2), "u1"),
        (BAD, 2.0 * BAD, "u1"),  # both bad: the first is named
    ])
    def test_pair_names_the_first_bad_unitary(self, u1, u2, named):
        with pytest.raises(DomainError, match=rf"^{named} is not unitary"):
            UnitaryPair.of(u1, u2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("member", [0, 1])
    def test_pair_refuses_non_finite_entries(self, value, member):
        pair = [np.eye(2), np.eye(2)]
        pair[member] = np.array([[1.0, 0.0], [0.0, value]])
        with pytest.raises(DomainError, match=rf"^u{member + 1} entries must be finite"):
            UnitaryPair.of(*pair)

    def test_protocol_names_the_first_bad_interleaver(self):
        ws = [np.eye(2), np.eye(2), self.BAD, 3.0 * np.eye(2)]
        with pytest.raises(DomainError, match=r"^interleaver 2 is not unitary"):
            Protocol(2, 1, 3, ws, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_protocol_refuses_non_finite_interleavers(self, value):
        ws = [np.eye(2), np.eye(2), np.eye(2)]
        ws[1] = np.array([[value, 0.0], [0.0, 1.0]])
        with pytest.raises(DomainError, match=r"^interleaver 1 entries must be finite"):
            Protocol(2, 1, 2, ws, np.array([1.0, 0.0]))

    def test_protocol_names_an_interleaver_of_the_wrong_shape(self):
        with pytest.raises(ShapeError, match=r"^interleaver 1 has shape \(3, 3\)"):
            Protocol(2, 1, 1, [np.eye(2), np.eye(3)], np.array([1.0, 0.0]))

    @pytest.mark.parametrize("state, problem", [([np.nan, 0.0], "amplitudes must be finite"),
                                                ([1.0, 1.0], "is not normalized")])
    def test_one_check_names_a_lone_state_and_a_stack_member(self, state, problem):
        with pytest.raises(DomainError, match=rf"^probe {problem}"):
            require_normalized(state, name="probe")
        with pytest.raises(DomainError, match=rf"^probe {problem}"):
            Protocol(2, 1, 0, [np.eye(2)], state)
        stack = np.zeros((2, 3, 2))
        stack[..., 0] = 1.0
        stack[1, 2] = state
        with pytest.raises(DomainError, match=rf"^state \(1, 2\) {problem}"):
            require_normalized(stack)


class TestDimCap:
    def test_state_above_cap_rejected(self):
        with pytest.raises(CapacityError):
            require_normalized(np.ones(5000))
        n = DIM_CAP + 1
        with pytest.raises(CapacityError):
            require_normalized(np.ones(n) / np.sqrt(n))
        assert require_normalized(np.ones(DIM_CAP) / np.sqrt(DIM_CAP))[0].shape == (DIM_CAP,)

    def test_matrix_above_cap_rejected_before_reading_entries(self):
        # a zero-stride view: the cap must reject it before the finiteness scan
        big = np.broadcast_to(np.complex128(np.nan), (DIM_CAP + 1, DIM_CAP + 1))
        with pytest.raises(CapacityError):
            as_complex_matrix(big)
        with pytest.raises(CapacityError):
            require_unitary(big)


def patch_lapack(monkeypatch, name, wrap):
    """Give ``linalg`` numpy's LAPACK gufuncs with one of them, ``name``, replaced by
    ``wrap(original)``; the others, and every other module, keep the originals."""
    real = linalg._umath_linalg
    proxy = types.SimpleNamespace(**{k: getattr(real, k) for k in dir(real) if k[0] != "_"})
    setattr(proxy, name, wrap(getattr(real, name)))
    monkeypatch.setattr(linalg, "_umath_linalg", proxy)


def nan_eigenvalues(eigvalsh):
    """``eigvalsh`` as it reads where LAPACK's Hermitian solver did not converge: NaN
    eigenvalues, on every call after the first, which reads the cosines that place the Cayley
    transform's shift; the next reads the transform's eigenvalues, the phases."""
    calls = []

    def call(*args, **kwargs):
        calls.append(None)
        w = eigvalsh(*args, **kwargs)
        return w if len(calls) == 1 else np.full_like(w, np.nan)
    return call


def nan_result(solve):
    """``solve`` as it reads where LAPACK met an exactly singular matrix: NaN entries."""
    def call(*args, **kwargs):
        return np.full_like(solve(*args, **kwargs), np.nan)
    return call


def pair_of(u):
    """The pair (I, u), whose U1†U2 is u bit for bit."""
    return UnitaryPair.of(np.eye(np.shape(u)[0]), u)


def spectrum_of(u):
    """The eigenphases of u that a pair takes."""
    return relative_spectrum(pair_of(u))


def vectors_of(u, indices):
    """The eigenvectors of u at the phase indices, as a plan asks for them, with u's phases."""
    pair = pair_of(u)
    return linalg._eigenvectors(pair, indices), relative_spectrum(pair).phases[indices]


def assert_eigenvectors(u, vectors, phases):
    """Each column's eigen-equation residual and the columns' orthonormality defect, within
    ``EIGEN_TOL``."""
    resid = u @ vectors - vectors * np.exp(1j * phases)
    assert np.max(np.linalg.norm(resid, axis=0)) <= 1e-8
    gram = vectors.conj().T @ vectors
    assert np.max(np.abs(gram - np.eye(len(phases)))) <= 1e-8


class TestEigenSystem:
    """``_eigenphases``, the pair's one decomposition, and ``_eigenvectors``, the few columns a
    plan asks for, as ``UnitaryPair`` and ``build_parallel`` run them."""

    def test_pauli_z(self):
        spec = spectrum_of(np.diag([1.0, -1.0]))
        assert np.allclose(spec.phases, [0.0, np.pi], atol=1e-12)

    def test_hadamard(self):
        # roots of the characteristic polynomial lambda^2 - 1
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        spec = spectrum_of(h)
        assert np.allclose(spec.phases, [0.0, np.pi], atol=1e-10)

    def test_identity_three(self):
        spec = spectrum_of(np.eye(3))
        # compare on the circle: 0 and 2*pi are the same point
        dist = np.minimum(spec.phases, TWO_PI - spec.phases)
        assert np.all(dist <= 1e-10)

    def test_phases_sorted_in_range(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            spec = spectrum_of(haar_unitary_from_rng(5, rng))
            assert np.all(np.diff(spec.phases) >= 0)
            assert np.all((spec.phases >= 0) & (spec.phases < TWO_PI))

    def test_eigen_equation_and_orthonormality(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            u = haar_unitary_from_rng(6, rng)
            indices = sorted(rng.choice(6, size=4, replace=False).tolist())
            assert_eigenvectors(u, *vectors_of(u, indices))

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = haar_unitary_from_rng(4, rng)  # Haar spectra are simple a.s.
            vectors, phases = vectors_of(u, [0, 1, 2, 3])
            rebuilt = (vectors * np.exp(1j * phases)) @ vectors.conj().T
            assert np.max(np.abs(rebuilt - u)) <= 1e-7

    def test_degenerate_spectrum_keeps_orthonormal_basis(self):
        u = np.kron(np.diag([1.0, -1.0]), np.eye(2))  # each eigenvalue twice
        assert_eigenvectors(u, *vectors_of(u, [0, 1, 2, 3]))

    def test_two_hull_columns_sharing_a_phase(self):
        # theta = 4 >= pi at d = 4, with the phase 4 twice: the arc's endpoints, the partner of
        # the end in its two-dimensional eigenspace, and the other hull vertex, four columns
        # in all; inverse iteration puts two of them in one eigenspace, and the QR makes all
        # four orthonormal
        v = haar_unitary_from_rng(4, np.random.default_rng(6))
        u = v @ np.diag(np.exp(1j * np.array([0.0, 2.0, 4.0, 4.0]))) @ v.conj().T
        arc = smallest_arc(spectrum_of(u))
        assert arc.theta == pytest.approx(4.0, abs=1e-12) and arc.start != arc.end
        shared = [k for k, p in enumerate(spectrum_of(u).phases) if abs(p - 4.0) <= 1e-12]
        assert len(shared) == 2 and arc.end in shared
        indices = [arc.start, *shared, 6 - arc.start - sum(shared)]
        assert_eigenvectors(u, *vectors_of(u, indices))
        pair = pair_of(u)
        for t in (1, 2, 3):
            overlap = simulate_parallel(pair, build_parallel(pair, t)).final_overlap
            assert overlap <= 1e-12

    def test_endpoints_a_billionth_apart(self):
        # the two eigenvalues lie 1e-9 apart: each solve shrinks the other's share by only
        # about 1e-3, yet the residuals stay at rounding size, and so does the QR's pair
        v = haar_unitary_from_rng(3, np.random.default_rng(7))
        for d in (2, 3):
            u = v[:d, :d] if d == 3 else haar_unitary_from_rng(2, np.random.default_rng(8))
            u = u @ np.diag(np.exp(1j * np.array([0.3, 0.3 + 1e-9, 2.0][:d]))) @ u.conj().T
            arc = smallest_arc(spectrum_of(u))
            vectors, phases = vectors_of(u, [arc.start, arc.end])
            resid = u @ vectors - vectors * np.exp(1j * phases)
            assert np.max(np.linalg.norm(resid, axis=0)) <= 1e-14
            assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(2))) <= 1e-14

    def test_rejects_non_unitary(self):
        with pytest.raises(DomainError, match="u2 is not unitary"):
            spectrum_of(np.diag([1.0, 0.5]))

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
    def test_phases_equal_eigvals(self, d):
        # each phase within 1e-13 of one of np.linalg.eigvals', on the circle, and each of
        # those within 1e-13 of a phase: Haar spectra are simple, so the matching is 1:1
        rng = np.random.default_rng([d, 15])
        u1, u2 = haar_unitary_from_rng(d, rng), haar_unitary_from_rng(d, rng)
        reference = np.angle(np.linalg.eigvals(u1.conj().T @ u2))
        phases = relative_spectrum(UnitaryPair.of(u1, u2)).phases
        gaps = np.abs(np.angle(np.exp(1j * (phases[:, None] - reference[None, :]))))
        assert gaps.min(axis=1).max() <= 1e-13 and gaps.min(axis=0).max() <= 1e-13

    @pytest.mark.parametrize("d", [32, 64, 256])
    def test_near_unitary_input_is_read_to_its_own_accuracy(self, d):
        # two inputs that require_unitary accepts: a clock matrix scaled by 1 + 4e-11 (defect
        # 8e-11) and a Haar unitary written out to 12 decimals. Near -1 the Cayley map
        # magnifies their defect by up to 2(2d/pi)^2, past EIGEN_TOL from d = 32; taken back
        # to A's scale it passes, and the phases stay within 1e-13 of np.linalg.eigvals'
        clock = np.diag((1 + 4e-11) * np.exp(2j * np.pi * np.arange(d) / d))
        u = haar_unitary_from_rng(d, np.random.default_rng([d, 27]))
        for u2 in (clock, np.round(u.real, 12) + 1j * np.round(u.imag, 12)):
            reference = np.angle(np.linalg.eigvals(u2))
            phases = spectrum_of(u2).phases
            gaps = np.abs(np.angle(np.exp(1j * (phases[:, None] - reference[None, :]))))
            assert gaps.min(axis=1).max() <= 1e-13 and gaps.min(axis=0).max() <= 1e-13

    def test_spectrum_loads_no_scipy(self):
        script = ("import sys, numpy as np, qudisc; "
                  "pair = qudisc.UnitaryPair.of(np.eye(2), np.diag([1, 1j])); "
                  "qudisc.relative_spectrum(pair); qudisc.build_parallel(pair, 2); "
                  "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
                  "assert not loaded, loaded")
        # the qudisc under test, whether a checkout's src or site-packages
        env = dict(os.environ, PYTHONPATH=str(Path(linalg.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_non_unitary_input_is_refused_before_a_schur_failure(self, monkeypatch):
        patch_lapack(monkeypatch, "eigvalsh_lo", nan_eigenvalues)
        with pytest.raises(DomainError, match="u2 is not unitary within 1e-10"):
            spectrum_of(np.diag([1.0, 0.5]))

    def test_nan_eigenbasis_fails_the_accuracy_contract(self, monkeypatch):
        # a NaN defect compares False against the tolerance; the phases are found and kept
        # before the solve is patched, so only the inverse iteration's solves read NaN
        pair = pair_of(np.diag([1.0, -1.0]))
        relative_spectrum(pair)
        patch_lapack(monkeypatch, "solve", nan_result)
        with pytest.raises(NumericalError, match="eigenvectors failed accuracy contract"):
            linalg._eigenvectors(pair, [0, 1])
        with pytest.raises(NumericalError, match="eigenvectors failed accuracy contract"):
            build_parallel(pair, 2)

    @pytest.mark.parametrize("bad, error", [
        (np.array([np.eye(2)] * 2), ShapeError),
        (np.diag([1.0, np.nan]), DomainError),
    ])
    def test_stack_and_non_finite_inputs_are_refused(self, bad, error):
        message = {ShapeError: "dimension mismatch", DomainError: "u2 entries must be finite"}
        with pytest.raises(error, match=message[error]):
            spectrum_of(bad)

    def test_schur_failure_is_a_numerical_error(self, monkeypatch):
        patch_lapack(monkeypatch, "eigvalsh_lo", nan_eigenvalues)
        with pytest.raises(NumericalError, match="did not converge"):
            relative_spectrum(UnitaryPair.of(np.eye(2), np.diag([1.0, -1.0])))

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
    def test_no_eigenvector_is_formed_for_the_phases(self, d, monkeypatch):
        # the phases come from eigenvalues alone: LAPACK's eigh with vectors is never reached
        def unreachable(eigh):
            def call(*args, **kwargs):
                raise AssertionError("eigh_lo called")
            return call

        patch_lapack(monkeypatch, "eigh_lo", unreachable)
        rng = np.random.default_rng([d, 18])
        u1, u2 = haar_unitary_from_rng(d, rng), haar_unitary_from_rng(d, rng)
        spectrum = relative_spectrum(UnitaryPair.of(u1, u2))
        assert spectrum.phases.shape == (d,) and not hasattr(spectrum, "vectors")

    @pytest.mark.parametrize("entry, value", [
        ((0, 1), 1e-6),     # one off-diagonal entry: the Cayley transform is not Hermitian
        ((0, 1), np.nan),
        ((1, 1), np.nan),   # a diagonal entry, of which eigh would read only the real part
    ])
    def test_theta_only_schur_factor_fails_the_accuracy_contract(self, entry, value,
                                                                 monkeypatch):
        # the solve's result is (I + B)^{-1}(I - B), the transform H up to a factor i
        def injected(solve):
            def call(*args, **kwargs):
                k = solve(*args, **kwargs)
                k[entry] = value
                return k
            return call

        patch_lapack(monkeypatch, "solve", injected)
        with pytest.raises(NumericalError, match="accuracy contract"):
            relative_spectrum(UnitaryPair.of(np.eye(2), np.diag([1.0, -1.0])))


class TestHaarUnitary:
    def test_determinism(self):
        assert np.array_equal(
            haar_unitary_from_rng(2, np.random.default_rng(42)),
            haar_unitary_from_rng(2, np.random.default_rng(42)),
        )

    def test_output_is_unitary(self):
        for d, seed in [(1, 0), (2, 1), (5, 2), (9, 3)]:
            require_unitary(haar_unitary_from_rng(d, np.random.default_rng(seed)))

    def test_first_entry_moment(self):
        # E|u_00|^2 = 1/d for Haar measure; Monte Carlo at d=2
        rng = np.random.default_rng(2024)
        samples = [abs(haar_unitary_from_rng(2, rng)[0, 0]) ** 2 for _ in range(10_000)]
        assert abs(np.mean(samples) - 0.5) <= 0.02

    def test_zero_dim_raises(self):
        with pytest.raises(ValidationError):
            haar_unitary_from_rng(0, np.random.default_rng(1))

    @pytest.mark.parametrize("n, k, batch", [
        pytest.param(1, 1, (), id="1"),
        pytest.param(2, 2, (), id="2"),
        pytest.param(5, 5, (), id="5"),
        pytest.param(64, 64, (), id="64"),
        pytest.param(4, 2, (), id="4x2"),
        pytest.param(64, 2, (), id="64x2"),
        pytest.param(4096, 2, (), id="4096x2"),
        pytest.param(2, 2, (2,), id="pair-stack"),
        pytest.param(4, 2, (0,), id="empty-batch"),
    ])
    def test_bit_identical_to_the_square_qr_formula(self, n, k, batch):
        # the sampler calls numpy's QR kernels without np.linalg.qr's wrapper;
        # the formula it replaced, spelled out on np.linalg.qr, gives the same bits
        ref = np.random.default_rng([n, k, 9])
        g = ref.standard_normal((*batch, 2, n, k))
        q, r = np.linalg.qr(g[..., 0, :, :] + 1j * g[..., 1, :, :])
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        expected = q * (diag / np.abs(diag))[..., None, :]
        drawn = haar_isometry_from_rng(n, k, np.random.default_rng([n, k, 9]), batch)
        assert drawn.shape == (*batch, n, k)
        assert np.array_equal(drawn, expected)
        if n == k and not batch:
            assert np.array_equal(haar_unitary_from_rng(n, np.random.default_rng([n, k, 9])),
                                  expected)


    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_stacked_pair_equals_two_calls(self, d):
        # same unitaries bit for bit, and the stream left at the same place
        stacked, single = np.random.default_rng([d, 16]), np.random.default_rng([d, 16])
        u1, u2 = haar_unitary_from_rng(d, stacked, (2,))
        assert np.array_equal(u1, haar_unitary_from_rng(d, single))
        assert np.array_equal(u2, haar_unitary_from_rng(d, single))
        assert stacked.random() == single.random()

    @pytest.mark.parametrize("n", [4, 16, 64])
    @pytest.mark.parametrize("queries", [0, 1, 3, 7])
    def test_a_search_restarts_stack_equals_one_unitary_per_interleaver(self, n, queries):
        # the search draws a restart's T+1 Haar interleavers in one call
        stacked, single = np.random.default_rng([n, queries]), np.random.default_rng([n, queries])
        ws = haar_unitary_from_rng(n, stacked, (queries + 1,))
        assert np.array_equal(ws, [haar_unitary_from_rng(n, single) for _ in range(queries + 1)])
        assert stacked.random() == single.random()


class TestHaarIsometry:
    def test_columns_are_orthonormal(self):
        rng = np.random.default_rng(12)
        for n, k in [(1, 1), (4, 2), (64, 2), (9, 9)]:
            v = haar_isometry_from_rng(n, k, rng)
            assert v.shape == (n, k)
            assert np.max(np.abs(v.conj().T @ v - np.eye(k))) <= 1e-12

    def test_column_moments_match_haar(self):
        # E|v_00|^2 = 1/n and E|v_00|^2 |v_01|^2 = 1/(n(n+1)) for the first two Haar columns
        rng = np.random.default_rng(13)
        v = np.array([haar_isometry_from_rng(3, 2, rng)[0] for _ in range(20_000)])
        p = np.abs(v) ** 2
        assert abs(np.mean(p[:, 0]) - 1 / 3) <= 0.01
        assert abs(np.mean(p[:, 0] * p[:, 1]) - 1 / 12) <= 0.005

    @pytest.mark.parametrize("n, batch", [(4, (5,)), (64, (3,)), (9, (2, 3)), (4, (0,))])
    def test_batch_equals_one_call_per_isometry(self, n, batch):
        # same isometries bit for bit, and the stream left at the same place
        batched, single = np.random.default_rng([n, 14]), np.random.default_rng([n, 14])
        v = haar_isometry_from_rng(n, 2, batched, batch)
        assert v.shape == (*batch, n, 2)
        for index in np.ndindex(*batch):
            assert np.array_equal(v[index], haar_isometry_from_rng(n, 2, single))
        assert batched.random() == single.random()

    @pytest.mark.parametrize("n, k", [(0, 1), (3, 0), (3, 4)])
    def test_bad_shape_raises(self, n, k):
        with pytest.raises(ValidationError):
            haar_isometry_from_rng(n, k, np.random.default_rng(1))

    @pytest.mark.parametrize("draw, message", [
        # asked the generator for a (2, 5000, 5000) Gaussian stack
        (lambda rng: haar_unitary_from_rng(5000, rng), "dimension 5000 exceeds cap"),
        # asked it for 2.56e11 entries
        (lambda rng: haar_isometry_from_rng(64, 2, rng, (10**9,)), "a Haar draw needs"),
        (lambda rng: haar_unitary_from_rng(4, rng, (2**20 + 1,)), "a Haar draw needs"),
        # asked it for 1e9 Gaussians twice
        (lambda rng: random_state_from_rng(10**9, rng), "state dimension 1000000000 exceeds cap"),
    ], ids=["dim", "batch", "one-past-the-cap", "state"])
    def test_capped_before_the_stream_is_touched(self, draw, message):
        with pytest.raises(CapacityError, match=message):
            draw(_StubGenerator())

    @pytest.mark.parametrize("draw, message", [
        (lambda rng: haar_unitary_from_rng(2.5, rng), "unitary dimension must be an integer"),
        (lambda rng: haar_unitary_from_rng(True, rng), "unitary dimension must be an integer"),
        (lambda rng: random_state_from_rng(2.5, rng), "state dimension must be an integer"),
        (lambda rng: haar_isometry_from_rng(4, 2.0, rng), "column count must be an integer"),
        (lambda rng: haar_unitary_from_rng(2, rng, (True,)), "batch size must be an integer"),
    ], ids=["unitary-float", "unitary-bool", "state-float", "isometry-float", "batch-bool"])
    def test_counts_must_be_integers(self, draw, message):
        # numpy's own refusal was an untyped TypeError, raised from the stream
        with pytest.raises(ValidationError, match=message):
            draw(_StubGenerator())

    @pytest.mark.parametrize("draw, message", [
        # was numpy's untyped ValueError, raised from the stream
        (lambda rng: haar_isometry_from_rng(4, 2, rng, (-1,)), "batch size must be >= 0, got -1"),
        (lambda rng: haar_isometry_from_rng(0, 1, rng), "isometry dimension must be >= 1, got 0"),
        (lambda rng: haar_isometry_from_rng(3, 0, rng), "column count must be >= 1, got 0"),
        (lambda rng: haar_isometry_from_rng(3, 4, rng), "isometry dimension must be >= 4, got 3"),
        (lambda rng: haar_unitary_from_rng(0, rng), "unitary dimension must be >= 1, got 0"),
        (lambda rng: random_state_from_rng(0, rng), "state dimension must be >= 1, got 0"),
        (lambda rng: simulate_random(_PAIR, 0, 1, rng), "ancilla_dim must be >= 1, got 0"),
        (lambda rng: simulate_random(_PAIR, 2, -1, rng), "queries must be >= 0, got -1"),
        (lambda rng: build_parallel(_PAIR, 0), "copy count must be >= 1, got 0"),
        (lambda rng: SearchConfig(queries=2, restarts=0), "restarts must be >= 1, got 0"),
        (lambda rng: SearchConfig(queries=-1), "queries must be >= 0, got -1"),
        (lambda rng: CampaignConfig(0, 2, (1, 1), 1), "instances must be >= 1, got 0"),
        (lambda rng: CampaignConfig(1, 1, (1, 1), 1), "dim must be >= 2, got 1"),
        (lambda rng: CampaignConfig(1, 2, (-1, 1), 1), r"t_range\[0\] must be >= 0, got -1"),
        (lambda rng: CampaignConfig(1, 2, (3, 1), 1), r"t_range\[1\] must be >= 3, got 1"),
        (lambda rng: Protocol(0, 1, 0, [np.eye(0)], np.ones(0)), "system_dim must be >= 1, got 0"),
        (lambda rng: matrix_from_obj({"dim": 0, "entries": []}), "matrix: dim must be >= 1, got 0"),
    ], ids=["batch", "isometry-n", "isometry-k", "k-above-n", "unitary", "state",
            "ancilla", "queries", "copies", "restarts", "search-queries", "instances",
            "campaign-dim", "t-range-lo", "t-range-hi", "protocol", "matrix-file"])
    def test_counts_below_their_floor_are_refused_alike(self, draw, message):
        # one ValidationError form for every count at every entry; draws refuse it unread
        with pytest.raises(ValidationError, match=message):
            draw(_StubGenerator())

    @pytest.mark.parametrize("d, queries", [(2, 2**20 - 1), (64, 0)])
    def test_every_search_start_the_size_rule_accepts_is_drawn(self, d, queries):
        # the search's Haar start is (T+1) n x n unitaries, the very entries search_size caps
        n = builder.search_size(d, queries)
        with pytest.raises(_StreamReached):
            haar_unitary_from_rng(n, _StubGenerator(), (queries + 1,))


_PAIR = UnitaryPair.of(np.eye(2), np.diag([1.0, 1j]))


class _StreamReached(Exception):
    pass


class _StubGenerator:
    """A generator whose stream raises when it is first drawn from, so nothing is allocated."""

    def standard_normal(self, *args, **kwargs):
        raise _StreamReached


def test_unitaries_preserve_norm():
    rng = np.random.default_rng(8)
    for _ in range(50):
        d = int(rng.integers(2, 8))
        u = haar_unitary_from_rng(d, rng)
        s = random_state_from_rng(d, rng)
        assert abs(np.linalg.norm(u @ s) - 1.0) <= 1e-10


@pytest.mark.parametrize("dim", [1, 4, 4096])
def test_random_state_is_normalized_as_np_linalg_norm_does(dim):
    ref = np.random.default_rng([dim, 10])
    v = ref.standard_normal(dim) + 1j * ref.standard_normal(dim)
    assert np.array_equal(random_state_from_rng(dim, np.random.default_rng([dim, 10])),
                          v / np.linalg.norm(v))


def test_wrap_phase_folds_endpoint():
    assert wrap_phase(np.array([-1e-18]))[0] == 0.0
    assert wrap_phase(np.array([TWO_PI]))[0] == 0.0
    assert abs(wrap_phase(np.array([-np.pi / 2]))[0] - 1.5 * np.pi) <= 1e-15


def test_wrap_phase_keeps_a_scalar_shape():
    # a 0-d input became a numpy scalar, and the endpoint fold could not assign into it
    assert wrap_phase(-1e-300) == 0.0
    assert wrap_phase(7.0) == 7.0 - TWO_PI
    assert wrap_phase(7.0).shape == ()
    assert wrap_phase(np.zeros((2, 3))).shape == (2, 3)


class TestUnitaryPair:
    def test_checks_at_construction(self):
        with pytest.raises(DomainError):
            UnitaryPair.of(np.eye(2), np.diag([1.0, 0.5]))
        with pytest.raises(ShapeError):
            UnitaryPair.of(np.eye(2), np.eye(3))

    def test_spectrum_is_decomposed_once_and_kept(self, monkeypatch):
        rng = np.random.default_rng(60)
        u1, u2 = haar_unitary_from_rng(3, rng), haar_unitary_from_rng(3, rng)
        eigenphases, eigenvectors = linalg._eigenphases, linalg._eigenvectors
        calls = {"phases": 0, "vectors": 0}

        def counted_phases(a):
            calls["phases"] += 1
            return eigenphases(a)

        def counted_vectors(pair, indices):
            calls["vectors"] += 1
            return eigenvectors(pair, indices)

        monkeypatch.setattr(linalg, "_eigenphases", counted_phases)
        monkeypatch.setattr(builder, "_eigenvectors", counted_vectors)
        pair = UnitaryPair.of(u1, u2)
        spectrum = relative_spectrum(pair)
        assert relative_spectrum(pair) is spectrum
        assert calls == {"phases": 1, "vectors": 0}
        # the parallel plan reads the kept phases, then asks for its few eigenvectors once
        plan = build_parallel(pair, 3)
        assert relative_spectrum(pair) is spectrum
        assert calls == {"phases": 1, "vectors": 1}
        assert plan.eigenvectors.shape[1] <= 4
        # a fresh pair decomposes again, to the same phases
        assert np.array_equal(relative_spectrum(UnitaryPair.of(u1, u2)).phases, spectrum.phases)
        assert calls == {"phases": 2, "vectors": 1}

    def test_product_of_checked_unitaries_is_not_checked_again(self):
        # each factor's defect is 9.0e-11, within UNITARY_TOL; U1†U2's is 1.8e-10, beyond it
        u1 = np.diag([1 + 0.45e-10, 1.0])
        u2 = np.diag([1 + 0.45e-10, 1j])
        pair = UnitaryPair.of(u1, u2)
        assert np.array_equal(relative_spectrum(pair).phases, [0.0, np.pi / 2])
        # the plan's eigenvectors are held to their contract on the unchecked product too
        assert build_parallel(pair, 1).eigenvectors.shape == (2, 2)
        # a matrix handed in alone is checked: a pair made of the product refuses it
        with pytest.raises(DomainError, match="defect 1.800e-10"):
            UnitaryPair.of(np.eye(2), u1.conj().T @ u2)

    def test_stands_in_for_both_unitaries(self):
        # the three calls the benchmark's workloads make with two matrices, bit for bit as
        # the pair form; no other function takes them
        rng = np.random.default_rng(61)
        u1, u2 = haar_unitary_from_rng(2, rng), haar_unitary_from_rng(2, rng)
        pair = UnitaryPair.of(u1, u2)
        assert np.array_equal(linalg.relative_spectrum(u1, u2).phases,
                              relative_spectrum(pair).phases)
        cfg = SearchConfig(queries=2, restarts=2, max_iterations=10, seed=3)
        by_matrices = builder.optimize_protocol(u1, u2, cfg)
        by_pair = optimize_protocol(pair, cfg)
        assert by_matrices.overlap == by_pair.overlap
        assert by_matrices.histories == by_pair.histories
        assert np.array_equal(by_matrices.protocol.interleavers, by_pair.protocol.interleavers)
        assert np.array_equal(by_matrices.protocol.probe, by_pair.protocol.probe)
        assert np.array_equal(by_matrices.trace.states, by_pair.trace.states)
        trace = protocol_mod.run_protocol(u1, u2, by_matrices.protocol)
        assert np.array_equal(trace.states, run_protocol(pair, by_pair.protocol).states)
        plan = build_parallel(pair, 3)
        calls = [lambda: build_parallel(u1, u2, 3), lambda: simulate_parallel(u1, u2, plan),
                 lambda: simulate_random(u1, u2, 2, 3, np.random.default_rng(5))]
        for call in calls:
            with pytest.raises(TypeError, match="positional arguments but"):
                call()

    def test_shim_serves_only_the_benchmarks_calls(self):
        # pair_args is called once in each of these three functions and nowhere else
        calls = []
        for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            enclosing = {}  # node -> name of its innermost function; ast.walk goes outside in
            for fn in ast.walk(tree):
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    for node in ast.walk(fn):
                        enclosing[node] = getattr(fn, "name", "<lambda>")
            calls += [(path.stem, enclosing.get(node)) for node in ast.walk(tree)
                      if isinstance(node, ast.Call)
                      and "pair_args" in (getattr(node.func, "id", None),
                                          getattr(node.func, "attr", None))]
        assert sorted(calls) == [("builder", "optimize_protocol"), ("linalg", "relative_spectrum"),
                                 ("protocol", "run_protocol")]

    def test_members_are_views_of_the_one_stack(self):
        pair = UnitaryPair.of(np.eye(2), np.diag([1.0, -1.0]))
        assert pair.unitaries.shape == (2, 2, 2)
        assert np.shares_memory(pair.u1, pair.unitaries)
        assert np.shares_memory(pair.u2, pair.unitaries)
        assert np.array_equal(pair.u2, np.diag([1.0, -1.0]))

    def test_spectrum_keeps_its_arc(self):
        rng = np.random.default_rng(62)
        pair = UnitaryPair.of(haar_unitary_from_rng(4, rng), haar_unitary_from_rng(4, rng))
        arc = smallest_arc(relative_spectrum(pair))
        assert smallest_arc(relative_spectrum(pair)) is arc

    def test_one_argument_too_many(self):
        pair = UnitaryPair.of(np.eye(2), np.diag([1.0, -1.0]))
        with pytest.raises(TypeError):
            build_parallel(pair, 3, 4)

    def test_a_missing_argument_fails_at_the_call(self):
        u1, u2 = np.eye(2), np.diag([1.0, -1.0])
        pair = UnitaryPair.of(u1, u2)
        calls = [lambda: run_protocol(pair), lambda: simulate_parallel(pair),
                 lambda: optimize_protocol(pair), lambda: simulate_random(pair, 2, 4),
                 lambda: build_parallel(pair), lambda: relative_spectrum(u1)]
        for call in calls:
            with pytest.raises(TypeError, match="missing 1 required"):
                call()
