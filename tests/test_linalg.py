import numpy as np
import pytest
import scipy.linalg

from qudisc import (
    DIM_CAP,
    CapacityError,
    DomainError,
    NumericalError,
    ShapeError,
    UnitaryPair,
    build_parallel,
    eigen_system,
    haar_unitary_from_rng,
    relative_spectrum,
    run_protocol,
    simulate_parallel,
    simulate_random,
)
from qudisc import linalg
from qudisc.geometry import smallest_arc
from qudisc.protocol import Protocol
from qudisc.linalg import (
    TWO_PI,
    as_complex_matrix,
    as_state,
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


class TestDimCap:
    def test_state_above_cap_rejected(self):
        with pytest.raises(CapacityError):
            as_state(np.ones(5000))
        n = DIM_CAP + 1
        with pytest.raises(CapacityError):
            require_normalized(np.ones(n) / np.sqrt(n))
        assert as_state(np.ones(DIM_CAP)).shape == (DIM_CAP,)

    def test_matrix_above_cap_rejected_before_reading_entries(self):
        # a zero-stride view: the cap must reject it before the finiteness scan
        big = np.broadcast_to(np.complex128(np.nan), (DIM_CAP + 1, DIM_CAP + 1))
        with pytest.raises(CapacityError):
            as_complex_matrix(big)
        with pytest.raises(CapacityError):
            require_unitary(big)


class TestEigenSystem:
    def test_pauli_z(self):
        spec = eigen_system(np.diag([1.0, -1.0]))
        assert np.allclose(spec.phases, [0.0, np.pi], atol=1e-12)

    def test_hadamard(self):
        # roots of the characteristic polynomial lambda^2 - 1
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        spec = eigen_system(h)
        assert np.allclose(spec.phases, [0.0, np.pi], atol=1e-10)

    def test_identity_three(self):
        spec = eigen_system(np.eye(3))
        # compare on the circle: 0 and 2*pi are the same point
        dist = np.minimum(spec.phases, TWO_PI - spec.phases)
        assert np.all(dist <= 1e-10)

    def test_phases_sorted_in_range(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            spec = eigen_system(haar_unitary_from_rng(5, rng))
            assert np.all(np.diff(spec.phases) >= 0)
            assert np.all((spec.phases >= 0) & (spec.phases < TWO_PI))

    def test_eigen_equation_and_orthonormality(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            u = haar_unitary_from_rng(6, rng)
            spec = eigen_system(u)
            resid = u @ spec.vectors - spec.vectors * np.exp(1j * spec.phases)
            assert np.max(np.linalg.norm(resid, axis=0)) <= 1e-8
            gram = spec.vectors.conj().T @ spec.vectors
            assert np.max(np.abs(gram - np.eye(6))) <= 1e-8

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = haar_unitary_from_rng(4, rng)  # Haar spectra are simple a.s.
            spec = eigen_system(u)
            rebuilt = (spec.vectors * np.exp(1j * spec.phases)) @ spec.vectors.conj().T
            assert np.max(np.abs(rebuilt - u)) <= 1e-7

    def test_degenerate_spectrum_keeps_orthonormal_basis(self):
        u = np.kron(np.diag([1.0, -1.0]), np.eye(2))  # each eigenvalue twice
        spec = eigen_system(u)
        gram = spec.vectors.conj().T @ spec.vectors
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-8

    def test_rejects_non_unitary(self):
        with pytest.raises(DomainError):
            eigen_system(np.diag([1.0, 0.5]))

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
    def test_direct_schur_equals_scipy_bit_for_bit(self, d):
        u = haar_unitary_from_rng(d, np.random.default_rng([d, 15]))
        t, q = scipy.linalg.schur(u, output="complex")
        direct = linalg._gees(linalg._no_sort, u, lwork=linalg._gees_lwork(d))
        assert np.array_equal(direct[0], t) and np.array_equal(direct[3], q)
        # eigen_system as it read on scipy.linalg.schur, spelled out
        phases = wrap_phase(np.angle(np.diag(t)))
        order = np.argsort(phases, kind="stable")
        spec = eigen_system(u)
        assert np.array_equal(spec.phases, phases[order])
        assert np.array_equal(spec.vectors, q[:, order])

    def test_schur_failure_is_a_numerical_error(self, monkeypatch):
        gees = linalg._gees

        def failing(*args, **kwargs):
            return (*gees(*args, **kwargs)[:-1], 1)  # zgees: the QR algorithm did not converge

        monkeypatch.setattr(linalg, "_gees", failing)
        with pytest.raises(NumericalError, match="did not converge"):
            eigen_system(np.diag([1.0, -1.0]))


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
        with pytest.raises(DomainError):
            haar_unitary_from_rng(0, np.random.default_rng(1))

    @pytest.mark.parametrize("d", [1, 2, 5, 64])
    def test_bit_identical_to_the_square_qr_formula(self, d):
        # the dense formula the isometry sampler replaced, spelled out
        ref = np.random.default_rng([d, 9])
        z = ref.standard_normal((d, d)) + 1j * ref.standard_normal((d, d))
        q, r = np.linalg.qr(z)
        expected = q * (np.diag(r) / np.abs(np.diag(r)))
        assert np.array_equal(haar_unitary_from_rng(d, np.random.default_rng([d, 9])), expected)


    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_stacked_pair_equals_two_calls(self, d):
        # same unitaries bit for bit, and the stream left at the same place
        stacked, single = np.random.default_rng([d, 16]), np.random.default_rng([d, 16])
        u1, u2 = haar_unitary_from_rng(d, stacked, (2,))
        assert np.array_equal(u1, haar_unitary_from_rng(d, single))
        assert np.array_equal(u2, haar_unitary_from_rng(d, single))
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
        with pytest.raises(DomainError):
            haar_isometry_from_rng(n, k, np.random.default_rng(1))


def test_unitaries_preserve_norm():
    rng = np.random.default_rng(8)
    for _ in range(50):
        d = int(rng.integers(2, 8))
        u = haar_unitary_from_rng(d, rng)
        s = random_state_from_rng(d, rng)
        assert abs(np.linalg.norm(u @ s) - 1.0) <= 1e-10


def test_wrap_phase_folds_endpoint():
    assert wrap_phase(np.array([-1e-18]))[0] == 0.0
    assert wrap_phase(np.array([TWO_PI]))[0] == 0.0
    assert abs(wrap_phase(np.array([-np.pi / 2]))[0] - 1.5 * np.pi) <= 1e-15


class TestUnitaryPair:
    def test_checks_at_construction(self):
        with pytest.raises(DomainError):
            UnitaryPair.of(np.eye(2), np.diag([1.0, 0.5]))
        with pytest.raises(ShapeError):
            UnitaryPair.of(np.eye(2), np.eye(3))

    def test_spectrum_is_decomposed_once_and_kept(self):
        rng = np.random.default_rng(60)
        u1, u2 = haar_unitary_from_rng(3, rng), haar_unitary_from_rng(3, rng)
        pair = UnitaryPair.of(u1, u2)
        assert relative_spectrum(pair) is pair.spectrum
        assert np.array_equal(pair.spectrum.phases, relative_spectrum(u1, u2).phases)

    def test_stands_in_for_both_unitaries(self):
        rng = np.random.default_rng(61)
        u1, u2 = haar_unitary_from_rng(2, rng), haar_unitary_from_rng(2, rng)
        pair = UnitaryPair.of(u1, u2)
        plan = build_parallel(u1, u2, 3)
        assert np.array_equal(build_parallel(pair, 3).weights, plan.weights)
        assert np.array_equal(build_parallel(pair, t=3).weights, plan.weights)
        assert simulate_parallel(pair, plan).distances == simulate_parallel(u1, u2, plan).distances
        protocol = Protocol(2, 1, 1, [np.eye(2), np.eye(2)], np.array([1.0, 0.0]))
        assert run_protocol(pair, protocol).distances == run_protocol(u1, u2, protocol).distances
        by_matrices = simulate_random(u1, u2, 2, 3, np.random.default_rng(5)).distances
        assert simulate_random(pair, 2, 3, np.random.default_rng(5)).distances == by_matrices
        assert simulate_random(pair, 2, queries=3, rng=np.random.default_rng(5)).distances \
            == by_matrices

    def test_spectrum_keeps_its_arc(self):
        rng = np.random.default_rng(62)
        pair = UnitaryPair.of(haar_unitary_from_rng(4, rng), haar_unitary_from_rng(4, rng))
        arc = smallest_arc(pair.spectrum)
        assert smallest_arc(relative_spectrum(pair)) is arc
        # the spectrum's phases are taken as they are: same bits as from the bare phases
        assert arc == smallest_arc(list(pair.spectrum.phases))

    def test_one_argument_too_many(self):
        pair = UnitaryPair.of(np.eye(2), np.diag([1.0, -1.0]))
        with pytest.raises(TypeError):
            build_parallel(pair, 3, 4)
