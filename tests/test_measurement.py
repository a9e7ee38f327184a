import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qudisc import (
    DIM_CAP,
    DomainError,
    Povm,
    ShapeError,
    StatePair,
    ValidationError,
    evaluate_povm,
    helstrom_error,
    helstrom_povm,
    unambiguous_povm,
)
from qudisc.campaign import measure_pair
from qudisc.protocol import record_trace
from qudisc.tolerances import COINCIDE_TOL, POVM_TOL

from .oracles import (born_numpy, dense_effect, random_state, random_two_effect_povm,
                      state_pair_at_angle, state_pair_with_overlap, validate_numpy)

E0 = np.array([1, 0, 0, 0], dtype=complex)
E1 = np.array([0, 1, 0, 0], dtype=complex)
COS8 = math.cos(math.pi / 8)
SIN8 = math.sin(math.pi / 8)
# An error budget counts as met when its margin is at least -BUDGET_TOL.
BUDGET_TOL = 1e-9


def achieved_error(outcome):
    return 1.0 - min(outcome.p_correct_1, outcome.p_correct_2)


def misidentification(outcome):
    """Largest chance that one state triggers the other state's identify outcome."""
    return max(
        0.0,
        1.0 - outcome.p_correct_1 - outcome.p_inconclusive_1,
        1.0 - outcome.p_correct_2 - outcome.p_inconclusive_2,
    )


def inconclusive(outcome):
    return max(outcome.p_inconclusive_1, outcome.p_inconclusive_2)


class TestHelstrom:
    def test_orthogonal_pair_is_errorless(self):
        pair = StatePair.of(E0, E1)
        out = evaluate_povm(helstrom_povm(pair), pair)
        assert achieved_error(out) == pytest.approx(0.0, abs=1e-12)
        assert out.p_s == pytest.approx(2.0, abs=1e-12)

    def test_identical_pair_is_a_coin_flip(self):
        pair = StatePair.of(E0, E0)
        out = evaluate_povm(helstrom_povm(pair), pair)
        assert out.p_correct_1 == pytest.approx(0.5, abs=1e-12)
        assert out.p_correct_2 == pytest.approx(0.5, abs=1e-12)
        assert achieved_error(out) == pytest.approx(0.5, abs=1e-12)

    def test_cos_pi_eighth_overlap(self):
        rng = np.random.default_rng(31)
        phi1, phi2 = state_pair_with_overlap(COS8, 4, rng)
        pair = StatePair.of(phi1, phi2)
        out = evaluate_povm(helstrom_povm(pair), pair)
        assert achieved_error(out) == pytest.approx((1 - SIN8) / 2, abs=1e-12)
        assert out.p_s == pytest.approx(1 + SIN8, abs=1e-12)

    def test_closed_form_error_helper(self):
        assert helstrom_error(0.0) == 0.0
        assert helstrom_error(1.0) == pytest.approx(0.5)
        assert helstrom_error(COS8) == pytest.approx((1 - SIN8) / 2, abs=1e-15)

    def test_saturates_the_overlap_identity(self):
        # the achieved error makes |<phi1|phi2>| = 2 sqrt(eps (1 - eps)) an equality
        rng = np.random.default_rng(32)
        for _ in range(200):
            c = rng.uniform(0.0, 0.999)
            phi1, phi2 = state_pair_with_overlap(c, 4, rng)
            pair = StatePair.of(phi1, phi2)
            out = evaluate_povm(helstrom_povm(pair), pair)
            eps = achieved_error(out)
            assert 2.0 * math.sqrt(eps * (1.0 - eps)) == pytest.approx(c, abs=1e-9)
            assert out.p_s == pytest.approx(1.0 + math.sqrt(1.0 - c * c), abs=1e-9)

    def test_no_random_competitor_beats_the_bound(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            c = rng.uniform(0.0, 1.0)
            phi1, phi2 = state_pair_with_overlap(c, 4, rng)
            e1, e2 = random_two_effect_povm(4, rng)
            povm = Povm(effects=[e1, e2], labels=["identify_1", "identify_2"])
            out = evaluate_povm(povm, StatePair.of(phi1, phi2))
            assert out.p_s <= 1.0 + math.sqrt(1.0 - c * c) + 1e-7

    def test_dimension_mismatch(self):
        from qudisc import ShapeError

        with pytest.raises(ShapeError):
            helstrom_povm(StatePair.of(E0, np.array([1, 0], dtype=complex)))


class TestUnambiguous:
    def test_orthogonal_pair_never_inconclusive(self):
        pair = StatePair.of(E0, E1)
        povm = unambiguous_povm(pair)
        out = evaluate_povm(povm, pair)
        assert out.p_inconclusive_1 == pytest.approx(0.0, abs=1e-12)
        assert out.p_inconclusive_2 == pytest.approx(0.0, abs=1e-12)
        # the inconclusive effect vanishes on the span of the two states
        pi0 = dense_effect(povm, "inconclusive")
        assert np.linalg.norm(pi0 @ E0) <= 1e-10
        assert np.linalg.norm(pi0 @ E1) <= 1e-10

    def test_half_overlap(self):
        rng = np.random.default_rng(34)
        phi1, phi2 = state_pair_with_overlap(0.5, 4, rng)
        pair = StatePair.of(phi1, phi2)
        out = evaluate_povm(unambiguous_povm(pair), pair)
        assert out.p_inconclusive_1 == pytest.approx(0.5, abs=1e-12)
        assert out.p_inconclusive_2 == pytest.approx(0.5, abs=1e-12)

    def test_cos_pi_eighth(self):
        rng = np.random.default_rng(35)
        phi1, phi2 = state_pair_with_overlap(COS8, 4, rng)
        pair = StatePair.of(phi1, phi2)
        out = evaluate_povm(unambiguous_povm(pair), pair)
        assert out.p_inconclusive_1 == pytest.approx(COS8, abs=1e-12)

    def test_zero_misidentification(self):
        rng = np.random.default_rng(36)
        for _ in range(200):
            c = rng.uniform(0.0, 0.999)
            phi1, phi2 = state_pair_with_overlap(c, 5, rng)
            povm = unambiguous_povm(StatePair.of(phi1, phi2))
            mis_1 = float(np.real(np.vdot(phi2, dense_effect(povm, "identify_1") @ phi2)))
            mis_2 = float(np.real(np.vdot(phi1, dense_effect(povm, "identify_2") @ phi1)))
            assert abs(mis_1) <= 1e-10
            assert abs(mis_2) <= 1e-10

    def test_parallel_pair_rejected(self):
        with pytest.raises(DomainError):
            unambiguous_povm(StatePair.of(E0, E0 * np.exp(0.3j)))


class TestCoincidence:
    """StatePair's one rule decides whether two states coincide, for every measurement."""

    # passes the normalization check, yet <a|a> = 1 - 1.8e-10: a 1-D pair
    A = (1.0 - 0.9e-10) * E0

    def test_loose_states_are_checked_as_one_stack(self):
        with pytest.raises(DomainError, match=r"^state \(1\) amplitudes must be finite"):
            StatePair.of(E0, np.array([np.nan, 0, 0, 0]))
        with pytest.raises(ShapeError, match="expected two states"):
            StatePair.of(E0, np.array([E0]))

    def test_unambiguous_povm_refuses_exactly_the_one_dimensional_pair(self):
        with pytest.raises(DomainError, match="coincide"):
            unambiguous_povm(StatePair.of(self.A, self.A))

    def test_nearly_coinciding_pair_gets_an_unambiguous_povm(self):
        c = 1.0 - 1e-11
        phi2 = c * E0 + math.sqrt(1.0 - c * c) * E1
        pair = StatePair.of(E0, phi2)
        out = evaluate_povm(unambiguous_povm(pair), pair)
        assert misidentification(out) <= 1e-12
        assert abs(inconclusive(out) - c) <= 1e-12

    @pytest.mark.parametrize("n", [4, 64])
    def test_trace_overlap_and_measurements_agree_at_the_boundary(self, n):
        rng = np.random.default_rng(48)
        seen = set()
        # the orthogonal part sin(delta) runs over 0.5-2x COINCIDE_TOL
        for delta in np.arcsin(COINCIDE_TOL * np.linspace(0.5, 2.0, 61)):
            e1, phi2 = state_pair_at_angle(delta, n, rng)
            trace = record_trace(np.array([[e1, e1], [e1, phi2]]))
            coincide = trace.final.coincide
            assert trace.final.distance == trace.distances[-1]
            assert coincide == (trace.distances[-1] < 2.0 * COINCIDE_TOL)
            assert (measure_pair(trace.final)[1] is None) == coincide
            # |<a|b>| = cos(delta) rounds to within an ulp of 1 on both sides: only the rule makes it 1;
            # <a|b> is taken on the trace's rows, since vdot may round a strided e1 an ulp apart
            a, b = trace.states[:, -1]
            assert trace.final_overlap == (1.0 if coincide else min(1.0, abs(np.vdot(a, b))))
            seen.add(coincide)
        assert seen == {True, False}


class TestEvaluateAndCheck:
    def test_uniform_povm_is_a_coin_flip(self):
        half = np.eye(4, dtype=complex) / 2
        povm = Povm(effects=[half, half.copy()], labels=["identify_1", "identify_2"])
        out = evaluate_povm(povm, StatePair.of(E0, E1))
        assert out.p_correct_1 == pytest.approx(0.5)
        assert out.p_correct_2 == pytest.approx(0.5)

    def test_invalid_povm_reports_offending_effect(self):
        bad = Povm(
            effects=[np.eye(4, dtype=complex), np.eye(4, dtype=complex)],
            labels=["identify_1", "identify_2"],
        )
        with pytest.raises(ValidationError, match="identity"):
            evaluate_povm(bad, StatePair.of(E0, E1))
        negative = Povm(
            effects=[np.diag([1.5, 1, 1, 1]).astype(complex),
                     np.diag([-0.5, 0, 0, 0]).astype(complex)],
            labels=["identify_1", "identify_2"],
        )
        with pytest.raises(ValidationError, match="effect 1"):
            evaluate_povm(negative, StatePair.of(E0, E1))

    def test_bounded_budget_pass_and_fail(self):
        # the budget 1 - epsilon on both correct-identification probabilities
        pair = StatePair.of(E0, E1)
        out = evaluate_povm(helstrom_povm(pair), pair)
        margin = min(out.p_correct_1, out.p_correct_2) - 1.0
        assert margin >= -BUDGET_TOL
        assert margin == pytest.approx(0.0, abs=1e-12)

        rng = np.random.default_rng(37)
        phi1, phi2 = state_pair_with_overlap(COS8, 4, rng)
        pair = StatePair.of(phi1, phi2)
        out = evaluate_povm(helstrom_povm(pair), pair)
        assert achieved_error(out) == pytest.approx(0.30866, abs=1e-5)
        assert 0.25 - achieved_error(out) < -BUDGET_TOL  # fails epsilon = 0.25

    def test_one_sided_budget_saturation(self):
        rng = np.random.default_rng(38)
        phi1, phi2 = state_pair_with_overlap(0.5, 4, rng)
        pair = StatePair.of(phi1, phi2)
        out = evaluate_povm(unambiguous_povm(pair), pair)
        assert misidentification(out) <= BUDGET_TOL
        assert 0.5 - inconclusive(out) >= -BUDGET_TOL
        assert 0.5 - inconclusive(out) == pytest.approx(0.0, abs=1e-9)
        assert (0.5 - 1e-3) - inconclusive(out) < -BUDGET_TOL

    def test_one_sided_saturation_at_random_overlaps(self):
        # the inconclusive rate sits exactly at the overlap: budget c passes,
        # any budget below c by 1e-3 fails
        rng = np.random.default_rng(40)
        for _ in range(50):
            c = rng.uniform(1e-3, 0.99)
            phi1, phi2 = state_pair_with_overlap(c, 4, rng)
            pair = StatePair.of(phi1, phi2)
            out = evaluate_povm(unambiguous_povm(pair), pair)
            assert misidentification(out) <= BUDGET_TOL
            assert c - inconclusive(out) >= -BUDGET_TOL
            assert (c - 1e-3) - inconclusive(out) < -BUDGET_TOL


class TestPovmStructure:
    def test_label_checks(self):
        with pytest.raises(ValidationError):
            Povm(effects=[np.eye(2)], labels=["winner"])
        with pytest.raises(ValidationError):
            Povm(effects=[np.eye(2) / 2, np.eye(2) / 2], labels=["identify_1", "identify_1"])

    @pytest.mark.parametrize("effects", [
        [np.eye(2), np.eye(3)],
        [np.ones((2, 3)) / 2, np.ones((2, 3)) / 2],
        [np.eye(2) / 3, np.eye(2) / 3, np.eye(2) / 3],
    ], ids=["ragged", "non-square", "three-for-two-labels"])
    def test_effects_that_do_not_stack_are_refused_when_built(self, effects):
        # a ragged or non-square list was built, and refused only by validate
        with pytest.raises(ValidationError, match="effects must"):
            Povm(effects=effects, labels=["identify_1", "identify_2"])

    @pytest.mark.parametrize("rest", [[0.5 + 1j, 0.5], np.array([0.5 + 1j, 0.5]), ["a", "b"]],
                             ids=["complex", "complex-array", "text"])
    def test_weights_that_are_not_real_numbers_are_refused_when_built(self, rest):
        # numpy's TypeError and ValueError escaped untyped; a complex array lost its imaginary part
        with pytest.raises(ValidationError, match="rest must be real numbers"):
            Povm(effects=[np.eye(2) / 2, np.eye(2) / 2], labels=["identify_1", "identify_2"],
                 basis=np.eye(3)[:, :2], rest=rest)

    def test_ragged_basis_is_refused_when_built(self):
        # numpy's ValueError escaped untyped
        with pytest.raises(ValidationError, match="basis must be an n x 2 matrix"):
            Povm(effects=[np.eye(2) / 2, np.eye(2) / 2], labels=["identify_1", "identify_2"],
                 basis=[[1, 0], [0]])

    def test_one_string_of_labels_is_refused_when_built(self):
        # the string was split into characters and refused as "unknown outcome label 'i'"
        with pytest.raises(ValidationError, match="labels must be a sequence of outcome labels"):
            Povm(effects=[np.eye(2)], labels="identify_1")

    def test_basis_narrower_than_the_blocks_is_refused_when_built(self):
        with pytest.raises(ValidationError, match="basis must be an n x 2 matrix"):
            Povm(effects=[np.eye(2) / 2, np.eye(2) / 2], labels=["identify_1", "identify_2"],
                 basis=np.eye(3)[:, :1])

    def test_effects_are_one_stack(self):
        # the effects were a list, stacked again by every validate and every evaluation
        povm = Povm(effects=[np.eye(3) / 2, np.eye(3) / 2], labels=["identify_1", "identify_2"])
        assert isinstance(povm.effects, np.ndarray)
        assert povm.effects.shape == (2, 3, 3) and povm.effects.dtype == complex
        assert povm.labels == ("identify_1", "identify_2")
        pair = StatePair.of(*state_pair_with_overlap(0.5, 4, np.random.default_rng(38)))
        for built in (helstrom_povm(pair), unambiguous_povm(pair)):
            assert isinstance(built.effects, np.ndarray)
            assert built.effects.shape == (len(built.labels), 2, 2)

    def test_constructed_povms_validate(self):
        rng = np.random.default_rng(39)
        for _ in range(50):
            c = rng.uniform(0.0, 0.99)
            phi1, phi2 = state_pair_with_overlap(c, 4, rng)
            helstrom_povm(StatePair.of(phi1, phi2)).validate()
            unambiguous_povm(StatePair.of(phi1, phi2)).validate()


def _pair_cases(n, rng):
    """Random pairs of ambient dimension n, plus a parallel pair."""
    pairs = [(random_state(n, rng), random_state(n, rng)) for _ in range(5)]
    pairs += [state_pair_with_overlap(c, n, rng) for c in (0.0, 0.5, 0.999)]
    phi = random_state(n, rng)
    return [StatePair.of(*p) for p in pairs], StatePair.of(phi, phi * np.exp(0.7j))


def _outcome_tuple(out):
    return np.array([out.p_correct_1, out.p_correct_2, out.p_inconclusive_1,
                     out.p_inconclusive_2, out.p_s])


class TestSpanForm:
    @pytest.mark.parametrize("n", [4, 64])
    def test_dense_rebuild_is_the_reference(self, n):
        rng = np.random.default_rng(41 + n)
        pairs, parallel = _pair_cases(n, rng)
        cases = [(helstrom_povm(p), p) for p in pairs + [parallel]]
        cases += [(unambiguous_povm(p), p) for p in pairs]
        for povm, pair in cases:
            dense = Povm(effects=[dense_effect(povm, lab) for lab in povm.labels],
                         labels=povm.labels)
            assert dense.basis.shape == (n, n)
            dense.validate()
            span_out = _outcome_tuple(evaluate_povm(povm, pair))
            dense_out = _outcome_tuple(evaluate_povm(dense, pair))
            assert np.max(np.abs(span_out - dense_out)) <= 1e-12

    def test_blocks_stay_two_dimensional_at_the_cap(self):
        rng = np.random.default_rng(43)
        phi1, phi2 = state_pair_with_overlap(COS8, DIM_CAP, rng)
        tracemalloc.start()
        try:
            pair = StatePair.of(phi1, phi2)
            povms = [helstrom_povm(pair), unambiguous_povm(pair),
                     helstrom_povm(StatePair.of(phi1, -phi1))]
            outs = [evaluate_povm(p, pair) for p in povms[:2]]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * DIM_CAP * DIM_CAP // 100  # far below one n x n complex array
        for povm in povms:
            assert all(max(e.shape) <= 2 for e in povm.effects)
            assert povm.basis.shape[0] == DIM_CAP
        assert povms[2].effects[0].shape == (1, 1)
        assert achieved_error(outs[0]) == pytest.approx((1 - SIN8) / 2, abs=1e-12)
        assert inconclusive(outs[1]) == pytest.approx(COS8, abs=1e-12)

    def test_validate_rejects_bad_complement_weights(self):
        rng = np.random.default_rng(44)
        phi1, phi2 = state_pair_with_overlap(0.5, 4, rng)
        good = unambiguous_povm(StatePair.of(phi1, phi2))

        def with_rest(rest):
            return Povm(effects=good.effects, labels=good.labels, basis=good.basis, rest=rest)

        with pytest.raises(ValidationError, match=r"effect 2 \(inconclusive\).*negative"):
            with_rest([1.1, 0.0, -0.1]).validate()
        with pytest.raises(ValidationError, match="weights sum to 0.9"):
            with_rest([0.0, 0.0, 0.9]).validate()
        with pytest.raises(ValidationError, match="orthonormal"):
            Povm(effects=good.effects, labels=good.labels, basis=2 * good.basis,
                 rest=good.rest).validate()

    def test_validate_refuses_finite_weights_whose_sum_overflows(self):
        # the sum's overflow sent the search for a non-finite weight past the last one
        pair = StatePair.of(*state_pair_with_overlap(0.5, 3, np.random.default_rng(46)))
        good = helstrom_povm(pair)
        assert good.basis.shape == (3, 2)
        bad = Povm(effects=good.effects, labels=good.labels, basis=good.basis, rest=[1e308, 1e308])
        with pytest.raises(ValidationError, match="weights sum to inf"):
            bad.validate()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_validate_refuses_a_non_finite_two_by_two_block(self, value):
        pair = StatePair.of(*state_pair_with_overlap(0.5, 4, np.random.default_rng(45)))
        good = unambiguous_povm(pair)
        effects = [e.copy() for e in good.effects]
        effects[1][0, 1] = value
        with pytest.raises(ValidationError, match=r"effect 1 \(identify_2\) has non-finite"):
            Povm(effects=effects, labels=good.labels, basis=good.basis, rest=good.rest).validate()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_validate_refuses_a_non_finite_dense_effect(self, value):
        # a 3x3 effect used to reach eigvalsh, which raised LinAlgError on NaN
        effects = [np.eye(3) / 2, np.eye(3) / 2]
        effects[0][2, 2] = value
        with pytest.raises(ValidationError, match=r"effect 0 \(identify_1\) has non-finite"):
            Povm(effects=effects, labels=["identify_1", "identify_2"]).validate()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_validate_refuses_a_non_finite_complement_weight(self, value):
        pair = StatePair.of(*state_pair_with_overlap(0.5, 4, np.random.default_rng(46)))
        good = unambiguous_povm(pair)
        rest = np.array(good.rest)
        rest[2] = value
        with pytest.raises(ValidationError, match=r"effect 2 \(inconclusive\) has non-finite"):
            Povm(effects=good.effects, labels=good.labels, basis=good.basis, rest=rest).validate()

    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("scale, message", [(np.inf, "basis entries must be finite"),
                                                (1e160, "basis columns are not orthonormal"),
                                                (1e200, "basis columns are not orthonormal")])
    def test_validate_refuses_a_huge_basis_without_a_warning(self, column, scale, message):
        # a finite basis whose Gram overflowed warned, and passed when its defect read NaN
        pair = StatePair.of(*state_pair_with_overlap(0.5, 4, np.random.default_rng(47)))
        good = helstrom_povm(pair)
        basis = good.basis.copy()
        basis[2, column] *= scale
        with pytest.raises(ValidationError, match=message):
            Povm(effects=good.effects, labels=good.labels, basis=basis, rest=good.rest).validate()

    def test_validate_refuses_a_non_finite_basis(self):
        pair = StatePair.of(*state_pair_with_overlap(0.5, 4, np.random.default_rng(47)))
        good = helstrom_povm(pair)
        basis = good.basis.copy()
        basis[3, 1] = np.nan
        with pytest.raises(ValidationError, match="basis entries must be finite"):
            Povm(effects=good.effects, labels=good.labels, basis=basis, rest=good.rest).validate()


def _helstrom_reference(phi1, phi2):
    """Dense Helstrom effects from eigh: identify-2 projects on the negative eigenvector."""
    diff = np.outer(phi1, phi1.conj()) - np.outer(phi2, phi2.conj())
    _, vecs = np.linalg.eigh(diff)
    low = np.outer(vecs[:, 0], vecs[:, 0].conj())
    return [np.eye(phi1.size) - low, low]


def _unambiguous_reference(phi1, phi2):
    """Dense unambiguous effects from eigh: identify-i is 1/(1+c) times the projector
    on the null vector of the other state's projector, inside a QR basis of the span."""
    c = abs(np.vdot(phi1, phi2))
    span, _ = np.linalg.qr(np.column_stack([phi1, phi2]))
    effects = []
    for other in (phi2, phi1):
        y = span.conj().T @ other
        _, vecs = np.linalg.eigh(np.outer(y, y.conj()))
        u = span @ vecs[:, 0]
        effects.append(np.outer(u, u.conj()) / (1.0 + c))
    return effects + [np.eye(phi1.size) - effects[0] - effects[1]]


def _near_parallel(n):
    """Overlap 1 - 1e-9 in the standard frame, where both states are exact.

    In a random frame, the rounding of the embedding alone moves the true
    effects by about eps / sqrt(1 - c^2) ~ 5e-12, for any method.
    """
    c = 1.0 - 1e-9
    phi1, phi2 = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
    phi1[0] = 1.0
    phi2[0], phi2[1] = c * np.exp(0.3j), np.sqrt(1.0 - c * c) * np.exp(0.3j)
    return phi1, phi2


class TestTwoByTwoKernel:
    """The closed-form 2x2 blocks against dense eigh references, rebuilt through dense_effect."""

    @pytest.mark.parametrize("n", [4, 64])
    def test_blocks_match_the_eigh_reference(self, n):
        rng = np.random.default_rng(45 + n)
        pairs = [(random_state(n, rng), random_state(n, rng)) for _ in range(20)]
        pairs += [state_pair_with_overlap(0.0, n, rng), _near_parallel(n)]
        for phi1, phi2 in pairs:
            pair = StatePair.of(phi1, phi2)
            for povm, reference in ((helstrom_povm(pair), _helstrom_reference),
                                    (unambiguous_povm(pair), _unambiguous_reference)):
                assert all(e.shape == (2, 2) for e in povm.effects)
                for label, expected in zip(povm.labels, reference(phi1, phi2)):
                    assert np.abs(dense_effect(povm, label) - expected).max() <= 1e-12

    def test_parallel_pair_is_the_fair_coin(self):
        rng = np.random.default_rng(46)
        phi = random_state(4, rng)
        povm = helstrom_povm(StatePair.of(phi, phi * np.exp(0.7j)))
        assert [e.shape for e in povm.effects] == [(1, 1), (1, 1)]
        for label in povm.labels:
            assert np.abs(dense_effect(povm, label) - np.eye(4) / 2).max() <= 1e-12

    def test_span_and_dense_forms_fail_validation_alike(self):
        """The closed-form block checks and the batched eigvalsh give one verdict."""
        rng = np.random.default_rng(47)
        phi1, phi2 = state_pair_with_overlap(0.4, 4, rng)
        good = unambiguous_povm(StatePair.of(phi1, phi2))
        skew = np.array([[0.0, 1e-6], [0.0, 0.0]], dtype=complex)
        cases = [
            ([good.effects[0] - 2e-6 * np.eye(2), good.effects[1],
              good.effects[2] + 2e-6 * np.eye(2)], "effect 0 .* negative eigenvalue -2.000e-06"),
            ([good.effects[0] + 2e-6 * np.eye(2), good.effects[1],
              good.effects[2] - 2e-6 * np.eye(2)], "effect 2 .* negative eigenvalue -2.000e-06"),
            ([good.effects[0] + skew, good.effects[1], good.effects[2] - skew],
             "effect 0 .* not Hermitian"),
            ([good.effects[0] + 1e-6 * np.eye(2), good.effects[1], good.effects[2]],
             "effects sum to identity only within"),
        ]
        for effects, message in cases:
            span = Povm(effects=effects, labels=good.labels, basis=good.basis, rest=good.rest)
            dense = Povm(effects=[dense_effect(span, lab) for lab in span.labels],
                         labels=span.labels)
            for povm in (span, dense):
                with pytest.raises(ValidationError, match=message):
                    povm.validate()


def _verdict(check) -> str | None:
    """The message of the ValidationError a check raises, or None when it passes."""
    try:
        check()
    except ValidationError as exc:
        return str(exc)
    return None


SPAN_DEFECTS = ("none", "non_finite_entry", "nan_weight", "nan_basis", "scaled_basis", "skew",
                "negative_eigenvalue", "negative_weight", "completeness", "overflowing_weights")


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 4, 64]),
       coinciding=st.booleans(), unambiguous=st.booleans(), defect=st.sampled_from(SPAN_DEFECTS),
       effect=st.integers(0, 2), size=st.sampled_from([2e-10, 2e-9, 1e-6, 0.3, 0.7]),
       value=st.sampled_from([np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, np.inf)]),
       scale=st.sampled_from([1.0 + 2e-10, 1.0 + 1e-8, 2.0]))
def test_span_checks_and_born_rule_match_the_frozen_numpy_routines(
        seed, n, coinciding, unambiguous, defect, effect, size, value, scale):
    # The span form's 1x1 (coinciding states) and 2x2 blocks, valid or with exactly one
    # defect: the same verdict and message as the numpy routine, and on a valid POVM the
    # same Born probabilities within 2 ulp of 1.
    rng = np.random.default_rng(seed)
    if coinciding:
        phi = random_state(n, rng)
        pair = StatePair.of(phi, phi * np.exp(1j * rng.uniform(0.0, 2 * np.pi)))
        good = helstrom_povm(pair)
    else:
        pair = StatePair.of(*state_pair_with_overlap(rng.uniform(0.0, 0.99), n, rng))
        good = (unambiguous_povm if unambiguous else helstrom_povm)(pair)
    m, k = good.effects.shape[:2]
    j = effect % m
    other = (j + 1) % m
    effects, rest, basis = good.effects.copy(), good.rest.copy(), good.basis.copy()
    r, c = (int(i) for i in rng.integers(k, size=2))
    eye = np.eye(k)
    if defect == "non_finite_entry":
        effects[j, r, c] = value
    elif defect == "nan_weight":
        rest[j] = np.nan
    elif defect == "nan_basis":
        basis[rng.integers(n), c] = np.nan
    elif defect == "scaled_basis":
        basis *= scale
    elif defect == "skew":  # kept out of the sum, so only hermiticity fails
        skew = size * (1j if r == c else 1.0)
        effects[j, r, c] += skew
        effects[other, r, c] -= skew
    elif defect == "negative_eigenvalue":
        shift = np.linalg.eigvalsh(effects[j])[0] + size
        effects[j] -= shift * eye
        effects[other] += shift * eye
    elif defect == "negative_weight":
        shift = rest[j] + size
        rest[j] -= shift
        rest[other] += shift
    elif defect == "completeness":
        effects[j] += size * eye
    elif defect == "overflowing_weights":
        rest[:] = 1e308
    povm = good if defect == "none" else Povm(effects, good.labels, basis, rest)
    verdict = _verdict(povm.validate)
    assert verdict == _verdict(lambda: validate_numpy(povm))
    sized = defect in ("skew", "negative_eigenvalue", "negative_weight", "completeness")
    harmless = (defect == "none" or sized and size < POVM_TOL
                or defect == "scaled_basis" and scale < 1.0 + POVM_TOL / 2
                or defect == "overflowing_weights" and k == n)  # no complement to weigh
    assert (verdict is None) == harmless
    if defect == "none":
        rows = dict(zip(povm.labels, born_numpy(povm.effects, povm.rest, pair.coords)))
        absent = (0.0, 0.0)
        expected = (rows.get("identify_1", absent)[0], rows.get("identify_2", absent)[1],
                    *rows.get("inconclusive", absent))
        out = evaluate_povm(povm, pair)
        got = (out.p_correct_1, out.p_correct_2, out.p_inconclusive_1, out.p_inconclusive_2)
        assert max(abs(a - b) for a, b in zip(got, expected)) <= 4.4e-16, (got, expected)
        assert out.p_s == got[0] + got[1]
