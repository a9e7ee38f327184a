import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qudisc import (
    IndistinguishableError,
    SearchConfig,
    ShapeError,
    UnitaryPair,
    ValidationError,
    build_parallel,
    fidelity_closed_form,
    haar_unitary_from_rng,
    helstrom_error,
    optimal_overlap,
    optimize_protocol,
    relative_spectrum,
    run_protocol,
    simulate_parallel,
    smallest_arc,
    t_perfect,
)
from qudisc import builder
from qudisc.builder import _arc_weights, _gauss_newton_step, _overlap_derivatives
from qudisc.linalg import _eigenvectors, random_state_from_rng
from qudisc.protocol import audit_step_slacks, evolve_branches
from qudisc.tolerances import CEILING_GUARD

from .oracles import eigenvectors_forming_the_product

I2 = np.eye(2, dtype=complex)
EIGHTH_TURN = np.diag([1.0, np.exp(1j * np.pi / 4)])
Z = np.diag([1.0, -1.0]).astype(complex)


def eighth_turn() -> UnitaryPair:
    return UnitaryPair.of(I2, EIGHTH_TURN)


class TestParallelPlan:
    def test_four_copies_discriminate_perfectly(self):
        pair = eighth_turn()
        plan = build_parallel(pair, 4)
        assert plan.predicted_overlap == pytest.approx(0.0, abs=1e-15)
        trace = simulate_parallel(pair, plan)
        assert trace.final_overlap <= 1e-8

    def test_single_copy_equals_fidelity(self):
        plan = build_parallel(eighth_turn(), 1)
        assert plan.predicted_overlap == pytest.approx(math.cos(math.pi / 8), abs=1e-12)

    def test_half_turn_needs_one_copy(self):
        pair = UnitaryPair.of(I2, Z)
        plan = build_parallel(pair, 1)
        assert plan.predicted_overlap == pytest.approx(0.0, abs=1e-15)
        assert simulate_parallel(pair, plan).final_overlap <= 1e-12

    def test_probe_is_normalized(self):
        # the probe sum_s sqrt(w_s)|s> has norm 1 iff the weights sum to 1 over orthonormal strings
        wide = np.diag(np.exp(1j * np.array([0.0, 2.2, 4.4])))  # theta > pi
        for u1, u2, t in [(I2, EIGHTH_TURN, 3), (I2, EIGHTH_TURN, 6), (np.eye(3), wide, 2)]:
            plan = build_parallel(UnitaryPair.of(u1, u2), t)
            assert abs(plan.weights.sum() - 1.0) <= 1e-12
            assert np.all(plan.weights > 0.0) and len(plan.weights) <= 3
            factors = plan.eigenvectors[:, plan.strings]  # d x strings x copies
            gram = np.einsum("dsm,dtm->stm", factors.conj(), factors).prod(axis=2)
            assert np.abs(gram - np.eye(len(plan.weights))).max() <= 1e-12

    def test_extremal_phases_span_theta(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            u1 = haar_unitary_from_rng(2, rng)
            u2 = haar_unitary_from_rng(2, rng)
            pair = UnitaryPair.of(u1, u2)
            spectrum = relative_spectrum(pair)
            arc = smallest_arc(spectrum)
            a, b = spectrum.phases[[arc.start, arc.end]]
            assert (b - a) % (2 * np.pi) == pytest.approx(arc.theta, abs=1e-12)
            # the plan's strings are made of the eigenvectors of the arc's endpoints, a first
            vectors = build_parallel(pair, 2).eigenvectors
            resid = u1.conj().T @ u2 @ vectors - vectors * np.exp(1j * np.array([a, b]))
            assert vectors.shape == (2, 2) and np.abs(resid).max() <= 1e-12

    def test_identical_pair_rejected(self):
        with pytest.raises(IndistinguishableError):
            build_parallel(UnitaryPair.of(I2, I2), 2)

    @pytest.mark.parametrize("copies", [0, -1])
    def test_copy_count_below_one_is_a_validation_error(self, copies):
        # was a DomainError, where simulate_random and SearchConfig refuse a negative count
        # with a ValidationError
        with pytest.raises(ValidationError, match="copy count must be >= 1"):
            build_parallel(eighth_turn(), copies)

    @pytest.mark.parametrize("copies", [2.0, True, "2"])
    def test_non_integer_copy_count_is_refused(self, copies):
        # 2.0 raised numpy's untyped TypeError; True ran as one copy
        with pytest.raises(ValidationError, match="copy count must be an integer"):
            build_parallel(eighth_turn(), copies)

    def test_sixty_four_copies_need_no_tensor_power(self):
        # 2**64 amplitudes could never be formed; the plan stays O(T)
        pair = eighth_turn()
        plan = build_parallel(pair, 64)
        assert plan.strings.shape[1] == 64
        trace = simulate_parallel(pair, plan)
        assert trace.final_overlap <= 1e-12
        assert trace.states.shape[2] <= 3

    def test_memory_stays_linear_in_copies(self):
        pair = UnitaryPair.of(I2, np.diag([1.0, np.exp(2e-3j)]))  # t_perfect = 1571
        tracemalloc.start()
        try:
            trace = simulate_parallel(pair, build_parallel(pair, 2000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20  # a (T+1) x T table of candidate strings alone takes 32 MB
        assert trace.final_overlap <= 1e-12

    def test_perfect_at_t_perfect_where_the_even_split_was_not(self):
        # theta = 1 wraps |cos(T*theta/2)| to 0.416 at t_perfect = 4
        pair = UnitaryPair.of(I2, np.diag([1.0, np.exp(1.0j)]))
        plan = build_parallel(pair, t_perfect(1.0))
        trace = simulate_parallel(pair, plan)
        assert trace.final_overlap <= 1e-12
        assert trace.distances[0] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 20),
        below=st.floats(0.0, 0.9 * CEILING_GUARD),
        above=st.floats(2 * CEILING_GUARD, 0.5),
    )
    @example(k=4, below=5e-10, above=2 * CEILING_GUARD)  # overlap 1.96e-10 at t_perfect = 4
    def test_t_perfect_is_exact_up_to_the_ceiling_guard(self, k, below, above):
        # at theta = pi/(k + delta), t_perfect answers k for delta under the guard, where the
        # overlap cos(k*theta/2) = sin(theta*delta/2) is small but not 0; k + 1 beyond it
        def at(delta):
            pair = UnitaryPair.of(I2, np.diag([1.0, np.exp(1j * math.pi / (k + delta))]))
            theta = smallest_arc(relative_spectrum(pair)).theta
            t = t_perfect(theta)
            return theta, t, simulate_parallel(pair, build_parallel(pair, t)).final_overlap

        theta, t, overlap = at(below)
        assert t == k and overlap <= theta * CEILING_GUARD / 2 + 1e-15
        _, t, overlap = at(above)
        assert t == k + 1 and overlap <= 1e-12

    @settings(max_examples=120, deadline=None)
    @given(
        theta=st.floats(0.05, 2 * np.pi - 0.05),
        dim=st.sampled_from([2, 3, 4]),
        inner=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
        offset=st.floats(0.0, 2 * np.pi),
    )
    @example(theta=4.4, dim=3, inner=[0.5, 0.5], offset=0.0)  # theta > pi: T = 1 is perfect
    @example(theta=0.25, dim=4, inner=[1e-12, 1e-12], offset=0.0)  # phases 2.5e-13 apart
    def test_optimal_for_every_t_on_diagonal_pairs(self, theta, dim, inner, offset):
        # phases 0 and theta plus dim - 2 inside [0, theta], on a diagonal u1
        phases = np.array([0.0, theta] + [f * theta for f in inner[: dim - 2]])
        u1 = np.diag(np.exp(1j * (offset + np.arange(dim))))
        u2 = u1 @ np.diag(np.exp(1j * phases))
        pair = UnitaryPair.of(u1, u2)
        spread = smallest_arc(relative_spectrum(pair)).theta
        perfect = t_perfect(spread)
        for t in range(1, 2 * perfect + 1):  # the optimum is 0 from t = perfect on
            plan = build_parallel(pair, t)
            trace = simulate_parallel(pair, plan)
            optimum = optimal_overlap(spread, t)
            assert abs(plan.predicted_overlap - optimum) <= 1e-12
            assert abs(trace.final_overlap - optimum) <= 1e-12
            assert trace.distances[0] == 0.0

    def test_prediction_matches_simulation(self):
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(1000):
            u1 = haar_unitary_from_rng(2, rng)
            u2 = haar_unitary_from_rng(2, rng)
            pair = UnitaryPair.of(u1, u2)
            theta = smallest_arc(relative_spectrum(pair)).theta
            for t in range(1, 9):
                if t * theta > np.pi:
                    break
                plan = build_parallel(pair, t)
                trace = simulate_parallel(pair, plan)
                assert abs(trace.final_overlap - plan.predicted_overlap) <= 1e-8
                checked += 1
        assert checked > 500


def arc_overlap(theta: float, chosen: list[int], weights: list[float]) -> float:
    """|sum_j w_j e^{ij theta}|: the distance from the origin of the arc strings' combination."""
    return abs(sum(w * cmath.exp(1j * j * theta) for j, w in zip(chosen, weights)))


def least_half_turn(theta: float) -> int:
    """The least copy count m whose m*theta, as rounded, reaches math.pi, by counting up."""
    m = 1
    while m * theta < math.pi:
        m += 1
    return m


def thetas_near(m: int, ulps: int = 40) -> list[float]:
    """The floats within ``ulps`` steps either side of math.pi / m."""
    below = [math.pi / m]
    for _ in range(ulps):
        below.append(math.nextafter(below[-1], 0.0))
    above = [math.pi / m]
    for _ in range(ulps):
        above.append(math.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


class TestArcPlanInClosedForm:
    """Below theta = pi the plan's strings and weights are a function of (theta, T) alone:
    j = 0 and T at 1/2 each while T*theta < pi, then j = 0, m - 1, m at the barycentric
    weights around the origin, with m the least copy count whose m*theta reaches pi."""

    @pytest.mark.parametrize("theta", [0.05, 0.3, 1.0, math.pi / 4, 2.0, 3.0, 3.14])
    def test_strings_and_weights_follow_theta_and_t(self, theta):
        m = least_half_turn(theta)
        for t in range(1, m + 6):
            chosen, weights = _arc_weights(theta, t)
            if t * theta < math.pi:
                assert (chosen, weights) == ([0, t], [0.5, 0.5])
                continue
            if m * theta == math.pi:  # below pi: the middle weight would be negative
                assert (chosen, weights) == ([0, m], [0.5, 0.5])
                assert arc_overlap(theta, chosen, weights) <= 1e-15
                continue
            assert chosen == [0, m - 1, m]
            # the weights solve the barycentric system of the three points, by a dense solve
            angles = np.array(chosen) * theta
            system = np.array([np.cos(angles), np.sin(angles), np.ones(3)])
            assert np.abs(np.array(weights) - np.linalg.solve(system, [0.0, 0.0, 1.0])).max() <= 1e-12
            assert min(weights) > 0.0 and abs(sum(weights) - 1.0) <= 1e-15
            assert arc_overlap(theta, chosen, weights) <= 1e-15

    def test_the_plan_holds_the_closed_form_strings(self):
        # end to end on a diagonal pair at theta = 1, so m = 4: string j takes b on its last j
        # copies
        pair = UnitaryPair.of(I2, np.diag([1.0, np.exp(1.0j)]))
        for t, chosen in [(1, [0, 1]), (3, [0, 3]), (4, [0, 3, 4]), (7, [0, 3, 4])]:
            plan = build_parallel(pair, t)
            expected = (np.arange(t) >= t - np.array(chosen)[:, None]).astype(np.intp)
            assert np.array_equal(plan.strings, expected)
            assert plan.weights.tolist() == _arc_weights(smallest_arc(relative_spectrum(pair)).theta,
                                                         t)[1]

    @pytest.mark.parametrize("t", [2, 4, 8, 64])
    def test_t_theta_within_an_ulp_of_pi(self, t):
        # t a power of two, so t*theta is exactly prev(pi), pi and next(pi)
        for target in (math.nextafter(math.pi, 0.0), math.pi, math.nextafter(math.pi, 4.0)):
            theta = target / t
            assert t * theta == target
            chosen, weights = _arc_weights(theta, t)
            if target < math.pi:
                assert chosen == [0, t]
            elif target == math.pi:
                # -sin(m theta) = -sin(math.pi) < 0, as math.pi lies below pi: the middle string
                # is dropped, and the chord's midpoint is the nearest point
                assert (chosen, weights) == ([0, t], [0.5, 0.5])
            else:
                assert chosen == [0, t - 1, t]
            assert arc_overlap(theta, chosen, weights) <= 1e-15

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 7, 8, 16, 100])
    def test_m_theta_within_an_ulp_of_pi(self, m):
        # at T = m and with idle leading copies, on every float theta whose m*theta, as rounded,
        # lies within an ulp of pi
        near = {math.nextafter(math.pi, 0.0), math.pi, math.nextafter(math.pi, 4.0)}
        cases = [theta for theta in thetas_near(m) if m * theta in near]
        assert cases
        for theta in cases:
            for t in (m, m + 1, m + 5):
                chosen, weights = _arc_weights(theta, t)
                if t * theta < math.pi:
                    assert chosen == [0, t]
                else:
                    mm = least_half_turn(theta)
                    if mm * theta == math.pi:  # the middle string is dropped
                        assert (chosen, weights) == ([0, mm], [0.5, 0.5])
                    else:
                        assert chosen == [0, mm - 1, mm] and min(weights) > 0.0
                assert arc_overlap(theta, chosen, weights) <= 1e-15

    def test_theta_up_to_pi(self):
        theta = math.pi
        for _ in range(6):
            theta = math.nextafter(theta, 0.0)
            assert _arc_weights(theta, 1) == ([0, 1], [0.5, 0.5])
            for t in (2, 3, 9):
                chosen, weights = _arc_weights(theta, t)
                assert chosen == [0, 1, 2] and min(weights) > 0.0
                assert arc_overlap(theta, chosen, weights) <= 1e-15
        # end to end: a pair whose spread nears pi from below
        for gap in (1e-6, 1e-9, 1e-12, 1e-14):
            pair = UnitaryPair.of(I2, np.diag([1.0, np.exp(1j * (math.pi - gap))]))
            spread = smallest_arc(relative_spectrum(pair)).theta
            for t in (1, 2, 5):
                overlap = simulate_parallel(pair, build_parallel(pair, t)).final_overlap
                assert abs(overlap - optimal_overlap(spread, t)) <= 1e-12

    def test_a_one_ulp_nudge_away_from_the_boundaries_leaves_the_strings(self):
        rng = np.random.default_rng(90)
        for theta in rng.uniform(0.02, math.pi - 0.02, 200).tolist():
            for t in (1, 2, 3, 8, 64, 200):
                chosen, weights = _arc_weights(theta, t)
                for nudged in (math.nextafter(theta, 0.0), math.nextafter(theta, 4.0)):
                    again, moved = _arc_weights(nudged, t)
                    assert again == chosen
                    assert max(abs(x - y) for x, y in zip(weights, moved)) <= 1e-12

    @pytest.mark.parametrize("t", [1, 3, 8, 64])
    def test_a_one_ulp_nudge_of_a_phase_leaves_the_plan(self, t):
        rng = np.random.default_rng(91)
        for _ in range(4):
            u1, v = haar_unitary_from_rng(3, rng, (2,))
            theta = rng.uniform(0.3, 3.0)
            phases = np.array([0.0, theta, rng.uniform(0.0, theta)])
            pair = pair_with_phases(u1, v, phases)
            plan = build_parallel(pair, t)
            slack = min(audit_step_slacks(simulate_parallel(pair, plan),
                                          smallest_arc(relative_spectrum(pair)).theta))
            for k in range(phases.size):
                nudged = phases.copy()
                nudged[k] = np.nextafter(nudged[k], 4.0)
                other = pair_with_phases(u1, v, nudged)
                again = build_parallel(other, t)
                assert np.array_equal(again.strings, plan.strings)
                spread = smallest_arc(relative_spectrum(other)).theta
                assert abs(min(audit_step_slacks(simulate_parallel(other, again), spread))
                           - slack) <= 1e-12

    def test_no_hull_search_below_pi(self, monkeypatch):
        def refuse(points):
            raise AssertionError("closest_hull_point called below pi")

        monkeypatch.setattr(builder, "closest_hull_point", refuse)
        pair = eighth_turn()
        for t in (1, 4, 64):
            build_parallel(pair, t)

    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    def test_eigenvectors_on_the_kept_product_equal_the_parents(self, dim):
        rng = np.random.default_rng(95 + dim)
        for _ in range(5):
            u1, u2 = haar_unitary_from_rng(dim, rng, (2,))
            pair = UnitaryPair.of(u1, u2)
            spectrum = relative_spectrum(pair)
            product = pair._product
            assert not product.flags.writeable
            assert product.tobytes() == (u1.conj().T @ u2).tobytes()
            arc = smallest_arc(spectrum)
            for indices in ([arc.start, arc.end], [0], list(range(min(dim, 3)))):
                reference = eigenvectors_forming_the_product(u1, u2, spectrum.phases, indices)
                vectors = _eigenvectors(pair, indices)
                if dim > 2:
                    assert vectors.tobytes() == reference.tobytes()
                else:
                    # the closed form at d = 2: the same columns up to each one's phase
                    turns = (reference.conj() * vectors).sum(axis=0)
                    assert np.abs(vectors - reference * turns / np.abs(turns)).max() <= 1e-14
            build_parallel(pair, 3)
            assert pair._product is product  # formed once per pair


def per_copy_states(pair: UnitaryPair, plan) -> np.ndarray:
    """The plan's (2, T+1, strings) states, one copy at a time.

    The Gram entries are taken as ``simulate_parallel`` takes them, on an
    (strings, strings, copies) table of the plan's columns. After j queries branch 2 is
    (P_j * S_j) @ sqrt(weights): P_j is the product of the query Grams of
    copies 0..j-1, read off their running product along the copies, and S_j
    that of the idle Grams of copies j..T-1, read off their running product
    from the last copy down, and 1 once no copy is left.
    """
    index = plan.strings
    x = plan.eigenvectors
    moved = pair.unitaries @ x
    query = moved[0].conj().T @ moved[1]
    idle = x.conj().T @ x
    rows, cols = index[:, None, :], index[None, :, :]
    prefix = np.cumprod(query[rows, cols], axis=2)
    suffix = np.cumprod(idle[rows, cols][..., ::-1], axis=2)[..., ::-1]
    none_left = np.ones((plan.weights.size,) * 2, dtype=complex)
    amp = np.sqrt(plan.weights).astype(complex)
    states = np.empty((2, plan.copies + 1, amp.size), dtype=complex)
    states[0] = states[1, 0] = amp
    for j in range(1, plan.copies + 1):
        waiting = suffix[..., j] if j < plan.copies else none_left
        states[1, j] = (prefix[..., j - 1] * waiting) @ amp
    return states


class TestParallelSimulationPerCopy:
    """``simulate_parallel`` forms every copy's state from running products over copies and
    one batched product; it must equal the loop over copies bit for bit."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_states_equal_a_loop_over_copies(self, dim):
        rng = np.random.default_rng(60 + dim)
        pairs = [UnitaryPair.of(*haar_unitary_from_rng(dim, rng, (2,))) for _ in range(6)]
        if dim == 3:  # theta = 4.4 > pi on a diagonal pair, so the plan takes a third eigenvector
            pairs.append(UnitaryPair.of(np.eye(3), np.diag(np.exp(1j * np.array([0.0, 2.2, 4.4])))))
        wide = 0
        for pair in pairs:
            wide += smallest_arc(relative_spectrum(pair)).theta >= math.pi
            for t in (1, 2, 8, 64, 2000):
                plan = build_parallel(pair, t)
                states = simulate_parallel(pair, plan).states
                assert states.tobytes() == per_copy_states(pair, plan).tobytes()
        assert wide >= (1 if dim > 2 else 0)  # plans with theta >= pi are among them


def pair_with_phases(u1: np.ndarray, v: np.ndarray, phases: np.ndarray) -> UnitaryPair:
    """U1 against U1 V diag(e^{i phases}) V†: U1†U2 has the given eigenphases."""
    return UnitaryPair.of(u1, u1 @ (v * np.exp(1j * phases)) @ v.conj().T)


def wide_phase_sets():
    """(U1, V, phases) with theta >= pi: Haar U1 and V at d = 3, 4 and 8, and diagonal pairs
    with a repeated phase, which make equal points on the hull."""
    rng = np.random.default_rng(80)
    for dim in (3, 4, 8):
        found = 0
        while found < 4:
            u1, v = haar_unitary_from_rng(dim, rng, (2,))
            phases = rng.uniform(0.0, 2 * np.pi, dim)
            if smallest_arc(relative_spectrum(pair_with_phases(u1, v, phases))).theta >= np.pi:
                found += 1
                yield u1, v, phases
    for phases in ([0.0, 2.2, 2.2, 4.4], [0.0, 0.0, 2.1, 4.2], [0.0, 2.2, 4.4, 4.4, 4.4]):
        eye = np.eye(len(phases), dtype=complex)
        yield eye, eye, np.array(phases)


class TestParallelPlanFromHalfTurn:
    """From theta = pi on, one copy on at most 3 eigenvectors discriminates: the plan is
    orthogonal after its first query, so its step audit is a function of the pair. Its hull
    held the arc strings and the strings x_k a^(T-1) together, where a one-ulp change of a
    phase could pick another triangle and move the slack by up to 1.2."""

    @staticmethod
    def min_slack(pair: UnitaryPair, t: int) -> float:
        theta = smallest_arc(relative_spectrum(pair)).theta
        return min(audit_step_slacks(simulate_parallel(pair, build_parallel(pair, t)), theta))

    @pytest.mark.parametrize("t", [1, 2, 8, 64])
    def test_one_query_on_at_most_three_eigenvectors(self, t):
        for u1, v, phases in wide_phase_sets():
            pair = pair_with_phases(u1, v, phases)
            plan = build_parallel(pair, t)
            assert plan.eigenvectors.shape[1] <= 3
            assert np.all(plan.strings[:, 1:] == plan.strings[0, 1:2])  # one column after copy 0
            assert abs(plan.weights.sum() - 1.0) <= 1e-12
            assert simulate_parallel(pair, plan).distances[1] >= 2.0 - 1e-12

    @pytest.mark.parametrize("t", [1, 2, 8, 64])
    def test_a_one_ulp_nudge_leaves_the_slack(self, t):
        for u1, v, phases in wide_phase_sets():
            slack = self.min_slack(pair_with_phases(u1, v, phases), t)
            for k in range(phases.size):
                nudged = phases.copy()
                nudged[k] = np.nextafter(nudged[k], 4.0)
                assert abs(self.min_slack(pair_with_phases(u1, v, nudged), t) - slack) <= 1e-12


class TestParallelPlanFields:
    """A plan checks its fields when built: each case below reached the simulation, which
    ran it silently or failed with an untyped numpy error."""

    @staticmethod
    def plan():
        return build_parallel(eighth_turn(), 3)

    def test_negative_strings_are_refused(self):
        # numpy read -2 and -1 as columns counted from the end: the valid plan's overlap
        with pytest.raises(ValidationError, match="strings must name columns 0 to 1"):
            dataclasses.replace(self.plan(), strings=self.plan().strings - 2)

    def test_strings_past_the_last_column_are_refused(self):
        # an IndexError in simulate_parallel
        with pytest.raises(ValidationError, match="strings must name columns 0 to 1"):
            dataclasses.replace(self.plan(), strings=self.plan().strings + 2)

    def test_strings_with_too_few_copies_are_refused(self):
        # an IndexError in simulate_parallel
        with pytest.raises(ShapeError, match="strings has shape"):
            dataclasses.replace(self.plan(), strings=self.plan().strings[:, :-1])

    def test_weights_of_the_wrong_length_are_refused(self):
        # numpy's ValueError from the batched product
        with pytest.raises(ShapeError, match="weights has shape"):
            dataclasses.replace(self.plan(), weights=self.plan().weights[:-1])

    @pytest.mark.parametrize("field, value, error", [
        ("copies", 3.0, ValidationError),
        ("strings", np.zeros((2, 3)), ValidationError),
        ("strings", np.zeros((4, 3), dtype=int), ShapeError),
        ("eigenvectors", np.ones(2, dtype=complex), ShapeError),
        ("eigenvectors", np.ones((8, 4), dtype=complex), ShapeError),  # only 3 columns are used
    ])
    def test_mistyped_fields_are_refused(self, field, value, error):
        with pytest.raises(error, match="copy count|plan:"):
            dataclasses.replace(self.plan(), **{field: value})

    def test_a_built_plan_passes(self):
        plan = self.plan()
        assert plan.copies == 3 and plan.strings.shape == (plan.weights.size, 3)


class TestOptimalOverlap:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_parallel_plan_reaches_it(self, dim):
        rng = np.random.default_rng(70 + dim)
        for _ in range(30):
            pair = UnitaryPair.of(*haar_unitary_from_rng(dim, rng, (2,)))
            theta = smallest_arc(relative_spectrum(pair)).theta
            for t in (1, 2, 3, 5, 8, 20):
                plan = build_parallel(pair, t)
                assert plan.predicted_overlap == optimal_overlap(theta, t)
                overlap = simulate_parallel(pair, plan).final_overlap
                assert abs(overlap - optimal_overlap(theta, t)) <= 1e-12


class TestSearchConfig:
    @pytest.mark.parametrize("field, value", [
        ("queries", 2.5), ("queries", 2.0), ("restarts", 2.0), ("max_iterations", 30.0),
        ("seed", 1.5), ("queries", True),
    ])
    def test_non_integer_counts_are_refused(self, field, value):
        # each was accepted and failed later with an untyped TypeError, or ran as given
        with pytest.raises(ValidationError, match=field):
            SearchConfig(**{"queries": 2, field: value})

    def test_numpy_integers_are_counts(self):
        cfg = SearchConfig(queries=np.int64(2), restarts=np.uint8(1), seed=np.uint64(2**64 - 1))
        assert (type(cfg.queries), type(cfg.restarts), cfg.seed) == (int, int, 2**64 - 1)

    def test_validation(self):
        with pytest.raises(ValidationError):
            SearchConfig(queries=1, restarts=0)
        with pytest.raises(ValidationError):
            SearchConfig(queries=1, step_tolerance=0.0)
        with pytest.raises(ValidationError):
            SearchConfig(queries=-1)

    @pytest.mark.parametrize("tolerance", [2.0, math.inf])
    def test_step_tolerance_outside_unit_interval_is_refused(self, tolerance):
        # above 1 the search tried no step and reported a converged start
        with pytest.raises(ValidationError, match="step_tolerance"):
            SearchConfig(queries=3, step_tolerance=tolerance)

    def test_full_step_tolerance_still_searches(self):
        cfg = SearchConfig(queries=3, restarts=1, max_iterations=30, step_tolerance=1.0, seed=1)
        result = optimize_protocol(UnitaryPair.of(I2, np.diag([1.0, np.exp(0.9j)])), cfg)
        assert len(result.histories[0]) > 2


class TestOptimizeProtocol:
    def test_commuting_pair_reaches_parallel_perfection(self):
        cfg = SearchConfig(queries=4, restarts=8, max_iterations=60,
                           step_tolerance=1e-4, seed=11)
        result = optimize_protocol(eighth_turn(), cfg)
        assert result.overlap <= 1e-4

    def test_zero_queries_cannot_distinguish(self):
        result = optimize_protocol(eighth_turn(), SearchConfig(queries=0, seed=3))
        assert result.overlap == 1.0

    def test_single_query_rediscovers_fidelity(self):
        rng = np.random.default_rng(5)
        pair = UnitaryPair.of(haar_unitary_from_rng(2, rng), haar_unitary_from_rng(2, rng))
        theta = smallest_arc(relative_spectrum(pair)).theta
        cfg = SearchConfig(queries=1, restarts=4, max_iterations=60,
                           step_tolerance=1e-5, seed=7)
        result = optimize_protocol(pair, cfg)
        assert abs(result.overlap - fidelity_closed_form(theta)) <= 1e-3

    def test_determinism(self):
        cfg = SearchConfig(queries=2, restarts=2, max_iterations=10,
                           step_tolerance=1e-3, seed=19)
        r1 = optimize_protocol(eighth_turn(), cfg)
        r2 = optimize_protocol(eighth_turn(), cfg)
        assert r1.overlap == r2.overlap
        assert np.array_equal(r1.protocol.probe, r2.protocol.probe)
        for w1, w2 in zip(r1.protocol.interleavers, r2.protocol.interleavers):
            assert np.array_equal(w1, w2)

    def test_histories_are_monotone(self):
        cfg = SearchConfig(queries=2, restarts=3, max_iterations=15,
                           step_tolerance=1e-3, seed=23)
        result = optimize_protocol(eighth_turn(), cfg)
        for history in result.histories:
            assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_tiny_budget_sets_exhausted_flag(self):
        rng = np.random.default_rng(29)
        pair = UnitaryPair.of(haar_unitary_from_rng(2, rng), haar_unitary_from_rng(2, rng))
        cfg = SearchConfig(queries=2, restarts=1, max_iterations=1,
                           step_tolerance=1e-9, seed=1)
        result = optimize_protocol(pair, cfg)
        assert result.budget_exhausted

    def test_indistinguishable_pair_rejected(self):
        with pytest.raises(IndistinguishableError):
            optimize_protocol(UnitaryPair.of(I2, np.exp(0.4j) * I2),
                              SearchConfig(queries=1, seed=0))

    def test_returned_protocols_respect_the_bound(self):
        rng = np.random.default_rng(47)
        for _ in range(5):
            pair = UnitaryPair.of(haar_unitary_from_rng(2, rng), haar_unitary_from_rng(2, rng))
            theta = smallest_arc(relative_spectrum(pair)).theta
            queries = int(rng.integers(1, 4))
            cfg = SearchConfig(queries=queries, restarts=2, max_iterations=15,
                               step_tolerance=1e-3, seed=int(rng.integers(1 << 30)))
            result = optimize_protocol(pair, cfg)
            eps = helstrom_error(result.overlap)
            lhs = 2.0 * math.sqrt(1.0 - 4.0 * eps * (1.0 - eps))
            assert lhs <= queries * theta + 1e-6
            # re-simulating the returned protocol reproduces the reported overlap
            trace = run_protocol(pair, result.protocol)
            assert trace.final_overlap == pytest.approx(result.overlap, abs=1e-12)

    @pytest.mark.parametrize("dim, queries", [(2, 0), (2, 1), (2, 3), (3, 2)])
    def test_trace_is_the_protocols_simulation_bit_for_bit(self, dim, queries):
        # the descent's own states are the trace: a fresh simulation gives the same bits
        rng = np.random.default_rng(67 + dim + queries)
        pair = UnitaryPair.of(*haar_unitary_from_rng(dim, rng, (2,)))
        cfg = SearchConfig(queries=queries, restarts=2, max_iterations=10,
                           step_tolerance=1e-3, seed=queries)
        result = optimize_protocol(pair, cfg)
        fresh = run_protocol(pair, result.protocol)
        assert np.array_equal(result.trace.states, fresh.states)
        assert result.trace.distances == fresh.distances
        assert result.overlap == result.trace.final_overlap == fresh.final_overlap

    @pytest.mark.parametrize("seed", range(12))
    def test_readme_example_reaches_perfection_for_every_seed(self, seed):
        result = optimize_protocol(eighth_turn(), SearchConfig(queries=4, seed=seed))
        assert result.overlap <= 1e-5

    @pytest.mark.parametrize("dim, restarts, iterations, pairs", [(2, 8, 60, 8), (3, 2, 20, 4)])
    def test_reaches_the_optimum_below_perfection(self, dim, restarts, iterations, pairs):
        # Below t_perfect the best overlap over all protocols is cos(T*theta/2).
        rng = np.random.default_rng(53 + dim)
        checked = 0
        while checked < pairs:
            pair = UnitaryPair.of(haar_unitary_from_rng(dim, rng), haar_unitary_from_rng(dim, rng))
            theta = smallest_arc(relative_spectrum(pair)).theta
            queries = math.ceil(np.pi / theta) - 1  # the most queries with T*theta < pi
            if not 1 <= queries <= 4:
                continue
            cfg = SearchConfig(queries=queries, restarts=restarts,
                               max_iterations=iterations, seed=checked)
            result = optimize_protocol(pair, cfg)
            assert abs(result.overlap - math.cos(queries * theta / 2.0)) <= 1e-6
            checked += 1


class TestOverlapDerivative:
    def test_matches_central_difference(self):
        rng = np.random.default_rng(59)
        d, queries = 2, 3
        n = d * d
        us = np.array([haar_unitary_from_rng(d, rng) for _ in range(2)])
        ws = np.array([haar_unitary_from_rng(n, rng) for _ in range(queries + 1)])
        probe = random_state_from_rng(n, rng)

        def overlap(interleavers):
            y1, y2 = evolve_branches(interleavers, probe, us)
            return np.vdot(y1[-1], y2[-1])

        ns = _overlap_derivatives(ws, evolve_branches(ws, probe, us), us)
        h = 1e-5
        for k in range(queries + 1):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            x = (g - g.conj().T) / 2.0
            plus, minus = ws.copy(), ws.copy()
            plus[k] = scipy.linalg.expm(h * x) @ ws[k]
            minus[k] = scipy.linalg.expm(-h * x) @ ws[k]
            numeric = (overlap(plus) - overlap(minus)) / (2.0 * h)
            assert abs(numeric - np.trace(x @ ns[k])) <= 1e-8

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("queries", [0, 1, 4])
    def test_stack_equals_per_step_outer_products(self, d, queries):
        # the stacked pass forms the same elementwise products as one np.outer pair per step
        rng = np.random.default_rng(61 + 10 * d + queries)
        n = d * d
        us = haar_unitary_from_rng(d, rng, (2,))
        u1, u2 = us
        ws = haar_unitary_from_rng(n, rng, (queries + 1,))
        y1, y2 = evolve_branches(ws, random_state_from_rng(n, rng), us)
        expected = np.empty_like(ws)
        b1, b2 = y2[-1], y1[-1]
        for k in range(queries, -1, -1):
            expected[k] = np.outer(y2[k], b2.conj()) - np.outer(b1, y1[k].conj())
            if k:
                # (U_i^dagger x I) spelt out, so the reference shares no code with its subject
                b1 = (u1.conj().T @ (ws[k].conj().T @ b1).reshape(d, d)).ravel()
                b2 = (u2.conj().T @ (ws[k].conj().T @ b2).reshape(d, d)).ravel()
        ns = _overlap_derivatives(ws, np.array([y1, y2]), us)
        assert np.array_equal(ns, expected)


def lstsq_step(c, ns):
    """The damped Gauss-Newton step from its two directions and a least-squares solve."""
    nh = ns.conj().transpose(0, 2, 1)
    dirs = ((nh - ns) / 2.0, 0.5j * (nh + ns))
    g = np.array([[np.vdot(p, q).real for q in dirs] for p in dirs])
    g += abs(c) ** 2 * np.trace(g) * np.eye(2)
    alpha, beta = np.linalg.lstsq(g, np.array([c.real, c.imag]), rcond=None)[0]
    return -(alpha * dirs[0] + beta * dirs[1]), complex(alpha, beta)


def random_steps(count):
    """(c, N) over seeded random stacks: T <= 5, n in {2, 4, 9}, |c| in [1e-5, 1]."""
    rng = np.random.default_rng(71)
    for _ in range(count):
        t, n = int(rng.integers(0, 6)), int(rng.choice([2, 4, 9]))
        ns = rng.standard_normal((t + 1, n, n)) + 1j * rng.standard_normal((t + 1, n, n))
        c = 10.0 ** rng.uniform(-5.0, 0.0) * np.exp(2j * np.pi * rng.uniform())
        yield np.complex128(c), ns


class TestGaussNewtonStep:
    def test_matches_the_least_squares_solve(self):
        for c, ns in random_steps(300):
            expected, _ = lstsq_step(c, ns)
            step = _gauss_newton_step(c, ns)
            assert np.abs(step - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_is_skew_hermitian_bit_for_bit(self):
        for c, ns in random_steps(50):
            step = _gauss_newton_step(c, ns)
            assert np.array_equal(step, -step.conj().transpose(0, 2, 1))

    def test_first_order_change_cancels_c_up_to_the_damping(self):
        # (G + lambda I) w = c: the change sum_k tr(X_k N_k) is -c + lambda w, lambda = |c|^2 s
        for c, ns in random_steps(50):
            _, w = lstsq_step(c, ns)
            change = np.einsum("kij,kji->", _gauss_newton_step(c, ns), ns)
            damping = abs(c) ** 2 * np.vdot(ns, ns).real * w
            assert abs(change - (damping - c)) <= 1e-12 * abs(c)
            if abs(c) <= 1e-3:
                assert abs(change + c) <= 1e-5 * abs(c)

    @pytest.mark.parametrize("c, scale", [(0.3 - 0.4j, 0.0), (0j, 1.0)])
    def test_zero_derivative_or_overlap_gives_the_zero_step(self, c, scale):
        # the least-squares solve's minimum-norm answer on its singular system
        ns = scale * (np.arange(18.0).reshape(2, 3, 3) + 1j)
        step = _gauss_newton_step(np.complex128(c), ns.astype(complex))
        assert step.shape == ns.shape
        assert not step.any()
