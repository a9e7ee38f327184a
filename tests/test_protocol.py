import tracemalloc

import numpy as np
import pytest
import scipy.stats

from qudisc import (
    CapacityError,
    DomainError,
    NumericalError,
    Protocol,
    SearchConfig,
    ShapeError,
    UnitaryPair,
    ValidationError,
    audit_step_slacks,
    build_parallel,
    fidelity_closed_form,
    haar_unitary_from_rng,
    optimize_protocol,
    relative_spectrum,
    run_protocol,
    simulate_parallel,
    simulate_random,
    smallest_arc,
    trace_distance_pure,
)
from qudisc import protocol as protocol_mod
from qudisc.linalg import haar_isometry_from_rng, random_state_from_rng
from qudisc.protocol import record_trace, simulation_size

I2 = np.eye(2, dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def identity_protocol(queries, dim=2):
    return Protocol(
        system_dim=dim,
        ancilla_dim=1,
        queries=queries,
        interleavers=[np.eye(dim, dtype=complex) for _ in range(queries + 1)],
        probe=PLUS.copy(),
    )


def random_protocol(rng, system_dim=2, ancilla_dim=2, queries=None):
    if queries is None:
        queries = int(rng.integers(1, 6))
    total = system_dim * ancilla_dim
    return Protocol(
        system_dim=system_dim,
        ancilla_dim=ancilla_dim,
        queries=queries,
        interleavers=[haar_unitary_from_rng(total, rng) for _ in range(queries + 1)],
        probe=random_state_from_rng(total, rng),
    )


class TestRunProtocol:
    def test_single_query_identity_vs_z(self):
        trace = run_protocol(UnitaryPair.of(I2, Z), identity_protocol(1))
        assert trace.distances[0] == 0.0
        assert trace.distances[1] == pytest.approx(2.0, abs=1e-12)
        assert trace.final_overlap == pytest.approx(0.0, abs=1e-12)

    def test_identical_unitaries_never_separate(self):
        rng = np.random.default_rng(21)
        u = haar_unitary_from_rng(2, rng)
        trace = run_protocol(UnitaryPair.of(u, u), random_protocol(rng))
        assert all(d == 0.0 for d in trace.distances)
        assert trace.final_overlap == 1.0

    def test_two_queries_of_an_eighth_turn(self):
        u2 = np.diag([1.0, np.exp(1j * np.pi / 4)])
        trace = run_protocol(UnitaryPair.of(I2, u2), identity_protocol(2))
        assert trace.final_overlap == pytest.approx(np.sqrt(2) / 2, abs=1e-12)

    def test_zero_queries(self):
        trace = run_protocol(UnitaryPair.of(I2, Z), identity_protocol(0))
        assert trace.distances == [0.0]
        assert trace.final_overlap == 1.0

    def test_final_distance_matches_overlap(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            u1 = haar_unitary_from_rng(2, rng)
            u2 = haar_unitary_from_rng(2, rng)
            trace = run_protocol(UnitaryPair.of(u1, u2), random_protocol(rng))
            expected = 2.0 * np.sqrt(1.0 - trace.final_overlap**2)
            assert trace.distances[-1] == pytest.approx(expected, abs=1e-9)

    def test_states_stay_normalized(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            u1 = haar_unitary_from_rng(2, rng)
            u2 = haar_unitary_from_rng(2, rng)
            trace = run_protocol(UnitaryPair.of(u1, u2), random_protocol(rng))
            for s in trace.states.reshape(-1, 4):
                assert abs(np.linalg.norm(s) - 1.0) <= 1e-9

    def test_states_equal_the_branch_loop_bit_for_bit(self):
        rng = np.random.default_rng(44)
        # at d != anc, a query that swapped system and ancilla would show
        for d, anc in [(2, 2), (2, 1), (2, 3), (3, 2), (8, 8)]:
            u1, u2 = haar_unitary_from_rng(d, rng, (2,))
            protocol = random_protocol(rng, d, anc, queries=4)
            trace = run_protocol(UnitaryPair.of(u1, u2), protocol)
            s1 = s2 = protocol.interleavers[0] @ protocol.probe
            assert np.array_equal(trace.states[0, 0], s1)
            assert np.array_equal(trace.states[1, 0], s2)
            for k, w in enumerate(protocol.interleavers[1:], start=1):
                s1 = w @ (u1 @ s1.reshape(d, anc)).ravel()
                s2 = w @ (u2 @ s2.reshape(d, anc)).ravel()
                assert np.array_equal(trace.states[0, k], s1)
                assert np.array_equal(trace.states[1, k], s2)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ShapeError):
            run_protocol(UnitaryPair.of(np.eye(3), np.eye(3)), identity_protocol(1))


class TestProtocolValidation:
    def test_interleaver_count(self):
        with pytest.raises(ValidationError):
            Protocol(2, 1, 2, [I2, I2], PLUS)

    def test_non_unitary_interleaver(self):
        with pytest.raises(Exception):
            Protocol(2, 1, 0, [np.diag([1.0, 0.5])], PLUS)

    def test_unnormalized_probe(self):
        with pytest.raises(Exception):
            Protocol(2, 1, 0, [I2], np.array([1.0, 1.0]))

    def test_capacity_cap_checked_before_shapes(self):
        with pytest.raises(CapacityError):
            Protocol(100, 100, 0, [np.eye(1)], np.array([1.0]))

    def test_probe_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            Protocol(2, 2, 0, [np.eye(4)], PLUS)

    @pytest.mark.parametrize("field, value", [
        ("system_dim", 2.0),  # was built, then failed in run_protocol with an untyped TypeError
        ("queries", True),  # was built as a one-query protocol
        ("ancilla_dim", "1"),
    ])
    def test_non_integer_counts_are_refused(self, field, value):
        counts = {"system_dim": 2, "ancilla_dim": 1, "queries": 1, field: value}
        with pytest.raises(ValidationError, match=f"^protocol: {field} must be an integer"):
            Protocol(**counts, interleavers=[I2, I2], probe=PLUS)

    @pytest.mark.parametrize("field, value", [
        ("interleavers", 5),  # raised TypeError: object of type 'int' has no len()
        ("probe", "ab"),  # raised ValueError: complex() arg is a malformed string
        ("interleavers", "ab"),
        ("probe", None),
    ])
    def test_non_array_interleavers_or_probe_are_refused(self, field, value):
        fields = {"interleavers": [I2], "probe": PLUS, field: value}
        with pytest.raises(ValidationError, match=f"^protocol: {field} must be"):
            Protocol(2, 1, 0, **fields)

    def test_interleavers_are_one_stack(self):
        # a list of interleavers was checked as one stack, then split back into a list
        protocol = identity_protocol(3)
        assert isinstance(protocol.interleavers, np.ndarray)
        assert protocol.interleavers.shape == (4, 2, 2)
        assert protocol.interleavers.dtype == complex
        cfg = SearchConfig(queries=2, restarts=2, max_iterations=5, seed=3)
        found = optimize_protocol(UnitaryPair.of(I2, Z), cfg).protocol
        assert isinstance(found.interleavers, np.ndarray)
        assert found.interleavers.shape == (3, 4, 4)


def _eighth_turns(d):
    return UnitaryPair.of(np.eye(d), np.diag(np.exp(1j * np.pi / 4 * np.arange(d))))


# The three entries that size a simulation, each at (system_dim, ancilla_dim, queries).
SIZED_ENTRIES = {
    "Protocol": lambda d, anc, t: Protocol(d, anc, t, [], np.ones(d * anc) / np.sqrt(d * anc)),
    "simulate_random": lambda d, anc, t: simulate_random(_eighth_turns(d), anc, t,
                                                         np.random.default_rng(0)),
    "optimize_protocol": lambda d, anc, t: optimize_protocol(_eighth_turns(d),
                                                             SearchConfig(queries=t)),
}


SIZES = {
    "zero-ancilla": (2, 0, 1),
    "negative-queries": (2, 2, -1),
    "dim-over-cap": (65, 65, 1),  # n = 4225 above DIM_CAP
    "trace-over-cap": (2, 2, 2**22),  # (T+1) n above ENTRY_CAP
}


@pytest.mark.parametrize("entry, size", [
    (entry, size) for entry in SIZED_ENTRIES for size in SIZES
    # the search's ancilla is its system, never zero
    if (entry, size) != ("optimize_protocol", "zero-ancilla")
])
def test_one_size_rule_for_every_simulation(entry, size):
    with pytest.raises((ValidationError, CapacityError)) as rule:
        simulation_size(*SIZES[size])
    tracemalloc.start()
    try:
        with pytest.raises(rule.type) as raised:
            SIZED_ENTRIES[entry](*SIZES[size])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(raised.value) == str(rule.value)
    assert peak < 2**20  # refused before any array of its size was allocated


class TestStepAudit:
    def test_tight_on_identity_vs_z(self):
        trace = run_protocol(UnitaryPair.of(I2, Z), identity_protocol(1))
        slacks = audit_step_slacks(trace, np.pi)
        assert slacks == [pytest.approx(0.0, abs=1e-12)]

    def test_identical_pair_slack_is_full_step(self):
        rng = np.random.default_rng(24)
        u = haar_unitary_from_rng(2, rng)
        protocol = random_protocol(rng, queries=3)
        trace = run_protocol(UnitaryPair.of(u, u), protocol)
        theta = 0.9
        f = fidelity_closed_form(theta)
        expected = 2.0 * np.sqrt(1.0 - f * f)
        for slack in audit_step_slacks(trace, theta):
            assert slack == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("t", [1, 2, 5, 40])
    def test_optimal_parallel_plan_at_tiny_theta(self, t):
        # 2*sqrt(1 - cos(theta/2)**2) cancelled and read -1e-8 here, past LEMMA_SLACK_TOL
        theta = 1e-8
        pair = UnitaryPair.of(I2, np.diag([1.0, np.exp(1j * theta)]))
        trace = simulate_parallel(pair, build_parallel(pair, t))
        assert min(audit_step_slacks(trace, theta)) >= -1e-15

    def test_monte_carlo_never_negative(self):
        rng = np.random.default_rng(25)
        worst = np.inf
        for _ in range(300):
            pair = UnitaryPair.of(haar_unitary_from_rng(2, rng), haar_unitary_from_rng(2, rng))
            theta = smallest_arc(relative_spectrum(pair)).theta
            trace = run_protocol(pair, random_protocol(rng))
            worst = min(worst, min(audit_step_slacks(trace, theta)))
        assert worst >= -1e-9

    def test_telescoped_bound(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            pair = UnitaryPair.of(haar_unitary_from_rng(2, rng), haar_unitary_from_rng(2, rng))
            theta = smallest_arc(relative_spectrum(pair)).theta
            f = fidelity_closed_form(theta)
            trace = run_protocol(pair, random_protocol(rng))
            t = len(trace.distances) - 1
            assert trace.distances[-1] <= 2.0 * t * np.sqrt(1.0 - f * f) + 1e-6


def test_swapping_an_interleaver_leaves_earlier_distances_alone():
    rng = np.random.default_rng(27)
    pair = UnitaryPair.of(haar_unitary_from_rng(2, rng), haar_unitary_from_rng(2, rng))
    base = random_protocol(rng, queries=4)
    k = 2  # replace the interleaver applied at step k+1
    replaced = [w.copy() for w in base.interleavers]
    replaced[k + 1] = haar_unitary_from_rng(4, rng)
    other = Protocol(2, 2, 4, replaced, base.probe.copy())

    t1 = run_protocol(pair, base)
    t2 = run_protocol(pair, other)
    # the new interleaver multiplies both branches equally: D_{k+1} is unchanged
    for j in range(k + 2):
        assert t2.distances[j] == pytest.approx(t1.distances[j], abs=1e-9)


def haar_pair(rng, dim):
    return haar_unitary_from_rng(dim, rng), haar_unitary_from_rng(dim, rng)


class TestSimulateRandom:
    def test_each_step_keeps_the_overlap_of_the_queried_pair(self):
        # interleavers are unitary: <s1|s2> after a step equals <(U1 x I)s1|(U2 x I)s2> before it
        rng = np.random.default_rng(31)
        u1, u2 = haar_pair(rng, 3)
        trace = simulate_random(UnitaryPair.of(u1, u2), 3, 4, rng)
        assert trace.states.shape == (2, 5, 9)
        assert trace.distances[0] == 0.0
        for k in range(4):
            t1 = (u1 @ trace.states[0, k].reshape(3, 3)).ravel()
            t2 = (u2 @ trace.states[1, k].reshape(3, 3)).ravel()
            after = np.vdot(trace.states[0, k + 1], trace.states[1, k + 1])
            assert abs(after - np.vdot(t1, t2)) <= 1e-12
        for s in trace.states.reshape(-1, 9):
            assert s.shape == (9,)
            assert abs(np.linalg.norm(s) - 1.0) <= 1e-12

    def test_holds_little_beyond_its_states(self):
        # per-step lists of views into the isometry blocks held 2.04x the states' bytes;
        # a distance pass over a stacked copy of the trace peaked at 3.11x
        pair = UnitaryPair.of(*haar_pair(np.random.default_rng(49), 4))
        tracemalloc.start()
        try:
            trace = simulate_random(pair, 4, 4000, np.random.default_rng(50))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.states.shape == (2, 4001, 16)
        assert held <= 1.25 * trace.states.nbytes
        assert peak <= 2.25 * trace.states.nbytes

    def test_same_generator_state_gives_identical_traces(self):
        rng = np.random.default_rng(32)
        pair = UnitaryPair.of(*haar_pair(rng, 2))
        a = simulate_random(pair, 2, 3, np.random.default_rng(5))
        b = simulate_random(pair, 2, 3, np.random.default_rng(5))
        assert a.distances == b.distances and a.final_overlap == b.final_overlap

    def test_audit_holds(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            pair = UnitaryPair.of(*haar_pair(rng, 2))
            theta = smallest_arc(relative_spectrum(pair)).theta
            trace = simulate_random(pair, 2, int(rng.integers(0, 6)), rng)
            assert all(s >= -1e-9 for s in audit_step_slacks(trace, theta))

    @pytest.mark.parametrize("d", [2, 3])
    def test_overlaps_match_dense_haar_interleavers(self, d):
        """Two-sample KS test: span sampling and dense Haar interleavers, same pairs."""
        dense, span = [], []
        for i in range(1000):
            pair = UnitaryPair.of(*haar_pair(np.random.default_rng([d, i, 0]), d))
            rng = np.random.default_rng([d, i, 1])
            protocol = random_protocol(rng, system_dim=d, ancilla_dim=d, queries=3)
            dense.append(run_protocol(pair, protocol).final_overlap)
            rng = np.random.default_rng([d, i, 2])
            span.append(simulate_random(pair, d, 3, rng).final_overlap)
        assert scipy.stats.ks_2samp(dense, span).pvalue > 0.01

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(34)
        with pytest.raises(ValidationError):
            simulate_random(UnitaryPair.of(I2, Z), 0, 1, rng)
        with pytest.raises(ValidationError):
            simulate_random(UnitaryPair.of(I2, Z), 2, -1, rng)
        with pytest.raises(CapacityError):
            simulate_random(UnitaryPair.of(I2, Z), 2049, 1, rng)
        # each raised numpy's untyped TypeError
        with pytest.raises(ValidationError, match="queries must be an integer, got 2.0"):
            simulate_random(UnitaryPair.of(I2, Z), 1, 2.0, rng)
        with pytest.raises(ValidationError, match="ancilla_dim must be an integer, got 1.0"):
            simulate_random(UnitaryPair.of(I2, Z), 1.0, 2, rng)

    def test_non_isometry_is_refused(self, monkeypatch):
        def stretched(n, k, rng, batch):
            return np.broadcast_to(1.001 * np.eye(n, k, dtype=complex), (*batch, n, k))

        monkeypatch.setattr(protocol_mod, "haar_isometry_from_rng", stretched)
        with pytest.raises(NumericalError, match="interleaver 1 is not an isometry"):
            simulate_random(UnitaryPair.of(I2, Z), 2, 1, np.random.default_rng(35))

    def test_nan_isometry_is_refused(self, monkeypatch):
        # a NaN Gram defect compared False against the tolerance and was accepted
        def nan_block(n, k, rng, batch):
            v = haar_isometry_from_rng(n, k, rng, batch)
            v[0, 1, 0] = np.nan
            return v

        monkeypatch.setattr(protocol_mod, "haar_isometry_from_rng", nan_block)
        with pytest.raises(NumericalError, match="interleaver 1 is not an isometry"):
            simulate_random(UnitaryPair.of(I2, Z), 2, 3, np.random.default_rng(37))

    def test_batched_draw_names_the_first_bad_interleaver(self, monkeypatch):
        def second_stretched(n, k, rng, batch):
            v = haar_isometry_from_rng(n, k, rng, batch)
            v[1] *= 1.001  # interleaver 2; interleaver 3 is stretched less and comes later
            v[2] *= 1.0001
            return v

        monkeypatch.setattr(protocol_mod, "haar_isometry_from_rng", second_stretched)
        with pytest.raises(NumericalError, match="interleaver 2 is not an isometry"):
            simulate_random(UnitaryPair.of(I2, Z), 2, 4, np.random.default_rng(36))

    def test_bad_interleaver_in_a_later_draw_is_named_by_its_query(self, monkeypatch):
        draws = []

        def stretched_in_second_draw(n, k, rng, batch):
            v = haar_isometry_from_rng(n, k, rng, batch)
            draws.append(batch)
            if len(draws) == 2:
                v[1] *= 1.001  # interleaver 64 + 2
            return v

        monkeypatch.setattr(protocol_mod, "haar_isometry_from_rng", stretched_in_second_draw)
        with pytest.raises(NumericalError, match="interleaver 66 is not an isometry"):
            simulate_random(UnitaryPair.of(I2, Z), 2, 70, np.random.default_rng(36))
        assert draws == [(64,), (6,)]

    @pytest.mark.parametrize("d, anc", [(2, 2), (8, 8), (2, 1), (2, 3), (3, 2)],
                             ids=["2", "8", "2x1", "2x3", "3x2"])
    @pytest.mark.parametrize("queries", [0, 1, 5, 70])
    def test_states_equal_one_draw_per_query(self, d, anc, queries):
        """Bit for bit against the per-query loop the stacked draw replaced, n = d*anc.

        At d != anc, a query that swapped system and ancilla would show.
        """
        u1, u2 = haar_pair(np.random.default_rng([d, queries, 37]), d)
        stacked, looped = np.random.default_rng([d, 38]), np.random.default_rng([d, 38])
        trace = simulate_random(UnitaryPair.of(u1, u2), anc, queries, stacked)

        s1 = random_state_from_rng(d * anc, looped)
        s2 = s1.copy()
        expected = [(s1, s2)]
        for _ in range(queries):
            t1 = (u1 @ s1.reshape(d, anc)).ravel()
            t2 = (u2 @ s2.reshape(d, anc)).ravel()
            c = np.vdot(t1, t2)
            r = np.linalg.norm(t2 - c * t1)
            v = haar_isometry_from_rng(d * anc, 2, looped)
            s1, s2 = v[:, 0], c * v[:, 0] + r * v[:, 1]
            expected.append((s1, s2))

        assert trace.states.shape[1] == queries + 1
        for (e1, e2), a1, a2 in zip(expected, *trace.states):
            assert np.array_equal(a1, e1) and np.array_equal(a2, e2)
        assert stacked.random() == looped.random()


class TestRecordTrace:
    """One pass over both stacks still checks every state of every step."""

    @pytest.mark.parametrize("step", [0, 2, 4])
    @pytest.mark.parametrize("branch", [0, 1])
    @pytest.mark.parametrize("bad", ["unnormalized", "nan", "inf"])
    def test_refuses_a_bad_state_at_any_step(self, step, branch, bad):
        rng = np.random.default_rng(39)
        states = np.array([[random_state_from_rng(4, rng), random_state_from_rng(4, rng)]
                           for _ in range(5)]).swapaxes(0, 1)
        state = states[branch, step]
        if bad == "unnormalized":
            state *= 1.0 + 1e-8
        else:
            state[1] = np.nan if bad == "nan" else np.inf
        with pytest.raises(DomainError, match=rf"state \({branch}, {step}\)"):
            record_trace(states)

    def test_refuses_an_array_not_of_shape_branches_steps_amplitudes(self):
        # one (2, T+1, n) array holds every state, so no two can differ in dimension
        rng = np.random.default_rng(40)
        states = np.array([[random_state_from_rng(4, rng)] * 3] * 2)
        assert record_trace(states).states is states
        for bad in (states[:1], states[:, :0], states[:, 0], states.swapaxes(0, 1),
                    states[..., None]):
            with pytest.raises(ShapeError, match=r"expected a \(2, T\+1, n\) array"):
                record_trace(bad)

    def test_equal_states_are_exactly_zero_apart(self):
        rng = np.random.default_rng(42)
        states = np.array([random_state_from_rng(9, rng) for _ in range(6)])
        trace = record_trace(np.array([states, states]))
        assert trace.distances == [0.0] * 6
        assert trace.final_overlap == 1.0

    def test_distances_match_one_call_per_step(self):
        rng = np.random.default_rng(43)
        pairs = [(random_state_from_rng(16, rng), random_state_from_rng(16, rng))
                 for _ in range(7)]
        trace = record_trace(np.array(pairs).swapaxes(0, 1))
        for (a, b), d in zip(pairs, trace.distances):
            assert d == pytest.approx(trace_distance_pure(np.array([a, b])), abs=1e-15)
            assert d == pytest.approx(2.0 * np.sqrt(1.0 - abs(np.vdot(a, b)) ** 2), abs=1e-12)
