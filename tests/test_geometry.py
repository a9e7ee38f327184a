import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qudisc import (
    DomainError,
    PhaseSpectrum,
    ShapeError,
    StatePair,
    UnitaryPair,
    closest_hull_point,
    haar_unitary_from_rng,
    fidelity_closed_form,
    fidelity_hull_oracle,
    relative_spectrum,
    smallest_arc,
    trace_distance_pure,
)
from qudisc.linalg import TWO_PI

from .oracles import (anchored_arc_theta, as_spectrum, closest_hull_point_numpy,
                      min_combination_sampled)


def random_phases(rng, max_size=8):
    k = int(rng.integers(1, max_size + 1))
    if rng.random() < 0.3:
        # clustered spectra stress the near-degenerate paths
        return np.sort(rng.uniform(0, 0.2, size=k) + rng.uniform(0, TWO_PI))
    return np.sort(rng.uniform(0, TWO_PI, size=k))


class TestSmallestArc:
    def test_single_point(self):
        arc = smallest_arc(as_spectrum([0.0]))
        assert arc.theta == 0.0
        assert arc.start_phase == arc.end_phase == 0.0

    def test_three_points(self):
        arc = smallest_arc(as_spectrum([0.0, np.pi / 2, np.pi]))
        assert arc.theta == pytest.approx(np.pi, abs=1e-12)

    def test_wraparound(self):
        arc = smallest_arc(as_spectrum([0.1, 0.2, 6.2]))
        assert arc.theta == pytest.approx(TWO_PI - 6.0, abs=1e-12)
        assert arc.start_phase == pytest.approx(6.2)
        assert arc.end_phase == pytest.approx(0.2)

    def test_empty_raises(self):
        with pytest.raises(DomainError):
            smallest_arc(as_spectrum([]))

    def test_tie_breaks_toward_smallest_gap_start(self):
        arc = smallest_arc(as_spectrum([0.0, np.pi]))
        assert arc.theta == pytest.approx(np.pi)
        assert arc.start_phase == pytest.approx(np.pi)
        assert arc.end_phase == 0.0

    @pytest.mark.parametrize("phases", [
        [3.0, 1.0],  # descending: its arc read -2.0, where the ascending phases give 2.0
        [7.0, 0.5],  # 7.0 beyond 2*pi: its arc read -6.5
        [],  # an untyped IndexError
        [0.5, np.nan],
    ], ids=["descending", "beyond-2pi", "empty", "nan"])
    def test_refuses_a_spectrum_not_ascending_in_range(self, phases):
        spectrum = PhaseSpectrum(np.array(phases, dtype=float))
        with pytest.raises(DomainError):
            smallest_arc(spectrum)
        assert spectrum.arc is None

    @pytest.mark.parametrize("phases, error", [
        (np.array([[0.1, 0.2]]), ShapeError),
        (np.array(0.3), ShapeError),
        (np.array([0.1, 0.2], dtype=complex), DomainError),
    ], ids=["2-d", "0-d", "complex"])
    def test_spectrum_refuses_phases_not_a_real_vector(self, phases, error):
        # each was built unchecked and gave smallest_arc an untyped TypeError
        with pytest.raises(error, match="phases"):
            PhaseSpectrum(phases)

    @pytest.mark.parametrize("phases", [[0.1, 0.2], np.array([0.1, 0.2]), (0.5,)],
                             ids=["list", "array", "tuple"])
    def test_takes_a_spectrum_only(self, phases):
        # bare phases were wrapped and sorted; a decomposition's spectrum is the one input
        with pytest.raises(ShapeError, match="takes a PhaseSpectrum"):
            smallest_arc(phases)

    def test_accepts_phase_spectrum(self):
        spec = relative_spectrum(UnitaryPair.of(np.eye(2), np.diag([1.0, -1.0])))
        assert smallest_arc(spec).theta == pytest.approx(np.pi)

    def test_endpoints_are_members_and_cover(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            phases = random_phases(rng)
            arc = smallest_arc(as_spectrum(phases))
            wrapped = np.mod(phases, TWO_PI)
            assert any(abs(p - arc.start_phase) <= 1e-12 for p in wrapped)
            assert any(abs(p - arc.end_phase) <= 1e-12 for p in wrapped)
            # every phase lies on the closed arc from start_phase, up to 1e-9
            offsets = np.mod(wrapped - arc.start_phase, TWO_PI)
            assert np.all((offsets <= arc.theta + 1e-9) | (offsets >= TWO_PI - 1e-9))

    def test_matches_anchored_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            phases = random_phases(rng)
            assert smallest_arc(as_spectrum(phases)).theta == pytest.approx(
                anchored_arc_theta(phases), abs=1e-9
            )

    @settings(max_examples=200, deadline=None)
    @given(
        shift=st.floats(0, TWO_PI, allow_nan=False, exclude_max=True),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_rotation_invariance(self, shift, seed):
        phases = random_phases(np.random.default_rng(seed))
        base = smallest_arc(as_spectrum(phases)).theta
        rotated = smallest_arc(as_spectrum(np.mod(phases + shift, TWO_PI))).theta
        assert rotated == pytest.approx(base, abs=1e-9)

    def test_indices_name_the_endpoints_of_haar_spectra(self):
        rng = np.random.default_rng(13)
        for d in (2, 3, 8):
            for _ in range(50):
                pair = UnitaryPair.of(np.eye(d), haar_unitary_from_rng(d, rng))
                spectrum = relative_spectrum(pair)
                arc = smallest_arc(spectrum)
                assert spectrum.phases[arc.start] == arc.start_phase
                assert spectrum.phases[arc.end] == arc.end_phase

    @pytest.mark.parametrize("phases, start, end", [
        ([0.5, 0.5, 1.0, 2.0, 2.0], 0, 3),  # ties at both ends
        ([0.1, 0.1, 0.1, 6.2, 6.2], 3, 0),  # the arc wraps through 0
        ([1.0, 1.0, 1.0], 0, 0),  # one phase, three times
        ([0.0, 0.0, np.pi, np.pi], 2, 0),  # two gaps of pi: the first ends the arc
    ])
    def test_indices_are_the_first_of_tied_endpoints(self, phases, start, end):
        arc = smallest_arc(as_spectrum(phases))
        ascending = np.sort(np.asarray(phases))
        assert (arc.start, arc.end) == (start, end)
        assert ascending[arc.start] == arc.start_phase
        assert ascending[arc.end] == arc.end_phase
        for k in (arc.start, arc.end):
            assert k == 0 or ascending[k - 1] < ascending[k]

    def test_removing_a_point_never_grows_theta(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            phases = random_phases(rng)
            if phases.size < 2:
                continue
            full = smallest_arc(as_spectrum(phases)).theta
            drop = int(rng.integers(phases.size))
            reduced = smallest_arc(as_spectrum(np.delete(phases, drop))).theta
            assert reduced <= full + 1e-12


class TestFidelityClosedForm:
    def test_zero_spread(self):
        assert fidelity_closed_form(0.0) == 1.0

    def test_pi_boundary_is_exactly_zero(self):
        assert fidelity_closed_form(np.pi) == 0.0
        assert fidelity_closed_form(4.0) == 0.0

    def test_pi_over_three(self):
        assert fidelity_closed_form(np.pi / 3) == pytest.approx(math.sqrt(3) / 2, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            fidelity_closed_form(-0.1)
        with pytest.raises(DomainError):
            fidelity_closed_form(TWO_PI)


class TestHullOracle:
    def test_antipodal_pair_contains_origin(self):
        assert fidelity_hull_oracle([1.0, -1.0]) == 0.0

    def test_single_point(self):
        assert fidelity_hull_oracle([np.exp(1j * np.pi / 4)]) == pytest.approx(1.0, abs=1e-15)

    def test_two_point_chord(self):
        value = fidelity_hull_oracle([1.0, np.exp(1j * np.pi / 3)])
        assert value == pytest.approx(math.cos(math.pi / 6), abs=1e-12)

    def test_off_circle_raises(self):
        for points in ([0.5], [np.nan], [1.0, np.nan], [1.0, -1.0, np.nan]):
            with pytest.raises(DomainError):
                fidelity_hull_oracle(points)

    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            phases = random_phases(rng)
            closed = fidelity_closed_form(smallest_arc(as_spectrum(phases)).theta)
            hull = fidelity_hull_oracle(np.exp(1j * phases))
            assert abs(closed - hull) <= 1e-6

    def test_no_sampled_combination_beats_the_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            phases = random_phases(rng)
            points = np.exp(1j * phases)
            mini = fidelity_hull_oracle(points)
            sampled = min_combination_sampled(points, rng, samples=500)
            assert sampled >= mini - 1e-12


class TestHullWeights:
    def test_weights_are_convex_sparse_and_reach_the_distance(self):
        rng = np.random.default_rng(16)
        for _ in range(2000):
            points = np.exp(1j * random_phases(rng))
            distance, w = closest_hull_point(points)
            assert distance == fidelity_hull_oracle(points)
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.count_nonzero(w) <= 3
            assert abs(abs(np.dot(w, points)) - distance) <= 1e-12

    def test_duplicate_points_inside_keep_weights_exact(self):
        # equal product phases from different strings: the plan builder meets these
        points = np.exp(1j * np.array([1.883, 4.083, 4.083, 0.0, 2.2]))
        distance, w = closest_hull_point(points)
        assert distance == 0.0
        assert abs(np.dot(w, points)) <= 1e-15

    def test_origin_on_an_edge(self):
        points = np.array([1.0, 1.0, -1.0])
        distance, w = closest_hull_point(points)
        assert distance == 0.0
        assert abs(np.dot(w, points)) == 0.0


def plan_candidates(rng) -> np.ndarray:
    """The arc's steps j*theta for j = 0..T, as ``build_parallel`` forms them below pi, and from
    theta >= pi other phases beside them, which can repeat or nearly repeat one of the steps.
    T*theta runs past 2*pi, so the steps wrap around the circle."""
    t = int(rng.integers(1, 40))
    if rng.random() < 0.3:  # a rational turn: candidates on a diameter or repeating exactly
        theta = math.pi * int(rng.integers(1, 8)) / int(rng.integers(1, 16)) % TWO_PI or 0.5
    else:
        theta = rng.uniform(0.01, TWO_PI - 0.01)
    phases = list(np.arange(t + 1) * theta)
    if theta >= math.pi:
        phases += list(rng.uniform(0, TWO_PI, int(rng.integers(0, 4))) - rng.uniform(0, TWO_PI))
        # the step theta again, formed as a difference of phases
        phases += [theta, np.nextafter(theta, 10.0)][: int(rng.integers(0, 3))]
    return np.array(phases)


def tied_points(rng) -> np.ndarray:
    """Points with exact duplicates, and phases a few ulps apart."""
    base = rng.uniform(0, TWO_PI, int(rng.integers(1, 7)))
    dupes = list(rng.choice(base, int(rng.integers(1, 4))))
    nudged = [x + k * math.ulp(x) for x in base[:2] for k in (-2, 1, 3)]
    return np.array(list(base) + dupes + nudged[: int(rng.integers(0, 7))])


class TestHullAgainstFrozenOracle:
    """``closest_hull_point`` walks the fan and the edges on Python floats; the numpy routine it
    replaced, frozen in ``oracles``, must give the same distance and weights bit for bit."""

    @staticmethod
    def same(points):
        distance, w = closest_hull_point(points)
        ref_distance, ref_w = closest_hull_point_numpy(points)
        assert type(distance) is float and distance == ref_distance
        assert w.dtype == ref_w.dtype and w.tobytes() == ref_w.tobytes()

    @pytest.mark.parametrize("draw", [random_phases, plan_candidates, tied_points])
    def test_fuzzed_points(self, draw):
        rng = np.random.default_rng(17)
        for _ in range(1500):
            phases = draw(rng)
            self.same(np.exp(1j * rng.permutation(phases)))

    @pytest.mark.parametrize("points", [
        [1.0, 1.0, -1.0],  # the origin on an edge, through a duplicate
        [1.0, -1.0, 1j],
        [1j, -1j, 1.0, 1.0],
        [1.0, -1.0],
        [-1.0, 1.0, 1j, -1j],  # on both diagonals of the fan
        [1.0, 1j, -1.0, -1j, 1.0, -1.0],
    ])
    def test_exact_points_on_an_edge_or_diagonal(self, points):
        self.same(points)

    def test_rounded_diameters_agree_to_rounding(self):
        # two points a diameter apart up to rounding put the origin on an edge within 1e-16:
        # whether the fan or the nearest edge answers then rests on a cross product that
        # numpy rounds once (a fused multiply-add, on CPUs that have one) and Python twice,
        # so only the distance is pinned, to rounding, and the weights must still reach it
        rng = np.random.default_rng(18)
        for _ in range(500):
            a = rng.uniform(0, TWO_PI)
            side = rng.uniform(0, math.pi, int(rng.integers(0, 4))) * rng.choice([1, -1])
            points = np.exp(1j * np.array([a, a + math.pi, *(a + side)]))
            distance, w = closest_hull_point(points)
            assert abs(distance - closest_hull_point_numpy(points)[0]) <= 1e-15
            assert distance <= 1e-15 and np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12
            assert abs(np.dot(w, points)) <= 1e-15

    def test_nan_after_the_first_point_is_refused(self):
        # Python's max skips a NaN that is not first; the check must not
        for points in ([1.0, 1j, np.nan], [1.0, complex(np.nan, 0.0), -1.0]):
            with pytest.raises(DomainError, match="unit circle"):
                closest_hull_point(points)


class TestHullQuery:
    def test_combination_dominates_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            phases = random_phases(rng)
            w = rng.dirichlet(np.ones(phases.size))
            pts = np.exp(1j * phases)
            assert abs(np.sum(w * pts)) >= fidelity_hull_oracle(pts) - 1e-12


class TestTraceDistance:
    def test_equal_states(self):
        v = np.array([1, 1j], dtype=complex) / np.sqrt(2)
        assert trace_distance_pure(np.array([v, v])) == 0.0

    def test_orthogonal_states(self):
        a = np.array([1, 0], dtype=complex)
        b = np.array([0, 1], dtype=complex)
        assert trace_distance_pure(np.array([a, b])) == pytest.approx(2.0, abs=1e-15)

    def test_zero_vs_plus(self):
        a = np.array([1, 0], dtype=complex)
        b = np.array([1, 1], dtype=complex) / np.sqrt(2)
        assert trace_distance_pure(np.array([a, b])) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError, match="expected two states"):
            StatePair.of(np.array([1, 0], dtype=complex), np.array([1, 0, 0], dtype=complex))
        with pytest.raises(ShapeError, match=r"got shape \(3, 2\)"):
            trace_distance_pure(np.eye(3, 2, dtype=complex))

    def test_unnormalized_rejected(self):
        with pytest.raises(DomainError):
            trace_distance_pure(np.array([[1, 1], [1, 0]], dtype=complex))
