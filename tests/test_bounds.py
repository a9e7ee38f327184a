import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from qudisc import (
    DomainError,
    ErrorMode,
    IndistinguishableError,
    ValidationError,
    optimal_overlap,
    t_min_bounded,
    t_min_onesided,
    t_perfect,
)
from qudisc.tolerances import CEILING_GUARD, CEILING_ROUNDING

PI = math.pi


class TestBoundedErrorBound:
    def test_zero_error_quarter_pi(self):
        report = t_min_bounded(PI / 4, 0.0)
        assert report.raw_value == pytest.approx(8 / PI, abs=1e-12)
        assert report.t_lower == 3

    def test_exact_integer_raw_is_not_bumped(self):
        report = t_min_bounded(0.1, 0.25)  # 1 - 4*0.25*0.75 = 0.25, sqrt = 0.5
        assert report.raw_value == pytest.approx(10.0, abs=1e-12)
        assert report.t_lower == 10

    def test_half_error_is_free(self):
        report = t_min_bounded(PI, 0.5)
        assert report.raw_value == pytest.approx(0.0, abs=1e-15)
        assert report.t_lower == 0

    def test_zero_theta_raises(self):
        with pytest.raises(IndistinguishableError):
            t_min_bounded(0.0, 0.1)

    def test_epsilon_range(self):
        with pytest.raises(DomainError):
            t_min_bounded(1.0, 0.51)
        with pytest.raises(DomainError):
            t_min_bounded(1.0, -0.01)

    def test_theta_range(self):
        with pytest.raises(DomainError):
            t_min_bounded(2 * PI, 0.1)

    def test_wide_spread_needs_one_query(self):
        assert t_min_bounded(PI, 0.0).t_lower == 1
        assert t_min_bounded(PI + 1.0, 0.0).t_lower == 1

    def test_subnormal_theta_is_a_domain_error(self):
        # 2/theta overflows to inf, which math.ceil refused with an OverflowError
        with pytest.raises(DomainError, match="theta"):
            t_min_bounded(5e-324, 0.0)
        assert t_min_bounded(5e-324, 0.5).t_lower == 0  # a finite bound keeps its answer


class TestOneSidedBound:
    def test_exact_integer_raw(self):
        report = t_min_onesided(0.2, 0.6)  # 2*0.8/0.2 = 8
        assert report.raw_value == pytest.approx(8.0, abs=1e-12)
        assert report.t_lower == 8

    def test_full_budget_is_free(self):
        assert t_min_onesided(PI / 4, 1.0).t_lower == 0

    def test_zero_budget_matches_bounded(self):
        assert t_min_onesided(PI / 4, 0.0).t_lower == t_min_bounded(PI / 4, 0.0).t_lower == 3

    def test_subnormal_theta_is_a_domain_error(self):
        with pytest.raises(DomainError, match="theta"):
            t_min_onesided(1e-310, 0.0)
        report = t_min_onesided(sys.float_info.min, 0.0)
        assert report.t_lower == math.ceil(report.raw_value)


@pytest.mark.parametrize("bound, needed", [
    (t_min_bounded(0.3, 0.1), math.sqrt(1.0 - 4.0 * 0.1 * 0.9)),
    (t_min_onesided(0.3, 0.4), math.sqrt(1.0 - 0.4 * 0.4)),
])
def test_slack_is_the_half_span_beyond_the_need(bound, needed):
    for t in range(8):
        assert bound.slack(t) == t * 0.3 / 2.0 - needed
        assert (bound.slack(t) >= 0.0) == (t >= bound.raw_value)


def test_each_mode_reports_itself_and_its_epsilon_domain():
    assert t_min_bounded(0.1, 0.25).mode is ErrorMode.BOUNDED
    assert t_min_onesided(0.2, 0.6).mode is ErrorMode.ONE_SIDED
    with pytest.raises(DomainError):
        t_min_bounded(0.1, 0.6)  # a bounded error above 1/2 is no budget


class TestOptimalOverlap:
    def test_closed_form_below_a_half_turn_and_zero_from_it(self):
        assert optimal_overlap(PI / 4, 0) == 1.0
        assert optimal_overlap(0.0, 5) == 1.0
        assert optimal_overlap(PI / 4, 2) == math.cos(PI / 4)
        assert optimal_overlap(PI / 4, 4) == 0.0  # T*theta = pi exactly
        assert optimal_overlap(4.4, 1) == 0.0
        assert optimal_overlap(1.0, 3) == math.cos(1.5)

    def test_never_increases_with_queries(self):
        for theta in np.linspace(0.01, 2 * PI - 0.01, 50):
            values = [optimal_overlap(float(theta), t) for t in range(40)]
            assert all(b <= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("theta", [-0.1, 2 * PI, math.nan])
    def test_theta_outside_its_domain_is_refused(self, theta):
        with pytest.raises(DomainError, match="theta"):
            optimal_overlap(theta, 1)

    @pytest.mark.parametrize("t, message", [(-1, "query count must be >= 0"),
                                            (1.5, "query count must be an integer")])
    def test_query_count_outside_its_domain_is_refused(self, t, message):
        with pytest.raises(ValidationError, match=message):
            optimal_overlap(0.5, t)


class TestPerfectCount:
    def test_pi_needs_one_query(self):
        assert t_perfect(PI) == 1

    def test_quarter_pi(self):
        assert t_perfect(PI / 4) == 4

    def test_wide_spread(self):
        assert t_perfect(2 * PI * 0.9) == 1

    def test_zero_theta_raises(self):
        with pytest.raises(IndistinguishableError):
            t_perfect(0.0)

    def test_subnormal_theta_is_a_domain_error(self):
        with pytest.raises(DomainError, match="theta"):
            t_perfect(5e-324)
        assert t_perfect(sys.float_info.min) == math.ceil(PI / sys.float_info.min)


# pi lies strictly between these two 30-digit rationals.
PI_LOW = Fraction(3141592653589793238462643383279, 10**30)
PI_HIGH = PI_LOW + Fraction(1, 10**30)


def guarded_count_is_exact_up_to_its_guard(answer, low, high, raw):
    """The exact count x lies in [low, high]; the answer is at most ceil(x) and at least
    ceil(x - 2 * guard), for the guard max(CEILING_GUARD, CEILING_ROUNDING * u * raw)."""
    assert math.ceil(low) == math.ceil(high), "the reference does not decide the ceiling"
    guard = max(Fraction(CEILING_GUARD), CEILING_ROUNDING * Fraction(1, 2**53) * Fraction(raw))
    return math.ceil(high - 2 * guard) <= answer <= math.ceil(low)


# Query counts 1..39, then log-uniform up to 1e12.
SAMPLED_COUNTS = [*range(1, 40),
                  *(int(k) for k in 10.0 ** np.random.default_rng(83).uniform(1.5, 12.0, 600))]


def sampled_thetas(quotient):
    """theta = quotient/k and its two neighbouring floats, for every sampled count k."""
    for k in SAMPLED_COUNTS:
        theta = quotient / k
        yield from (theta, math.nextafter(theta, 0.0), math.nextafter(theta, 4.0))


class TestCeilingGuard:
    def test_intended_integer_counts_are_not_bumped(self):
        # theta = pi/k or 2/k, rounded, moves the quotient up to one ulp off k: more than
        # CEILING_GUARD from k = 2**23 on, where k + 1 was answered
        for k in SAMPLED_COUNTS:
            assert t_perfect(PI / k) == k
            assert t_min_bounded(2.0 / k, 0.0).t_lower == k
            assert t_min_onesided(2.0 / k, 0.0).t_lower == k

    def test_perfect_count_is_exact_up_to_its_guard(self):
        # the quotient's rounding and math.pi's error, checked against the exact ceiling
        for theta in sampled_thetas(math.pi):
            exact = Fraction(theta)
            assert guarded_count_is_exact_up_to_its_guard(
                t_perfect(theta), PI_LOW / exact, PI_HIGH / exact, PI / theta)

    @pytest.mark.parametrize("bound", [t_min_bounded, t_min_onesided])
    def test_zero_error_bounds_are_exact_up_to_their_guard(self, bound):
        for theta in sampled_thetas(2.0):
            report = bound(theta, 0.0)
            exact = 2 / Fraction(theta)
            assert guarded_count_is_exact_up_to_its_guard(
                report.t_lower, exact, exact, report.raw_value)

    def test_perfect_count_just_above_ten_million(self):
        # pi/theta is 10000016 + 1.23e-9 here: under the guard of 3.3e-9, so either count holds
        theta = 3.1415876270495896e-07
        assert math.ceil(PI_LOW / Fraction(theta)) == 10000017
        assert t_perfect(theta) in (10000016, 10000017)

    def test_small_counts_keep_their_answers(self):
        # below a raw count of 3e6 the guard is CEILING_GUARD, subtracted as it always was,
        # also where raw lies within one rounding of the guard above an integer
        rng = np.random.default_rng(89)
        near = [k + CEILING_GUARD + m * math.ulp(k) / 4
                for k in rng.integers(1, 3_000_000, 300).astype(float) for m in range(-4, 40)]
        for raw in [*near, *10.0 ** rng.uniform(-0.25, 6.45, 3000)]:
            theta = PI / float(raw)
            assert t_perfect(theta) == max(0, math.ceil(PI / theta - CEILING_GUARD))


def test_radical_simplifies_to_linear():
    # sqrt(1 - 4 e (1 - e)) = 1 - 2 e on [0, 1/2], so the raw bound is 2 (1 - 2 e) / theta
    grid = np.linspace(0.0, 0.5, 10_001)
    for theta in (0.1, 1.0, PI, 6.0):
        raw = np.array([t_min_bounded(theta, e).raw_value for e in grid])
        assert np.max(np.abs(raw - 2.0 * (1.0 - 2.0 * grid) / theta)) <= 1e-12 / theta


def test_t_lower_monotone_in_epsilon_and_theta():
    thetas = np.linspace(0.05, 2 * PI - 0.05, 40)
    epsilons = np.linspace(0.0, 0.5, 40)
    for theta in thetas:
        ts = [t_min_bounded(theta, e).t_lower for e in epsilons]
        assert all(a >= b for a, b in zip(ts, ts[1:]))
    for eps in epsilons:
        ts = [t_min_bounded(theta, eps).t_lower for theta in thetas]
        assert all(a >= b for a, b in zip(ts, ts[1:]))


def test_lower_bound_never_exceeds_perfect_count():
    for theta in np.linspace(1e-3, PI, 500):
        assert t_min_bounded(theta, 0.0).t_lower <= t_perfect(theta)
