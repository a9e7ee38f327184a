"""End-to-end acceptance checks at their pinned tolerances.

Each test prints one pass/fail line; run ``pytest tests/test_acceptance.py
-v -s`` to see them alongside the test outcomes.
"""

import json
import math
import time

import numpy as np
import pytest

from qudisc import (
    build_parallel,
    evaluate_povm,
    fidelity_closed_form,
    fidelity_hull_oracle,
    helstrom_povm,
    relative_spectrum,
    run_protocol,
    simulate_parallel,
    smallest_arc,
    t_min_bounded,
    t_min_onesided,
    t_perfect,
    unambiguous_povm,
    Povm,
    Protocol,
    StatePair,
)
from qudisc.campaign import CampaignConfig, run_campaign
from qudisc.cli import main as cli_main

from .oracles import (
    anchored_arc_theta,
    dense_effect,
    random_state,
    random_two_effect_povm,
    state_pair_with_overlap,
)

TWO_PI = 2.0 * np.pi
I2 = np.eye(2, dtype=complex)
EIGHTH_TURN = np.diag([1.0, np.exp(1j * np.pi / 4)])
Z = np.diag([1.0, -1.0]).astype(complex)


def _report(num: int, desc: str, ok: bool):
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def big_campaign():
    cfg = CampaignConfig(instances=1000, dim=2, t_range=(1, 5), seed=7,
                         protocol_source="random")
    start = time.perf_counter()
    report = run_campaign(cfg)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def spectra_10k():
    rng = np.random.default_rng(1001)
    out = []
    for _ in range(10_000):
        k = int(rng.integers(1, 9))
        if rng.random() < 0.25:
            phases = np.mod(rng.uniform(0, 0.3, size=k) + rng.uniform(0, TWO_PI), TWO_PI)
        else:
            phases = rng.uniform(0, TWO_PI, size=k)
        out.append(phases)
    return out


def test_criterion_1_query_bound_never_violated(big_campaign):
    report, runtime = big_campaign
    s = report.summary
    ok = (
        all(r.theorem1_slack >= -1e-6 for r in report.records)
        and all(r.theorem1_slack_onesided >= -1e-6 for r in report.records)
        and s.violations_bounded == 0
        and s.violations_onesided == 0
        and runtime < 120.0
    )
    _report(
        1,
        f"1000 random protocols, both error modes, min slacks "
        f"{s.min_theorem1_slack:.3e} / {s.min_theorem1_slack_onesided:.3e}, "
        f"runtime {runtime:.1f}s",
        ok,
    )


def test_criterion_2_step_audit(big_campaign):
    report, _ = big_campaign
    s = report.summary
    ok = (
        all(
            r.lemma2_min_slack is not None and r.lemma2_min_slack >= -1e-9
            for r in report.records
        )
        and s.max_d0 <= 1e-12
    )
    _report(
        2,
        f"per-step slack >= -1e-9 on every trace (min {s.min_lemma2_slack:.3e}), "
        f"max D0 {s.max_d0:.2e}",
        ok,
    )


def test_criterion_3_fidelity_routes_agree(spectra_10k):
    start = time.perf_counter()
    worst = 0.0
    for phases in spectra_10k:
        closed = fidelity_closed_form(smallest_arc(phases).theta)
        hull = fidelity_hull_oracle(np.exp(1j * phases))
        worst = max(worst, abs(closed - hull))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    _report(3, f"10^4 spectra, max |closed - hull| = {worst:.2e}, {elapsed:.1f}s", ok)


def test_criterion_4_arc_matches_exhaustive_oracle(spectra_10k):
    worst = 0.0
    for phases in spectra_10k:
        worst = max(worst, abs(smallest_arc(phases).theta - anchored_arc_theta(phases)))
    ok = worst <= 1e-9
    _report(4, f"10^4 spectra, max |max-gap - anchored oracle| = {worst:.2e}", ok)


def test_criterion_5_helstrom_saturation_and_optimality():
    rng = np.random.default_rng(1005)
    worst_gap = 0.0
    worst_excess = -np.inf
    for _ in range(1000):
        phi1, phi2 = random_state(4, rng), random_state(4, rng)
        c = abs(np.vdot(phi1, phi2))
        target = 1.0 + math.sqrt(1.0 - c * c)
        pair = StatePair.of(phi1, phi2)
        out = evaluate_povm(helstrom_povm(pair), pair)
        worst_gap = max(worst_gap, abs(out.p_s - target))
        e1, e2 = random_two_effect_povm(4, rng)
        rival = Povm(effects=[e1, e2], labels=["identify_1", "identify_2"])
        excess = evaluate_povm(rival, pair).p_s - target
        worst_excess = max(worst_excess, excess)
    ok = worst_gap <= 1e-9 and worst_excess <= 1e-7
    _report(
        5,
        f"10^3 pairs saturate within {worst_gap:.2e}; best competitor excess "
        f"{worst_excess:.2e}",
        ok,
    )


def test_criterion_6_unambiguous_saturation():
    rng = np.random.default_rng(1006)
    worst_inc = 0.0
    worst_mis = 0.0
    for _ in range(1000):
        c = rng.uniform(0.0, 0.999)
        phi1, phi2 = state_pair_with_overlap(c, 4, rng)
        pair = StatePair.of(phi1, phi2)
        povm = unambiguous_povm(pair)
        out = evaluate_povm(povm, pair)
        worst_inc = max(worst_inc, abs(out.p_inconclusive_1 - c),
                        abs(out.p_inconclusive_2 - c))
        mis_1 = abs(np.vdot(phi2, dense_effect(povm, "identify_1") @ phi2))
        mis_2 = abs(np.vdot(phi1, dense_effect(povm, "identify_2") @ phi1))
        worst_mis = max(worst_mis, mis_1, mis_2)
    ok = worst_inc <= 1e-9 and worst_mis <= 1e-10
    _report(
        6,
        f"10^3 pairs: inconclusive rate off by {worst_inc:.2e}, "
        f"misidentification {worst_mis:.2e}",
        ok,
    )


def test_criterion_7_eighth_turn_fixture():
    theta = smallest_arc(relative_spectrum(I2, EIGHTH_TURN)).theta
    plan = build_parallel(I2, EIGHTH_TURN, 4)
    overlap = simulate_parallel(I2, EIGHTH_TURN, plan).final_overlap
    ok = (
        abs(theta - np.pi / 4) <= 1e-12
        and t_min_bounded(theta, 0.0).t_lower == 3
        and t_perfect(theta) == 4
        and overlap <= 1e-8
    )
    _report(
        7,
        f"theta = pi/4, zero-error bound 3, perfect count 4, "
        f"4-copy overlap {overlap:.2e}",
        ok,
    )


def test_criterion_8_hand_fixtures():
    b1 = t_min_bounded(0.1, 0.25)
    b2 = t_min_onesided(0.2, 0.6)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    protocol = Protocol(2, 1, 1, [I2.copy(), I2.copy()], plus)
    trace = run_protocol(I2, Z, protocol)
    out = evaluate_povm(helstrom_povm(trace.final), trace.final)
    error = 1.0 - min(out.p_correct_1, out.p_correct_2)
    ok = (
        b1.t_lower == 10
        and b2.t_lower == 8
        and trace.final_overlap <= 1e-12
        and error <= 1e-12
    )
    _report(
        8,
        f"bounds 10/8, single-query overlap {trace.final_overlap:.2e}, "
        f"error {error:.2e}",
        ok,
    )


def test_criterion_9_verify_is_byte_deterministic(tmp_path):
    cfg_path = tmp_path / "campaign.json"
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump({"instances": 1000, "dim": 2, "t_range": [1, 5], "seed": 7,
                   "protocol_source": "random"}, fh)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    code_a = cli_main(["verify", "--config", str(cfg_path), "--format", "csv",
                       "--output", str(out_a)])
    code_b = cli_main(["verify", "--config", str(cfg_path), "--format", "csv",
                       "--output", str(out_b)])
    ok = code_a == 0 and code_b == 0 and out_a.read_bytes() == out_b.read_bytes()
    _report(9, f"two verify runs, {out_a.stat().st_size} byte CSVs identical", ok)
