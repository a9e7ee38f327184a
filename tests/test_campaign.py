import json
import tracemalloc

import numpy as np
import pytest

from qudisc import (
    DIM_CAP,
    Povm,
    UsageError,
    ValidationError,
    evaluate_povm,
    helstrom_povm,
    unambiguous_povm,
)
from qudisc import geometry, linalg, measurement
from qudisc.campaign import (
    CSV_COLUMNS,
    CampaignConfig,
    CampaignReport,
    InstanceRecord,
    config_from_obj,
    measure_pair,
    render_csv,
    render_report,
    report_to_obj,
    run_campaign,
    run_instance,
    summarize,
    violating_indices,
    violations,
)

from .oracles import state_pair_with_overlap


def small_config(**overrides):
    base = dict(instances=25, dim=2, t_range=(1, 4), seed=7, protocol_source="random")
    base.update(overrides)
    return CampaignConfig(**base)


def commuting_diagonal_pair(rng, dim):
    phases = rng.uniform(0, 2 * np.pi, size=dim)
    return np.eye(dim, dtype=complex), np.diag(np.exp(1j * phases))


class TestRunCampaign:
    def test_random_campaign_has_no_violations(self):
        report = run_campaign(small_config())
        s = report.summary
        assert s.violation_count == 0
        assert s.violations_bounded == s.violations_onesided == 0
        assert s.violations_lemma2 == s.violations_d0 == 0
        assert s.min_theorem1_slack >= -1e-6
        assert s.min_theorem1_slack_onesided >= -1e-6
        assert s.min_lemma2_slack >= -1e-9
        assert s.max_d0 <= 1e-12

    def test_summary_mins_match_records(self):
        report = run_campaign(small_config())
        s = report.summary
        assert s.min_theorem1_slack == min(r.theorem1_slack for r in report.records)
        assert s.min_theorem1_slack_onesided == min(
            r.theorem1_slack_onesided for r in report.records
        )
        assert s.min_lemma2_slack == min(
            r.lemma2_min_slack for r in report.records if r.lemma2_min_slack is not None
        )
        assert s.instances == len(report.records) == 25

    def test_instances_are_order_independent(self):
        cfg = small_config(instances=6)
        report = run_campaign(cfg)
        solo, _ = run_instance(cfg, 4)
        assert solo == report.records[4]

    def test_parallel_source_matches_prediction_on_commuting_pairs(self):
        cfg = small_config(instances=100, protocol_source="parallel", t_range=(1, 5))
        report = run_campaign(cfg, pair_factory=commuting_diagonal_pair)
        assert report.summary.violation_count == 0
        for r in report.records:
            # the optimum: cos(T*theta/2) below perfect discrimination, 0 from there on
            predicted = 0.0 if r.queries * r.theta >= np.pi else np.cos(r.queries * r.theta / 2.0)
            assert abs(r.overlap - predicted) <= 1e-12

    def test_zero_query_instance(self):
        report = run_campaign(small_config(instances=1, t_range=(0, 0)))
        r = report.records[0]
        assert r.helstrom_error == pytest.approx(0.5, abs=1e-12)
        assert r.theorem1_slack == pytest.approx(0.0, abs=1e-12)
        assert r.lemma2_min_slack is None
        assert r.inconclusive == 1.0
        assert report.summary.min_lemma2_slack is None

    def test_zero_query_helstrom_error_stays_within_half(self):
        # rounding in the fair-coin measurement can land just above 0.5
        report = run_campaign(small_config(instances=6, t_range=(0, 0)))
        for r in report.records:
            assert 0.0 <= r.helstrom_error <= 0.5
            assert r.theorem1_slack == 0.0

    @pytest.mark.parametrize("source", ["random", "parallel", "optimized"])
    def test_theta_zero_pair_is_recorded_not_raised(self, source):
        cfg = small_config(instances=2, t_range=(1, 2), seed=1, protocol_source=source)
        report = run_campaign(cfg, pair_factory=lambda rng, d: (np.eye(d), np.eye(d)))
        assert report.summary.violation_count == 0
        for r in report.records:
            assert (r.theta, r.overlap, r.helstrom_error, r.inconclusive) == (0.0, 1.0, 0.5, 1.0)
            assert (r.theorem1_slack, r.theorem1_slack_onesided) == (0.0, 0.0)
            assert (r.bound_raw, r.bound_t, r.lemma2_min_slack) == (None, None, None)
        row = render_csv(report).split("\n")[1].split(",")
        assert [row[CSV_COLUMNS.index(c)] for c in ("bound_raw", "bound_t", "lemma2_min_slack")] \
            == ["", "", ""]

    def test_random_source_at_the_cap_forms_no_dense_array(self):
        cfg = small_config(instances=2, dim=64, t_range=(1, 3), seed=1)  # n = 64 * 64 = DIM_CAP
        tracemalloc.start()
        try:
            report = run_campaign(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * DIM_CAP * DIM_CAP // 100  # far below one n x n complex array
        assert report.summary.violation_count == 0

    @pytest.mark.parametrize("source", ["random", "parallel"])
    def test_one_check_per_unitary_and_one_schur_per_instance(self, monkeypatch, source):
        counts = {"checks": 0, "schur": 0, "arcs": 0}
        require, gees, covering_arc = linalg.require_unitary, linalg._gees, geometry._covering_arc

        def counted_require(m, *args, **kwargs):
            counts["checks"] += len(m) if np.ndim(m) == 3 else 1  # matrices checked
            return require(m, *args, **kwargs)

        def counted_gees(*args, **kwargs):
            counts["schur"] += 1
            return gees(*args, **kwargs)

        def counted_arc(p):
            counts["arcs"] += 1
            return covering_arc(p)

        cfg = small_config(instances=6, t_range=(1, 8), protocol_source=source)
        linalg._gees_lwork(cfg.dim)  # the once-per-dimension workspace query is not a Schur
        monkeypatch.setattr(linalg, "require_unitary", counted_require)
        monkeypatch.setattr(linalg, "_gees", counted_gees)
        monkeypatch.setattr(geometry, "_covering_arc", counted_arc)
        for index in range(cfg.instances):
            counts.update(checks=0, schur=0, arcs=0)
            run_instance(cfg, index)
            # u1 and u2 as one stack, and eigen_system's check of U1†U2;
            # the arc is found once although the parallel plan asks for it again
            assert counts == {"checks": 3, "schur": 1, "arcs": 1}

    def test_optimized_source_smoke(self):
        report = run_campaign(small_config(instances=2, t_range=(1, 2),
                                           protocol_source="optimized"))
        assert report.summary.violation_count == 0


class TestConfigValidation:
    def test_bad_instances(self):
        with pytest.raises(ValidationError):
            small_config(instances=0).validate()

    def test_bad_t_range(self):
        with pytest.raises(ValidationError):
            small_config(t_range=(3, 1)).validate()

    def test_bad_source(self):
        with pytest.raises(ValidationError):
            small_config(protocol_source="psychic").validate()

    def test_parallel_needs_a_query(self):
        with pytest.raises(ValidationError):
            small_config(protocol_source="parallel", t_range=(0, 2)).validate()

    def test_dim_below_two_rejected(self):
        # a 1x1 pair has theta = 0, which would abort the campaign at instance 0
        obj = {"instances": 3, "dim": 1, "t_range": [1, 2], "seed": 5}
        with pytest.raises(ValidationError):
            config_from_obj(obj)
        with pytest.raises(ValidationError):
            run_campaign(small_config(dim=1))

    def test_parallel_has_no_copy_cap(self):
        cfg = small_config(instances=40, protocol_source="parallel", t_range=(1, 64))
        cfg.validate()
        report = run_campaign(cfg)
        assert report.summary.violation_count == 0
        assert report.summary.max_d0 == 0.0
        for r in report.records:
            if r.queries * r.theta >= np.pi:
                assert r.overlap <= 1e-12

    def test_config_from_obj(self):
        cfg = config_from_obj(
            {"instances": 3, "dim": 2, "t_range": [1, 2], "seed": 5}
        )
        assert cfg.protocol_source == "random"
        with pytest.raises(ValidationError):
            config_from_obj({"instances": 3})
        with pytest.raises(ValidationError):
            config_from_obj([1, 2, 3])


class TestReportFormats:
    def test_csv_is_deterministic(self):
        cfg = small_config(instances=10)
        a = render_csv(run_campaign(cfg))
        b = render_csv(run_campaign(cfg))
        assert a == b

    def test_csv_shape(self):
        cfg = small_config(instances=3)
        text = render_csv(run_campaign(cfg))
        lines = text.strip().split("\n")
        assert len(lines) == 4
        assert lines[0] == ",".join(CSV_COLUMNS)

    def test_empty_report_is_header_only(self):
        report = CampaignReport(config=small_config(), records=[],
                                summary=summarize([], None))
        text = render_csv(report)
        assert text == ",".join(CSV_COLUMNS) + "\n"

    def test_csv_round_trips_fields(self):
        report = run_campaign(small_config(instances=5))
        lines = render_csv(report).strip().split("\n")
        header = lines[0].split(",")
        for line, record in zip(lines[1:], report.records):
            row = dict(zip(header, line.split(",")))
            assert int(row["index"]) == record.index
            assert int(row["T"]) == record.queries
            assert int(row["bound_t"]) == record.bound_t
            assert float(row["theta"]) == record.theta
            assert float(row["overlap"]) == record.overlap
            assert float(row["helstrom_error"]) == record.helstrom_error
            assert float(row["inconclusive"]) == record.inconclusive
            assert float(row["bound_raw"]) == record.bound_raw
            assert float(row["lemma2_min_slack"]) == record.lemma2_min_slack
            assert float(row["theorem1_slack"]) == record.theorem1_slack
            assert float(row["theorem1_slack_onesided"]) == record.theorem1_slack_onesided

    def test_zero_query_csv_cell_is_empty(self):
        report = run_campaign(small_config(instances=1, t_range=(0, 0)))
        line = render_csv(report).strip().split("\n")[1]
        row = dict(zip(CSV_COLUMNS, line.split(",")))
        assert row["lemma2_min_slack"] == ""

    def test_json_round_trip_is_structural_identity(self):
        report = run_campaign(small_config(instances=5))
        obj = json.loads(render_report(report, "json"))
        assert obj == report_to_obj(report)
        assert [InstanceRecord(**r) for r in obj["records"]] == report.records

    def test_report_obj_layout(self):
        report = run_campaign(small_config(instances=2))
        obj = report_to_obj(report)
        assert set(obj) == {"config", "records", "summary"}
        assert len(obj["records"]) == 2

    def test_unknown_format_is_a_usage_error(self):
        report = run_campaign(small_config(instances=1))
        with pytest.raises(UsageError):
            render_report(report, "xml")


class TestMeasurePair:
    @pytest.mark.parametrize("overlap", [0.0, 0.3, 0.9])
    def test_equals_the_public_measurements(self, overlap):
        phi1, phi2 = state_pair_with_overlap(overlap, 4, np.random.default_rng(41))
        helstrom = evaluate_povm(helstrom_povm(phi1, phi2), phi1, phi2)
        three = evaluate_povm(unambiguous_povm(phi1, phi2), phi1, phi2)
        error, inconclusive = measure_pair(phi1, phi2)
        assert error == min(0.5, max(0.0, 1.0 - min(helstrom.p_correct_1, helstrom.p_correct_2)))
        assert inconclusive == max(three.p_inconclusive_1, three.p_inconclusive_2)

    @pytest.mark.parametrize("overlap, povms", [(0.3, 2), (1.0, 1)])
    def test_checks_each_state_once_and_validates_each_povm_once(self, monkeypatch, overlap,
                                                                 povms):
        calls = {"states": 0, "povms": 0}
        check, validate = measurement.require_normalized, Povm.validate

        def counted_check(v, *args, **kwargs):
            calls["states"] += 1
            return check(v, *args, **kwargs)

        def counted_validate(povm):
            calls["povms"] += 1
            return validate(povm)

        monkeypatch.setattr(measurement, "require_normalized", counted_check)
        monkeypatch.setattr(Povm, "validate", counted_validate)
        phi1, phi2 = state_pair_with_overlap(overlap, 4, np.random.default_rng(41))
        measure_pair(phi1, phi2)
        assert calls == {"states": 2, "povms": povms}

    def test_coinciding_states_have_no_unambiguous_rate(self):
        # normalized within tolerance, yet <a|a> = 1 - 1.8e-10: the pair spans one dimension
        a = (1.0 - 0.9e-10) * np.eye(4, dtype=complex)[0]
        assert measure_pair(a, a) == (0.5, None)


def test_one_predicate_counts_and_names_violations():
    clean = dict(theta=1.0, queries=1, overlap=0.5, helstrom_error=0.1, inconclusive=0.5,
                 bound_raw=1.0, bound_t=1, lemma2_min_slack=0.0, theorem1_slack=0.0,
                 theorem1_slack_onesided=0.0)
    records = [
        InstanceRecord(index=0, **clean),
        InstanceRecord(index=1, **{**clean, "theorem1_slack": -2e-6}),
        InstanceRecord(index=2, **{**clean, "theorem1_slack_onesided": -2e-6}),
        InstanceRecord(index=3, **{**clean, "lemma2_min_slack": -2e-9}),
        InstanceRecord(index=4, **{**clean, "lemma2_min_slack": None}),
    ]
    assert [violations(r) for r in records] == [
        (False, False, False), (True, False, False), (False, True, False),
        (False, False, True), (False, False, False),
    ]
    summary = summarize(records, 0.0)
    assert (summary.violations_bounded, summary.violations_onesided,
            summary.violations_lemma2, summary.violation_count) == (1, 1, 1, 3)
    report = CampaignReport(config=small_config(), records=records, summary=summary)
    assert violating_indices(report) == [1, 2, 3]
