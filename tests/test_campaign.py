import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qudisc import (
    DIM_CAP,
    CapacityError,
    SearchConfig,
    Povm,
    StatePair,
    UnitaryPair,
    UsageError,
    ValidationError,
    build_parallel,
    evaluate_povm,
    helstrom_povm,
    optimize_protocol,
    unambiguous_povm,
)
from qudisc import builder, geometry, linalg
from qudisc import campaign as campaign_mod
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

from .oracles import reference_record, state_pair_at_angle, state_pair_with_overlap
from .test_linalg import patch_lapack


def small_config(**overrides):
    base = dict(instances=25, dim=2, t_range=(1, 4), seed=7, protocol_source="random")
    base.update(overrides)
    return CampaignConfig(**base)


def draw_pairs(monkeypatch, pair):
    """Make the campaign draw ``pair(rng, dim)`` in place of its Haar pair, from the same stream."""
    monkeypatch.setattr(campaign_mod, "haar_unitary_from_rng",
                        lambda dim, rng, batch: np.array(pair(rng, dim)))


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

    def test_parallel_source_matches_prediction_on_commuting_pairs(self, monkeypatch):
        draw_pairs(monkeypatch, commuting_diagonal_pair)
        cfg = small_config(instances=100, protocol_source="parallel", t_range=(1, 5))
        report = run_campaign(cfg)
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
    def test_theta_zero_pair_is_recorded_not_raised(self, source, monkeypatch):
        draw_pairs(monkeypatch, lambda rng, d: (np.eye(d), np.eye(d)))
        cfg = small_config(instances=2, t_range=(1, 2), seed=1, protocol_source=source)
        report = run_campaign(cfg)
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

    @pytest.mark.parametrize("source", ["random", "parallel", "optimized"])
    def test_one_check_per_unitary_and_one_phase_decomposition_per_instance(self, monkeypatch,
                                                                            source):
        counts = {"checks": 0, "decompositions": 0, "eigenvector calls": 0, "arcs": 0}
        require, eigenphases = linalg.require_unitary, linalg._eigenphases
        eigenvectors, covering_arc = builder._eigenvectors, geometry._covering_arc
        cfg = small_config(instances=6, t_range=(1, 3 if source == "optimized" else 8),
                           protocol_source=source)

        def counted_require(m, *args, **kwargs):
            a = require(m, *args, **kwargs)
            if a.shape[-1] == cfg.dim:  # the pair's unitaries, not a found protocol's interleavers
                counts["checks"] += len(a) if a.ndim == 3 else 1  # matrices checked
            return a

        def counted_eigenphases(a):
            counts["decompositions"] += 1
            return eigenphases(a)

        def counted_eigenvectors(pair, indices):
            counts["eigenvector calls"] += 1
            return eigenvectors(pair, indices)

        def counted_arc(p):
            counts["arcs"] += 1
            return covering_arc(p)

        def unreachable(eigh):
            def call(*args, **kwargs):
                raise AssertionError("a full eigendecomposition was formed")
            return call

        monkeypatch.setattr(linalg, "require_unitary", counted_require)
        monkeypatch.setattr(linalg, "_eigenphases", counted_eigenphases)
        monkeypatch.setattr(builder, "_eigenvectors", counted_eigenvectors)
        monkeypatch.setattr(geometry, "_covering_arc", counted_arc)
        patch_lapack(monkeypatch, "eigh_lo", unreachable)
        for index in range(cfg.instances):
            counts.update(dict.fromkeys(counts, 0))
            run_instance(cfg, index)
            # u1 and u2 as one stack, and U1†U2 not again; one decomposition, to phases alone,
            # whichever source asks first; the parallel plan's few eigenvectors in one call;
            # the arc found once although the plan and the search ask for it again
            assert counts == {"checks": 2, "decompositions": 1,
                              "eigenvector calls": int(source == "parallel"), "arcs": 1}

    @pytest.mark.parametrize("queries", [0, 2])
    def test_optimized_instance_simulates_its_protocol_once(self, monkeypatch, queries):
        calls, evolved, found, audited = [], [], [], []

        def wrap(module, name, seen):
            original = getattr(module, name)

            def recorded(*args, **kwargs):
                result = original(*args, **kwargs)
                seen.append((args, result))
                return result

            monkeypatch.setattr(module, name, recorded)

        for module in (builder, campaign_mod):
            wrap(module, "run_protocol", calls)
        wrap(builder, "evolve_branches", evolved)
        wrap(campaign_mod, "optimize_protocol", found)
        wrap(campaign_mod, "audit_step_slacks", audited)
        run_instance(small_config(t_range=(queries, queries), protocol_source="optimized"), 0)
        # the search's own descent states are the trace the campaign audits and measures
        assert calls == []
        ((_, result),) = found
        (((trace, _theta), _),) = audited
        assert trace is result.trace
        assert any(result.trace.states is states for _, states in evolved)

    def test_optimized_source_smoke(self):
        report = run_campaign(small_config(instances=2, t_range=(1, 2),
                                           protocol_source="optimized"))
        assert report.summary.violation_count == 0


class TestConfigValidation:
    def test_bad_instances(self):
        with pytest.raises(ValidationError):
            small_config(instances=0)

    def test_bad_t_range(self):
        with pytest.raises(ValidationError):
            small_config(t_range=(3, 1))

    @pytest.mark.parametrize("field, value", [
        ("t_range", (1.5, 1.5)),  # every instance ran at T = 1, outside its own range
        ("t_range", (1, 2.0)),
        ("instances", 3.0),
        ("dim", 2.0),
        ("seed", 1.0),
        ("instances", True),
    ])
    def test_non_integer_counts_are_refused(self, field, value):
        # each was accepted when built and failed later with an untyped TypeError, or ran
        with pytest.raises(ValidationError, match=field):
            small_config(**{field: value})

    @pytest.mark.parametrize("t_range", [5, (1,), (1, 2, 3)])
    def test_t_range_must_be_a_pair(self, t_range):
        with pytest.raises(ValidationError, match="t_range"):
            small_config(t_range=t_range)

    def test_numpy_integers_are_counts(self):
        cfg = small_config(instances=np.int64(2), dim=np.int32(2),
                           t_range=(np.int64(1), np.int64(2)), seed=np.uint64(2**64 - 1))
        # stored as Python ints: a numpy integer made the JSON report raise TypeError
        assert json.loads(render_report(run_campaign(cfg), "json"))["config"]["t_range"] == [1, 2]

    def test_bad_source(self):
        with pytest.raises(ValidationError):
            small_config(protocol_source="psychic")

    def test_parallel_needs_a_query(self):
        with pytest.raises(ValidationError):
            small_config(protocol_source="parallel", t_range=(0, 2))

    def test_dim_below_two_rejected(self):
        # a 1x1 pair has theta = 0, which would abort the campaign at instance 0
        obj = {"instances": 3, "dim": 1, "t_range": [1, 2], "seed": 5}
        with pytest.raises(ValidationError):
            config_from_obj(obj)
        with pytest.raises(ValidationError):
            run_campaign(small_config(dim=1))

    def test_parallel_has_no_copy_cap(self):
        report = run_campaign(small_config(instances=40, protocol_source="parallel",
                                           t_range=(1, 64)))
        assert report.summary.violation_count == 0
        assert report.summary.max_d0 == 0.0
        for r in report.records:
            if r.queries * r.theta >= np.pi:
                assert r.overlap <= 1e-12

    @pytest.mark.parametrize("source, dim, fits, refused", [
        ("random", 64, 2047, 2048),  # 2 (T+1) n of the trace's states within DIM_CAP**2
        ("optimized", 16, 255, 256),  # (T+1) n**2 of the search's interleaver stack
        ("parallel", 2, 64, 10**7),  # 9 (T+1) of the plan's per-copy Gram stacks
    ])
    def test_largest_instance_must_fit(self, source, dim, fits, refused):
        # built, never run: the refused sizes would need gigabytes
        assert small_config(dim=dim, t_range=(1, fits), protocol_source=source).t_range[1] == fits
        with pytest.raises(ValidationError, match=r"^t_range \[1, \d+\] is too large"):
            small_config(dim=dim, t_range=(1, refused), protocol_source=source)
        with pytest.raises(ValidationError, match="t_range"):
            config_from_obj({"instances": 1, "dim": dim, "t_range": [refused, refused],
                             "seed": 1, "protocol_source": source})

    def test_pair_draw_must_fit(self):
        # built, never run: an instance draws its pair as one (2, 2, dim, dim) Gaussian stack
        assert small_config(dim=2048, t_range=(1, 1), protocol_source="parallel").dim == 2048
        with pytest.raises(ValidationError, match=r"^dim 2049 is too large: the unitary pair draw"):
            small_config(dim=2049, t_range=(1, 1), protocol_source="parallel")
        for source in ("random", "parallel", "optimized"):
            with pytest.raises(ValidationError, match="dim"):
                config_from_obj({"instances": 1, "dim": 4096, "t_range": [1, 1], "seed": 1,
                                 "protocol_source": source})

    def test_library_entries_refuse_before_they_allocate(self):
        pair = UnitaryPair.of(np.eye(16), np.diag(np.exp(0.5j * np.arange(16))))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="257 interleavers at dimension 256"):
                optimize_protocol(pair, SearchConfig(queries=256))
            with pytest.raises(CapacityError, match="a parallel plan on 10000000 copies"):
                build_parallel(pair, 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_seed_outside_u64_refused(self):
        # numpy refused it later with a message that named no field
        for seed in (-1, 2**64):
            with pytest.raises(ValidationError, match="seed"):
                small_config(seed=seed)
            with pytest.raises(ValidationError, match="seed"):
                config_from_obj({"instances": 3, "dim": 2, "t_range": [1, 2], "seed": seed})
        assert small_config(seed=2**64 - 1).seed == 2**64 - 1

    def test_unknown_key_refused(self):
        # a misspelt key was dropped, so the campaign ran the default source
        obj = {"instances": 1, "dim": 2, "t_range": [1, 1], "seed": 1,
               "protocol_sorce": "parallel", "outpt": "x.csv"}
        with pytest.raises(ValidationError, match="unknown keys 'protocol_sorce', 'outpt'"):
            config_from_obj(obj)

    def test_config_from_obj(self):
        cfg = config_from_obj(
            {"instances": 3, "dim": 2, "t_range": [1, 2], "seed": 5}
        )
        assert cfg.protocol_source == "random"
        with pytest.raises(ValidationError):
            config_from_obj({"instances": 3})
        with pytest.raises(ValidationError):
            config_from_obj([1, 2, 3])

    @pytest.mark.parametrize("t_range", [[1, 2, 99], [1], {"0": 1, "1": 2}, "12"])
    def test_t_range_must_be_a_pair(self, t_range):
        # [1, 2, 99] was read as (1, 2)
        with pytest.raises(ValidationError, match="t_range must be a"):
            config_from_obj({"instances": 3, "dim": 2, "t_range": t_range, "seed": 5})


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


def assert_record_matches_the_dense_oracle(cfg, index):
    # every column recomputed from the same draws by dense, independent math
    record = asdict(run_instance(cfg, index)[0])
    reference = reference_record(cfg, index)
    assert record.keys() == reference.keys()
    for column, value in record.items():
        expected = reference[column]
        if column in ("index", "queries", "bound_t") or expected is None:
            assert value == expected, column
        else:
            # bound_raw divides by theta: held relative to its size
            scale = max(1.0, abs(expected)) if column == "bound_raw" else 1.0
            assert abs(value - expected) <= 1e-12 * scale, (column, value, expected)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), index=st.integers(0, 10**6), dim=st.sampled_from([2, 3]),
       t_range=st.tuples(st.integers(0, 4), st.integers(0, 4)).map(sorted))
def test_random_record_matches_the_dense_oracle(seed, index, dim, t_range):
    assert_record_matches_the_dense_oracle(CampaignConfig(index + 1, dim, tuple(t_range), seed),
                                           index)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), index=st.integers(0, 10**6), dim=st.sampled_from([2, 3]),
       t_range=st.tuples(st.integers(1, 4), st.integers(1, 4)).map(sorted))
def test_parallel_record_matches_the_dense_oracle(seed, index, dim, t_range):
    # the plan is an input; at T*theta >= pi the final overlap is 0 and the
    # measured errors are rounding noise on both sides
    cfg = CampaignConfig(index + 1, dim, tuple(t_range), seed, "parallel")
    assert_record_matches_the_dense_oracle(cfg, index)


def tiny_phase_pair(rng, dim):
    """I against diag(1, e^{i phi}) with phi in [1e-8, 1e-7]: theta = phi."""
    return np.eye(dim, dtype=complex), np.diag([1.0, np.exp(1j * rng.uniform(1e-8, 1e-7))])


@pytest.mark.parametrize("source", ["random", "parallel", "optimized"])
def test_small_theta_campaign_runs_clean(source, monkeypatch):
    # the span basis of a nearly coinciding final pair failed its orthonormality check, and
    # the step audit's 2*sqrt(1 - F^2) cancelled into false violations
    draw_pairs(monkeypatch, tiny_phase_pair)
    report = run_campaign(CampaignConfig(20, 2, (1, 3), 5, source))
    assert all(0.0 < r.theta <= 1e-7 for r in report.records)
    assert report.summary.violation_count == 0


class TestMeasurePair:
    @pytest.mark.parametrize("n", [4, 64])
    @pytest.mark.parametrize("delta", [2e-9, 1e-8, 1e-7])
    def test_nearly_coinciding_states(self, n, delta):
        # b - <a|b>a cancels here; one projection left e2 off orthogonal to a beyond POVM_TOL
        rng = np.random.default_rng(43)
        for _ in range(20):
            _, inconclusive = measure_pair(StatePair.of(*state_pair_at_angle(delta, n, rng)))
            assert abs(inconclusive - np.cos(delta)) <= 1e-12

    @pytest.mark.parametrize("n", [4, 64])
    def test_helstrom_error_of_nearly_coinciding_states(self, n):
        # the tilt (|a1|^2 - |a2|^2 - |b1|^2 + |b2|^2)/2 cancelled here, off by up to 1e-8
        rng = np.random.default_rng(44)
        for delta in np.exp(rng.uniform(np.log(2e-9), np.log(1e-7), 200)):
            error, _ = measure_pair(StatePair.of(*state_pair_at_angle(delta, n, rng)))
            assert abs(error - (1.0 - np.sin(delta)) / 2.0) <= 1e-12

    @pytest.mark.parametrize("overlap", [0.0, 0.3, 0.9])
    def test_equals_the_public_measurements(self, overlap):
        phi1, phi2 = state_pair_with_overlap(overlap, 4, np.random.default_rng(41))
        pair = StatePair.of(phi1, phi2)
        helstrom = evaluate_povm(helstrom_povm(pair), pair)
        three = evaluate_povm(unambiguous_povm(pair), pair)
        error, inconclusive = measure_pair(StatePair.of(phi1, phi2))
        assert error == min(0.5, max(0.0, 1.0 - min(helstrom.p_correct_1, helstrom.p_correct_2)))
        assert inconclusive == max(three.p_inconclusive_1, three.p_inconclusive_2)

    @pytest.mark.parametrize("queries, povms", [(3, 2), (0, 1)])
    def test_checks_each_state_once_and_validates_each_povm_once(self, monkeypatch, queries,
                                                                 povms):
        # zero queries leave the final states equal: only the Helstrom coin is measured
        calls = {"checks": [], "povms": 0}
        check, validate = geometry.require_normalized, Povm.validate

        def counted_check(m):
            calls["checks"].append(np.shape(m)[:-1])
            return check(m)

        def counted_validate(povm):
            calls["povms"] += 1
            return validate(povm)

        monkeypatch.setattr(geometry, "require_normalized", counted_check)
        monkeypatch.setattr(Povm, "validate", counted_validate)
        run_instance(small_config(t_range=(queries, queries)), 0)
        # both branches' T+1 states, checked in one call and never again
        assert calls == {"checks": [(2, queries + 1)], "povms": povms}

    def test_coinciding_states_have_no_unambiguous_rate(self):
        # normalized within tolerance, yet <a|a> = 1 - 1.8e-10: the pair spans one dimension
        a = (1.0 - 0.9e-10) * np.eye(4, dtype=complex)[0]
        assert measure_pair(StatePair.of(a, a)) == (0.5, None)


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
