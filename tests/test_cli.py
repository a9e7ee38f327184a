import dataclasses
import json

import numpy as np
import pytest

from qudisc import Protocol
from qudisc.campaign import CampaignReport, run_campaign, summarize
from qudisc.cli import main
from qudisc.serialize import matrix_to_obj, protocol_to_obj

I2 = np.eye(2, dtype=complex)
EIGHTH_TURN = np.diag([1.0, np.exp(1j * np.pi / 4)])
Z = np.diag([1.0, -1.0]).astype(complex)


def write_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


@pytest.fixture
def fixtures(tmp_path):
    paths = {}
    for name, m in [("i2", I2), ("eighth", EIGHTH_TURN), ("z", Z)]:
        path = tmp_path / f"{name}.json"
        write_json(matrix_to_obj(m), str(path))
        paths[name] = str(path)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    protocol = Protocol(2, 1, 1, [I2.copy(), I2.copy()], plus)
    paths["protocol"] = str(tmp_path / "protocol.json")
    write_json(protocol_to_obj(protocol), paths["protocol"])
    paths["campaign"] = str(tmp_path / "campaign.json")
    write_json(
        {"instances": 8, "dim": 2, "t_range": [1, 3], "seed": 21,
         "protocol_source": "random"},
        paths["campaign"],
    )
    paths["search"] = str(tmp_path / "search.json")
    write_json(
        {"queries": 1, "restarts": 2, "max_iterations": 10,
         "step_tolerance": 1e-3, "seed": 5},
        paths["search"],
    )
    paths["dir"] = str(tmp_path)
    return paths


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTheta:
    def test_quarter_turn(self, fixtures, capsys):
        code, out, _ = run_cli(capsys, ["theta", "--u1", fixtures["i2"],
                                        "--u2", fixtures["eighth"]])
        assert code == 0
        obj = json.loads(out)
        assert obj["theta"] == pytest.approx(np.pi / 4, abs=1e-12)
        assert {"start_phase", "end_phase"} <= set(obj)

    def test_rejects_non_unitary(self, fixtures, tmp_path, capsys):
        # every subcommand that reads a pair names the flag whose matrix is bad
        bad = tmp_path / "bad.json"
        write_json(matrix_to_obj(np.diag([1.0, 0.5])), str(bad))
        extra = {"theta": [], "fidelity": [], "simulate": ["--protocol", fixtures["protocol"]],
                 "search": ["--config", fixtures["search"]]}
        for command, rest in extra.items():
            for flag, other in (("u1", "u2"), ("u2", "u1")):
                files = {flag: str(bad), other: fixtures["i2"]}
                code, out, err = run_cli(capsys, [command, "--u1", files["u1"],
                                                  "--u2", files["u2"], *rest])
                assert code == 2 and out == "", (command, flag)
                assert err.startswith(f"error: {flag} is not unitary"), (command, flag, err)

    def test_rejects_entries_that_are_not_numbers(self, fixtures, tmp_path, capsys):
        # exit 0 and theta = pi/2: numpy read "1" and true as floats
        bad = tmp_path / "bad.json"
        write_json({"dim": 2, "entries": [["1", 0], [0, 0], [0, 0], [True, False]]}, str(bad))
        code, out, err = run_cli(capsys, ["theta", "--u1", str(bad), "--u2", fixtures["i2"]])
        assert code == 2 and out == ""
        assert err.startswith("error: u1: entries must be [re, im] pairs of numbers"), err

    def test_rejects_a_dimension_mismatch(self, fixtures, tmp_path, capsys):
        three = tmp_path / "three.json"
        write_json(matrix_to_obj(np.eye(3)), str(three))
        code, _, err = run_cli(capsys, ["theta", "--u1", fixtures["i2"], "--u2", str(three)])
        assert code == 2
        assert err.startswith("error: dimension mismatch: shapes (2, 2) vs (3, 3)")


class TestFidelity:
    def test_closed_form_only(self, fixtures, capsys):
        code, out, _ = run_cli(capsys, ["fidelity", "--u1", fixtures["i2"],
                                        "--u2", fixtures["eighth"]])
        assert code == 0
        obj = json.loads(out)
        assert obj["fidelity"] == pytest.approx(np.cos(np.pi / 8), abs=1e-12)
        assert "oracle" not in obj

    def test_with_oracle(self, fixtures, capsys):
        code, out, _ = run_cli(capsys, ["fidelity", "--u1", fixtures["i2"],
                                        "--u2", fixtures["eighth"], "--oracle"])
        assert code == 0
        obj = json.loads(out)
        assert abs(obj["difference"]) <= 1e-6
        assert obj["oracle"] == pytest.approx(obj["fidelity"], abs=1e-6)


class TestPairWithinTolerance:
    # each matrix's unitarity defect is 9.0e-11, within 1e-10; that of U1†U2 is 1.8e-10
    @pytest.mark.parametrize("argv", [["theta"], ["fidelity", "--oracle"]])
    def test_product_is_not_checked_again(self, argv, tmp_path, capsys):
        paths = []
        for name, m in [("u1", np.diag([1 + 0.45e-10, 1.0])), ("u2", np.diag([1 + 0.45e-10, 1j]))]:
            paths += [f"--{name}", str(tmp_path / f"{name}.json")]
            write_json(matrix_to_obj(m), paths[-1])
        code, out, err = run_cli(capsys, argv + paths)
        assert code == 0, err
        obj = json.loads(out)
        if argv == ["theta"]:
            assert obj["theta"] == pytest.approx(np.pi / 2, abs=1e-12)
        else:
            assert obj["difference"] == pytest.approx(0.0, abs=1e-12)


class TestBoundAndPerfect:
    def test_bound_bounded(self, fixtures, capsys):
        code, out, _ = run_cli(capsys, ["bound", "--theta", "0.1",
                                        "--epsilon", "0.25", "--mode", "bounded"])
        assert code == 0
        obj = json.loads(out)
        assert obj["t_lower"] == 10
        assert obj["raw_value"] == pytest.approx(10.0, abs=1e-9)
        assert obj["mode"] == "bounded_error"

    def test_bound_onesided(self, fixtures, capsys):
        code, out, _ = run_cli(capsys, ["bound", "--theta", "0.2",
                                        "--epsilon", "0.6", "--mode", "onesided"])
        assert code == 0
        assert json.loads(out)["t_lower"] == 8

    def test_bound_domain_error_exit_code(self, fixtures, capsys):
        code, _, err = run_cli(capsys, ["bound", "--theta", "0.0",
                                        "--epsilon", "0.1", "--mode", "bounded"])
        assert code == 2
        assert "error:" in err

    def test_perfect(self, fixtures, capsys):
        code, out, _ = run_cli(capsys, ["perfect", "--theta", str(np.pi / 4)])
        assert code == 0
        assert json.loads(out)["t_perfect"] == 4

    @pytest.mark.parametrize("argv", [
        ["perfect", "--theta", "5e-324"],
        ["bound", "--theta", "1e-310", "--epsilon", "0", "--mode", "bounded"],
    ])
    def test_theta_too_small_for_a_finite_bound(self, argv, capsys):
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert "theta" in err


class TestSimulate:
    def test_identity_vs_z(self, fixtures, capsys):
        code, out, _ = run_cli(capsys, ["simulate", "--u1", fixtures["i2"],
                                        "--u2", fixtures["z"],
                                        "--protocol", fixtures["protocol"]])
        assert code == 0
        obj = json.loads(out)
        assert obj["distances"] == [0.0, 2.0]
        assert obj["final_overlap"] <= 1e-12
        assert obj["helstrom_error"] <= 1e-12
        assert obj["unambiguous_inconclusive"] <= 1e-9

    def test_identical_pair_reports_null_inconclusive(self, fixtures, capsys):
        code, out, _ = run_cli(capsys, ["simulate", "--u1", fixtures["i2"],
                                        "--u2", fixtures["i2"],
                                        "--protocol", fixtures["protocol"]])
        assert code == 0
        obj = json.loads(out)
        assert obj["unambiguous_inconclusive"] is None
        assert obj["helstrom_error"] == pytest.approx(0.5, abs=1e-12)


class TestSimulateSmallTheta:
    def test_bell_probe_at_tiny_theta(self, tmp_path, capsys):
        # the final states nearly coincide; their span basis failed its orthonormality check
        theta = 5e-8
        paths = {}
        for name, m in [("u1", I2), ("u2", np.diag([1.0, np.exp(1j * theta)]))]:
            paths[name] = str(tmp_path / f"{name}.json")
            write_json(matrix_to_obj(m), paths[name])
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        paths["protocol"] = str(tmp_path / "protocol.json")
        write_json(protocol_to_obj(Protocol(2, 2, 1, [np.eye(4)] * 2, bell)), paths["protocol"])
        code, out, _ = run_cli(capsys, ["simulate", "--u1", paths["u1"], "--u2", paths["u2"],
                                        "--protocol", paths["protocol"]])
        assert code == 0
        assert json.loads(out)["unambiguous_inconclusive"] == pytest.approx(np.cos(theta / 2),
                                                                            abs=1e-12)


class TestSearch:
    def test_search_outputs_protocol(self, fixtures, capsys):
        code, out, _ = run_cli(capsys, ["search", "--u1", fixtures["i2"],
                                        "--u2", fixtures["eighth"],
                                        "--config", fixtures["search"]])
        assert code == 0
        obj = json.loads(out)
        assert obj["achieved_overlap"] <= 1.0
        assert obj["protocol"]["queries"] == 1
        assert len(obj["protocol"]["interleavers"]) == 2

    def test_step_tolerance_above_one_is_refused(self, fixtures, tmp_path, capsys):
        # the search tried no step and printed its starting protocol as converged
        bad = tmp_path / "search.json"
        write_json({"queries": 3, "restarts": 1, "max_iterations": 30,
                    "step_tolerance": 2.0, "seed": 1}, str(bad))
        code, out, err = run_cli(capsys, ["search", "--u1", fixtures["i2"],
                                          "--u2", fixtures["eighth"], "--config", str(bad)])
        assert code == 2 and out == ""
        assert "step_tolerance" in err

    def test_seed_flag_overrides_config(self, fixtures, capsys):
        args = ["search", "--u1", fixtures["i2"], "--u2", fixtures["eighth"],
                "--config", fixtures["search"]]
        _, out_a, _ = run_cli(capsys, args + ["--seed", "99"])
        _, out_b, _ = run_cli(capsys, args + ["--seed", "99"])
        assert out_a == out_b


class TestVerify:
    def test_exit_zero_and_csv_output(self, fixtures, tmp_path, capsys):
        out_path = tmp_path / "report.csv"
        code, _, err = run_cli(capsys, ["verify", "--config", fixtures["campaign"],
                                        "--format", "csv", "--output", str(out_path)])
        assert code == 0
        assert "violations=0" in err
        text = out_path.read_text()
        assert text.startswith("index,theta,T,")
        assert len(text.strip().split("\n")) == 9  # header + 8 instances

    def test_two_runs_are_byte_identical(self, fixtures, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, ["verify", "--config", fixtures["campaign"],
                         "--format", "csv", "--output", str(a)])
        run_cli(capsys, ["verify", "--config", fixtures["campaign"],
                         "--format", "csv", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_two_json_runs_are_byte_identical(self, fixtures, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, ["verify", "--config", fixtures["campaign"],
                         "--format", "json", "--output", str(a)])
        run_cli(capsys, ["verify", "--config", fixtures["campaign"],
                         "--format", "json", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_records(self, fixtures, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, ["verify", "--config", fixtures["campaign"],
                         "--format", "csv", "--output", str(a)])
        run_cli(capsys, ["verify", "--config", fixtures["campaign"],
                         "--format", "csv", "--output", str(b), "--seed", "1234"])
        assert a.read_bytes() != b.read_bytes()

    def test_output_to_missing_directory_exits_2(self, fixtures, tmp_path, capsys):
        code, _, err = run_cli(capsys, ["verify", "--config", fixtures["campaign"],
                                        "--output", str(tmp_path / "missing" / "x.csv")])
        assert code == 2
        assert "error:" in err

    def test_json_to_stdout(self, fixtures, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--config", fixtures["campaign"]])
        assert code == 0
        obj = json.loads(out)
        assert obj["summary"]["violation_count"] == 0

    def test_violation_forces_nonzero_exit(self, fixtures, capsys, monkeypatch):
        def doctored(cfg):
            report = run_campaign(cfg)
            bad = dataclasses.replace(report.records[0], theorem1_slack=-1.0)
            records = [bad] + report.records[1:]
            return CampaignReport(config=cfg, records=records,
                                  summary=summarize(records, 0.0))

        monkeypatch.setattr("qudisc.cli.campaign_mod.run_campaign", doctored)
        code, _, err = run_cli(capsys, ["verify", "--config", fixtures["campaign"]])
        assert code == 1
        assert "violations=1" in err
        assert "seed=21, index): [0]" in err  # replay provenance


class TestWireFormatTypes:
    """A JSON field of the wrong type exits 2 with an error naming the field, not a traceback."""

    def test_theta_with_null_dim(self, fixtures, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        write_json({**matrix_to_obj(I2), "dim": None}, str(bad))
        code, _, err = run_cli(capsys, ["theta", "--u1", str(bad), "--u2", fixtures["i2"]])
        assert code == 2
        assert err.startswith("error: u1: dim must be an integer, got None")

    def test_theta_with_non_integral_dim(self, fixtures, tmp_path, capsys):
        # 2.7 was read as dim 2
        bad = tmp_path / "bad.json"
        write_json({**matrix_to_obj(I2), "dim": 2.7}, str(bad))
        code, _, err = run_cli(capsys, ["theta", "--u1", fixtures["i2"], "--u2", str(bad)])
        assert code == 2
        assert err.startswith("error: u2: dim must be an integer, got 2.7")

    @pytest.mark.parametrize("field, value, message", [
        ("system_dim", None, "protocol: system_dim must be an integer, got None"),
        ("queries", 1.5, "protocol: queries must be an integer, got 1.5"),
        ("ancilla_dim", True, "protocol: ancilla_dim must be an integer, got True"),
        ("interleavers", 5, "protocol: interleavers must be a list of matrices"),
    ])
    def test_simulate_with_a_mistyped_protocol_field(self, fixtures, tmp_path, capsys,
                                                     field, value, message):
        with open(fixtures["protocol"], encoding="utf-8") as fh:
            obj = json.load(fh)
        bad = tmp_path / "bad_protocol.json"
        write_json({**obj, field: value}, str(bad))
        code, _, err = run_cli(capsys, ["simulate", "--u1", fixtures["i2"],
                                        "--u2", fixtures["z"], "--protocol", str(bad)])
        assert code == 2
        assert err.startswith(f"error: {message}")

    def test_verify_with_a_file_descriptor_as_output_path(self, tmp_path, capsys):
        # open(1, "w") once wrote the report to stdout and then closed it; the report's path
        # is --output's alone now, and a config that carries one is refused
        bad = tmp_path / "campaign.json"
        for path in (1, "report.csv"):
            write_json({"instances": 1, "dim": 2, "t_range": [1, 1], "seed": 1,
                        "output_path": path}, str(bad))
            code, out, err = run_cli(capsys, ["verify", "--config", str(bad)])
            assert code == 2 and out == ""
            assert err.startswith("error: malformed campaign config: unknown keys 'output_path'")

    def test_verify_with_non_integral_dim(self, tmp_path, capsys):
        bad = tmp_path / "campaign.json"
        write_json({"instances": 2, "dim": 2.7, "t_range": [1, 2], "seed": 1}, str(bad))
        code, _, err = run_cli(capsys, ["verify", "--config", str(bad)])
        assert code == 2
        assert "dim must be an integer, got 2.7" in err


class TestGlobalFlags:
    def test_csv_format_rejected_outside_verify(self, fixtures, capsys):
        # --format exists on verify alone, so argparse refuses it before any work is done
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--theta", "0.5", "--epsilon", "0.1", "--mode", "bounded",
                  "--format", "csv"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bound", "--theta", "1", "--epsilon", "0.1", "--mode", "bounded", "--seed", "5"],
        ["perfect", "--theta", "1", "--format", "csv"],
    ])
    def test_flags_exist_only_where_they_act(self, capsys, argv):
        # the seed was ignored, and csv refused only once the command had run
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_seed_outside_u64_refused(self, fixtures, tmp_path, capsys):
        # numpy refused -2 later with a message that named no field
        for argv in (["verify", "--config", fixtures["campaign"]],
                     ["search", "--u1", fixtures["i2"], "--u2", fixtures["z"],
                      "--config", fixtures["search"]]):
            for seed in ("-2", str(2**64)):
                code, out, err = run_cli(capsys, argv + ["--seed", seed])
                assert code == 2 and out == ""
                assert err.startswith("error: seed must lie in [0, 2**64)")
        bad = tmp_path / "campaign.json"
        write_json({"instances": 1, "dim": 2, "t_range": [1, 1], "seed": -1}, str(bad))
        code, _, err = run_cli(capsys, ["verify", "--config", str(bad)])
        assert code == 2
        assert err.startswith("error: malformed campaign config: seed must lie in")

    def test_output_flag_writes_file(self, fixtures, tmp_path, capsys):
        path = tmp_path / "theta.json"
        code, out, _ = run_cli(capsys, ["theta", "--u1", fixtures["i2"],
                                        "--u2", fixtures["z"], "--output", str(path)])
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["theta"] == pytest.approx(np.pi)

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2
