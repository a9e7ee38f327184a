import dataclasses
import json

import numpy as np
import pytest

from qudisc import Protocol
from qudisc.campaign import CampaignReport, config_from_obj, render_csv, run_campaign, summarize
from qudisc.cli import main
from qudisc.serialize import dump_json, matrix_to_obj, protocol_to_obj

I2 = np.eye(2, dtype=complex)
EIGHTH_TURN = np.diag([1.0, np.exp(1j * np.pi / 4)])
Z = np.diag([1.0, -1.0]).astype(complex)


@pytest.fixture
def fixtures(tmp_path):
    paths = {}
    for name, m in [("i2", I2), ("eighth", EIGHTH_TURN), ("z", Z)]:
        path = tmp_path / f"{name}.json"
        dump_json(matrix_to_obj(m), str(path))
        paths[name] = str(path)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    protocol = Protocol(2, 1, 1, [I2.copy(), I2.copy()], plus)
    paths["protocol"] = str(tmp_path / "protocol.json")
    dump_json(protocol_to_obj(protocol), paths["protocol"])
    paths["campaign"] = str(tmp_path / "campaign.json")
    dump_json(
        {"instances": 8, "dim": 2, "t_range": [1, 3], "seed": 21,
         "protocol_source": "random"},
        paths["campaign"],
    )
    paths["search"] = str(tmp_path / "search.json")
    dump_json(
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
        bad = tmp_path / "bad.json"
        dump_json(matrix_to_obj(np.diag([1.0, 0.5])), str(bad))
        code, _, err = run_cli(capsys, ["theta", "--u1", str(bad), "--u2", fixtures["i2"]])
        assert code == 2
        assert "error:" in err


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

    def test_config_output_path_receives_the_report(self, tmp_path, capsys):
        obj = {"instances": 2, "dim": 2, "t_range": [1, 2], "seed": 3,
               "output_path": str(tmp_path / "report.csv")}
        config = tmp_path / "campaign.json"
        dump_json(obj, str(config))
        code, out, _ = run_cli(capsys, ["verify", "--config", str(config), "--format", "csv"])
        assert code == 0
        assert out == ""
        expected = render_csv(run_campaign(config_from_obj(obj)))
        assert (tmp_path / "report.csv").read_text() == expected

    def test_json_to_stdout(self, fixtures, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--config", fixtures["campaign"]])
        assert code == 0
        obj = json.loads(out)
        assert obj["summary"]["violation_count"] == 0

    def test_violation_forces_nonzero_exit(self, fixtures, capsys, monkeypatch):
        from qudisc import campaign as campaign_mod

        def doctored(cfg, pair_factory=None):
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


class TestGlobalFlags:
    def test_csv_format_rejected_outside_verify(self, fixtures, capsys):
        code, _, err = run_cli(capsys, ["bound", "--theta", "0.5", "--epsilon", "0.1",
                                        "--mode", "bounded", "--format", "csv"])
        assert code == 2
        assert "verify" in err

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
