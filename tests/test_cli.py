import json

import numpy as np
import pytest

from postselect import (
    OutcomeDistribution,
    ScenarioTriple,
    construct_generalized,
    construct_projective,
)
from postselect.cli import main
from postselect.witness_io import (
    load_witness,
    save_witness,
    witness_from_dict,
    witness_to_dict,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_feasible_exit_zero(self, capsys):
        code, out, _ = run(capsys, "check", "--t", "0", "--s", "0.5", "--p", "0.5,0.5")
        assert code == 0
        assert "projective: feasible" in out
        assert "D_1/2=2" in out

    def test_infeasible_exit_one(self, capsys):
        code, out, _ = run(capsys, "check", "--t", "0", "--s", "0.6", "--p", "0.5,0.5")
        assert code == 1
        assert "infeasible" in out
        assert "VIOLATED" in out

    def test_generalized_always_feasible(self, capsys):
        code, out, _ = run(
            capsys, "check", "--t", "0", "--s", "0.6", "--p", "0.5,0.5", "--generalized"
        )
        assert code == 0
        assert "generalized: feasible" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--t", "1.5", "--s", "0.5", "--p", "1"),
            ("check", "--t", "0.5", "--s", "0", "--p", "1"),
            ("check", "--t", "0.5", "--s", "0.5", "--p", "0.4,0.4"),
            ("check", "--t", "0.5", "--s", "0.5", "--p", "abc"),
            ("check", "--t", "0.5", "--s", "0.5", "--p=-0.5,1.5"),
            ("check", "--t", "0", "--s", "0.5", "--p", "nan,0.5"),
            ("check", "--t", "0", "--s", "0.5", "--p", "inf"),
            ("check", "--t", "inf", "--s", "0.5", "--p", "1"),
            ("check", "--t", "0", "--s", "nan", "--p", "1"),
        ],
    )
    def test_invalid_input_exit_two(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "error" in err


class TestConstructVerify:
    def test_projective_round_trip(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        code, _, _ = run(
            capsys,
            "construct",
            "--t", "0", "--s", "0.5", "--p", "0.5,0.5",
            "--kind", "projective",
            "--out", str(path),
        )
        assert code == 0
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "verification passed" in out
        assert "kind: projective" in out

    def test_generalized_round_trip(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        code, _, _ = run(
            capsys,
            "construct",
            "--t", "0.3", "--s", "0.2", "--p", "0.6,0.3,0.1",
            "--kind", "generalized",
            "--out", str(path),
        )
        assert code == 0
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "kind: generalized" in out

    def test_construct_infeasible_exit_one(self, capsys):
        code, _, err = run(
            capsys,
            "construct", "--t", "0", "--s", "0.6", "--p", "0.5,0.5",
            "--kind", "projective",
        )
        assert code == 1
        assert "infeasible" in err

    def test_stdout_payload_is_json(self, capsys):
        code, out, _ = run(
            capsys,
            "construct", "--t", "0", "--s", "0.5", "--p", "0.5,0.5",
            "--kind", "projective",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "projective"
        assert payload["dimension"] == 2

    def test_verify_detects_tampering(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        run(
            capsys,
            "construct", "--t", "0", "--s", "0.5", "--p", "0.5,0.5",
            "--kind", "projective", "--out", str(path),
        )
        payload = json.loads(path.read_text())
        payload["metadata"]["target"]["s"] = 0.4
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "FAILED" in out

    @pytest.mark.parametrize(
        "edit",
        [
            lambda target: target.pop("t"),
            lambda target: target["p"].pop(),
            lambda target: target.update(s=float("nan")),
        ],
        ids=["missing-t", "short-p", "nan-s"],
    )
    def test_verify_rejects_malformed_target(self, capsys, tmp_path, edit):
        path = tmp_path / "w.json"
        run(
            capsys,
            "construct", "--t", "0.1", "--s", "0.3", "--p", "0.5,0.3,0.2",
            "--kind", "projective", "--out", str(path),
        )
        payload = json.loads(path.read_text())
        edit(payload["metadata"]["target"])
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "invalid witness" in err and "metadata.target" in err
        assert "passed" not in out

    def test_verify_rejects_corrupt_witness(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        run(
            capsys,
            "construct", "--t", "0", "--s", "0.5", "--p", "0.5,0.5",
            "--kind", "projective", "--out", str(path),
        )
        payload = json.loads(path.read_text())
        payload["operators"][0][0][0] = [0.5, 0.0]
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "invalid witness" in err


class TestRegion:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run(capsys, "region", "--which", "ts", "--n", "2", "--resolution", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,s,feasible,violated"
        assert len(lines) == 17

    def test_missing_parameter_exit_two(self, capsys):
        code, _, err = run(capsys, "region", "--which", "ts", "--resolution", "4")
        assert code == 2
        assert "--n" in err

    def test_svg_output(self, capsys, tmp_path):
        svg = tmp_path / "r.svg"
        csv = tmp_path / "r.csv"
        code, _, _ = run(
            capsys,
            "region", "--which", "ternary", "--resolution", "8",
            "--out", str(csv), "--svg", str(svg),
        )
        assert code == 0
        assert svg.read_text().startswith("<svg")
        assert csv.read_text().startswith("p1,p2,feasible,violated")


class TestFuzz:
    def test_clean_campaign(self, capsys, monkeypatch):
        monkeypatch.setenv("POSTSELECT_THREADS", "2")
        code, out, _ = run(
            capsys,
            "fuzz", "--dim", "2", "--outcomes", "2", "--samples", "2000", "--seed", "3",
        )
        assert code == 0
        assert "violations: 0" in out
        assert "digest:" in out

    def test_bad_shape_exit_two(self, capsys):
        code, _, err = run(
            capsys, "fuzz", "--dim", "2", "--outcomes", "3", "--samples", "10"
        )
        assert code == 2
        assert "exceeds" in err


class TestEntropy:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "entropy", "--p", "0.5,0.25,0.25")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "q D_q H_q"
        assert len(lines) == 6
        assert lines[-1].startswith("inf 2 ")

    def test_single_order(self, capsys):
        code, out, _ = run(capsys, "entropy", "--p", "0.5,0.5", "--q", "inf")
        assert code == 0
        assert out.strip().split("\n")[1].startswith("inf 2 ")


class TestWitnessIO:
    def test_dict_round_trip_projective(self, rng):
        w = construct_projective(
            ScenarioTriple(0.1, 0.3, OutcomeDistribution((0.5, 0.3, 0.2)))
        )
        w2 = witness_from_dict(witness_to_dict(w))
        assert np.allclose(w2.psi, w.psi)
        assert np.allclose(w2.phi, w.phi)
        for a, b in zip(w2.projectors, w.projectors):
            assert np.allclose(a, b)

    def test_file_round_trip_generalized(self, tmp_path):
        w = construct_generalized(
            ScenarioTriple(0.4, 0.7, OutcomeDistribution((0.9, 0.0, 0.1)))
        )
        path = tmp_path / "g.json"
        save_witness(w, path, metadata={"note": "zero outcome"})
        w2 = load_witness(path)
        assert w2.repaired == w.repaired
        for a, b in zip(w2.kraus, w.kraus):
            assert np.allclose(a, b)
