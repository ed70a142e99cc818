import contextlib
import copy
import io
import json
import math
import os
import runpy
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from postselect import (
    GeneralizedWitness,
    OutcomeDistribution,
    ProjectiveWitness,
    ScenarioTriple,
    check_projective_raw,
    construct_generalized,
    construct_projective,
    evaluate_witness,
)
import postselect
import reference
from postselect import cli
from postselect.cli import main
from postselect.errors import ClosureFailure
from postselect.witness_io import (
    _to_pairs,
    _write_witness,
    load_witness,
    save_witness,
    witness_from_dict,
    witness_to_dict,
)
from samplers import sample_projective, sample_state, sample_unitary


class TestEntryPoints:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["check", "--t", "0", "--s", "0.5", "--p", "0.5,0.5"], 0),
            (["check", "--t", "0", "--s", "0.6", "--p", "0.5,0.5"], 1),
            (["check", "--t", "0", "--s", "0.5", "--p", "abc"], 2),
        ],
    )
    @pytest.mark.filterwarnings("ignore:'postselect.cli' found in sys.modules:RuntimeWarning")
    def test_console_script_and_module_exit_with_main_code(self, monkeypatch, capsys, argv, code):
        # `postselect` runs cli.entry(); `python -m postselect.cli` runs the module as __main__.
        monkeypatch.setattr(sys, "argv", ["postselect", *argv])
        with pytest.raises(SystemExit) as script:
            cli.entry()
        with pytest.raises(SystemExit) as module:
            runpy.run_module("postselect.cli", run_name="__main__")
        assert script.value.code == module.value.code == code
        assert capsys.readouterr().out.count("scenario: T=0") == (2 if code < 2 else 0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reference_target_deviation(path, out):
    """The witness file's (T, S, P) by tests/reference.py must be what verify printed, within
    verify's 1e-9; returns their largest deviation from the file's metadata.target.

    Not to 1e-14: an amplitude of size sqrt(S) is a sum of O(1) terms, so near
    S = EPS_PROB evaluate_witness's P(k) carries their cancellation (1.6e-12 at S = 1e-10).
    """
    doc = json.loads(Path(path).read_text())
    t, s, probs = reference.evaluate_document(doc)
    fields = dict(line.split(" = ") for line in out.splitlines() if " = " in line)
    printed = [fields["T"], fields["S"], *fields["P"].strip("()").split(",")]
    assert len(printed) == len(probs) + 2, out
    for text, want in zip(printed, [t, s, *probs]):
        assert abs(Decimal(text) - want) <= Decimal("1e-9"), (text, want)
    target = doc["metadata"]["target"]
    return reference.document_deviation(doc, target["t"], target["s"], target["p"])


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
            ("entropy", "--p", "0.5,0.5", "--q", "nan"),
        ],
    )
    def test_invalid_input_exit_two(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("command", ["check", "entropy"])
    @pytest.mark.parametrize("p", ["nan,0.5", "inf,-inf"])
    def test_nan_total_names_the_input(self, capsys, command, p):
        # A NaN total passed the parser's sum check, and the error named a tuple of NaNs.
        argv = [command, f"--p={p}"] + (["--t", "0", "--s", "0.5"] if command == "check" else [])
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: probabilities {p!r} sum to nan, more than 1e-9 away from 1\n"

    def test_empty_probability_list_exit_two(self, capsys):
        # Refused by the parser itself, before OutcomeDistribution sees an empty list.
        code, _, err = run(capsys, "check", "--t", "0", "--s", "0.5", "--p", ",")
        assert code == 2
        assert err == "error: empty probability list\n"

    def test_other_domain_error_exit_one(self, capsys, monkeypatch):
        # A PostselectError that no earlier clause names is a domain-negative result.
        def fail(sc):
            raise ClosureFailure("closure residual 1.0")

        monkeypatch.setattr(cli, "construct_projective", fail)
        argv = ("construct", "--t", "0", "--s", "0.5", "--p", "0.5,0.5", "--kind", "projective")
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "error: closure residual 1.0\n")


# Two targets that both kinds build: a fair coin at T = 0, and three outcomes.
HALF = ("--t", "0", "--s", "0.5", "--p", "0.5,0.5")
THIRDS = ("--t", "0.1", "--s", "0.3", "--p", "0.5,0.3,0.2")


def verify_edited(capsys, tmp_path, edit, *argv):
    """`construct *argv` into tmp_path/w.json, apply `edit` to its document, then `verify` it."""
    path = tmp_path / "w.json"
    run(capsys, "construct", *argv, "--out", str(path))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return run(capsys, "verify", str(path))


# The three diagonal projectors of a qutrit: the stack form of labels [0, 1, 2].
DIAGONAL_STACK = np.eye(3)[:, :, None] * np.eye(3)


class TestConstructVerify:
    @pytest.mark.parametrize("kind", ["projective", "generalized"])
    def test_round_trip(self, capsys, tmp_path, kind):
        argv = HALF if kind == "projective" else ("--t", "0.3", "--s", "0.2", "--p", "0.6,0.3,0.1")
        path = tmp_path / "w.json"
        code, _, _ = run(capsys, "construct", *argv, "--kind", kind, "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "verification passed" in out
        assert f"kind: {kind}" in out
        assert reference_target_deviation(path, out) <= 1e-9

    def test_construct_infeasible_exit_one(self, capsys):
        code, _, err = run(
            capsys,
            "construct", "--t", "0", "--s", "0.6", "--p", "0.5,0.5",
            "--kind", "projective",
        )
        assert code == 1
        assert "infeasible" in err

    def test_stdout_payload_is_json(self, capsys):
        code, out, _ = run(capsys, "construct", *HALF, "--kind", "projective")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "projective"
        assert payload["dimension"] == 2

    @pytest.mark.parametrize("kind", ["projective", "generalized"])
    def test_out_file_holds_stdout_bytes(self, capsys, tmp_path, kind):
        path = tmp_path / "w.json"
        argv = ["construct", *THIRDS, "--kind", kind]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        code, _, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0
        assert path.read_bytes() == out.encode()

    def test_verify_detects_tampering(self, capsys, tmp_path):
        edit = lambda doc: doc["metadata"]["target"].update(s=0.4)
        code, out, _ = verify_edited(capsys, tmp_path, edit, *HALF, "--kind", "projective")
        assert code == 1
        assert "FAILED" in out
        assert reference_target_deviation(tmp_path / "w.json", out) > 1e-9

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
        code, out, err = verify_edited(
            capsys, tmp_path, lambda doc: edit(doc["metadata"]["target"]), *THIRDS,
            "--kind", "projective",
        )
        assert code == 2
        assert "invalid witness" in err and "metadata.target" in err
        assert "passed" not in out

    def test_verify_rejects_corrupt_witness(self, capsys, tmp_path):
        def edit(doc):
            assert "operators" not in doc and doc["labels"] == [0, 1]
            doc["labels"][0] = 2

        code, _, err = verify_edited(capsys, tmp_path, edit, *HALF, "--kind", "projective")
        assert code == 2
        assert "invalid witness" in err

    @pytest.mark.parametrize(
        "edit, kind",
        [
            (lambda doc: doc["labels"].__setitem__(1, 3), "projective"),
            (lambda doc: doc["labels"].__setitem__(0, -1), "projective"),
            (lambda doc: doc["labels"].__setitem__(0, True), "projective"),
            (lambda doc: doc["labels"].__setitem__(0, 0.0), "projective"),
            (lambda doc: doc["labels"].pop(), "projective"),
            (lambda doc: doc.update(n_outcomes=4), "projective"),
            (lambda doc: doc.update(n_outcomes=10**400), "projective"),
            (lambda doc: doc.update(n_outcomes=3.0), "projective"),
            (lambda doc: doc.update(operators=reference_pairs(DIAGONAL_STACK)), "projective"),
            (lambda doc: [doc.pop("labels"), doc.pop("n_outcomes")], "projective"),
            (lambda doc: doc.pop("n_outcomes"), "projective"),
            (lambda doc: doc.update(labels=[0, 1], n_outcomes=2), "generalized"),
            (lambda doc: doc.pop("operators"), "generalized"),
        ],
        ids=[
            "label-out-of-range", "negative-label", "bool-label", "float-label", "short-labels",
            "more-outcomes-than-dimension", "huge-n_outcomes", "float-n_outcomes", "both-forms",
            "neither-form", "labels-without-n_outcomes", "labels-in-generalized",
            "generalized-without-operators",
        ],
    )
    def test_verify_rejects_malformed_measurement(self, capsys, tmp_path, edit, kind):
        code, out, err = verify_edited(capsys, tmp_path, edit, *THIRDS, "--kind", kind)
        assert code == 2 and out == "", (out, err)
        assert err.startswith("invalid witness: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "text",
        ['{"psi": ' + "[" * 100_000 + "]" * 100_000 + "}", '{"dimension": ' + "1" * 5000 + "}"],
        ids=["deep-nesting", "5000-digit-integer"],
    )
    def test_verify_rejects_unreadable_json(self, capsys, tmp_path, text):
        path = tmp_path / "w.json"
        path.write_text(text)
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "invalid witness" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.pop("psi"), "malformed witness file: 'psi'"),
            (lambda doc: doc.update(metadata=[]), "metadata is not a JSON object"),
            (lambda doc: doc.update(kind="kraus"), "unknown witness kind 'kraus'"),
            (lambda doc: doc.update(kind=["projective"]), "unknown witness kind ['projective']"),
        ],
        ids=["missing-psi", "metadata-list", "unknown-kind", "unhashable-kind"],
    )
    def test_verify_rejects_malformed_document(self, capsys, tmp_path, edit, message):
        code, out, err = verify_edited(capsys, tmp_path, edit, *HALF, "--kind", "generalized")
        assert code == 2 and out == ""
        assert err == f"invalid witness: {message}\n"

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["labels"].__setitem__(1, math.nan),
            lambda doc: doc.update(n_outcomes=math.nan),
            lambda doc: doc["psi"][0].__setitem__(0, math.nan),
        ],
        ids=["labels", "n_outcomes", "psi"],
    )
    def test_verify_rejects_nan_entry(self, capsys, tmp_path, edit):
        code, out, err = verify_edited(capsys, tmp_path, edit, *HALF, "--kind", "projective")
        assert code == 2
        assert "invalid witness" in err
        assert "non-finite probability" not in err and "passed" not in out


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

    def test_stdout_fields(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--dim", "3", "--outcomes", "3", "--samples", "500")
        assert code == 0
        keys = [line.split(":")[0] for line in out.splitlines()]
        assert keys == [
            "samples", "violations", "coverage cells (T,S)", "coverage cells (ternary, T~0)", "digest"
        ]

    @pytest.mark.parametrize("threads", ["abc", "0", "-3", "2.5", "1e2"])
    def test_bad_thread_count_exit_two(self, capsys, monkeypatch, threads):
        monkeypatch.setenv("POSTSELECT_THREADS", threads)
        code, out, err = run(
            capsys, "fuzz", "--dim", "2", "--outcomes", "2", "--samples", "10"
        )
        assert (code, out) == (2, "")
        assert "POSTSELECT_THREADS" in err


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

    def test_long_list_summed_exactly(self, capsys):
        # Summed left to right these add up to 0.999999999998641, 1.4e-12 short of 1.
        p = ",".join(map(repr, [0.5] + [0.5 / 29999] * 29999))
        code, out, _ = run(capsys, "entropy", "--p", p)
        assert code == 0
        assert out.split("\n")[1].startswith("0 30000 ")

    @pytest.mark.parametrize("q", ["nan", "-1", "abc"])
    def test_input_error_leaves_stdout_empty(self, capsys, q):
        # The header was printed before the order was refused.
        code, out, err = run(capsys, "entropy", "--p", "0.5,0.5", "--q", q)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


def reference_pairs(a):
    """[re, im] pairs entry by entry, nested as a is."""
    if a.ndim > 1:
        return [reference_pairs(x) for x in a]
    return [[float(x.real), float(x.imag)] for x in a]


def reference_witness_to_dict(w, metadata=None, labels=True):
    """The per-entry encoder the whole-stack codec replaced, kept as its byte reference:
    labels for a labelled projective witness with n <= d outcomes, else the stack.
    With labels=False it writes every witness as its stack, as files did before labels."""
    if isinstance(w, ProjectiveWitness):
        kind, ops = "projective", w.projectors
    else:
        kind, ops = "generalized", w.kraus
    doc = {"kind": kind, "dimension": w.dimension}
    doc.update(psi=reference_pairs(w.psi), phi=reference_pairs(w.phi))
    if labels and getattr(w, "labels", None) is not None and w.n_outcomes <= w.dimension:
        doc.update(labels=[int(k) for k in w.labels], n_outcomes=w.n_outcomes)
    else:
        doc["operators"] = [reference_pairs(op) for op in ops]
    doc["metadata"] = dict(metadata or {})
    return doc


class TestWitnessIO:
    def test_dict_round_trip_projective(self, rng):
        w = construct_projective(
            ScenarioTriple(0.1, 0.3, OutcomeDistribution((0.5, 0.3, 0.2)))
        )
        w2 = witness_from_dict(witness_to_dict(w))
        assert w2.kind == "projective"
        assert np.array_equal(w2.psi, w.psi)
        assert np.array_equal(w2.phi, w.phi)
        for a, b in zip(w2.projectors, w.projectors):
            assert np.array_equal(a, b)

    def test_file_round_trip_generalized(self, tmp_path):
        w = construct_generalized(
            ScenarioTriple(0.4, 0.7, OutcomeDistribution((0.9, 0.0, 0.1)))
        )
        path = tmp_path / "g.json"
        save_witness(w, path, metadata={"note": "zero outcome"})
        w2 = load_witness(path)
        assert w2.kind == "generalized"
        for a, b in zip(w2.kraus, w.kraus):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "t, s, p",
        [
            (0.1, 0.3, (0.5, 0.3, 0.2)),
            (0.0, 0.5, (0.5, 0.5)),
            (0.3, 0.3, (1.0,)),
            (0.4, 0.7, (0.9, 0.0, 0.1)),
            (0.05, 0.2, (0.0, 0.25, 0.0, 0.25, 0.5)),
        ],
    )
    def test_json_matches_per_entry_encoder(self, rng, t, s, p):
        sc = ScenarioTriple(t, s, OutcomeDistribution(p))
        target = {"target": {"t": t, "s": s, "p": list(p)}}
        cases = [(construct_generalized(sc), target)]
        if check_projective_raw(sc).feasible:
            cases.append((construct_projective(sc), target))
        psi, phi = sample_state(4, rng), sample_state(4, rng)
        projs = sample_projective(4, 3, rng)
        u = sample_unitary(4, rng)
        cases += [
            (ProjectiveWitness(psi, phi, projs), {"seed": 7}),
            (GeneralizedWitness(psi, phi, [q @ u for q in projs]), {"seed": 7}),
        ]
        for w, meta in cases + [(w, None) for w, _ in cases]:
            text = json.dumps(witness_to_dict(w, meta))
            assert text == json.dumps(reference_witness_to_dict(w, meta))
            w2 = witness_from_dict(json.loads(text))
            assert type(w2) is type(w) and w2.kind == w.kind
            for a, b in ((w2.psi, w.psi), (w2.phi, w.phi), (w2.operators, w.operators)):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "t, s, p", [(0.4, 0.7, (0.9, 0.0, 0.1)), (0.05, 0.2, (0.0, 0.25, 0.0, 0.25, 0.5))]
    )
    def test_legacy_generalized_file_verifies(self, capsys, tmp_path, t, s, p):
        # Older builders wrote (n, n, n) stacks, and before that |e_k><e_k| for each
        # zero-probability outcome, listed in metadata.repaired; such files still verify.
        sc = ScenarioTriple(t, s, OutcomeDistribution(p))
        w = dense_generalized(sc)
        zero = [k for k, x in enumerate(p) if x == 0.0]
        doc = witness_to_dict(w, {"target": {"t": t, "s": s, "p": list(p)}, "repaired": zero})
        for k in zero:
            doc["operators"][k] = [
                [[1.0 if i == j == k else 0.0, 0.0] for j in range(w.dimension)]
                for i in range(w.dimension)
            ]
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        code, out, err = run(capsys, "verify", str(path))
        assert code == 0 and "verification passed" in out, (out, err)
        assert f"dimension: {len(p)}" in out
        assert reference_target_deviation(path, out) <= 1e-9
        legacy = load_witness(path)
        assert not np.array_equal(legacy.operators, w.operators)
        got, want = evaluate_witness(legacy), evaluate_witness(w)
        bits = [np.array([sc.t, sc.s, *sc.dist.probs]).tobytes() for sc in (got, want)]
        assert bits[0] == bits[1]

    def test_writer_joins_tokens_into_large_writes(self):
        # json.dump writes each token separately: 120,071 writes for this witness, each
        # a system call on an unbuffered stdout.
        n = 4000
        w = construct_generalized(
            ScenarioTriple(0.05, 0.5 / n, OutcomeDistribution(np.full(n, 1.0 / n)))
        )
        meta = {"target": {"t": 0.05, "s": 0.5 / n, "p": [1.0 / n] * n}}

        class CountingStream(io.StringIO):
            def write(self, text):
                self.sizes.append(len(text))
                return super().write(text)

        stream = CountingStream()
        stream.sizes = []
        _write_witness(w, stream, meta)
        assert stream.getvalue() == json.dumps(witness_to_dict(w, meta), indent=1) + "\n"
        assert len(stream.getvalue()) > 800_000
        *full, last, newline = stream.sizes
        assert all(size >= 64 * 1024 for size in full) and last > 0 and newline == 1
        assert len(stream.sizes) <= len(stream.getvalue()) // (64 * 1024) + 2

    def test_pairs_read_through_a_float_view(self, rng):
        # The same nested lists as the per-entry pairs, -0.0 and inf parts included, for
        # C-contiguous arrays and for views that are not.
        stack = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        stack[0, 0, :3] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(math.inf, -math.inf)]
        cases = [stack, stack.transpose(0, 2, 1), stack[:, ::2, 1:], stack[1, :, 0], stack[:0]]
        for a in cases + [np.zeros(3, dtype=complex), np.array([-0.0 - 0.0j])]:
            assert json.dumps(_to_pairs(a)) == json.dumps(reference_pairs(a))
        assert not stack.transpose(0, 2, 1).flags.c_contiguous
        assert _to_pairs(stack)[0][0][2] == [math.inf, -math.inf]

    @pytest.mark.parametrize(
        "t, s, p", [(0.1, 0.3, (0.5, 0.3, 0.2)), (0.3, 0.3, (1.0,)), (0.0, 0.25, (0.25,) * 4)]
    )
    def test_stacked_projective_file_verifies_as_labelled(self, capsys, tmp_path, t, s, p):
        # Files written before labels hold the 0/1 stack; they decode as labelled witnesses
        # and write labels from then on.
        sc = ScenarioTriple(t, s, OutcomeDistribution(p))
        w = construct_projective(sc)
        meta = {"target": {"t": t, "s": s, "p": list(p)}}
        path = tmp_path / "stacked.json"
        path.write_text(json.dumps(reference_witness_to_dict(w, meta, labels=False), indent=1) + "\n")
        code, out, err = run(capsys, "verify", str(path))
        assert code == 0 and "verification passed" in out, (out, err)
        assert f"dimension: {w.dimension}  outcomes: {len(p)}" in out
        assert reference_target_deviation(path, out) <= 1e-9
        stacked = load_witness(path)
        assert np.array_equal(stacked.labels, w.labels) and stacked.n_outcomes == w.n_outcomes
        assert witness_to_dict(stacked, meta) == witness_to_dict(w, meta)
        assert "labels" in witness_to_dict(stacked) and "operators" not in witness_to_dict(stacked)

    def test_dense_projective_file_keeps_its_stack(self, capsys, tmp_path, rng):
        # A stack that is not an exact partition stays dense: the file holds operators.
        d = 4
        u = sample_unitary(d, rng)
        projs = [u @ np.diag(m) @ u.conj().T for m in ([1, 1, 0, 0], [0, 0, 1, 1])]
        w = ProjectiveWitness(sample_state(d, rng), sample_state(d, rng), projs)
        assert w.labels is None
        sc = evaluate_witness(w)
        meta = {"target": {"t": sc.t, "s": sc.s, "p": list(sc.dist.probs)}}
        doc = witness_to_dict(w, meta)
        assert "labels" not in doc
        assert json.dumps(doc) == json.dumps(reference_witness_to_dict(w, meta))
        path = tmp_path / "dense.json"
        save_witness(w, path, meta)
        code, out, err = run(capsys, "verify", str(path))
        assert code == 0 and "verification passed" in out, (out, err)
        assert reference_target_deviation(path, out) <= 1e-9
        w2 = load_witness(path)
        assert w2.labels is None and np.array_equal(w2.operators, w.operators)

    def test_labelled_witness_with_more_outcomes_than_dimension_writes_its_stack(self):
        # Outcomes past the d-th are empty; such a witness writes its stack, which bounds
        # n by the file's size, and decodes to the same labels.
        w = ProjectiveWitness([1, 0], [0.6, 0.8], labels=[2, 0], n_outcomes=4)
        doc = witness_to_dict(w)
        assert "labels" not in doc and len(doc["operators"]) == 4
        w2 = witness_from_dict(json.loads(json.dumps(doc)))
        assert np.array_equal(w2.labels, [2, 0]) and w2.n_outcomes == 4
        assert evaluate_witness(w2) == evaluate_witness(w)


def run_captured(argv):
    """main() with its output captured; works inside hypothesis, unlike capsys."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejections
            code = exc.code
    return code, out.getvalue(), err.getvalue()


NUMBERS = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
NON_FINITE = (math.nan, math.inf, -math.inf)


def dense_generalized(sc):
    """The (n, n, n) Kraus witness that construct_generalized wrote for n >= 2 outcomes
    before it moved to a qubit: psi_k = sqrt(P(k)), phi and phi' one rotation each, and
    V_k = |phi'><e_k| for every k.  Kept here to write files in the older layout."""

    def rotate(v, c, s):
        k = min(range(len(v)), key=[abs(x) for x in v].__getitem__)
        beta = s / math.sqrt(1.0 - v[k] * v[k])
        out = [(c - beta * v[k]) * x for x in v]
        out[k] += beta
        return out

    n = sc.n
    psi = [math.sqrt(x) for x in sc.dist.probs]
    phi = rotate(psi, math.sqrt(sc.t), math.sqrt(1.0 - sc.t))
    phi_post = rotate(phi, math.sqrt(sc.s), math.sqrt(1.0 - sc.s))
    kraus = np.zeros((n, n, n))
    kraus[np.arange(n), :, np.arange(n)] = phi_post
    return GeneralizedWitness(np.array(psi), np.array(phi), kraus)


WIDE_N = 1000


@pytest.mark.parametrize("kind", ["generalized", "projective"])
def test_wide_file(capsys, tmp_path, kind):
    # Kraus witnesses are qubits and projective files hold labels; either 0/1 or (n, n, n)
    # stack wrote 32 MB at n = 100 and would need about 16 GB at n = 1000.
    path = tmp_path / "w.json"
    p = ",".join([repr(1.0 / WIDE_N)] * WIDE_N)
    argv = ["--t", "0.001", "--s", repr(0.5 / WIDE_N), "--p", p, "--kind", kind]
    code, out, err = run(capsys, "construct", *argv, "--out", str(path))
    assert (code, out, err) == (0, "", "")
    doc = json.loads(path.read_text())
    if kind == "generalized":
        assert path.stat().st_size < 300_000
        assert doc["dimension"] == 2 and len(doc["operators"]) == WIDE_N
    else:
        assert path.stat().st_size < 150_000
        assert "operators" not in doc and doc["labels"] == list(range(WIDE_N))
        assert doc["dimension"] == doc["n_outcomes"] == WIDE_N
    code, out, err = run(capsys, "verify", str(path))
    assert code == 0 and err == "" and "verification passed" in out
    assert f"dimension: {doc['dimension']}  outcomes: {WIDE_N}" in out
    assert reference_target_deviation(path, out) <= 1e-9


def test_no_built_generalized_file_holds_negative_zero():
    # A -0.0 in a built witness would print as -0.0; every zero is written as +0.0.
    rng = np.random.default_rng(2601)
    files = negatives = 0
    for _ in range(600):
        n = int(rng.integers(1, 8))
        p = rng.dirichlet(np.ones(n))
        if n > 1 and rng.random() < 0.5:
            p[rng.random(n) < 0.5] = 0.0
            p = p / p.sum() if p.sum() > 0.0 else np.eye(n)[0]
        t = float(rng.choice([0.0, 1.0, rng.random()]))
        s = float(rng.choice([1.0, rng.random()]))
        stream = io.StringIO()
        _write_witness(construct_generalized(ScenarioTriple(t, s, OutcomeDistribution(p))), stream)
        numbers = []
        json.loads(stream.getvalue(), parse_float=lambda x: numbers.append(float(x)) or 0.0)
        assert not any(x == 0.0 and math.copysign(1.0, x) < 0.0 for x in numbers)
        files += 1
        negatives += any(x < 0.0 for x in numbers)
    assert files == 600 and negatives > 100, negatives


def test_import_leaves_oracle_and_regions_unimported():
    # The package imports the oracle and the region maps on first use of their names.
    code = (
        "import sys, postselect\n"
        "lazy = ('postselect.oracle', 'postselect.regions', 'postselect.witness_io')\n"
        "print(sorted(m for m in lazy if m in sys.modules))\n"
        "print(all(getattr(postselect, name) is not None for name in postselect.__all__))\n"
        "print(postselect.oracle.__name__, postselect.regions.__name__)\n"
    )
    src = str(Path(postselect.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout == "[]\nTrue\npostselect.oracle postselect.regions\n", result.stderr


def test_every_public_name_resolves():
    from postselect import oracle, regions

    names = {name: getattr(postselect, name) for name in postselect.__all__}
    assert names["run_campaign"] is oracle.run_campaign
    assert names["emit_ternary"] is regions.emit_ternary
    assert postselect.oracle is oracle and postselect.regions is regions
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        postselect.missing


BUILT_WITNESSES = [
    witness_to_dict(build(ScenarioTriple(0.1, 0.3, OutcomeDistribution(p))), {
        "target": {"t": 0.1, "s": 0.3, "p": list(p)}
    })
    for build, p in [
        (construct_projective, (0.5, 0.5)),
        (construct_projective, (0.5, 0.3, 0.2)),
        (construct_generalized, (0.6, 0.3, 0.1)),
        (construct_generalized, (0.5, 0.0, 0.5)),
    ]
]


def _joined(values):
    return ",".join(repr(v) for v in values)


class TestCliInvariants:
    """Any argument list: exit 0, 1 or 2, no traceback, and non-finite input exits 2."""

    @staticmethod
    def assert_invariants(argv, non_finite):
        code, out, err = run_captured(argv)
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err
        if non_finite:
            assert code == 2, (argv, out, err)
            assert ": feasible" not in out and "verification passed" not in out
        return code, out, err

    @given(NUMBERS, NUMBERS, st.lists(NUMBERS, min_size=1, max_size=4), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_check(self, t, s, p, generalized):
        argv = ["check", f"--t={t!r}", f"--s={s!r}", f"--p={_joined(p)}"]
        argv += ["--generalized"] if generalized else []
        non_finite = not all(math.isfinite(x) for x in (t, s, *p))
        self.assert_invariants(argv, non_finite)

    @given(st.lists(NUMBERS, min_size=1, max_size=4), st.one_of(st.none(), NUMBERS))
    @settings(max_examples=150, deadline=None)
    def test_entropy(self, p, q):
        argv = ["entropy", f"--p={_joined(p)}"] + ([] if q is None else [f"--q={q!r}"])
        bad_q = q is not None and (math.isnan(q) or q == -math.inf)
        code, out, _ = self.assert_invariants(argv, bad_q or not all(math.isfinite(x) for x in p))
        assert code != 2 or out == ""

    @given(st.integers(-1, 5), st.integers(-1, 5), st.integers(-2, 3000), st.integers(-2, 2**64))
    @settings(max_examples=150, deadline=None)
    def test_fuzz(self, dim, outcomes, samples, seed):
        argv = ["fuzz", f"--dim={dim}", f"--outcomes={outcomes}", f"--samples={samples}"]
        code, out, err = self.assert_invariants(argv + [f"--seed={seed}"], False)
        valid = 1 <= outcomes <= dim and samples >= 1 and seed >= 0
        assert code == (0 if valid else 2), (argv, seed, err)
        if valid:
            assert f"samples: {samples}\nviolations: 0\n" in out

    @given(
        st.sampled_from(["ternary", "ps", "pt", "ts"]),
        st.integers(-2, 40),
        st.one_of(st.none(), st.integers(-1, 5)),
        st.one_of(st.none(), NUMBERS),
    )
    @example("pt", 3, None, 5e-324)
    @settings(max_examples=150, deadline=None)
    def test_region(self, which, resolution, n, s):
        argv = ["region", f"--which={which}", f"--resolution={resolution}"]
        argv += [] if n is None else [f"--n={n}"]
        argv += [] if s is None else [f"--s={s!r}"]
        non_finite = which == "pt" and s is not None and not math.isfinite(s)
        code, _, err = self.assert_invariants(argv, non_finite)
        valid = resolution >= 2 and {
            "pt": s is not None and 0.0 < s <= 1.0,
            "ts": n is not None and n >= 1,
        }.get(which, True)
        assert code == (0 if valid else 2), (argv, err)

    @given(
        NUMBERS,
        NUMBERS,
        st.lists(NUMBERS, min_size=1, max_size=4),
        st.booleans(),
        st.sampled_from(["projective", "generalized"]),
    )
    @example(0.1, 0.3, [0.5, 0.3, 0.2], False, "projective")
    @example(0.4, 0.7, [0.9, 0.0, 0.1], False, "generalized")
    @example(0.5, 1e-20, [0.5, 0.5], False, "generalized")
    @example(2e-12, 2e-12, [1.0], False, "projective")
    @example(0.5, 1e-10, [1.0, 0.5], True, "generalized")
    @settings(max_examples=150, deadline=None)
    def test_construct(self, tmp_path_factory, t, s, p, normalize, kind):
        if normalize and all(math.isfinite(x) for x in p) and sum(map(abs, p)) > 0:
            p = [abs(x) / sum(map(abs, p)) for x in p]
        argv = ["construct", f"--t={t!r}", f"--s={s!r}", f"--p={_joined(p)}", f"--kind={kind}"]
        non_finite = not all(math.isfinite(x) for x in (t, s, *p))
        code, out, err = self.assert_invariants(argv, non_finite)
        if code == 0:
            assert witness_from_dict(json.loads(out)).kind == kind
            path = tmp_path_factory.mktemp("construct") / "w.json"
            path.write_text(out)
            code, out, err = run_captured(["verify", str(path)])
            assert code == 0 and "verification passed" in out, (argv, out, err)
            assert reference_target_deviation(path, out) <= 1e-9

    @given(
        st.sampled_from(BUILT_WITNESSES),
        st.sampled_from(
            ["none", "psi", "phi", "operator", "target.t", "target.p", "dimension", "repaired"]
        ),
        st.sampled_from(NON_FINITE + (10**400, 2.7, "2", None, -7, True)),
        st.integers(0, 1000),
        st.integers(0, 1),
    )
    @example(BUILT_WITNESSES[0], "psi", 10**400, 0, 0)
    @example(BUILT_WITNESSES[1], "operator", 10**400, 0, 0)
    @example(BUILT_WITNESSES[1], "target.t", 10**400, 0, 0)
    @example(BUILT_WITNESSES[2], "repaired", 5, 0, 1)
    @example(BUILT_WITNESSES[3], "repaired", None, 0, 1)
    @example(BUILT_WITNESSES[2], "repaired", math.inf, 0, 0)
    @example(BUILT_WITNESSES[3], "repaired", -7, 0, 0)
    @example(BUILT_WITNESSES[0], "dimension", 2.7, 0, 0)
    @example(BUILT_WITNESSES[0], "dimension", math.inf, 0, 0)
    @example(BUILT_WITNESSES[0], "psi", False, 0, 0)
    @example(BUILT_WITNESSES[2], "repaired", True, 0, 0)
    @example(BUILT_WITNESSES[1], "target.t", True, 0, 0)
    @settings(max_examples=200, deadline=None)
    def test_verify(self, tmp_path_factory, base, where, bad, k, part):
        payload = copy.deepcopy(base)
        d = payload["dimension"]
        if where in ("psi", "phi"):
            payload[where][k % d][part] = bad
        elif where == "operator" and "labels" in payload:
            if part:
                payload["n_outcomes"] = bad
            else:
                payload["labels"][k % d] = bad
        elif where == "operator":
            ops = payload["operators"]
            ops[k % len(ops)][k % d][(k // d) % d][part] = bad
        elif where == "target.t":
            payload["metadata"]["target"]["t"] = bad
        elif where == "target.p":
            target_p = payload["metadata"]["target"]["p"]
            target_p[k % len(target_p)] = bad
        elif where == "dimension":
            payload["dimension"] = bad
        elif where == "repaired":
            payload["metadata"]["repaired"] = bad if part else [bad]
        path = tmp_path_factory.mktemp("verify") / "w.json"
        path.write_text(json.dumps(payload))
        # A finite target number is read as a target the witness misses; metadata
        # beyond the target is free-form for both kinds, a "repaired" key included.
        missed = where.startswith("target") and bad in (2.7, -7)
        ignored = where in ("none", "repaired")
        code, out, _ = self.assert_invariants(["verify", str(path)], not (missed or ignored))
        assert code == (1 if missed else 0 if ignored else 2)
        if ignored:
            assert "verification passed" in out
            assert reference_target_deviation(path, out) <= 1e-9
