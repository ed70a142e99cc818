import contextlib
import copy
import io
import json
import math

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
from postselect import cli
from postselect.cli import main
from postselect.errors import ClosureFailure
from postselect.witness_io import (
    _write_witness,
    load_witness,
    save_witness,
    witness_from_dict,
    witness_to_dict,
)
from samplers import sample_projective, sample_state, sample_unitary


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
            ("entropy", "--p", "0.5,0.5", "--q", "nan"),
        ],
    )
    def test_invalid_input_exit_two(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "error" in err

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

    @pytest.mark.parametrize("kind", ["projective", "generalized"])
    def test_out_file_holds_stdout_bytes(self, capsys, tmp_path, kind):
        path = tmp_path / "w.json"
        argv = ["construct", "--t", "0.1", "--s", "0.3", "--p", "0.5,0.3,0.2", "--kind", kind]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        code, _, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0
        assert path.read_bytes() == out.encode()

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
        path = tmp_path / "w.json"
        run(
            capsys,
            "construct", "--t", "0", "--s", "0.5", "--p", "0.5,0.5",
            "--kind", "generalized", "--out", str(path),
        )
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2 and out == ""
        assert err == f"invalid witness: {message}\n"

    @pytest.mark.parametrize("where", ["diagonal", "off-diagonal", "psi"])
    def test_verify_rejects_nan_entry(self, capsys, tmp_path, where):
        path = tmp_path / "w.json"
        run(
            capsys,
            "construct", "--t", "0", "--s", "0.5", "--p", "0.5,0.5",
            "--kind", "projective", "--out", str(path),
        )
        payload = json.loads(path.read_text())
        entry = {
            "diagonal": payload["operators"][1][1][1],
            "off-diagonal": payload["operators"][0][0][1],
            "psi": payload["psi"][0],
        }[where]
        entry[0] = float("nan")
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "verify", str(path))
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


def reference_witness_to_dict(w, metadata=None):
    """The per-entry encoder the whole-stack codec replaced, kept as its byte reference."""

    def vector_to_pairs(v):
        return [[float(x.real), float(x.imag)] for x in v]

    def matrix_to_pairs(m):
        return [[[float(x.real), float(x.imag)] for x in row] for row in m]

    meta = dict(metadata or {})
    if isinstance(w, ProjectiveWitness):
        kind, ops = "projective", w.projectors
    else:
        kind, ops = "generalized", w.kraus
    return {
        "kind": kind,
        "dimension": w.dimension,
        "psi": vector_to_pairs(w.psi),
        "phi": vector_to_pairs(w.phi),
        "operators": [matrix_to_pairs(op) for op in ops],
        "metadata": meta,
    }


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
        # Older builders wrote |e_k><e_k| for each zero-probability outcome and
        # listed those outcomes in metadata.repaired; such files still verify.
        sc = ScenarioTriple(t, s, OutcomeDistribution(p))
        w = construct_generalized(sc)
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
        legacy = load_witness(path)
        assert not np.array_equal(legacy.operators, w.operators)
        got, want = evaluate_witness(legacy), evaluate_witness(w)
        bits = [np.array([sc.t, sc.s, *sc.dist.probs]).tobytes() for sc in (got, want)]
        assert bits[0] == bits[1]

    def test_writer_joins_tokens_into_large_writes(self):
        # json.dump writes each token separately: 138,121 writes for this witness, each
        # a system call on an unbuffered stdout.
        n = 30
        w = construct_projective(
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
        self.assert_invariants(argv, bad_q or not all(math.isfinite(x) for x in p))

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
