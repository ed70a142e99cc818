"""Witness validation against the literal per-projector and pairwise loop.

A ProjectiveWitness given an (n, d, d) operator stack stores it as labels
when the stack is an exact partition (zero but for diagonal entries exactly
1, one per column), and otherwise validates it with stacked products.  Both
must accept and reject exactly what the loop below does, and the stacked
check must report the same first failure.  Dense witnesses cost
n * d^2 * 16 bytes, so every set here stays at d <= 6.  A labelled witness
given its labels is checked on its labels and n_outcomes alone.
"""

import ast
import copy
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from postselect import (
    GeneralizedWitness,
    OutcomeDistribution,
    ProjectiveWitness,
    ScenarioTriple,
    construct_generalized,
    construct_projective,
)
from postselect import core
from postselect.core import EPS_UNIT, _diagonal_projectors
from postselect.errors import InvalidWitness
from postselect.stats import evaluate_witness, transition_amplitudes
from postselect.witness_io import load_witness, save_witness, witness_from_dict, witness_to_dict
from samplers import sample_projective, sample_state, sample_unitary


def check_projective_loop(projs) -> str | None:
    """The validation loop as first written: the message of the first failure, or None."""
    d = projs[0].shape[0]
    total = np.zeros((d, d), dtype=complex)
    for i, p in enumerate(projs):
        if np.max(np.abs(p - p.conj().T)) > EPS_UNIT:
            return f"projector {i} is not hermitian"
        if np.max(np.abs(p @ p - p)) > EPS_UNIT:
            return f"projector {i} is not idempotent"
        total += p
    if np.max(np.abs(total - np.eye(d))) > EPS_UNIT:
        return "projectors do not sum to the identity"
    for i in range(len(projs)):
        for j in range(i + 1, len(projs)):
            if np.max(np.abs(projs[i] @ projs[j])) > EPS_UNIT:
                return f"projectors {i} and {j} are not orthogonal"
    return None


def check_projective_stack(projs) -> str | None:
    e0 = np.eye(projs[0].shape[0])[0]
    try:
        ProjectiveWitness(e0, e0, projs)
    except InvalidWitness as exc:
        return str(exc)
    return None


def diagonal_set(d, n, rng):
    """Computational-basis projectors on a random partition of d basis vectors into n parts."""
    labels = np.concatenate([np.arange(n), rng.integers(0, n, d - n)])
    rng.shuffle(labels)
    return [np.diag((labels == k).astype(complex)) for k in range(n)]


def perturb(projs, delta, rng, diagonal_only):
    """Add delta to one to three random entries of random projectors."""
    out = [p.copy() for p in projs]
    d = out[0].shape[0]
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(len(out)))
        r = int(rng.integers(d))
        c = r if diagonal_only else int(rng.integers(d))
        out[k][r, c] += delta
    return out


PERTURBATIONS = (0.0, 1e-11, 3e-10, 1e-3, 1e-9j)


def test_stack_matches_loop():
    rng = np.random.default_rng(20261018)
    seen = set()
    trials = 0
    for _ in range(150):
        d = int(rng.integers(1, 7))
        n = int(rng.integers(1, d + 1))
        for make in (diagonal_set, sample_projective):
            base = make(d, n, rng)
            variants = [
                perturb(base, delta, rng, diagonal_only=bool(rng.integers(2)))
                for delta in PERTURBATIONS
            ]
            if n >= 2:
                variants.append([base[0] + base[1]] + list(base[1:]))
            variants.append([np.eye(d, dtype=complex)])
            variants.append(base[:1])
            for projs in variants:
                expected = check_projective_loop(projs)
                assert check_projective_stack(projs) == expected, (projs, expected)
                seen.add(expected and expected.split()[-1])
                trials += 1
    assert trials > 1500
    # Acceptance and every failure that can come first all occur.
    assert {None, "hermitian", "idempotent", "identity"} <= seen


@pytest.mark.parametrize("off_diagonal", [0.0, 1e-200], ids=["diagonal", "generic"])
def test_orthogonality_can_fail_last(off_diagonal):
    # Hermitian, idempotent and complete within EPS_UNIT, yet P_0 P_1 = diag(x, 0)
    # exceeds it: x (1 - x) <= EPS_UNIT < x.
    x = EPS_UNIT + 0.5 * EPS_UNIT**2
    diagonals = ([1.0, 0.0], [x, 0.0], [-x / 2, 0.0], [-x / 2, 1.0])
    projs = [np.diag(v).astype(complex) for v in diagonals]
    projs[3][0, 1] = projs[3][1, 0] = off_diagonal
    expected = "projectors 0 and 1 are not orthogonal"
    assert check_projective_loop(projs) == expected
    assert check_projective_stack(projs) == expected


@pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_nan_projector_entry_rejected(entry):
    projs = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    projs[1][entry] = math.nan
    with pytest.raises(InvalidWitness, match="projector 1 is not hermitian"):
        ProjectiveWitness([1, 0], [0, 1], projs)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_state_rejected(bad):
    projs = [np.eye(2, dtype=complex)]
    with pytest.raises(InvalidWitness, match="psi has norm"):
        ProjectiveWitness([bad, 0], [1, 0], projs)
    with pytest.raises(InvalidWitness, match="phi has norm"):
        GeneralizedWitness([1, 0], [0, bad], projs)


def test_nan_kraus_entry_rejected():
    kraus = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    kraus[0][1, 0] = math.nan
    with pytest.raises(InvalidWitness, match="not complete"):
        GeneralizedWitness([1, 0], [0, 1], kraus)


MALFORMED_LABELS = {
    "bool-entries": ([True, False], 2),
    "bool-array": (np.array([True, False]), 2),
    "bool-among-ints": ([0, True], 2),
    "float-entries": ([0.0, 1.0], 2),
    "float-array": (np.array([0.0, 1.0]), 2),
    "string-entries": (["0", "1"], 2),
    "np-bool-among-ints": ([np.bool_(False), 1], 2),
    "bytes-entries": ([b"0", b"1"], 2),
    "object-array": (np.array([0, 1], dtype=object), 2),
    "complex-entries": ([0j, 1], 2),
    "scalar": (0, 2),
    "negative": ([0, -1], 2),
    "label-equals-n": ([0, 2], 2),
    "huge-unsigned": (np.array([0, 2**64 - 1], dtype=np.uint64), 2),
    "too-long": ([0, 1, 0], 2),
    "too-short": ([0], 2),
    "2-D": ([[0, 1]], 2),
    "ragged": ([[0], [0, 1]], 2),
    "none": (None, 2),
    "n-zero": ([0, 0], 0),
    "n-negative": ([0, 0], -1),
    "n-bool": ([0, 0], True),
    "n-float": ([0, 0], 2.0),
    "n-string": ([0, 0], "2"),
    "n-missing": ([0, 0], None),
}


@pytest.mark.parametrize("labels, n", MALFORMED_LABELS.values(), ids=MALFORMED_LABELS.keys())
def test_malformed_labels_rejected(labels, n):
    with pytest.raises(InvalidWitness):
        ProjectiveWitness([1, 0], [0, 1], labels=labels, n_outcomes=n)


def test_operators_or_labels_not_both():
    with pytest.raises(InvalidWitness, match="not both"):
        ProjectiveWitness([1, 0], [0, 1], np.eye(2)[None], labels=[0, 0], n_outcomes=1)
    with pytest.raises(InvalidWitness, match="needs operators or labels"):
        ProjectiveWitness([1, 0], [0, 1])


def test_only_core_reads_integers_with_operator_index():
    # Every other module reads integer input through core._count, which refuses bools
    # and checks the lower bound; operator.mul and the rest of operator stay allowed.
    readers = set()
    for path in Path(core.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            calls = isinstance(node, ast.Attribute) and node.attr == "index" and (
                isinstance(node.value, ast.Name) and node.value.id == "operator"
            )
            imports = isinstance(node, ast.ImportFrom) and node.module == "operator" and (
                "index" in {alias.name for alias in node.names}
            )
            if calls or imports:
                readers.add(path.name)
    assert readers == {"core.py"}, readers


def test_kraus_completeness_matches_sum():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = int(rng.integers(1, 6))
        u = sample_unitary(d, rng)
        kraus = [p @ u for p in sample_projective(d, int(rng.integers(1, d + 1)), rng)]
        kraus[0] = kraus[0] + float(rng.choice(PERTURBATIONS[:4])) * rng.standard_normal((d, d))
        total = sum(v.conj().T @ v for v in kraus)
        complete = np.max(np.abs(total - np.eye(d))) <= EPS_UNIT
        psi = sample_state(d, rng)
        if complete:
            GeneralizedWitness(psi, psi, kraus)
        else:
            with pytest.raises(InvalidWitness):
                GeneralizedWitness(psi, psi, kraus)


def test_operators_are_one_read_only_stack():
    sc = ScenarioTriple(0.1, 0.3, OutcomeDistribution((0.5, 0.3, 0.2)))
    built = construct_projective(sc)
    source = [np.diag(row).astype(complex) for row in np.eye(3)]
    w = ProjectiveWitness(built.psi, built.phi, source)
    # Adjointed Kraus operators stay complete when each is a projector times one unitary.
    u = sample_unitary(3, np.random.default_rng(3))
    h = GeneralizedWitness(built.psi, built.phi, [p @ u for p in source]).swapped()
    source[0][0, 0] = 0.0
    g = construct_generalized(sc)
    # A built witness holds labels; its stack is built on the first read and kept.
    assert built.labels is not None
    assert np.array_equal(built.operators, _diagonal_projectors(np.arange(3), 3))
    assert built.operators is built.operators
    qubit = construct_projective(ScenarioTriple(0.3, 0.3, OutcomeDistribution((1.0,))))
    assert np.array_equal(qubit.operators, _diagonal_projectors(np.zeros(2, dtype=np.intp), 1))
    assert not qubit.operators.flags.writeable
    for stack, views in (
        (built.operators, built.projectors),
        (w.operators, w.projectors),
        (g.operators, g.kraus),
        (h.operators, h.kraus),
    ):
        assert stack.shape == (3, 3, 3) and not stack.flags.writeable
        for k, v in enumerate(views):
            assert v.base is stack and not v.flags.writeable
            assert np.array_equal(v, stack[k])
    assert w.projectors[0][0, 0] == 1.0


def test_transition_amplitudes_match_per_operator_form():
    rng = np.random.default_rng(11)
    shapes = set()
    for _ in range(50):
        d = int(rng.integers(2, 6))
        u = sample_unitary(d, rng)
        projs = sample_projective(d, int(rng.integers(1, d + 1)), rng)
        psi, phi = sample_state(d, rng), sample_state(d, rng)
        # Random labels: several basis vectors per outcome, and outcomes with none.
        n = int(rng.integers(1, d + 3))
        labelled = ProjectiveWitness(psi, phi, labels=rng.integers(0, n, d), n_outcomes=n)
        for w in (
            ProjectiveWitness(psi, phi, projs),
            GeneralizedWitness(psi, phi, [p @ u for p in projs]),
            labelled,
        ):
            expected = [np.vdot(w.phi, v @ w.psi) for v in w.operators]
            got = transition_amplitudes(w)
            assert got.shape == (w.n_outcomes,)
            assert np.allclose(got, expected, rtol=0, atol=1e-14)
        shapes.add((d > n, len(set(labelled.labels.tolist())) < n))
    assert {(True, False), (False, True), (True, True)} <= shapes


def partition_set(rng):
    """An exact diagonal_set stack with an all-zero projector inserted, and its labels."""
    d = int(rng.integers(2, 7))
    projs = diagonal_set(d, int(rng.integers(1, d + 1)), rng)
    projs.insert(int(rng.integers(len(projs) + 1)), np.zeros((d, d), dtype=complex))
    labels = np.array([next(k for k, p in enumerate(projs) if p[j, j] == 1) for j in range(d)])
    return np.array(projs), labels


@pytest.mark.parametrize("diagonal_only", [True, False], ids=["diagonal", "anywhere"])
def test_stack_form_follows_exact_partition(diagonal_only):
    # Exact: labels and n from the stack, which is kept.  Off by 1e-11 or
    # 1e-300j: dense.  NaN: refused.
    rng = np.random.default_rng(909)
    for _ in range(40):
        stack, labels = partition_set(rng)
        d = len(labels)
        e0 = np.eye(d)[0]
        w = ProjectiveWitness(sample_state(d, rng), sample_state(d, rng), stack)
        assert np.array_equal(w.labels, labels) and w.n_outcomes == len(stack)
        assert not w.labels.flags.writeable
        assert np.array_equal(w.operators, stack) and not w.operators.flags.writeable
        assert w.operators is not stack
        near = perturb(list(stack), 1e-11, rng, diagonal_only)
        assert ProjectiveWitness(e0, e0, near).labels is None
        tilted = stack.copy()
        j = int(rng.integers(d))
        tilted[labels[j], j, j] = 1 + 1e-300j
        assert ProjectiveWitness(e0, e0, tilted).labels is None
        broken = stack.copy()
        broken[tuple(rng.integers(0, m) for m in stack.shape)] = math.nan
        with pytest.raises(InvalidWitness):
            ProjectiveWitness(e0, e0, broken)


def test_decoded_built_file_is_labelled(tmp_path, monkeypatch):
    n = 32
    sc = ScenarioTriple(0.2, 0.5 / n, OutcomeDistribution(np.full(n, 1.0 / n)))
    built = construct_projective(sc)
    path = tmp_path / "w.json"
    save_witness(built, str(path))

    def refuse(a):
        raise AssertionError("the dense projector check ran on an exact partition")

    monkeypatch.setattr(core, "_validate_projectors", refuse)
    w = load_witness(str(path))
    assert np.array_equal(w.labels, built.labels) and w.n_outcomes == n
    assert np.array_equal(w.operators, built.operators)
    assert evaluate_witness(w) == evaluate_witness(built)
    assert witness_to_dict(w) == witness_to_dict(built)


# One reader for witness input: every malformed form of a state, operator stack
# or witness-file field raises InvalidWitness from core._array, as labels do above.
E2 = np.eye(2)
MALFORMED_STATES = {
    "bools": [True, False],
    "np-bools": [np.bool_(True), 0],
    "bool-among-numbers": [1, False],
    "bool-array": np.array([True, False]),
    "0-d-bool-array-among-numbers": [np.array(True), 0.0],
    "strings": ["1", "0"],
    "bytes": [b"1", b"0"],
    "object-array": np.array([1, 0], dtype=object),
    "none-entry": [None, 1],
    "ragged": [[1, 0], [1]],
    "2-D": [[1, 0]],
    "scalar": 1,
}
MALFORMED_OPERATORS = {
    "bools": [[[True, False], [False, True]]],
    "np-bool-entry": [[[np.bool_(True), 0.0], [0.0, 1.0]]],
    "0-d-bool-array-entry": [[[np.array(True), 0.0], [0.0, 1.0]]],
    "bool-array": np.eye(2, dtype=bool)[None],
    "strings": [[["1", "0"], ["0", "1"]]],
    "bytes": [[[b"1", b"0"], [b"0", b"1"]]],
    "object-array": np.eye(2, dtype=object)[None],
    "ragged": [E2, [[1, 0]]],
    "2-D": E2,
    "4-D": E2[None, None],
}


def intake_cases():
    """One witness build per malformed state and operator stack (labels: MALFORMED_LABELS)."""
    classes = (ProjectiveWitness, GeneralizedWitness)
    for field in ("psi", "phi"):
        for case, value in MALFORMED_STATES.items():
            psi, phi = (value, [0, 1]) if field == "psi" else ([1, 0], value)
            for cls in classes:
                build = partial(cls, psi, phi, E2[None])
                yield pytest.param(build, id=f"{field}-{case}-{cls.kind}")
            labelled = partial(ProjectiveWitness, psi, phi, labels=[0, 0], n_outcomes=1)
            yield pytest.param(labelled, id=f"{field}-{case}-labelled")
    for case, value in MALFORMED_OPERATORS.items():
        for cls in classes:
            yield pytest.param(partial(cls, [1, 0], [0, 1], value), id=f"ops-{case}-{cls.kind}")


@pytest.mark.parametrize("build", intake_cases())
def test_malformed_witness_input_rejected(build):
    with pytest.raises(InvalidWitness):
        build()


@pytest.mark.parametrize("value", MALFORMED_STATES.values(), ids=MALFORMED_STATES.keys())
def test_as_state_rejects_malformed_states(value):
    with pytest.raises(InvalidWitness):
        core.as_state(value)


def test_as_state_rejects_an_empty_state():
    with pytest.raises(ValueError, match="dimension >= 1"):
        core.as_state([])


@pytest.mark.parametrize(
    "build, message",
    [
        (partial(ProjectiveWitness, [1, 0], [0, 0, 1], E2[None]), "dimensions differ"),
        (partial(GeneralizedWitness, [1, 0, 0], [0, 1], E2[None]), "dimensions differ"),
        (partial(ProjectiveWitness, [1, 0], [0, 0, 1], labels=[0, 0], n_outcomes=1),
         "dimensions differ"),
        (partial(ProjectiveWitness, [1, 0], [0, 1], np.zeros((0, 2, 2))),
         "empty projective operator set"),
        (partial(GeneralizedWitness, [1, 0], [0, 1], np.zeros((0, 2, 2))),
         "empty generalized operator set"),
    ],
    ids=["sizes-projective", "sizes-generalized", "sizes-labelled", "empty-projective",
         "empty-generalized"],
)
def test_mismatched_or_empty_witness_rejected(build, message):
    with pytest.raises(InvalidWitness, match=message):
        build()


def pairs(entries):
    """[re, im] pairs with zero imaginary parts, as a witness file holds them."""
    return np.stack([entries, np.zeros_like(entries)], -1).tolist()


FILE = {
    "kind": "generalized",
    "dimension": 2,
    "psi": pairs(np.array([1.0, 0.0])),
    "phi": pairs(np.array([0.0, 1.0])),
    "operators": pairs(E2[None]),
    "metadata": {"target": {"t": 0.0, "s": 0.5, "p": [1.0]}},
}
MALFORMED_ENTRIES = {
    "bool": True,
    "np-bool": np.bool_(True),
    "string": "1",
    "bytes": b"1",
    "none": None,
    "object": {},
}


def file_cases():
    """(field, edit) pairs: each edit breaks one field of FILE in place."""

    def set_entry(path, value):
        def edit(doc):
            *head, last = path
            target = doc
            for key in head:
                target = target[key]
            target[last] = value

        return edit

    entries = {
        "psi": ("psi", 0, 0),
        "phi": ("phi", 1, 1),
        "operators": ("operators", 0, 1, 1, 0),
        "target.t": ("metadata", "target", "t"),
        "target.s": ("metadata", "target", "s"),
        "target.p": ("metadata", "target", "p", 0),
    }
    for field, path in entries.items():
        for case, value in MALFORMED_ENTRIES.items():
            yield pytest.param(set_entry(path, value), id=f"{field}-{case}")
    for field in ("psi", "phi"):
        yield pytest.param(set_entry((field, 1), [0.0]), id=f"{field}-ragged")
        yield pytest.param(set_entry((field,), [[1.0, 0.0, 0.0]] * 2), id=f"{field}-wrong-pair")
        yield pytest.param(set_entry((field,), [1.0, 0.0]), id=f"{field}-wrong-ndim")
    yield pytest.param(set_entry(("operators", 0, 1), [[1.0, 0.0]]), id="operators-ragged")
    yield pytest.param(set_entry(("operators",), pairs(E2)), id="operators-wrong-ndim")
    yield pytest.param(set_entry(("metadata", "target", "p"), [[1.0]]), id="target.p-wrong-ndim")


@pytest.mark.parametrize("edit", file_cases())
def test_malformed_witness_file_field_rejected(edit):
    doc = copy.deepcopy(FILE)
    witness_from_dict(copy.deepcopy(doc))  # the unedited file decodes
    edit(doc)
    with pytest.raises(InvalidWitness):
        witness_from_dict(doc)


ACCEPTED_STATES = {
    "int-list": [1, 0],
    "float-list": [1.0, 0.0],
    "complex-list": [1j, 0j],
    "int-tuple": (0, 1),
    "complex-array": np.array([1j, 0.0]),
    "int8-array": np.array([1, 0], dtype=np.int8),
    "float32-array": np.array([0.0, 1.0], dtype=np.float32),
    "list-of-0-d-arrays": [np.array(1.0), np.array(0.0)],
    "list-of-0-d-complex-arrays": [np.array(1j), np.array(0j)],
}
ACCEPTED_OPERATORS = {
    "int-list": [[[1, 0], [0, 1]]],
    "float-list": E2[None].tolist(),
    "complex-list": [[[1 + 0j, 0j], [0j, 1 + 0j]]],
    "complex-array": E2[None].astype(complex),
    "list-of-arrays": [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
    "tuple-of-arrays": (np.diag([1.0, 0.0]).astype(complex), np.diag([0, 1])),
}
ACCEPTED_LABELS = {
    "int-list": [0, 1],
    "int-tuple": (1, 0),
    "int8-array": np.array([0, 1], dtype=np.int8),
    "uint64-array": np.array([1, 1], dtype=np.uint64),
    "np-int-entries": [np.int64(0), np.int32(1)],
}


@pytest.mark.parametrize("state", ACCEPTED_STATES.values(), ids=ACCEPTED_STATES.keys())
@pytest.mark.parametrize("ops", ACCEPTED_OPERATORS.values(), ids=ACCEPTED_OPERATORS.keys())
def test_numeric_witness_input_accepted(state, ops):
    for cls in (ProjectiveWitness, GeneralizedWitness):
        w = cls(state, state, ops)
        assert w.psi.dtype == complex and w.psi.shape == (2,) and not w.psi.flags.writeable
        assert w.operators.dtype == complex and w.operators.shape[1:] == (2, 2)
        assert np.array_equal(w.psi, np.asarray(state, dtype=complex))
        assert np.array_equal(w.operators, np.asarray(ops, dtype=complex))


@pytest.mark.parametrize("labels", ACCEPTED_LABELS.values(), ids=ACCEPTED_LABELS.keys())
def test_integer_labels_accepted(labels):
    w = ProjectiveWitness([1, 0], [0, 1], labels=labels, n_outcomes=2)
    assert w.labels.dtype == np.intp and np.array_equal(w.labels, np.asarray(labels))


def test_integer_witness_file_accepted():
    doc = copy.deepcopy(FILE)
    doc["psi"], doc["operators"] = [[1, 0], [0, 0]], [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]
    doc["metadata"]["target"] = {"t": 0, "s": 1, "p": [1]}
    w = witness_from_dict(doc)
    assert np.array_equal(w.psi, [1, 0]) and np.array_equal(w.operators, E2[None])


def array_casts(path: Path) -> set[tuple[str, str | None]]:
    """(module, enclosing function) of every np.asarray / np.array call in a module."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            func = getattr(child, "func", None)
            if (
                isinstance(child, ast.Call)
                and isinstance(func, ast.Attribute)
                and func.attr in {"asarray", "array"}
                and isinstance(func.value, ast.Name)
                and func.value.id == "np"
            ):
                found.add((path.name, scope))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_only_core_array_reads_witness_arrays():
    # Witness input becomes an array in one place, core._array, which refuses bools,
    # strings, bytes, objects, ragged input and a wrong shape with InvalidWitness.
    package = Path(core.__file__).parent
    casts = array_casts(package / "core.py") | array_casts(package / "witness_io.py")
    assert casts == {("core.py", "_array")}, casts
