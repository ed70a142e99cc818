"""JSON serialization of witnesses.

Schema: kind ("projective" | "generalized"), dimension (an integer d >= 1),
psi/phi as d [re, im] pairs, the measurement, plus a free-form metadata map
(target scenario, seeds; any other key is ignored, such as the list of
zero-probability outcomes that older generalized files carry).  The
measurement is either operators, n row-major d x d matrices of [re, im]
pairs, or, in a projective file only, labels (d integers in
range(n_outcomes), one outcome per basis vector) and n_outcomes (an integer
in [1, d]); a file holds exactly one of the two forms.  Each array is read
with core._array, as the witness classes do, so a file holds the numbers they
accept: real numbers of the declared shape, no bools or strings, and labels
of an integer kind.
A target needs finite numbers t and s, and one finite p per outcome.

A labelled projective witness with n <= d outcomes (every built one) writes
its labels and never builds its stack; any other witness writes its stack.
Decoding hands labels, or the stack, to the witness class, so a projective
file whose stack is an exact 0/1 partition (every file of a built witness
written before labels) decodes as a labelled witness, any other as dense.
A labels file may not name more outcomes than basis vectors: its size then
bounds the n-entry arrays that evaluating it allocates, as a stack's does.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .core import GeneralizedWitness, ProjectiveWitness, _array, _Witness
from .errors import InvalidWitness

_KINDS = {cls.kind: cls for cls in (ProjectiveWitness, GeneralizedWitness)}
_MEASUREMENT_KEYS = frozenset({"operators", "labels", "n_outcomes"})


def _to_pairs(a: np.ndarray) -> list:
    """A complex array as nested lists, each entry an [re, im] pair, read through a float view."""
    return np.ascontiguousarray(a).view(float).reshape(*a.shape, 2).tolist()


def _complex(value, name: str, shape: tuple[int | None, ...]) -> np.ndarray:
    """[re, im] pairs of the given shape as one complex array; inf parts stay inf."""
    return _array(value, name, (*shape, 2), "iuf").astype(float).view(complex)[..., 0]


def witness_to_dict(w: _Witness, metadata: dict[str, Any] | None = None) -> dict[str, Any]:
    labels = getattr(w, "labels", None)
    if labels is not None and w.n_outcomes <= w.dimension:
        measurement = {"labels": labels.tolist(), "n_outcomes": w.n_outcomes}
    else:
        measurement = {"operators": _to_pairs(w.operators)}
    return {
        "kind": w.kind,
        "dimension": w.dimension,
        "psi": _to_pairs(w.psi),
        "phi": _to_pairs(w.phi),
        **measurement,
        "metadata": dict(metadata or {}),
    }


def _check_target(target, n: int) -> None:
    """metadata.target needs finite numbers t and s, and one finite p per outcome."""
    try:
        values, n_p = [target["t"], target["s"], *target["p"]], len(target["p"])
    except (KeyError, TypeError) as exc:
        raise InvalidWitness(f"malformed metadata.target: {exc!r}") from exc
    if not np.isfinite(_array(values, "metadata.target", (None,), "iuf")).all():
        raise InvalidWitness("metadata.target has a non-finite entry")
    if n_p != n:
        raise InvalidWitness(f"metadata.target.p has {n_p} entries for {n} outcomes")


def witness_from_dict(data: dict[str, Any]) -> _Witness:
    try:
        kind, d, meta = data["kind"], data["dimension"], data.get("metadata", {})
        psi, phi, keys = data["psi"], data["phi"], data.keys() & _MEASUREMENT_KEYS
    except (KeyError, TypeError) as exc:
        raise InvalidWitness(f"malformed witness file: {exc}") from exc
    if not isinstance(meta, dict):
        raise InvalidWitness("metadata is not a JSON object")
    try:
        cls = _KINDS[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable JSON value
        raise InvalidWitness(f"unknown witness kind {kind!r}") from None
    if type(d) is not int or d < 1:
        raise InvalidWitness(f"dimension {d!r} is not a positive integer")
    psi, phi = _complex(psi, "psi", (d,)), _complex(phi, "phi", (d,))
    if keys == {"operators"}:
        w = cls(psi, phi, _complex(data["operators"], "operators", (None, d, d)))
    elif keys == {"labels", "n_outcomes"} and cls is ProjectiveWitness:
        w = cls(psi, phi, labels=data["labels"], n_outcomes=data["n_outcomes"])
        if w.n_outcomes > d:
            raise InvalidWitness(f"n_outcomes exceeds the dimension {d} of a labelled file")
    else:
        want = "operators, or labels and n_outcomes" if cls is ProjectiveWitness else "operators"
        raise InvalidWitness(f"a {kind} file holds exactly {want}; found {sorted(keys)}")
    if "target" in meta:
        _check_target(meta["target"], w.n_outcomes)
    return w


def _write_witness(w, stream, metadata: dict[str, Any] | None = None) -> None:
    """Write w's document to a text stream as json.dumps(doc, indent=1), then a newline."""
    stream.write(json.dumps(witness_to_dict(w, metadata), indent=1))
    stream.write("\n")


def save_witness(w, path: str, metadata: dict[str, Any] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_witness(w, fh, metadata)


def load_witness_with_metadata(path: str) -> tuple[_Witness, dict[str, Any]]:
    """Read a witness file once; its metadata is checked as in witness_from_dict."""
    with open(path, encoding="utf-8") as fh:
        # ValueError: bad JSON or an over-long integer; RecursionError: deep nesting.
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise InvalidWitness(f"not readable JSON: {exc}") from exc
    return witness_from_dict(data), data.get("metadata", {})


def load_witness(path: str) -> _Witness:
    return load_witness_with_metadata(path)[0]
