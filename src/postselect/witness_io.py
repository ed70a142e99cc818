"""JSON serialization of witnesses.

Schema: kind ("projective" | "generalized"), dimension (an integer d >= 1),
psi/phi as d [re, im] pairs, operators as n row-major d x d matrices of
[re, im] pairs, plus a free-form metadata map (target scenario, seeds; any
other key is ignored, such as the list of zero-probability outcomes that
older generalized files carry).  Every kind decodes as cls(psi, phi,
operators), each array read with core._array, as the witness classes do, so
a file holds the numbers they accept: real numbers of the declared shape, no
bools or strings.
A target needs finite numbers t and s, and one finite p per outcome.

The file always holds the dense operator stack: encoding a labelled
projective witness builds (and caches) its stack, so a built witness writes
the same bytes as its dense form.  Decoding hands the stack to the witness
class, so a projective file whose stack is an exact 0/1 partition (every
file of a built witness) decodes as a labelled witness, any other as dense.
"""

from __future__ import annotations

import json
from itertools import islice
from typing import Any

import numpy as np

from .core import GeneralizedWitness, ProjectiveWitness, _array, _Witness
from .errors import InvalidWitness

_KINDS = {cls.kind: cls for cls in (ProjectiveWitness, GeneralizedWitness)}


def _to_pairs(a: np.ndarray) -> list:
    """A complex array as nested lists, each entry an [re, im] pair."""
    return np.stack([a.real, a.imag], -1).tolist()


def _complex(value, name: str, shape: tuple[int | None, ...]) -> np.ndarray:
    """[re, im] pairs of the given shape as one complex array; inf parts stay inf."""
    return _array(value, name, (*shape, 2), "iuf").astype(float).view(complex)[..., 0]


def witness_to_dict(w: _Witness, metadata: dict[str, Any] | None = None) -> dict[str, Any]:
    return {
        "kind": w.kind,
        "dimension": w.dimension,
        "psi": _to_pairs(w.psi),
        "phi": _to_pairs(w.phi),
        "operators": _to_pairs(w.operators),
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
        psi, phi, ops = data["psi"], data["phi"], data["operators"]
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
    w = cls(psi, phi, _complex(ops, "operators", (None, d, d)))
    if "target" in meta:
        _check_target(meta["target"], w.n_outcomes)
    return w


def _write_witness(w, stream, metadata: dict[str, Any] | None = None) -> None:
    """Write json.dumps(w's document, indent=1) + "\n" to a text stream in chunks."""
    tokens = json.JSONEncoder(indent=1).iterencode(witness_to_dict(w, metadata))
    # 2^16 tokens of at least one character each: every write but the last holds >= 64 KiB.
    while chunk := "".join(islice(tokens, 1 << 16)):
        stream.write(chunk)
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
