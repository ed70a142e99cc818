"""JSON serialization of witnesses.

Schema: kind ("projective" | "generalized"), dimension (an integer d >= 1),
psi/phi as d [re, im] pairs, operators as n row-major d x d matrices of
[re, im] pairs, plus a free-form metadata map (target scenario, seeds, and a
generalized witness's ``repaired`` list of outcome indices).  Decoding reads
each array as one numeric array of the declared shape, and checks a target:
finite numbers t and s, and one finite p per outcome.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .core import GeneralizedWitness, ProjectiveWitness, _Witness
from .errors import InvalidWitness

_KINDS = {cls.kind: cls for cls in (ProjectiveWitness, GeneralizedWitness)}


def _to_pairs(a: np.ndarray) -> list:
    """A complex array as nested lists, each entry an [re, im] pair."""
    return np.stack([a.real, a.imag], -1).tolist()


def _numbers(value, name: str, shape: tuple[int | None, ...]) -> np.ndarray:
    """value as one float array of the given shape (None: any length) with numeric entries."""
    try:
        a = np.asarray(value)
    except ValueError as exc:
        raise InvalidWitness(f"{name} is not a rectangular array: {exc}") from exc
    if a.dtype.kind not in "biuf":
        raise InvalidWitness(f"{name} has a non-numeric entry")
    if a.ndim != len(shape) or any(want not in (got, None) for got, want in zip(a.shape, shape)):
        raise InvalidWitness(f"{name} has shape {a.shape}, expected {shape}")
    return a.astype(float)


def _complex(value, name: str, shape: tuple[int | None, ...]) -> np.ndarray:
    """[re, im] pairs of the given shape as one complex array; inf parts stay inf."""
    return _numbers(value, name, (*shape, 2)).view(complex)[..., 0]


def witness_to_dict(w: _Witness, metadata: dict[str, Any] | None = None) -> dict[str, Any]:
    meta = dict(metadata or {})
    if w.kind == "generalized" and w.repaired:
        meta.setdefault("repaired", list(w.repaired))
    return {
        "kind": w.kind,
        "dimension": w.dimension,
        "psi": _to_pairs(w.psi),
        "phi": _to_pairs(w.phi),
        "operators": _to_pairs(w.operators),
        "metadata": meta,
    }


def _check_target(target, n: int) -> None:
    """metadata.target needs finite numbers t and s, and one finite p per outcome."""
    try:
        values, n_p = [target["t"], target["s"], *target["p"]], len(target["p"])
    except (KeyError, TypeError) as exc:
        raise InvalidWitness(f"malformed metadata.target: {exc!r}") from exc
    if not np.isfinite(_numbers(values, "metadata.target", (None,))).all():
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
    args = [_complex(psi, "psi", (d,)), _complex(phi, "phi", (d,))]
    args.append(_complex(ops, "operators", (None, d, d)))
    if kind == "generalized":
        args.append(meta.get("repaired", []))
    w = cls(*args)
    if "target" in meta:
        _check_target(meta["target"], w.n_outcomes)
    return w


def save_witness(w, path: str, metadata: dict[str, Any] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(witness_to_dict(w, metadata), fh, indent=1)
        fh.write("\n")


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
