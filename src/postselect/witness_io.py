"""JSON serialization of witnesses.

Schema: kind ("projective" | "generalized"), dimension, psi/phi as [re, im]
pairs, operators as row-major d x d matrices of [re, im] pairs, plus a
free-form metadata map (target scenario, repaired outcomes, seeds).  A
target scenario is checked when the witness is decoded: finite numbers t and
s, and one finite p per outcome.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .core import GeneralizedWitness, ProjectiveWitness
from .errors import InvalidWitness


def _vector_to_pairs(v: np.ndarray) -> list[list[float]]:
    return [[float(x.real), float(x.imag)] for x in v]


def _matrix_to_pairs(m: np.ndarray) -> list[list[list[float]]]:
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _pairs_to_vector(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _pairs_to_matrix(pairs) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in pairs])


def witness_to_dict(
    w: ProjectiveWitness | GeneralizedWitness, metadata: dict[str, Any] | None = None
) -> dict[str, Any]:
    meta = dict(metadata or {})
    if isinstance(w, ProjectiveWitness):
        kind = "projective"
        ops = w.projectors
    else:
        kind = "generalized"
        ops = w.kraus
        if w.repaired:
            meta.setdefault("repaired", list(w.repaired))
    return {
        "kind": kind,
        "dimension": w.dimension,
        "psi": _vector_to_pairs(w.psi),
        "phi": _vector_to_pairs(w.phi),
        "operators": [_matrix_to_pairs(op) for op in ops],
        "metadata": meta,
    }


def _check_target(target, n: int) -> None:
    """metadata.target needs finite numbers t and s, and one finite p per outcome."""
    try:
        values, n_p = [target["t"], target["s"], *target["p"]], len(target["p"])
    except (KeyError, TypeError) as exc:
        raise InvalidWitness(f"malformed metadata.target: {exc!r}") from exc
    if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in values):
        raise InvalidWitness("metadata.target has a non-finite or non-numeric entry")
    if n_p != n:
        raise InvalidWitness(f"metadata.target.p has {n_p} entries for {n} outcomes")


def witness_from_dict(data: dict[str, Any]) -> ProjectiveWitness | GeneralizedWitness:
    try:
        kind = data["kind"]
        d = int(data["dimension"])
        psi = _pairs_to_vector(data["psi"])
        phi = _pairs_to_vector(data["phi"])
        ops = [_pairs_to_matrix(m) for m in data["operators"]]
        meta = data.get("metadata", {})
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidWitness(f"malformed witness file: {exc}") from exc
    if not isinstance(meta, dict):
        raise InvalidWitness("metadata is not a JSON object")
    if psi.size != d or phi.size != d:
        raise InvalidWitness("state dimension does not match declared dimension")
    if kind == "projective":
        w = ProjectiveWitness(psi, phi, tuple(ops))
    elif kind == "generalized":
        repaired = tuple(int(k) for k in meta.get("repaired", []))
        w = GeneralizedWitness(psi, phi, tuple(ops), repaired)
    else:
        raise InvalidWitness(f"unknown witness kind {kind!r}")
    if "target" in meta:
        _check_target(meta["target"], w.n_outcomes)
    return w


def save_witness(w, path: str, metadata: dict[str, Any] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(witness_to_dict(w, metadata), fh, indent=1)
        fh.write("\n")


def load_witness_with_metadata(
    path: str,
) -> tuple[ProjectiveWitness | GeneralizedWitness, dict[str, Any]]:
    """Read a witness file once; its metadata is checked as in witness_from_dict."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidWitness(f"not valid JSON: {exc}") from exc
    return witness_from_dict(data), data.get("metadata", {})


def load_witness(path: str) -> ProjectiveWitness | GeneralizedWitness:
    return load_witness_with_metadata(path)[0]
