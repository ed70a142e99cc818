"""Domain types for postselected-measurement statistics.

All types are immutable value objects validated at construction time; every
operation elsewhere in the package is a pure function over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidWitness

# Probability normalization tolerance (double-precision accumulation).
EPS_PROB = 1e-12
# Matrix-identity / unit-norm tolerance.
EPS_UNIT = 1e-10
# Boundary tolerance of the feasibility inequalities (closed regions).
EPS_FEAS = 1e-12


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probability vector over n >= 1 measurement outcomes."""

    probs: tuple[float, ...]

    def __init__(self, probs: Sequence[float]):
        p = tuple(float(x) for x in probs)
        if len(p) < 1:
            raise ValueError("distribution needs at least one outcome")
        if any(x < 0.0 for x in p):
            raise ValueError(f"negative probability in {p}")
        total = sum(p)
        # The entries are non-negative, so a NaN or inf among them makes the total non-finite.
        if not math.isfinite(total):
            raise ValueError(f"non-finite probability in {p}")
        if abs(total - 1.0) > EPS_PROB:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "probs", p)

    @property
    def n(self) -> int:
        return len(self.probs)

    def max_prob(self) -> float:
        return max(self.probs)

    def __iter__(self):
        return iter(self.probs)

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, k: int) -> float:
        return self.probs[k]


@dataclass(frozen=True)
class ScenarioTriple:
    """Transition probability, success probability and outcome distribution.

    The object of the feasibility question: t is the transition probability
    without intermediate measurement, s the success probability of the
    postselection with the measurement in place, dist the outcome statistics
    on the postselected ensemble.  s = 0 is rejected: the postselected
    ensemble is empty and the distribution undefined.
    """

    t: float
    s: float
    dist: OutcomeDistribution

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "s", float(self.s))
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"transition probability {self.t!r} outside [0, 1]")
        if not 0.0 < self.s <= 1.0:
            raise ValueError(f"success probability {self.s!r} outside (0, 1]")

    @property
    def n(self) -> int:
        return self.dist.n


@dataclass(frozen=True)
class DiversityProfile:
    """The two diversity indices governing projective feasibility.

    d_half is the exponentiated Renyi 1/2-entropy, d_inf the exponentiated
    min-entropy; h_half and h_inf are their logarithms.
    """

    d_half: float
    d_inf: float
    h_half: float
    h_inf: float

    def __post_init__(self):
        if self.d_inf > self.d_half * (1 + 1e-12) + 1e-12:
            raise ValueError(f"D_inf = {self.d_inf} exceeds D_1/2 = {self.d_half}")
        if self.d_inf < 1.0 - 1e-12 or self.d_half < 1.0 - 1e-12:
            raise ValueError("diversity indices must be >= 1")


def as_state(entries: Sequence[complex] | np.ndarray, *, name: str = "state") -> np.ndarray:
    """Coerce to a read-only complex unit vector, checking the norm."""
    v = np.asarray(entries, dtype=complex).reshape(-1).copy()
    if v.size < 1:
        raise ValueError(f"{name} must have dimension >= 1")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > EPS_UNIT:
        raise InvalidWitness(f"{name} has norm {norm!r}, not 1")
    v.setflags(write=False)
    return v


def _as_matrix_tuple(mats, d: int) -> tuple[np.ndarray, ...]:
    out = []
    for m in mats:
        a = np.asarray(m, dtype=complex)
        if a.shape != (d, d):
            raise InvalidWitness(f"operator shape {a.shape} does not match dimension {d}")
        a = a.copy()
        a.setflags(write=False)
        out.append(a)
    return tuple(out)


@dataclass(frozen=True, eq=False)
class ProjectiveWitness:
    """States psi, phi plus a complete set of mutually orthogonal projectors."""

    psi: np.ndarray
    phi: np.ndarray
    projectors: tuple[np.ndarray, ...]

    def __init__(self, psi, phi, projectors):
        psi = as_state(psi, name="psi")
        phi = as_state(phi, name="phi")
        d = psi.size
        if phi.size != d:
            raise InvalidWitness("psi and phi dimensions differ")
        projs = _as_matrix_tuple(projectors, d)
        if not projs:
            raise InvalidWitness("empty projector set")
        total = np.zeros((d, d), dtype=complex)
        for i, p in enumerate(projs):
            if np.max(np.abs(p - p.conj().T)) > EPS_UNIT:
                raise InvalidWitness(f"projector {i} is not hermitian")
            if np.max(np.abs(p @ p - p)) > EPS_UNIT:
                raise InvalidWitness(f"projector {i} is not idempotent")
            total += p
        if np.max(np.abs(total - np.eye(d))) > EPS_UNIT:
            raise InvalidWitness("projectors do not sum to the identity")
        for i in range(len(projs)):
            for j in range(i + 1, len(projs)):
                if np.max(np.abs(projs[i] @ projs[j])) > EPS_UNIT:
                    raise InvalidWitness(f"projectors {i} and {j} are not orthogonal")
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "projectors", projs)

    @property
    def dimension(self) -> int:
        return self.psi.size

    @property
    def n_outcomes(self) -> int:
        return len(self.projectors)

    def swapped(self) -> "ProjectiveWitness":
        """Time-reversed witness: initial and final states interchanged."""
        return ProjectiveWitness(self.phi, self.psi, self.projectors)


@dataclass(frozen=True, eq=False)
class GeneralizedWitness:
    """States psi, phi plus Kraus operators satisfying completeness.

    repaired lists outcome indices whose zero-probability Kraus operator was
    replaced by the corresponding projector to preserve completeness.
    """

    psi: np.ndarray
    phi: np.ndarray
    kraus: tuple[np.ndarray, ...]
    repaired: tuple[int, ...] = field(default=())

    def __init__(self, psi, phi, kraus, repaired=()):
        psi = as_state(psi, name="psi")
        phi = as_state(phi, name="phi")
        d = psi.size
        if phi.size != d:
            raise InvalidWitness("psi and phi dimensions differ")
        ops = _as_matrix_tuple(kraus, d)
        if not ops:
            raise InvalidWitness("empty Kraus set")
        total = np.zeros((d, d), dtype=complex)
        for v in ops:
            total += v.conj().T @ v
        if np.max(np.abs(total - np.eye(d))) > EPS_UNIT:
            raise InvalidWitness("Kraus operators are not complete")
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "repaired", tuple(int(k) for k in repaired))

    @property
    def dimension(self) -> int:
        return self.psi.size

    @property
    def n_outcomes(self) -> int:
        return len(self.kraus)

    def swapped(self) -> "GeneralizedWitness":
        """Time-reversed witness: states interchanged, each Kraus operator adjointed."""
        return GeneralizedWitness(
            self.phi, self.psi, tuple(v.conj().T for v in self.kraus), self.repaired
        )


def sqrt_probs(dist: OutcomeDistribution) -> list[float]:
    return list(map(math.sqrt, dist.probs))
