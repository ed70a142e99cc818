"""Domain types for postselected-measurement statistics.

All types are immutable value objects validated at construction time; every
operation elsewhere in the package is a pure function over them.

Both witness kinds share one base, ``_Witness``, holding the n operators as
one read-only ``(n, d, d)`` complex array, ``operators``, and naming its kind
in ``kind``; ``projectors`` and ``kraus`` are tuples of views of it.
Projectors whose off-diagonal entries are all exactly zero (every built
witness) are validated on their diagonals in O(n d^2), the cost of the zero
test; any other set costs one stacked product for idempotence and n - 1
batched products for pairwise orthogonality.  Every comparison is
``not err <= EPS_UNIT``, so NaN fails.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

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
    if not abs(norm - 1.0) <= EPS_UNIT:
        raise InvalidWitness(f"{name} has norm {norm!r}, not 1")
    v.setflags(write=False)
    return v


def _first_bad(err: np.ndarray) -> int | None:
    """Index of the first error that is not <= EPS_UNIT (NaN included), or None."""
    bad = ~(err <= EPS_UNIT)
    return int(bad.argmax()) if bad.any() else None


# Non-finite entries fail the checks below through NaN errors; they need no warning.
_QUIET = np.errstate(invalid="ignore", over="ignore")


@_QUIET
def _validate_projectors(a: np.ndarray) -> None:
    """Raise InvalidWitness unless the (n, d, d) stack is a complete orthogonal set.

    The first failure is reported, in this order: projector i hermitian, then
    idempotent, for i ascending; completeness; orthogonality of (i, j) in
    lexicographic order.  When every off-diagonal entry is exactly zero the
    checks run on the (n, d) diagonals: there P_i P_j = diag(D_i * D_j), so
    the largest entry over all pairs is, per column, the product of the two
    largest |D_ik|.
    """
    n, d, _ = a.shape
    diag = np.diagonal(a, axis1=1, axis2=2)
    if np.count_nonzero(a) == np.count_nonzero(diag):
        herm = np.abs(diag - diag.conj()).max(axis=1)
        idem = np.abs(diag * diag - diag).max(axis=1)
        total = diag.sum(axis=0) - 1.0
        mag = np.abs(diag)

        def pair_errors(i):
            return (mag[i] * mag[i + 1 :]).max(axis=1)

        # Scan the pairs only when some column's two largest |D_ik| fail together.
        scan = n > 1 and not (
            np.partition(mag, n - 2, axis=0)[n - 2 :].prod(axis=0).max() <= EPS_UNIT
        )
    else:
        herm = np.abs(a - a.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        idem = np.abs(a @ a - a).max(axis=(1, 2))
        total = a.sum(axis=0) - np.eye(d)

        def pair_errors(i):
            return np.abs(a[i] @ a[i + 1 :]).max(axis=(1, 2))

        scan = True
    i = _first_bad(np.maximum(herm, idem))
    if i is not None:
        kind = "idempotent" if herm[i] <= EPS_UNIT else "hermitian"
        raise InvalidWitness(f"projector {i} is not {kind}")
    if not np.abs(total).max() <= EPS_UNIT:
        raise InvalidWitness("projectors do not sum to the identity")
    for i in range(n - 1 if scan else 0):
        j = _first_bad(pair_errors(i))
        if j is not None:
            raise InvalidWitness(f"projectors {i} and {i + 1 + j} are not orthogonal")


@_QUIET
def _validate_kraus(a: np.ndarray) -> None:
    """Raise InvalidWitness unless sum_k V_k^dag V_k = 1.

    The sum is one product: the rows of all V_k stacked form an (n d, d) matrix.
    """
    flat = a.reshape(-1, a.shape[-1])
    if not np.abs(flat.conj().T @ flat - np.eye(a.shape[-1])).max() <= EPS_UNIT:
        raise InvalidWitness("Kraus operators are not complete")


@dataclass(frozen=True, eq=False, init=False)
class _Witness:
    """States psi, phi plus n >= 1 operators as one read-only (n, d, d) stack.

    The subclass's ``_validate`` checks its kind's invariant on the stack.
    """

    kind: ClassVar[str]
    psi: np.ndarray
    phi: np.ndarray
    operators: np.ndarray = field(repr=False)

    def __init__(self, psi, phi, operators):
        psi = as_state(psi, name="psi")
        phi = as_state(phi, name="phi")
        if phi.size != psi.size:
            raise InvalidWitness("psi and phi dimensions differ")
        try:
            ops = np.array(operators, dtype=complex)  # one copy, whatever the input
        except (TypeError, ValueError) as exc:
            raise InvalidWitness(f"operators do not form one array: {exc}") from exc
        if not ops.size:
            raise InvalidWitness(f"empty {self.kind} operator set")
        if ops.shape[1:] != (psi.size, psi.size):
            raise InvalidWitness(f"operators of shape {ops.shape} for dimension {psi.size}")
        ops.setflags(write=False)
        self._validate(ops)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "operators", ops)

    @property
    def dimension(self) -> int:
        return self.psi.size

    @property
    def n_outcomes(self) -> int:
        return len(self.operators)


@dataclass(frozen=True, eq=False, init=False)
class ProjectiveWitness(_Witness):
    """States psi, phi plus a complete set of mutually orthogonal projectors."""

    kind = "projective"
    _validate = staticmethod(_validate_projectors)

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        return tuple(self.operators)

    def swapped(self) -> "ProjectiveWitness":
        """Time-reversed witness: initial and final states interchanged."""
        return ProjectiveWitness(self.phi, self.psi, self.operators)


@dataclass(frozen=True, eq=False, init=False)
class GeneralizedWitness(_Witness):
    """States psi, phi plus Kraus operators satisfying completeness.

    repaired lists outcome indices, each an int in range(n), whose
    zero-probability Kraus operator was replaced by the corresponding
    projector to preserve completeness.
    """

    kind = "generalized"
    _validate = staticmethod(_validate_kraus)
    repaired: tuple[int, ...] = ()

    def __init__(self, psi, phi, kraus, repaired=()):
        super().__init__(psi, phi, kraus)
        try:
            repaired = tuple(map(operator.index, repaired))
        except TypeError as exc:
            raise InvalidWitness(f"repaired is not a list of outcome indices: {exc}") from exc
        if not all(0 <= k < self.n_outcomes for k in repaired):
            raise InvalidWitness(f"repaired {repaired} has an index outside range(n)")
        object.__setattr__(self, "repaired", repaired)

    @property
    def kraus(self) -> tuple[np.ndarray, ...]:
        return tuple(self.operators)

    def swapped(self) -> "GeneralizedWitness":
        """Time-reversed witness: states interchanged, each Kraus operator adjointed.

        Needs sum_k V_k V_k^dag = 1, as for projectors times one unitary (not
        most built witnesses); else raises InvalidWitness("... not complete").
        """
        return GeneralizedWitness(
            self.phi, self.psi, self.operators.conj().transpose(0, 2, 1), self.repaired
        )


def sqrt_probs(dist: OutcomeDistribution) -> list[float]:
    return list(map(math.sqrt, dist.probs))
