"""Domain types for postselected-measurement statistics.

All types are immutable value objects validated at construction time; every
operation elsewhere in the package is a pure function over them.  Witness
input becomes an array in one place, ``_array``: each state, operator stack,
label array and witness-file field is one array of the expected shape and a
numeric dtype kind, with no bool or string among its numbers.

Both witness kinds share one base, ``_Witness``, holding the n operators as
one read-only ``(n, d, d)`` complex array, ``operators``, and naming its kind
in ``kind``; ``projectors`` and ``kraus`` are tuples of views of it.

A projective witness is labelled or dense, as its operators allow.  A
labelled one holds ``labels``, one outcome in range(n) per basis vector, and
n: outcome k's projector is the diagonal 0/1 matrix on the basis vectors
labelled k, so the set is complete and orthogonal by construction.  It is
given its labels (every built witness; validation is O(d)), or a stack that
is an exact partition: nonzero only on the diagonal, where each column holds
exactly one 1 (a built witness's file written before labels; the zero test
is O(n d^2)).
A given stack is kept; otherwise it is built, cached and made read-only the
first time ``operators`` or ``projectors`` is read, and ``n_outcomes``,
``swapped`` and the statistics in ``stats`` never build it.  Any other stack
is dense, with ``labels`` None, and is validated with one stacked product
for idempotence and n - 1 batched products for pairwise orthogonality.
Every comparison is ``not err <= EPS_UNIT``, so NaN fails.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import ClassVar, Sequence

import numpy as np

from .errors import InvalidWitness

# Probability normalization tolerance (double-precision accumulation).
EPS_PROB = 1e-12
# Matrix-identity / unit-norm tolerance.
EPS_UNIT = 1e-10
# Boundary tolerance of the feasibility inequalities (closed regions).
EPS_FEAS = 1e-12
# Types that NumPy or float() read as numbers, which no numeric input may hold.
_NOT_NUMBERS = frozenset({bool, np.bool_, str, np.str_, bytes, np.bytes_})
# Also judged by dtype kind: arrays, and the complex scalars float() reads as their real part.
_NOT_NUMBERS_OR_ARRAYS = _NOT_NUMBERS | {np.ndarray, np.complex64, np.complex128, np.clongdouble}


def _count(k, name: str, lo: float = -math.inf) -> int:
    """k as an int >= lo (default: no bound); ValueError for k < lo or a non-integer, bools too."""
    if isinstance(k, bool):  # Python would read it as 0 or 1
        raise ValueError(f"{name} = {k!r} is not an integer: {k} is a bool, not an outcome index")
    try:
        i = operator.index(k)
    except TypeError as exc:
        raise ValueError(f"{name} = {k!r} is not an integer: {exc}") from exc
    if i < lo:
        raise ValueError(f"{name} must be >= {lo}, got {i}")
    return i


def _real(x, name: str) -> float:
    """float(x); ValueError for a bool, a string, a complex number or anything float() refuses.

    An ndarray or NumPy scalar is judged by its dtype kind, which must be integer or
    float (_holds_non_number), so a complex one is refused, not read as its real part.
    """
    if type(x) in _NOT_NUMBERS_OR_ARRAYS and _holds_non_number(x, 0):
        raise ValueError(f"{name} = {x!r} is a {type(x).__name__}, not a real number")
    try:
        return float(x)
    except TypeError as exc:
        raise ValueError(f"{name} = {x!r} is not a real number: {exc}") from exc


def _probability(x, name: str, *, positive: bool = False) -> float:
    """_real(x) in [0, 1], or in (0, 1] when positive; ValueError otherwise (NaN too)."""
    x = x if type(x) is float else _real(x, name)
    if not (x > 0.0 if positive else x >= 0.0) or not x <= 1.0:
        raise ValueError(f"{name} = {x!r} outside {'(0' if positive else '[0'}, 1]")
    return x


def _holds_non_number(value, ndim: int, kinds: str = "iuf") -> bool:
    """Whether value, ndim levels of nested sequences, holds a bool or a string (see _NOT_NUMBERS).

    An ndarray or NumPy scalar, the value or an entry, is judged by its dtype alone: it holds
    none when its kind is in kinds.  _array runs it on every witness array, where NumPy reads
    a bool among numbers, or a 0-d bool array, as a number.  Plain numbers take one scan of
    their types; value is a sequence, not an iterator, since an array, a complex scalar or a
    non-number among them is looked up again entry by entry.
    """
    if isinstance(value, (np.ndarray, np.generic)):
        return value.dtype.kind not in kinds
    flat = value if ndim else (value,)
    for _ in range(ndim - 1):
        flat = chain.from_iterable(flat)
    if _NOT_NUMBERS_OR_ARRAYS.isdisjoint(map(type, flat)):
        return False
    return not ndim or any(_holds_non_number(x, ndim - 1, kinds) for x in value)


def _array(value, name: str, shape: tuple[int | None, ...], kinds: str) -> np.ndarray:
    """value as one array of the given shape (a leading None: any length), of a dtype kind in kinds.

    The one reader of witness input: InvalidWitness for a ragged or unreadable value, another
    dtype kind or shape, or a list holding a bool or a string that NumPy read as a number.
    """
    try:
        a = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise InvalidWitness(f"{name} is not one rectangular array: {exc}") from exc
    if a.dtype.kind not in kinds:
        raise InvalidWitness(f"{name} has a non-numeric entry (dtype {a.dtype})")
    k = shape.count(None)  # the leading Nones; one tuple comparison, not a loop, checks the rest
    if a.ndim != len(shape) or a.shape[k:] != shape[k:]:
        raise InvalidWitness(f"{name} has shape {a.shape}, expected {shape}")
    if _holds_non_number(value, a.ndim, kinds):
        raise InvalidWitness(f"{name} has a boolean or string entry")
    return a


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probability vector over n >= 1 outcomes, from a sequence or ndarray of numbers.

    ``probs`` holds Python floats.  A 1-D float64 array is read with one ``tolist()``,
    which already gives them; every other input goes through ``float()`` entry by entry
    (the ``tolist()`` of a longdouble array gives ``np.longdouble``, not ``float``).
    """

    probs: tuple[float, ...]

    def __init__(self, probs: Sequence[float]):
        array = isinstance(probs, np.ndarray)
        entries = probs.tolist() if array else tuple(probs)  # one call, not one scalar at a time
        if _holds_non_number(probs if array else entries, 1):
            raise ValueError(f"probabilities must be numbers, not bools or strings: {entries!r}")
        floats = array and probs.dtype == np.float64 and probs.ndim == 1
        try:
            p = tuple(entries) if floats else tuple(map(float, entries))
        except TypeError as exc:
            raise ValueError(f"probabilities must be real numbers: {entries!r}: {exc}") from exc
        if len(p) < 1:
            raise ValueError("distribution needs at least one outcome")
        if any(map(0.0.__gt__, p)):
            raise ValueError(f"negative probability in {p}")
        total = sum(p)
        # The entries are non-negative, so a NaN or inf among them makes the total non-finite.
        if not math.isfinite(total):
            raise ValueError(f"non-finite probability in {p}")
        if abs(total - 1.0) > EPS_PROB:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        self.__dict__["probs"] = p

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

    def __init__(self, t: float, s: float, dist: OutcomeDistribution):
        t = _probability(t, "transition probability")
        s = _probability(s, "success probability", positive=True)
        if not isinstance(dist, OutcomeDistribution):
            raise ValueError(f"dist must be an OutcomeDistribution, got {type(dist).__name__}")
        self.__dict__.update(t=t, s=s, dist=dist)

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
        if not all(map(math.isfinite, (self.d_half, self.d_inf, self.h_half, self.h_inf))):
            raise ValueError(f"non-finite diversity profile {self}")
        if self.d_inf > self.d_half * (1 + 1e-12) + 1e-12:
            raise ValueError(f"D_inf = {self.d_inf} exceeds D_1/2 = {self.d_half}")
        if self.d_inf < 1.0 - 1e-12 or self.d_half < 1.0 - 1e-12:
            raise ValueError("diversity indices must be >= 1")


def as_state(entries: Sequence[complex] | np.ndarray, *, name: str = "state") -> np.ndarray:
    """Read a 1-D numeric array as a read-only complex unit vector, checking the norm."""
    v = _array(entries, name, (None,), "iufc").astype(complex)  # a copy, whatever the input
    if v.size < 1:
        raise ValueError(f"{name} must have dimension >= 1")
    norm = math.sqrt(np.vdot(v, v).real)
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
    lexicographic order.
    """
    n, d, _ = a.shape
    herm = np.abs(a - a.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    idem = np.abs(a @ a - a).max(axis=(1, 2))
    i = _first_bad(np.maximum(herm, idem))
    if i is not None:
        kind = "idempotent" if herm[i] <= EPS_UNIT else "hermitian"
        raise InvalidWitness(f"projector {i} is not {kind}")
    if not np.abs(a.sum(axis=0) - np.eye(d)).max() <= EPS_UNIT:
        raise InvalidWitness("projectors do not sum to the identity")
    for i in range(n - 1):
        j = _first_bad(np.abs(a[i] @ a[i + 1 :]).max(axis=(1, 2)))
        if j is not None:
            raise InvalidWitness(f"projectors {i} and {i + 1 + j} are not orthogonal")


@_QUIET
def _validate_kraus(a: np.ndarray) -> None:
    """Raise InvalidWitness unless sum_k V_k^dag V_k = 1.

    The sum is one product: the rows of all V_k stacked form an (n d, d) matrix.
    """
    d = a.shape[-1]
    flat = a.reshape(-1, d)
    gram = flat.conj().T @ flat  # a new C-contiguous array, so ravel() is a view
    gram.ravel()[:: d + 1] -= 1.0
    if not np.maximum.reduce(np.abs(gram), axis=None) <= EPS_UNIT:
        raise InvalidWitness("Kraus operators are not complete")


def _states(psi, phi) -> tuple[np.ndarray, np.ndarray]:
    """psi and phi as read-only unit vectors of one dimension."""
    psi = as_state(psi, name="psi")
    phi = as_state(phi, name="phi")
    if phi.size != psi.size:
        raise InvalidWitness("psi and phi dimensions differ")
    return psi, phi


def _labels(labels, n_outcomes, d: int) -> tuple[np.ndarray, int]:
    """labels as a read-only length-d intp array with entries in range(n), and n >= 1."""
    try:
        n = _count(n_outcomes, "n_outcomes")
    except ValueError as exc:
        raise InvalidWitness(str(exc)) from exc
    a = _array(labels, "labels", (d,), "iu")
    if not (np.minimum.reduce(a) >= 0 and np.maximum.reduce(a) < n):  # also refuses n < 1, as d >= 1
        raise InvalidWitness(f"labels have an outcome outside range({n})")
    a = a.astype(np.intp)  # a copy, whatever the input
    a.setflags(write=False)
    return a, n


def _diagonal_projectors(labels: np.ndarray, n: int) -> np.ndarray:
    """The (n, d, d) stack whose k-th matrix is 1 at (j, j) for each labels[j] == k."""
    d = labels.size
    out = np.zeros((n, d, d), dtype=complex)
    j = np.arange(d)
    out[labels, j, j] = 1.0
    return out


@dataclass(frozen=True, eq=False, init=False)
class _Witness:
    """States psi, phi plus n >= 1 operators as one read-only (n, d, d) stack.

    The subclass's ``_validate`` checks its kind's invariant on the stack.
    """

    kind: ClassVar[str]
    psi: np.ndarray
    phi: np.ndarray
    operators: np.ndarray = field(repr=False)
    n_outcomes: int = field(repr=False)

    def __init__(self, psi, phi, operators):
        psi, phi = _states(psi, phi)
        ops = _array(operators, "operators", (None, psi.size, psi.size), "iufc").astype(complex)
        if not ops.size:
            raise InvalidWitness(f"empty {self.kind} operator set")
        ops.setflags(write=False)
        self._validate(ops)
        self.__dict__.update(psi=psi, phi=phi, operators=ops, n_outcomes=len(ops))

    @property
    def dimension(self) -> int:
        return self.psi.size


@dataclass(frozen=True, eq=False, init=False)
class ProjectiveWitness(_Witness):
    """States psi, phi plus a complete set of mutually orthogonal projectors.

    Give either the ``operators`` stack, or ``labels`` (an integer array of
    length d, entries in range(n_outcomes)) and ``n_outcomes``: outcome k
    then projects onto the basis vectors j with labels[j] == k.  A stack
    whose only nonzero entries are diagonal 1s, one per column, is labelled
    too and kept; ``labels`` is None on any other stack.
    """

    kind = "projective"
    labels: np.ndarray | None = field(default=None, repr=False)

    def __init__(self, psi, phi, operators=None, *, labels=None, n_outcomes=None):
        if labels is None:
            if operators is None:
                raise InvalidWitness("a projective witness needs operators or labels")
            super().__init__(psi, phi, operators)
            return
        if operators is not None:
            raise InvalidWitness("a projective witness takes operators or labels, not both")
        psi, phi = _states(psi, phi)
        labels, n = _labels(labels, n_outcomes, psi.size)
        self.__dict__.update(psi=psi, phi=phi, labels=labels, n_outcomes=n)

    def _validate(self, ops: np.ndarray) -> None:
        """Keep an exact partition as labels; check any other stack as dense."""
        ones = np.diagonal(ops, axis1=1, axis2=2) == 1
        # Nonzero only where a column's one 1 sits; NaN counts as nonzero.
        if np.count_nonzero(ops) == ops.shape[1] and (ones.sum(axis=0) == 1).all():
            labels = ones.argmax(axis=0)
            labels.setflags(write=False)
            self.__dict__["labels"] = labels
        else:
            _validate_projectors(ops)

    # A witness given its stack sets ``operators`` in __init__, which hides this.
    @cached_property
    def operators(self) -> np.ndarray:
        ops = _diagonal_projectors(self.labels, self.n_outcomes)
        ops.setflags(write=False)
        return ops

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        return tuple(self.operators)

    def swapped(self) -> "ProjectiveWitness":
        """Time-reversed witness: initial and final states interchanged."""
        if self.labels is None:
            return ProjectiveWitness(self.phi, self.psi, self.operators)
        return ProjectiveWitness(self.phi, self.psi, labels=self.labels, n_outcomes=self.n_outcomes)


@dataclass(frozen=True, eq=False, init=False)
class GeneralizedWitness(_Witness):
    """States psi, phi plus Kraus operators satisfying completeness."""

    kind = "generalized"
    _validate = staticmethod(_validate_kraus)

    @property
    def kraus(self) -> tuple[np.ndarray, ...]:
        return tuple(self.operators)

    def swapped(self) -> "GeneralizedWitness":
        """Time-reversed witness: states interchanged, each Kraus operator adjointed.

        Needs sum_k V_k V_k^dag = 1, as for projectors times one unitary (not
        most built witnesses); else raises InvalidWitness("... not complete").
        """
        return GeneralizedWitness(self.phi, self.psi, self.operators.conj().transpose(0, 2, 1))


def sqrt_probs(dist: OutcomeDistribution) -> list[float]:
    return list(map(math.sqrt, dist.probs))
