"""Constructive witnesses for feasible scenarios.

Pipeline for the projective case: close a polygon over the amplitude magnitudes (one
refusal, PolygonViolation, before the split; ClosureFailure only on a residual), drop the
closing edge, factor the remaining complex numbers into a pair of unit vectors, label
basis vector k with outcome k (the witness stores the labels, not an (n, n, n) projector
stack).  The builder passes its own floats straight to the cores _close and _factor,
which the public close_polygon and factor_amplitudes call once they have read their input.
The generalized case is a qubit for every n, closed form on float lists: psi = e_0,
phi = sqrt(T) e_0 + sqrt(1 - T) e_1, phi' one axpy from phi, and V_k = |phi'><a_k| for
every k, P(k) = 0 too, so every outcome leaves the same state phi', which decouples
the measurement from the postselection.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .core import (
    EPS_FEAS,
    EPS_PROB,
    GeneralizedWitness,
    ProjectiveWitness,
    ScenarioTriple,
    _holds_non_number,
)
from .errors import (
    ClosureFailure,
    DegeneratePostselection,
    InfeasibleScenario,
    NormViolation,
    PolygonViolation,
)
from .feasibility import check_projective_raw

EPS_CLOSE = 1e-11


@dataclass(frozen=True)
class ClosedPolygon:
    """Complex numbers of prescribed magnitudes summing to zero."""

    zs: tuple[complex, ...]


def _close(xs: list[float], total: float) -> list[complex]:
    """close_polygon's core: z_k of magnitude xs[k] summing to 0, for n >= 1 xs summing to total."""
    top = max(xs)
    if top > total - top + EPS_FEAS * max(1.0, total):
        raise PolygonViolation(f"{top!r} exceeds the sum of the remaining magnitudes")
    a = xs.index(top)
    rest = xs[:a] + xs[a + 1 :]
    # cum[k] sums the first k of the others; B holds the first `cut` of them.
    cum = list(accumulate(rest, initial=0.0))
    cut = bisect_right(cum, 0.5 * total) - 1
    b, c = cum[cut], cum[-1] - cum[cut]
    # Half-angle law of cosines for the turn from edge A to edge B: accurate for
    # needle-shaped triangles, where the cos formula cancels.  u_c closes the sum.
    sin_half = math.sqrt(max(0.0, (top + b - c) * (top + b + c)))
    cos_half = math.sqrt(max(0.0, (c - top + b) * (c + top - b)))
    turn = 2.0 * math.atan2(sin_half, cos_half)
    ub = complex(math.cos(turn), math.sin(turn))
    uc = -(top + b * ub)
    m = abs(uc)
    by_index = [ub] * cut + [uc / m if m > 0.0 else 1.0 + 0.0j] * (len(rest) - cut)
    by_index.insert(a, 1.0 + 0.0j)
    zs = list(map(operator.mul, xs, by_index))
    if abs(sum(zs)) > EPS_CLOSE * max(1.0, total):
        raise ClosureFailure(f"closure residual {abs(sum(zs))!r} for {xs}")
    return zs


def close_polygon(xs) -> ClosedPolygon:
    """Find complex z_k with |z_k| = x_k and sum_k z_k = 0.

    Possible exactly when the polygon inequalities x_k <= sum_{j != k} x_j
    hold.  The magnitudes are split into three groups, each sharing its
    edge's direction: A is the largest magnitude x_1 (the first of ties), B
    the longest prefix of the others, in input order, whose sum is at most
    total / 2, and C the rest.

    Once the polygon inequalities hold, each group sum is at most total / 2,
    hence at most the other two, so the sums form a triangle: A is by the
    pre-check (within its tolerance), B by the cut.  If the cut stops early,
    the next magnitude x has B + x > total / 2 and x <= x_1, so A + B >
    total / 2 and C < total / 2; else C = 0.  Only x <= x_1 is used, so
    nothing is sorted.  The pre-check's PolygonViolation is the one refusal;
    ClosureFailure reports a residual |sum z_k| above EPS_CLOSE, a bug or a
    roundoff blow-up, never an unlucky split.  Roundoff grows with the
    magnitudes, so the residual bound scales by max(1, total) like the pre-check.
    Negative magnitudes, a bool, a string, a complex number, None or another
    non-number among them, or magnitudes whose sum is not finite (a NaN or
    an inf, or an overflow) raise ValueError.
    """
    entries = list(xs)
    try:  # the scan runs first: float() reads a NumPy complex number as its real part
        xs = [math.nan] if _holds_non_number(entries, 1) else list(map(float, entries))
    except TypeError:  # None, a Python complex or another object float() refuses
        xs = [math.nan]
    total = sum(xs)
    if not (math.isfinite(total) and min(xs, default=0.0) >= 0.0):
        raise ValueError(f"magnitudes must be non-negative numbers with a finite sum: {entries}")
    if not xs:
        return ClosedPolygon(zs=())
    return ClosedPolygon(zs=tuple(_close(xs, total)))


def _factor_real(rs: list[float]) -> tuple[list[float], list[float]]:
    """Unit real vectors (psi, phi) with psi_k * phi_k = rs[k]; n >= 2 entries, sum <= 1.

    The recursive form peels off the smallest entry r as psi_0 = phi_0 =
    sqrt(r) and factors the rest divided by 1 - r, scaled by sqrt(1 - r).
    The rescalings telescope: after r_0 .. r_{k-1} the divisor is
    1 - sum_{j<k} r_j, so every peeled entry is psi_k = phi_k = sqrt(r_k).
    The two largest entries (of ties, the last) are factored in closed form,
    divided by scale = 1 - (sum of the others) >= 2 / n, times sqrt(scale).
    """
    psi = list(map(math.sqrt, rs))
    phi = psi.copy()
    *head, j, i = sorted(range(len(rs)), key=rs.__getitem__)
    scale = 1.0 - math.fsum(map(rs.__getitem__, head))
    r1, r2, root = rs[j] / scale, rs[i] / scale, math.sqrt(scale)
    ang_sum = math.acos(min(1.0, max(-1.0, r1 - r2)))
    ang_diff = math.acos(min(1.0, max(-1.0, r1 + r2)))
    alpha = 0.5 * (ang_sum + ang_diff)
    beta = 0.5 * (ang_sum - ang_diff)
    psi[j], psi[i] = math.cos(alpha) * root, math.sin(alpha) * root
    phi[j], phi[i] = math.cos(beta) * root, math.sin(beta) * root
    return psi, phi


def _factor(zs: list[complex]) -> tuple[list[float], list[complex]]:
    """factor_amplitudes' core on n >= 2 finite amplitudes: real psi, complex phi."""
    rs = np.abs(zs).tolist()  # NumPy's |z|: _factor_real's sort and acos amplify a last bit
    total = sum(rs)
    if not total <= 1.0 + EPS_FEAS:
        raise NormViolation(f"sum of magnitudes {total!r} exceeds 1")
    psi, phi_r = _factor_real(rs)
    # Reattach phases onto phi (phase 1 where z_k = 0); psi stays real, so conj(psi_k) phi_k = z_k.
    phi = [z / r * f if r else complex(f) for z, r, f in zip(zs, rs, phi_r)]
    residual = max(abs(p * f - z) for p, f, z in zip(psi, phi, zs))
    if residual > 1e-10:
        raise ClosureFailure(f"factorization residual {residual!r}")
    return psi, phi


def factor_amplitudes(zs) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors (psi, phi) with conj(psi_k) * phi_k = z_k.

    Exists iff sum_k |z_k| <= 1.  Phases of z are stripped before the real
    construction and reattached onto phi.  Bools, strings, None and other
    non-numbers raise ValueError.
    """
    z = np.asarray(zs)  # no dtype: complex would read None as NaN and refuse an object with TypeError
    if z.dtype.kind not in "iufc" or _holds_non_number(zs, z.ndim, "iufc"):
        raise ValueError(f"amplitudes must be numbers, not bools or strings: {zs!r}")
    z = z.astype(complex, copy=False).reshape(-1)
    if z.size < 2:
        raise ValueError("amplitude factorization needs n >= 2")
    if not np.isfinite(z).all():
        raise ValueError(f"non-finite amplitude in {z}")
    psi, phi = _factor(z.tolist())
    return np.array(psi, dtype=complex), np.array(phi)


def construct_projective(sc: ScenarioTriple) -> ProjectiveWitness:
    """Explicit dimension-n projective witness for a feasible scenario with S > EPS_PROB."""
    if sc.s <= EPS_PROB:  # evaluate_witness would call the ensemble empty
        raise DegeneratePostselection(f"success probability {sc.s!r} is numerically zero")
    verdict = check_projective_raw(sc)
    if not verdict.feasible:
        raise InfeasibleScenario(f"scenario violates {verdict.violated}")
    n = sc.n
    if n == 1:
        # P = (1) forces S = T; realize with the identity measurement on a qubit.
        psi = np.array([1.0, 0.0], dtype=complex)
        phi = np.array([math.sqrt(sc.t), math.sqrt(1.0 - sc.t)], dtype=complex)
        return ProjectiveWitness(psi, phi, labels=np.zeros(2, dtype=np.intp), n_outcomes=1)
    xs = [*map(math.sqrt, map(sc.s.__mul__, sc.dist.probs)), math.sqrt(sc.t)]
    psi, phi = _factor(_close(xs, sum(xs))[:n])
    # Outcome k projects onto basis vector k; the stack is built only if read.
    return ProjectiveWitness(np.array(psi), np.array(phi), labels=np.arange(n), n_outcomes=n)


def _rotate(v: list[float], c: float, s: float) -> list[float]:
    """c v + s u for real unit v, s = sqrt(1 - c^2), u the unit vector along e_k - v_k v.

    k is the first index of least |v_k|, as argmin gives; then |v_k| <= 1/sqrt(2)
    and the sum is (c - beta v_k) v + beta e_k, beta = s / sqrt(1 - v_k^2).
    """
    k = min(range(len(v)), key=list(map(abs, v)).__getitem__)
    beta = s / math.sqrt(1.0 - v[k] * v[k])
    a = c - beta * v[k]
    out = [a * x for x in v]
    out[k] += beta
    return out


def construct_generalized(sc: ScenarioTriple) -> GeneralizedWitness:
    """Kraus witness on a qubit reproducing any valid scenario.

    With psi = e_0 and phi = sqrt(T) e_0 + sqrt(1 - T) e_1, outcome k gets
    V_k = |phi'><a_k|, a_k = sqrt(P(k)) e_0 + c_k e_1, where c is a real unit
    vector orthogonal to sqrt(P), which exists for n >= 2.  Then
    sum_k |a_k><a_k| = 1 gives completeness, <phi|V_k|psi> = <phi|phi'> sqrt(P(k)),
    and every outcome leaves the same post-measurement state phi', so
    measurement statistics and postselection are independent.  A P(k) = 0
    outcome needs no case: its amplitude is 0.
    For n = 1, V_0's second column is a unit vector orthogonal to phi',
    which makes V_0 unitary.
    Raises DegeneratePostselection for S <= EPS_PROB, as evaluate_witness does.
    """
    if sc.s <= EPS_PROB:
        raise DegeneratePostselection(f"success probability {sc.s!r} is numerically zero")
    phi = [math.sqrt(sc.t), math.sqrt(1.0 - sc.t)]
    post = _rotate(phi, math.sqrt(sc.s), math.sqrt(1.0 - sc.s))
    if sc.n == 1:
        kraus = np.array([[*zip(post, _rotate(post, 0.0, 1.0))]])
    else:
        roots = [*map(math.sqrt, sc.dist.probs)]
        # Row i of V_k is post[i] a_k, in one flat list; + 0.0 turns a -0.0 product into +0.0.
        a = [*zip(roots, _rotate(roots, 0.0, 1.0))]
        kraus = np.array([f * x + 0.0 for r, c in a for f in post for x in (r, c)]).reshape(-1, 2, 2)
    return GeneralizedWitness(np.array([1.0, 0.0]), np.array(phi), kraus)
