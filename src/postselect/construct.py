"""Constructive witnesses for feasible scenarios.

Pipeline for the projective case: close a polygon over the amplitude
magnitudes, drop the closing edge, factor the remaining complex numbers
into a pair of unit vectors, label basis vector k with outcome k (the
witness stores the labels, not an (n, n, n) projector stack).
The generalized case writes its Kraus operators in closed form,
V_k = |phi'><e_k|: every outcome leaves the same post-measurement state
phi', which decouples the measurement from the postselection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    EPS_FEAS,
    EPS_PROB,
    GeneralizedWitness,
    ProjectiveWitness,
    ScenarioTriple,
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


def _triangle_dirs(sums: list[float]) -> list[complex] | None:
    """Unit directions u_i with sum_i sums[i] * u_i = 0, or None if no triangle."""
    order = sorted(range(3), key=lambda i: -sums[i])
    a, b, c = (sums[i] for i in order)
    tol = EPS_FEAS * max(1.0, a + b + c)
    if a <= tol:
        return [1.0 + 0.0j] * 3
    if a > b + c + tol:
        return None
    if c <= 0.0:
        dirs_sorted = [1.0 + 0.0j, -1.0 + 0.0j, 1.0 + 0.0j]
    else:
        # Half-angle form of the law of cosines; stays accurate when the
        # direct cos formula cancels near +-1 (needle-shaped triangles).
        sin_half = math.sqrt(max(0.0, (a + b - c) * (a + b + c)))
        cos_half = math.sqrt(max(0.0, (c - a + b) * (c + a - b)))
        phi = 2.0 * math.atan2(sin_half, cos_half)
        ub = complex(math.cos(phi), math.sin(phi))
        uc = -(a + b * ub)
        m = abs(uc)
        uc = uc / m if m > 0.0 else 1.0 + 0.0j
        dirs_sorted = [1.0 + 0.0j, ub, uc]
    dirs = [0j] * 3
    for rank, i in enumerate(order):
        dirs[i] = dirs_sorted[rank]
    return dirs


def close_polygon(xs) -> ClosedPolygon:
    """Find complex z_k with |z_k| = x_k and sum_k z_k = 0.

    Possible exactly when the polygon inequalities x_k <= sum_{j != k} x_j
    hold.  Magnitudes are split greedily into three groups whose sums form a
    triangle; all members of a group share their edge's direction.

    The greedy split cannot fail once the polygon inequalities hold: each
    group sum G is at most the other two, B + C.  Magnitudes are placed in
    descending order, and the first three positive ones open the three
    groups.  A group with one member holds a single x_k <= total / 2.  For
    a larger group, let x be its last member.  When x arrived the group was
    the smallest, so G - x <= B; and x is at most the magnitude that opened
    C, so x <= C.  ClosureFailure therefore signals a bug or a roundoff
    blow-up, never an unlucky split.  Roundoff grows with the magnitudes, so
    the residual bound EPS_CLOSE scales by max(1, total) like the pre-check.
    Non-finite or negative magnitudes raise ValueError.
    """
    xs = [float(x) for x in xs]
    if not all(0.0 <= x < math.inf for x in xs):
        raise ValueError(f"magnitudes must be finite and non-negative: {xs}")
    total = sum(xs)
    if xs and max(xs) > total - max(xs) + EPS_FEAS * max(1.0, total):
        raise PolygonViolation(f"{max(xs)!r} exceeds the sum of the remaining magnitudes")
    if not xs:
        return ClosedPolygon(zs=())
    # Greedy descending assignment to the currently-smallest group.
    groups = [0] * len(xs)
    sums = [0.0, 0.0, 0.0]
    for i in sorted(range(len(xs)), key=lambda i: -xs[i]):
        g = min(range(3), key=lambda j: sums[j])
        groups[i] = g
        sums[g] += xs[i]
    dirs = _triangle_dirs(sums)
    if dirs is None:
        raise ClosureFailure(f"greedy group sums {sums} form no triangle")
    zs = tuple(x * dirs[g] for x, g in zip(xs, groups))
    if abs(sum(zs)) > EPS_CLOSE * max(1.0, total):
        raise ClosureFailure(f"closure residual {abs(sum(zs))!r} for {xs}")
    return ClosedPolygon(zs=zs)


def _factor_real(rs: list[float]) -> tuple[list[float], list[float]]:
    """Unit real vectors (psi, phi) with psi_k * phi_k = rs[k]; rs ascending, sum <= 1.

    Peels off the smallest entry r: psi_0 = phi_0 = sqrt(r), and the rest is
    a factorization of the remaining entries divided by 1 - r, scaled by
    sqrt(1 - r).  r <= 1/len(rs) < 1, so the division is safe.  The loop
    keeps the running product of the divisors and of their square roots,
    so entry k is rescaled once instead of once per level.  The last two
    entries are factored in closed form.
    """
    psi: list[float] = []
    phi: list[float] = []
    scale = 1.0
    root = 1.0
    for x in rs[:-2]:
        r0 = x / scale
        psi.append(math.sqrt(r0) * root)
        phi.append(psi[-1])
        scale *= 1.0 - r0
        root *= math.sqrt(1.0 - r0)
    r1, r2 = rs[-2] / scale, rs[-1] / scale
    ang_sum = math.acos(min(1.0, max(-1.0, r1 - r2)))
    ang_diff = math.acos(min(1.0, max(-1.0, r1 + r2)))
    alpha = 0.5 * (ang_sum + ang_diff)
    beta = 0.5 * (ang_sum - ang_diff)
    psi += [math.cos(alpha) * root, math.sin(alpha) * root]
    phi += [math.cos(beta) * root, math.sin(beta) * root]
    return psi, phi


def factor_amplitudes(zs) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors (psi, phi) with conj(psi_k) * phi_k = z_k.

    Exists iff sum_k |z_k| <= 1.  Phases of z are stripped before the real
    construction and reattached onto phi.
    """
    z = np.asarray(zs, dtype=complex).reshape(-1)
    n = z.size
    if n < 2:
        raise ValueError("amplitude factorization needs n >= 2")
    if not np.isfinite(z).all():
        raise ValueError(f"non-finite amplitude in {z}")
    r = np.abs(z)
    if float(r.sum()) > 1.0 + EPS_FEAS:
        raise NormViolation(f"sum of magnitudes {float(r.sum())!r} exceeds 1")
    order = np.argsort(r, kind="stable")
    psi_s, phi_s = _factor_real(r[order].tolist())
    psi = np.zeros(n, dtype=complex)
    phi = np.zeros(n, dtype=complex)
    psi[order] = psi_s
    phi[order] = phi_s
    # Reattach phases onto phi; psi stays real, so conj(psi_k) phi_k = z_k.
    nonzero = r > 0
    phi[nonzero] *= z[nonzero] / r[nonzero]
    residual = np.max(np.abs(psi.conj() * phi - z))
    if residual > 1e-10:
        raise ClosureFailure(f"factorization residual {residual!r}")
    return psi, phi


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
    xs = [math.sqrt(p * sc.s) for p in sc.dist.probs] + [math.sqrt(sc.t)]
    closed = close_polygon(xs)
    psi, phi = factor_amplitudes(closed.zs[:n])
    # Outcome k projects onto basis vector k; the stack is built only if read.
    return ProjectiveWitness(psi, phi, labels=np.arange(n), n_outcomes=n)


def _orthogonal_unit(v: np.ndarray) -> np.ndarray:
    """Deterministic unit vector orthogonal to v (one Gram-Schmidt step)."""
    d = v.size
    k = int(np.argmin(np.abs(v)))
    e = np.zeros(d, dtype=complex)
    e[k] = 1.0
    w = e - np.vdot(v, e) * v
    return w / np.linalg.norm(w)


def construct_generalized(sc: ScenarioTriple) -> GeneralizedWitness:
    """Kraus witness reproducing any valid scenario (dimension max(n, 2)).

    With psi_k = sqrt(P(k)) on basis vector e_k, outcome k gets
    V_k = |phi'><e_k|, so every outcome leaves the same post-measurement
    state phi' and measurement statistics and postselection are independent.
    Outcomes with P(k) = 0 get |e_k><e_k| instead of 0 to preserve
    completeness; they are listed in the witness's `repaired` field.  For
    n = 1 (a qubit) V_0's second column is a unit vector orthogonal to phi',
    which makes V_0 unitary.
    Raises DegeneratePostselection for S <= EPS_PROB, as evaluate_witness does.
    """
    if sc.s <= EPS_PROB:
        raise DegeneratePostselection(f"success probability {sc.s!r} is numerically zero")
    n = sc.n
    d = max(n, 2)
    psi = np.zeros(d, dtype=complex)
    psi[:n] = np.sqrt(sc.dist.probs)
    psi /= np.linalg.norm(psi)
    phi = math.sqrt(sc.t) * psi + math.sqrt(1.0 - sc.t) * _orthogonal_unit(psi)
    phi /= np.linalg.norm(phi)
    phi_post = math.sqrt(sc.s) * phi + math.sqrt(1.0 - sc.s) * _orthogonal_unit(phi)
    phi_post /= np.linalg.norm(phi_post)
    # V_k = |phi_post><e_k| for P(k) > 0; an outcome with P(k) = 0 keeps
    # |e_k><e_k| so the V_k^dag V_k still sum to the identity.
    positive = np.asarray(sc.dist.probs) > 0.0
    live, repaired = np.flatnonzero(positive), np.flatnonzero(~positive)
    kraus = np.zeros((n, d, d), dtype=complex)
    kraus[live, :, live] = phi_post
    kraus[repaired, repaired, repaired] = 1.0
    if n == 1:
        # One outcome on a qubit: complete V_0 to a unitary.
        kraus[0, :, 1] = _orthogonal_unit(phi_post)
    return GeneralizedWitness(psi, phi, kraus, repaired.tolist())
