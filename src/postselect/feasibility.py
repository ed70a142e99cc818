"""Analytic feasibility predicates for scenario triples.

All regions are closed; a constraint with signed slack >= -EPS_FEAS counts
as satisfied, and a NaN slack counts as violated.  Verdicts report every
violated constraint, not just the first, so region maps can color by
violation type.  Every projective chain check goes through chain_slacks;
check_projective_raw alone keeps the literal per-outcome form, as the
reference the chain is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EPS_FEAS, OutcomeDistribution, ScenarioTriple, sqrt_probs
from .errors import PolygonViolation, RegionViolation, SingularSystem

# Constraint tags.
MAX_OUTCOME_POLYGON = "MaxOutcomePolygon"
LOWER_CHAIN = "LowerChain"
UPPER_CHAIN = "UpperChain"
S_BOUND = "SBound"
T_OVER_N = "TOverN"
S_HALF_PLUS_T = "SHalfPlusT"
OUTSIDE_SIMPLEX = "OutsideSimplex"


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    violated: tuple[str, ...]
    slack: dict[str, float]


def _verdict(slack: dict[str, float], eps: float = EPS_FEAS) -> FeasibilityVerdict:
    violated = tuple([tag for tag, v in slack.items() if not v >= -eps])
    return FeasibilityVerdict(not violated, violated, slack)


@dataclass(frozen=True)
class ConeDecomposition:
    """Non-negative coefficients over the extreme rays of the polygon cone."""

    lambdas: tuple[float, ...]


def chain_slacks(root_ts, root_sum, root_max, root_s):
    """Slacks of the projective chain 2/sqrt(D_inf) - sqrt(D_1/2) <= sqrt(T/S)
    <= sqrt(D_1/2) <= 1/sqrt(S).

    Takes sqrt(T/S), sum_k sqrt(P(k)) = sqrt(D_1/2), max_k sqrt(P(k)) =
    1/sqrt(D_inf) and sqrt(S).  Uses only + - * /, so Python floats and
    equally shaped arrays both pass through unchanged.  LowerChain is the
    polygon inequality of the largest outcome.
    """
    return {
        LOWER_CHAIN: root_ts - (2.0 * root_max - root_sum),
        UPPER_CHAIN: root_sum - root_ts,
        S_BOUND: 1.0 / root_s - root_sum,
    }


def check_projective_raw(sc: ScenarioTriple) -> FeasibilityVerdict:
    """Projective feasibility in the literal square-root inequality form.

    Feasible iff sqrt(P(k)) <= sqrt(T/S) + sum_{j != k} sqrt(P(j)) for every
    k (the smallest of these n slacks is reported as MaxOutcomePolygon),
    sqrt(T/S) <= sum_k sqrt(P(k)) <= 1/sqrt(S).  Written out independently
    of chain_slacks.
    """
    root_ts = math.sqrt(sc.t / sc.s)
    sq = sqrt_probs(sc.dist)
    total = sum(sq)
    return _verdict(
        {
            MAX_OUTCOME_POLYGON: min([root_ts + (total - x) - x for x in sq]),
            UPPER_CHAIN: total - root_ts,
            S_BOUND: 1.0 / math.sqrt(sc.s) - total,
        }
    )


def check_projective_chain(sc: ScenarioTriple) -> FeasibilityVerdict:
    """Projective feasibility in the diversity-index chain form (chain_slacks)."""
    sq = sqrt_probs(sc.dist)
    return _verdict(
        chain_slacks(math.sqrt(sc.t / sc.s), sum(sq), max(sq), math.sqrt(sc.s))
    )


def projective_raw_slack_arrays(t: np.ndarray, s: np.ndarray, probs: np.ndarray):
    """Row-wise chain slacks for t, s of shape (B,) and probs of shape (B, n)."""
    sq = np.sqrt(probs)
    return chain_slacks(np.sqrt(t / s), sq.sum(axis=1), sq.max(axis=1), np.sqrt(s))


def check_generalized(sc: ScenarioTriple) -> FeasibilityVerdict:
    """Generalized-measurement feasibility: every valid triple is realizable."""
    return FeasibilityVerdict(feasible=True, violated=(), slack={})


def ts_region_slacks(t, s, n: int):
    """Vectorizable slacks of the (T, S) region for n outcomes: T/n <= S <= (T+1)/2."""
    return {T_OVER_N: s - t / n, S_HALF_PLUS_T: (t + 1.0) / 2.0 - s}


def check_ts_region(t: float, s: float, n: int) -> FeasibilityVerdict:
    """Is (T, S) achievable at all with an n-outcome projective measurement?"""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t = {t!r} outside [0, 1]")
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s = {s!r} outside (0, 1]")
    if n < 1:
        raise ValueError(f"n = {n!r} must be >= 1")
    return _verdict({k: float(v) for k, v in ts_region_slacks(t, s, n).items()})


def dichotomic_slacks(p, t, s):
    """Vectorizable chain slacks of the two-outcome (p, T, S) region.

    Feasible iff |sqrt(p) - sqrt(1-p)| <= sqrt(T/S) <= sqrt(p) + sqrt(1-p)
    <= 1/sqrt(S).  A subnormal S can overflow T/S to inf, which the chain
    reports as a violated UpperChain; no warning is raised for it.
    """
    a, b = np.sqrt(p), np.sqrt(1.0 - p)
    with np.errstate(over="ignore"):
        root_ts = np.sqrt(t / s)
    return chain_slacks(root_ts, a + b, np.maximum(a, b), np.sqrt(s))


def check_dichotomic(p: float, t: float, s: float) -> FeasibilityVerdict:
    """Two-outcome feasibility for P = (p, 1-p)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p = {p!r} outside [0, 1]")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t = {t!r} outside [0, 1]")
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s = {s!r} outside (0, 1]")
    return _verdict({k: float(v) for k, v in dichotomic_slacks(p, t, s).items()})


def ternary_disk_slack(p1, p2, p3):
    """Vectorizable slack of the three-outcome orthogonal-postselection disk.

    The LowerChain entry of chain_slacks at T = 0: S is left free, since
    some S admits any P that meets the polygon inequalities.
    """
    a, b, c = np.sqrt(p1), np.sqrt(p2), np.sqrt(p3)
    return chain_slacks(0.0, a + b + c, np.maximum(np.maximum(a, b), c), 1.0)[LOWER_CHAIN]


def check_ternary_disk(p: OutcomeDistribution) -> bool:
    """Disk membership for n = 3, T = 0, S unconstrained."""
    if p.n != 3:
        raise ValueError(f"ternary check needs 3 outcomes, got {p.n}")
    return bool(ternary_disk_slack(*p.probs) >= -EPS_FEAS)


def cone_decompose(p: OutcomeDistribution) -> ConeDecomposition:
    """Express sqrt(P) as a non-negative combination of the polygon-cone extreme rays.

    The m-th extreme ray has coordinates y^m_j = 1 + (2-n) delta_{jm}; the
    n x n system is solved exactly.  For n = 2 the two rays coincide and the
    system is singular.
    """
    n = p.n
    if n < 2:
        raise ValueError("cone decomposition needs n >= 2")
    sq = np.array(sqrt_probs(p))
    if not chain_slacks(0.0, sq.sum(), sq.max(), 1.0)[LOWER_CHAIN] >= -EPS_FEAS:
        raise PolygonViolation(f"polygon inequalities fail for {p.probs}")
    rays = np.ones((n, n)) + (2.0 - n) * np.eye(n)  # column m = ray y^m
    try:
        lambdas = np.linalg.solve(rays, sq)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"extreme-ray system is singular for n = {n}") from exc
    # Guard against near-singular solves slipping past LinAlgError.
    if not np.all(np.isfinite(lambdas)) or np.max(np.abs(rays @ lambdas - sq)) > 1e-10:
        raise SingularSystem(f"extreme-ray system is numerically degenerate for n = {n}")
    if np.min(lambdas) < -1e-12:
        raise PolygonViolation(f"negative cone coefficient {np.min(lambdas)!r}")
    return ConeDecomposition(lambdas=tuple(float(x) for x in lambdas))


def witness_distribution(t: float, s: float, n: int) -> OutcomeDistribution:
    """A distribution making (t, s) projectively feasible with n declared outcomes.

    For T <= S, a two-outcome distribution: when S >= 1/2 the one saturating
    1 + 2 sqrt(p(1-p)) = 1/S, otherwise the fair coin.  For S < T, a
    distribution with D_1/2 = T/S found by bisection within the family
    (b, a, ..., a) on ceil(T/S) outcomes.  Padded with zeros to length n.
    """
    verdict = check_ts_region(t, s, n)
    if not verdict.feasible:
        raise RegionViolation(f"(t={t}, s={s}, n={n}) violates {verdict.violated}")
    if n == 1:
        # Single declared outcome forces S = T (identity measurement).
        if abs(t - s) > 1e-9:
            raise RegionViolation(f"n = 1 requires S = T, got t={t}, s={s}")
        return OutcomeDistribution((1.0,))
    if t <= s:
        if s >= 0.5:
            q = (1.0 / s - 1.0) / 2.0  # target sqrt(p(1-p))
            p = 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - 4.0 * q * q)))
        else:
            p = 0.5
        probs = [p, 1.0 - p] + [0.0] * (n - 2)
        return OutcomeDistribution(probs)
    # S < T: hit D_1/2 = T/S exactly.
    target = math.sqrt(t / s)  # sqrt of the target diversity
    if target <= 1.0 + 1e-12:
        return OutcomeDistribution([1.0] + [0.0] * (n - 1))
    k = min(n, max(2, math.ceil(t / s - 1e-12)))
    # Boundary guard: T/S may exceed n by the region tolerance.
    target = min(target, math.sqrt(k))

    def root_d_half(b: float) -> float:
        return math.sqrt(b) + math.sqrt((k - 1) * (1.0 - b))

    # root_d_half decreases monotonically from sqrt(k) at b = 1/k to 1 at b = 1.
    lo, hi = 1.0 / k, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if root_d_half(mid) > target:
            lo = mid
        else:
            hi = mid
    b = 0.5 * (lo + hi)
    a = (1.0 - b) / (k - 1)
    probs = [b] + [a] * (k - 1) + [0.0] * (n - k)
    total = sum(probs)
    probs = [x / total for x in probs]
    return OutcomeDistribution(probs)
