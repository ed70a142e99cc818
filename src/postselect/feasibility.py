"""Analytic feasibility predicates for scenario triples.

All regions are closed; a constraint with signed slack >= -EPS_FEAS counts
as satisfied, and a NaN slack counts as violated.  Verdicts report every
violated constraint, not just the first, so region maps can color by
violation type.  Every projective chain check goes through chain_slacks;
check_projective_raw alone keeps the literal per-outcome form, as the
reference the chain is checked against.  The scalar checkers take sum_k
sqrt(P(k)) with math.fsum, so their verdicts do not depend on outcome order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import EPS_FEAS, OutcomeDistribution, ScenarioTriple, _count, _probability, sqrt_probs
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

    def __init__(self, feasible: bool, violated: tuple[str, ...], slack: dict[str, float]):
        self.__dict__.update(feasible=feasible, violated=violated, slack=slack)


def _verdict(slack: dict[str, float]) -> FeasibilityVerdict:
    violated = tuple([tag for tag, v in slack.items() if not v >= -EPS_FEAS])
    return FeasibilityVerdict(not violated, violated, slack)


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
    total = math.fsum(sq)
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
        chain_slacks(math.sqrt(sc.t / sc.s), math.fsum(sq), max(sq), math.sqrt(sc.s))
    )


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Row sums of a 2-D float or complex array as a new array: whole columns added in index order.

    Each row is summed from 0.0 (so a row of -0.0 sums to +0.0) by elementwise adds,
    exact IEEE operations at every SIMD width, unlike a.sum(axis=1), whose pairwise
    layout from 8 scalars up is NumPy's own.
    """
    return reduce(np.add, a.T, 0.0)


def projective_raw_slack_arrays(t: np.ndarray, s: np.ndarray, probs: np.ndarray):
    """Row-wise chain slacks for t, s of shape (B,) and probs of shape (B, n).

    Row sums of sqrt(P) are `_row_sum`'s; row maxima run over the n columns
    (np.maximum), exact, so they equal sq.max(axis=1) bit for bit.  sqrt(P) is
    dropped once both are formed.
    """
    sq = np.sqrt(probs)
    root_sum, root_max = _row_sum(sq), reduce(np.maximum, sq.T)
    del sq
    return chain_slacks(np.sqrt(t / s), root_sum, root_max, np.sqrt(s))


def check_generalized(sc: ScenarioTriple) -> FeasibilityVerdict:
    """Generalized-measurement feasibility: every valid triple is realizable."""
    return FeasibilityVerdict(feasible=True, violated=(), slack={})


def ts_region_slacks(t, s, n: int):
    """Vectorizable slacks of the (T, S) region for n outcomes: T/n <= S <= (T+1)/2."""
    return {T_OVER_N: s - t / n, S_HALF_PLUS_T: (t + 1.0) / 2.0 - s}


def check_ts_region(t: float, s: float, n: int) -> FeasibilityVerdict:
    """Is (T, S) achievable at all with an n-outcome projective measurement?"""
    t, s = _probability(t, "t"), _probability(s, "s", positive=True)
    return _verdict(ts_region_slacks(t, s, _count(n, "n", 1)))


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
    """Two-outcome feasibility for P = (p, 1-p): the chain checker on (t, s, P)."""
    return check_projective_chain(ScenarioTriple(t, s, OutcomeDistribution((p, 1.0 - p))))


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


def cone_decompose(p: OutcomeDistribution) -> tuple[float, ...]:
    """The non-negative coefficients of sqrt(P) over the polygon-cone extreme rays.

    The m-th extreme ray has coordinates y^m_j = 1 + (2-n) delta_{jm}, so the
    ray matrix is J + (2-n) I and the system solves in closed form:
    lambda_m = (sum_j sqrt(P(j)) - 2 sqrt(P(m))) / (2 (n - 2)).  The smallest
    lambda is the LowerChain slack divided by 2 (n - 2), so the polygon check
    makes every lambda non-negative.  For n = 2 the two rays coincide and the
    system is singular.
    """
    n = p.n
    if n < 2:
        raise ValueError("cone decomposition needs n >= 2")
    sq = np.array(sqrt_probs(p))
    total = math.fsum(sq)
    if not chain_slacks(0.0, total, sq.max(), 1.0)[LOWER_CHAIN] >= -EPS_FEAS:
        raise PolygonViolation(f"polygon inequalities fail for {p.probs}")
    if n == 2:
        raise SingularSystem("extreme-ray system is singular for n = 2")
    return tuple(((total - 2.0 * sq) / (2.0 * (n - 2))).tolist())


def witness_distribution(t: float, s: float, n: int) -> OutcomeDistribution:
    """A distribution making (t, s) projectively feasible with n declared outcomes.

    The result passes check_projective_raw at every (t, s) of the region.  At
    n = 1 the only distribution is (1,), returned exactly when the checker
    accepts it (S = T within EPS_FEAS); otherwise RegionViolation.  For T <= S,
    a two-outcome distribution: when S >= 1/2 the one saturating
    1 + 2 sqrt(p(1-p)) = 1/S, with q = sqrt(p(1-p)), r = sqrt(1 - 4 q^2),
    p = (1 + r)/2 and 1 - p = 2 q^2 / (1 + r) (no cancellation when r ~ 1);
    otherwise the fair coin.  For S < T, the distribution (b, a, ..., a) on
    k = ceil(T/S) outcomes with D_1/2 = T/S: with sqrt(b) = cos(theta),
    sqrt(D_1/2) = sqrt(b) + sqrt((k-1)(1-b)) = sqrt(k) cos(theta - alpha),
    tan(alpha) = sqrt(k-1), which falls from sqrt(k) to 1 as theta runs from
    alpha to 0 (b from 1/k to 1); b = cos^2(theta) and a = sin^2(theta)/(k-1),
    so the small outcomes do not cancel as b nears 1.  Padded with zeros to
    length n.
    """
    verdict = check_ts_region(t, s, n)
    if not verdict.feasible:
        raise RegionViolation(f"(t={t}, s={s}, n={n}) violates {verdict.violated}")
    if n == 1:
        # Single declared outcome forces S = T (identity measurement).
        one = OutcomeDistribution((1.0,))
        if not check_projective_raw(ScenarioTriple(t, s, one)).feasible:
            raise RegionViolation(f"n = 1 requires S = T, got t={t}, s={s}")
        return one
    if t <= s:
        if s >= 0.5:
            q = (1.0 / s - 1.0) / 2.0  # target sqrt(p(1-p))
            r = math.sqrt(max(0.0, 1.0 - 4.0 * q * q))
            pair = [0.5 * (1.0 + r), 2.0 * q * q / (1.0 + r)]
        else:
            pair = [0.5, 0.5]
        return OutcomeDistribution(pair + [0.0] * (n - 2))
    # S < T: hit D_1/2 = T/S exactly.
    target = math.sqrt(t / s)  # sqrt of the target diversity
    if target <= 1.0 + 1e-12:
        return OutcomeDistribution([1.0] + [0.0] * (n - 1))
    k = min(n, max(2, math.ceil(t / s - 1e-12)))
    # Boundary guard: T/S may exceed n by the region tolerance.
    target = min(target, math.sqrt(k))

    theta = math.atan(math.sqrt(k - 1)) - math.acos(target / math.sqrt(k))
    b, a = math.cos(theta) ** 2, math.sin(theta) ** 2 / (k - 1)
    probs = [b] + [a] * (k - 1) + [0.0] * (n - k)
    total = sum(probs)
    probs = [x / total for x in probs]
    return OutcomeDistribution(probs)
