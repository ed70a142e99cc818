"""Forward statistics of a witness and diversity/entropy functionals.

Inner product convention throughout: <phi|psi> = sum_k conj(phi_k) psi_k,
and in <phi|A|psi> the operator A acts to the right on psi.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    EPS_PROB,
    DiversityProfile,
    GeneralizedWitness,
    OutcomeDistribution,
    ProjectiveWitness,
    ScenarioTriple,
    _real,
)
from .errors import DegeneratePostselection


def transition_amplitudes(w: ProjectiveWitness | GeneralizedWitness) -> np.ndarray:
    """Per-outcome amplitudes <phi|V_k|psi> (V_k = Pi_k in the projective case).

    On a labelled projective witness the amplitude of outcome k is the sum of
    conj(phi_j) psi_j over the basis vectors j labelled k, accumulated in
    basis order by one unbuffered add: O(d + n), with no operator stack.
    """
    if getattr(w, "labels", None) is None:
        return (w.operators @ w.psi) @ w.phi.conj()
    amps = np.zeros(w.n_outcomes, dtype=complex)
    np.add.at(amps, w.labels, w.psi * w.phi.conj())
    return amps


def evaluate_witness(w: ProjectiveWitness | GeneralizedWitness) -> ScenarioTriple:
    """Postselected statistics of a witness: (T, S, P).

    T = |<phi|psi>|^2, S = sum_k |<phi|V_k|psi>|^2, P(k) = |<phi|V_k|psi>|^2 / S.
    Raises DegeneratePostselection when S is numerically zero (empty ensemble).
    """
    amps = transition_amplitudes(w)
    # The ufuncs that ** 2 and .sum() call, without their wrappers: the same bits.
    weights = np.abs(amps)
    np.square(weights, out=weights)
    s = float(np.add.reduce(weights))
    if s <= EPS_PROB:
        raise DegeneratePostselection(f"success probability {s!r} is numerically zero")
    t = min(1.0, float(abs(np.vdot(w.phi, w.psi)) ** 2))
    probs = weights / s
    probs /= np.add.reduce(probs)
    return ScenarioTriple(t, min(1.0, s), OutcomeDistribution(probs))


def diversity(dist: OutcomeDistribution, q: float) -> float:
    """Diversity index of order q: (sum_k P(k)^q)^(1/(1-q)).

    q = 0 gives the support cardinality, q = 1 the exponentiated Shannon
    entropy (the q -> 1 limit, computed directly with 0 log 0 := 0), and
    q = inf gives 1 / max_k P(k).  Zero-probability entries never contribute.
    P is taken as normalised, so a sum within EPS_PROB of 1 is divided out.

    Other orders are computed as the exponential of log D_q, which lies in
    [0, log n]: far from q = 1 the largest probability is factored out of the
    power sum, so P(k)^q cannot underflow to an empty sum at large q; near
    q = 1 the power sum is expanded as 1 + sum_k P(k) expm1((q - 1) log P(k)),
    so neither its rounding nor the exponent 1/(1 - q) can blow up.
    """
    q = _real(q, "order q")
    if not q >= 0:
        raise ValueError(f"order q = {q!r} must be >= 0")
    support = [p for p in dist.probs if p > 0]
    if q == 0:
        return float(len(support))
    total = sum(support)
    w = [p / total for p in support]
    if q == 1:
        return math.exp(-sum(p * math.log(p) for p in w))
    top = max(w)
    if math.isinf(q):
        return 1.0 / top
    delta = q - 1.0
    if abs(delta) <= 0.5:
        log_d = -math.log1p(sum(p * math.expm1(delta * math.log(p)) for p in w)) / delta
    else:
        power_sum = sum((p / top) ** q for p in w)
        log_d = (q / (1.0 - q)) * math.log(top) + math.log(power_sum) / (1.0 - q)
    return math.exp(log_d)


def diversity_profile(dist: OutcomeDistribution) -> DiversityProfile:
    """The (D_1/2, D_inf) pair, with their logarithms."""
    d_half = diversity(dist, 0.5)
    d_inf = diversity(dist, math.inf)
    return DiversityProfile(
        d_half=d_half, d_inf=d_inf, h_half=math.log(d_half), h_inf=math.log(d_inf)
    )
