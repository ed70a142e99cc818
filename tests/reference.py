"""60-digit reference values for the projective chain, from the paper's inequalities.

Written with stdlib `decimal` alone and importing nothing from `postselect`, so
a rounding error in the package cannot also be in the values it is checked
against.  Every float input is read exactly (`Decimal(float)`), and every
root, sum and quotient is taken to DIGITS significant digits, far below the
package's 1e-12 tolerances.  The square roots of P are the costly part
(about 0.7 s at n = 10**5), so they are taken once per distribution.
"""

from decimal import Decimal, localcontext

DIGITS = 60


def probability_total(probs) -> Decimal:
    """sum_k P(k)."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return sum(map(Decimal, probs), Decimal(0))


def roots(probs) -> list[Decimal]:
    """sqrt(P(k)) for every k."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return [Decimal(p).sqrt() for p in probs]


def chain_slacks(t: float, s: float, root_p: list[Decimal]) -> dict[str, Decimal]:
    """Slacks of sqrt(P_max) <= sqrt(T/S) + sum_{k != max} sqrt(P(k)) (LowerChain),
    sqrt(T/S) <= sum_k sqrt(P(k)) (UpperChain) and sum_k sqrt(P(k)) <= 1/sqrt(S) (SBound).

    `root_p` holds sqrt(P(k)), as `roots` gives them.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        total = sum(root_p, Decimal(0))
        root_ts = (Decimal(t) / Decimal(s)).sqrt()
        return {
            "LowerChain": root_ts + total - 2 * max(root_p),
            "UpperChain": total - root_ts,
            "SBound": 1 / Decimal(s).sqrt() - total,
        }
