"""High-precision reference values, written from the paper's definitions.

Written with stdlib `decimal` alone and importing nothing from `postselect` or
NumPy (a test parses this file to hold it to that), so a rounding error or a
convention shared by the package's builders and its evaluator cannot also be
in the values they are checked against.  Every float input is read exactly
(`Decimal(float)`), and every product, root, sum and quotient is taken to
50 or 60 significant digits, far below the package's 1e-12 tolerances.

- `probability_total`, `roots` and `chain_slacks`: the projective chain at
  60 digits.  The square roots of P are the costly part (about 0.7 s at
  n = 10**5), so they are taken once per distribution.
- `evaluate_document`: T, S and P of a witness document at 50 digits, read
  from the [re, im] pairs that `witness_to_dict` and witness files hold.
"""

from decimal import Decimal, localcontext

DIGITS = 60
DOCUMENT_DIGITS = 50


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


def _complex(pairs) -> list[tuple[Decimal, Decimal]]:
    """[re, im] pairs as (re, im) tuples of Decimals."""
    return [(Decimal(re), Decimal(im)) for re, im in pairs]


def _dot(u, v) -> tuple[Decimal, Decimal]:
    """sum_j u_j v_j, without conjugation."""
    re = sum((a * c - b * d for (a, b), (c, d) in zip(u, v)), Decimal(0))
    im = sum((a * d + b * c for (a, b), (c, d) in zip(u, v)), Decimal(0))
    return re, im


def evaluate_document(doc) -> tuple[Decimal, Decimal, list[Decimal]]:
    """(T, S, P) of a witness document: T = |<phi|psi>|^2, S = sum_k |<phi|V_k|psi>|^2
    and P(k) = |<phi|V_k|psi>|^2 / S.

    psi and phi are lists of [re, im] pairs.  The measurement is either
    `labels` and `n_outcomes`, where V_k projects onto the basis vectors
    labelled k, or `operators`, row-major d x d matrices of [re, im] pairs.
    The document is taken as given: nothing is normalized or validated.
    """
    with localcontext() as ctx:
        ctx.prec = DOCUMENT_DIGITS
        psi = _complex(doc["psi"])
        bra = [(re, -im) for re, im in _complex(doc["phi"])]  # conj(phi)
        if "labels" in doc:
            groups = [[] for _ in range(doc["n_outcomes"])]
            for j, label in enumerate(doc["labels"]):
                groups[label].append(j)
            amps = [_dot([bra[j] for j in g], [psi[j] for j in g]) for g in groups]
        else:
            amps = [_dot(bra, [_dot(row, psi) for row in map(_complex, op)])
                    for op in doc["operators"]]
        weights = [re * re + im * im for re, im in amps]
        s = sum(weights, Decimal(0))
        re, im = _dot(bra, psi)
        return re * re + im * im, s, [w / s for w in weights]


def document_deviation(doc, t: float, s: float, probs) -> float:
    """Largest |x - reference| over T, S and every P(k): floats against evaluate_document."""
    ref_t, ref_s, ref_p = evaluate_document(doc)
    if len(probs) != len(ref_p):
        raise ValueError(f"{len(probs)} probabilities for {len(ref_p)} outcomes")
    pairs = [(t, ref_t), (s, ref_s), *zip(probs, ref_p)]
    return float(max(abs(Decimal(x) - want) for x, want in pairs))
