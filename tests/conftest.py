import numpy as np
import pytest

import reference
from postselect import OutcomeDistribution, ScenarioTriple, default_rng
from postselect.witness_io import witness_to_dict

# One line per acceptance criterion, filled in by tests/test_acceptance.py and
# echoed after the run so the report survives pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return default_rng(20260823)


# Values float() reads as their real part (NumPy complex scalars, with a ComplexWarning) or
# refuses with TypeError; every real-number input refuses each with ValueError.
NON_REAL = {
    "complex128": np.complex128(0.5 + 0.3j),
    "complex64": np.complex64(0.5),
    "complex": 0.5j,
    "None": None,
    "object": object(),
}
NON_REAL_PARAMS = [pytest.param(v, id=k) for k, v in NON_REAL.items()]


def column_sums(a: np.ndarray) -> np.ndarray:
    """Row sums of a 2-D array by an explicit loop over its columns, in index order from 0.0."""
    total = np.zeros(a.shape[0], dtype=a.dtype)
    for j in range(a.shape[1]):
        total = total + a[:, j]
    return total


def random_distribution(rng, n=None, allow_zeros=False):
    """Random outcome distribution, Dirichlet-flat over the simplex."""
    if n is None:
        n = int(rng.integers(2, 7))
    # Bit for bit rng.dirichlet(np.ones(n)) at a third of its cost; test_sampling.py
    # pins the identity, so a NumPy that breaks it fails there and not silently.
    e = rng.standard_exponential(n)
    p = e * (1.0 / e.sum())
    if allow_zeros and rng.random() < 0.3:
        k = int(rng.integers(1, n))
        p[rng.choice(n, size=k, replace=False)] = 0.0
        if p.sum() == 0.0:
            p[0] = 1.0
        p /= p.sum()
    return OutcomeDistribution(p)


def random_scenario(rng, n=None, allow_zeros=False):
    # The success probability is bit for bit rng.uniform(1e-6, 1.0), at a third of
    # its cost; test_sampling.py pins this identity too.
    return ScenarioTriple(
        float(rng.random()),
        1e-6 + (1.0 - 1e-6) * rng.random(),
        random_distribution(rng, n=n, allow_zeros=allow_zeros),
    )


def random_feasible_scenario(rng, n=None):
    """Sample directly from the projectively feasible set.

    Draws P, then S below 1/D_1/2, then sqrt(T/S) inside its allowed
    interval; the result always passes the raw checker.
    """
    dist = random_distribution(rng, n=n)
    sq = np.sqrt(dist.probs)
    root_d_half = sq.sum()
    lower = max(0.0, 2.0 * sq.max() - root_d_half)
    s = float(rng.uniform(1e-6, 1.0 / root_d_half**2))
    root_ts = float(rng.uniform(lower, root_d_half))
    t = min(1.0, root_ts**2 * s)
    return ScenarioTriple(t, s, dist)


def triple_deviation(out, sc) -> float:
    """Largest |difference| between two scenario triples' T, S and P(k)."""
    gaps = np.abs(np.subtract(out.dist.probs, sc.dist.probs)).max()
    return max(abs(out.t - sc.t), abs(out.s - sc.s), float(gaps))


# How far evaluate_witness may lie from reference.evaluate_document on T, S and each P(k),
# for S >= 1e-6 as in every sweep compared.  The largest gap seen was 2.9e-15, on a Kraus
# witness of acceptance 04's stream; the projective sweeps (n <= 200) and n = 1000 stay
# below 4.6e-16.  Smaller S widens the gap (test_cli.reference_target_deviation).
REFERENCE_BOUND = 1e-14


def reference_deviation(w, out) -> float:
    """Largest gap between out = evaluate_witness(w) and the reference on w's document."""
    return reference.document_deviation(witness_to_dict(w), out.t, out.s, out.dist.probs)
