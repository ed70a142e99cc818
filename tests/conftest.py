import numpy as np
import pytest

from postselect import OutcomeDistribution, ScenarioTriple, default_rng

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
