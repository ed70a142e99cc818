"""The test helpers' sampler against the NumPy calls it stands in for.

conftest.random_distribution normalises standard exponentials instead of
calling rng.dirichlet(np.ones(n)): NumPy's flat Dirichlet draws the same
exponentials and scales by the same reciprocal.  conftest.random_scenario
scales rng.random() instead of calling rng.uniform(1e-6, 1.0), which computes
low + (high - low) * the same double.  So every scenario stream that the tests
and acceptance criteria draw stays bit for bit as it was.  If a NumPy release
changes either sampler, this test fails first.
"""

import numpy as np
import pytest

from postselect import default_rng
from conftest import random_scenario


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_random_scenario_draws_what_numpy_samplers_draw(n):
    ref, alt = default_rng(101 + n), default_rng(101 + n)
    for _ in range(2000):
        sc = random_scenario(alt, n=n)
        assert sc.t == ref.random()
        assert sc.s == ref.uniform(1e-6, 1.0)
        assert sc.dist.probs == tuple(ref.dirichlet(np.ones(n)).tolist())
    assert alt.random() == ref.random()
