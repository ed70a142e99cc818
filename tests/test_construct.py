import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postselect import (
    EPS_PROB,
    OutcomeDistribution,
    ScenarioTriple,
    close_polygon,
    construct_generalized,
    construct_projective,
    evaluate_witness,
    factor_amplitudes,
)
from postselect.construct import EPS_CLOSE, _factor_real
from postselect.errors import (
    DegeneratePostselection,
    InfeasibleScenario,
    NormViolation,
    PolygonViolation,
)
from conftest import random_feasible_scenario, random_scenario


def factor_real_recursive(rs):
    """The recursive form of the real factorization, one level per entry."""
    if len(rs) == 2:
        r1, r2 = rs
        ang_sum = math.acos(min(1.0, max(-1.0, r1 - r2)))
        ang_diff = math.acos(min(1.0, max(-1.0, r1 + r2)))
        alpha = 0.5 * (ang_sum + ang_diff)
        beta = 0.5 * (ang_sum - ang_diff)
        return [math.cos(alpha), math.sin(alpha)], [math.cos(beta), math.sin(beta)]
    r0 = rs[0]
    scale = 1.0 - r0
    sub_psi, sub_phi = factor_real_recursive([x / scale for x in rs[1:]])
    root = math.sqrt(scale)
    psi = [math.sqrt(r0)] + [x * root for x in sub_psi]
    phi = [math.sqrt(r0)] + [x * root for x in sub_phi]
    return psi, phi


def assert_reproduces(sc, witness, tol=1e-10):
    out = evaluate_witness(witness)
    assert out.t == pytest.approx(sc.t, abs=tol)
    assert out.s == pytest.approx(sc.s, abs=tol)
    assert np.allclose(out.dist.probs, sc.dist.probs, atol=tol)


class TestClosePolygon:
    @given(st.lists(st.floats(0.0, 10.0), min_size=0, max_size=256))
    @settings(max_examples=300, deadline=None)
    def test_closes_whenever_possible(self, xs):
        total = sum(xs)
        if xs and max(xs) > total - max(xs) + 1e-12 * max(1.0, total):
            with pytest.raises(PolygonViolation):
                close_polygon(xs)
            return
        closed = close_polygon(xs)
        assert np.allclose(np.abs(closed.zs), xs, atol=1e-11)
        assert abs(sum(closed.zs)) <= 1e-10 * max(1.0, total)

    def test_degenerate_pair(self):
        closed = close_polygon([0.7, 0.7])
        assert abs(sum(closed.zs)) <= 1e-12

    def test_all_zero(self):
        assert np.allclose(np.abs(close_polygon([0.0, 0.0, 0.0]).zs), 0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            close_polygon([0.5, -0.1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 1])
    def test_rejects_non_finite(self, bad, where):
        xs = [0.5, 1.0, 0.5]
        xs[where] = bad
        with pytest.raises(ValueError, match="finite"):
            close_polygon(xs)

    def test_residual_scales_with_total(self):
        # Seeded input (n = 284, total 2e4) whose roundoff residual, about
        # 1.1e-11, exceeds the absolute EPS_CLOSE.
        rng = np.random.default_rng(1152)
        xs = rng.dirichlet(np.ones(int(rng.integers(200, 301)))) * 2e4
        closed = close_polygon(xs)
        assert np.allclose(np.abs(closed.zs), xs, rtol=1e-13, atol=0.0)
        assert abs(sum(closed.zs)) <= EPS_CLOSE * sum(xs)


class TestFactorAmplitudes:
    def test_round_trip_random_phases(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 9))
            r = rng.dirichlet(np.ones(n)) * rng.uniform(0.1, 1.0)
            z = r * np.exp(2j * math.pi * rng.random(n))
            psi, phi = factor_amplitudes(z)
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(phi) == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(psi.conj() * phi, z, atol=1e-11)

    def test_saturated_sum(self):
        psi, phi = factor_amplitudes([0.25, 0.25, 0.5])
        assert np.allclose(psi.conj() * phi, [0.25, 0.25, 0.5], atol=1e-11)
        # At sum = 1 the two vectors coincide up to global phase.
        assert abs(abs(np.vdot(phi, psi)) - 1.0) <= 1e-10

    def test_zero_entries(self):
        psi, phi = factor_amplitudes([0.0, 0.3, 0.0, 0.2])
        assert np.allclose(psi.conj() * phi, [0.0, 0.3, 0.0, 0.2], atol=1e-11)

    def test_matches_recursive_form(self, rng):
        for _ in range(500):
            n = int(rng.integers(2, 13))
            r = rng.dirichlet(np.ones(n)) * rng.choice([1.0, rng.uniform(0.1, 1.0)])
            # Ties and zeros.
            r[rng.integers(n)] = r[rng.integers(n)]
            r[rng.random(n) < 0.2] = 0.0
            rs = sorted(float(x) for x in r)
            for a, b in zip(_factor_real(rs), factor_real_recursive(rs)):
                assert np.allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1200, 5000])
    def test_long_vectors(self, rng, n):
        # One loop step per entry, no recursion: n beyond the interpreter's recursion limit.
        z = rng.dirichlet(np.ones(n)) * np.exp(2j * math.pi * rng.random(n))
        psi, phi = factor_amplitudes(z)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(phi) == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(psi.conj() * phi - z)) <= 1e-10

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            factor_amplitudes([math.nan, 0.5])

    def test_rejects_overlong(self):
        with pytest.raises(NormViolation):
            factor_amplitudes([0.8, 0.4])

    def test_rejects_single(self):
        with pytest.raises(ValueError):
            factor_amplitudes([0.5])


class TestConstructProjective:
    def test_crossed_polarizer(self):
        sc = ScenarioTriple(0.0, 0.5, OutcomeDistribution((0.5, 0.5)))
        w = construct_projective(sc)
        assert w.dimension == 2
        assert_reproduces(sc, w, tol=1e-12)

    def test_single_outcome(self):
        sc = ScenarioTriple(0.3, 0.3, OutcomeDistribution((1.0,)))
        assert_reproduces(sc, construct_projective(sc), tol=1e-12)

    def test_infeasible_raises(self):
        sc = ScenarioTriple(0.0, 0.6, OutcomeDistribution((0.5, 0.5)))
        with pytest.raises(InfeasibleScenario):
            construct_projective(sc)

    def test_random_feasible_round_trip(self, rng):
        for _ in range(400):
            sc = random_feasible_scenario(rng)
            w = construct_projective(sc)
            assert w.dimension == sc.n
            assert_reproduces(sc, w, tol=1e-9)

    def test_boundary_scenarios(self, rng):
        # Saturate the upper chain bound: S = 1/D_1/2 and sqrt(T/S) = sqrt(D_1/2).
        for _ in range(100):
            n = int(rng.integers(2, 6))
            dist = OutcomeDistribution(rng.dirichlet(np.ones(n)))
            root_d_half = float(np.sqrt(dist.probs).sum())
            s = 1.0 / root_d_half**2
            t = min(1.0, root_d_half**2 * s)
            sc = ScenarioTriple(t, s, dist)
            assert_reproduces(sc, construct_projective(sc), tol=1e-8)


@pytest.mark.parametrize("build", [construct_projective, construct_generalized])
def test_numerically_zero_success_probability_refused(build):
    # evaluate_witness rejects S <= EPS_PROB, so no builder may hand out such a witness.
    for s in (5e-324, 1e-20, EPS_PROB):
        with pytest.raises(DegeneratePostselection):
            build(ScenarioTriple(s, s, OutcomeDistribution((1.0,))))
    sc = ScenarioTriple(2e-12, 2e-12, OutcomeDistribution((1.0,)))
    assert_reproduces(sc, build(sc), tol=1e-12)


class TestConstructGeneralized:
    def test_any_scenario_round_trip(self, rng):
        for _ in range(400):
            sc = random_scenario(rng, allow_zeros=True)
            w = construct_generalized(sc)
            assert_reproduces(sc, w, tol=1e-9)
            total = sum(v.conj().T @ v for v in w.kraus)
            assert np.max(np.abs(total - np.eye(w.dimension))) <= 1e-10

    def test_projectively_infeasible_scenario(self):
        # Unbalanced orthogonal dichotomic statistics need a generalized witness.
        sc = ScenarioTriple(0.0, 0.5, OutcomeDistribution((0.9, 0.1)))
        assert_reproduces(sc, construct_generalized(sc), tol=1e-12)

    def test_zero_probability_outcome_repaired(self):
        sc = ScenarioTriple(0.2, 0.4, OutcomeDistribution((0.7, 0.0, 0.3)))
        w = construct_generalized(sc)
        assert w.repaired == (1,)
        assert_reproduces(sc, w, tol=1e-12)

    def test_post_measurement_collinearity(self, rng):
        # All outcomes leave the system in the same pure state.
        for _ in range(100):
            sc = random_scenario(rng)
            w = construct_generalized(sc)
            states = []
            for k, v in enumerate(w.kraus):
                if sc.dist[k] == 0.0:
                    continue
                out = v @ np.asarray(w.psi)
                states.append(out / np.linalg.norm(out))
            for other in states[1:]:
                assert abs(abs(np.vdot(states[0], other)) - 1.0) <= 1e-10
