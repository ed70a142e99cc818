import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postselect import (
    DiversityProfile,
    GeneralizedWitness,
    OutcomeDistribution,
    ProjectiveWitness,
    ScenarioTriple,
    construct_generalized,
    construct_projective,
    diversity,
    diversity_profile,
    evaluate_witness,
)
from postselect.core import EPS_PROB
from postselect.errors import DegeneratePostselection, InfeasibleScenario, InvalidWitness
from postselect.stats import transition_amplitudes
from postselect.witness_io import witness_from_dict, witness_to_dict
from conftest import NON_REAL_PARAMS, REFERENCE_BOUND, random_distribution, reference_deviation
from samplers import sample_projective, sample_state

ROOT_HALF = math.sqrt(0.5)
BASIS_2 = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))


def polarizer_witness():
    return ProjectiveWitness(
        [ROOT_HALF, ROOT_HALF], [ROOT_HALF, -ROOT_HALF], BASIS_2
    )


class TestEvaluateWitness:
    def test_crossed_polarizer(self):
        sc = evaluate_witness(polarizer_witness())
        assert sc.t == pytest.approx(0.0, abs=1e-12)
        assert sc.s == pytest.approx(0.5, abs=1e-12)
        assert sc.dist.probs == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_aligned_states(self):
        w = ProjectiveWitness([1, 0], [1, 0], BASIS_2)
        sc = evaluate_witness(w)
        assert (sc.t, sc.s) == (1.0, 1.0)
        assert sc.dist.probs == (1.0, 0.0)

    def test_degenerate_postselection(self):
        w = ProjectiveWitness([1, 0], [0, 1], BASIS_2)
        with pytest.raises(DegeneratePostselection):
            evaluate_witness(w)

    def test_swap_projective_invariance(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 5))
            w = ProjectiveWitness(
                sample_state(d, rng), sample_state(d, rng), sample_projective(d, d, rng)
            )
            try:
                sc = evaluate_witness(w)
            except DegeneratePostselection:
                continue
            sc_swapped = evaluate_witness(w.swapped())
            assert sc_swapped.t == pytest.approx(sc.t, abs=1e-12)
            assert sc_swapped.s == pytest.approx(sc.s, abs=1e-12)
            assert np.allclose(sc_swapped.dist.probs, sc.dist.probs, atol=1e-12)

    def test_swap_generalized_invariance(self, rng):
        # Time reversal for Kraus witnesses adjoints every operator.
        for _ in range(25):
            d = 3
            u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
            kraus = tuple(p @ u for p in sample_projective(d, d, rng))
            w = GeneralizedWitness(sample_state(d, rng), sample_state(d, rng), kraus)
            try:
                sc = evaluate_witness(w)
            except DegeneratePostselection:
                continue
            sc_swapped = evaluate_witness(w.swapped())
            assert sc_swapped.s == pytest.approx(sc.s, abs=1e-12)
            assert np.allclose(sc_swapped.dist.probs, sc.dist.probs, atol=1e-12)

    def test_swap_needs_adjoint_completeness(self):
        # Built Kraus sets are complete, but their adjoints need not be.
        w = construct_generalized(ScenarioTriple(0.1, 0.3, OutcomeDistribution((0.5, 0.3, 0.2))))
        with pytest.raises(InvalidWitness, match="not complete"):
            w.swapped()

    def test_output_is_valid_triple(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(1, d + 1))
            w = ProjectiveWitness(
                sample_state(d, rng), sample_state(d, rng), sample_projective(d, n, rng)
            )
            try:
                sc = evaluate_witness(w)
            except DegeneratePostselection:
                continue
            assert 0.0 <= sc.t <= 1.0
            assert 0.0 < sc.s <= 1.0
            assert abs(sum(sc.dist.probs) - 1.0) <= 1e-12

    def test_amplitude_sum_bounded(self, rng):
        # Double Cauchy-Schwarz: the amplitude magnitudes sum to at most 1.
        for _ in range(200):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(1, d + 1))
            w = ProjectiveWitness(
                sample_state(d, rng), sample_state(d, rng), sample_projective(d, n, rng)
            )
            assert np.abs(transition_amplitudes(w)).sum() <= 1.0 + 1e-12

    def test_invalid_projectors_rejected(self):
        broken = (np.diag([1.0, 0.3]).astype(complex), np.diag([0.0, 0.7]).astype(complex))
        with pytest.raises(InvalidWitness):
            ProjectiveWitness([1, 0], [0, 1], broken)

    def test_incomplete_kraus_rejected(self):
        with pytest.raises(InvalidWitness):
            GeneralizedWitness([1, 0], [0, 1], (np.diag([0.5, 0.5]),))


def reference_evaluate(w):
    """evaluate_witness's arithmetic written with ** 2 and the ndarray methods."""
    weights = np.abs(transition_amplitudes(w)) ** 2
    s = float(weights.sum())
    t = min(1.0, float(abs(np.vdot(w.phi, w.psi)) ** 2))
    probs = weights / s
    probs /= probs.sum()
    return t, min(1.0, s), probs.tolist()


def built_witnesses(rng, count):
    """Built projective and Kraus witnesses, n = 1..8, some outcomes zeroed, T in {0, 1, uniform}."""
    for _ in range(count):
        n = int(rng.integers(1, 9))
        dist = random_distribution(rng, n=n, allow_zeros=n > 1)
        t = float(rng.choice([0.0, 1.0, rng.random()]))
        cap = 1.0 / sum(map(math.sqrt, dist.probs)) ** 2  # above it no projective witness exists
        s = float(rng.uniform(1e-6, cap if rng.random() < 0.5 else 1.0))
        sc = ScenarioTriple(t, s, dist)
        try:
            yield construct_projective(sc)
        except InfeasibleScenario:
            pass
        yield construct_generalized(sc)


def test_evaluate_matches_reference_formula_bitwise():
    rng = np.random.default_rng(7331)
    kinds = {"projective": 0, "generalized": 0}
    zeroed = 0
    for built in built_witnesses(rng, 600):
        for w in (built, witness_from_dict(witness_to_dict(built))):
            t, s, probs = reference_evaluate(w)
            if s <= EPS_PROB:
                with pytest.raises(DegeneratePostselection):
                    evaluate_witness(w)
                continue
            got = evaluate_witness(w)
            # reference_evaluate shares transition_amplitudes; tests/reference.py shares nothing.
            assert reference_deviation(w, got) <= REFERENCE_BOUND, w
            assert got.t.hex() == t.hex() and got.s.hex() == s.hex(), w
            assert list(map(float.hex, got.dist.probs)) == list(map(float.hex, probs)), w
        kinds[built.kind] += 1
        zeroed += 0.0 in got.dist.probs
    assert kinds["projective"] > 80 and kinds["generalized"] == 600 and zeroed > 100, (kinds, zeroed)


FLOAT_CASES = {
    "float64": np.array([0.1, 0.2, 0.7]),
    "float64-strided": np.array([0.1, 9.0, 0.2, 9.0, 0.7])[::2],
    "float32": np.array([0.375, 0.125, 0.5], dtype=np.float32),
    "longdouble": np.array([1, 2, 7], dtype=np.longdouble) / 10,
    "int64": np.array([0, 1, 0], dtype=np.int64),
    "tuple": (np.float32(0.5), np.longdouble(0.25), 0.25),
    "list": [np.int64(1), 0.0],
}


@pytest.mark.parametrize("values", FLOAT_CASES.values(), ids=FLOAT_CASES.keys())
def test_distribution_holds_python_floats(values):
    probs = OutcomeDistribution(values).probs
    assert [type(x) for x in probs] == [float] * len(values)
    assert probs == tuple(float(x) for x in values)


def test_two_dimensional_float_array_refused():
    with pytest.raises(ValueError, match="probabilities must be real numbers"):
        OutcomeDistribution(np.array([[0.5, 0.5]]))


class TestDiversity:
    def test_uniform_is_n_for_all_q(self):
        for n in (1, 2, 5, 9):
            uniform = OutcomeDistribution([1.0 / n] * n)
            for q in (0.0, 0.5, 1.0, 2.0, 7.5, math.inf):
                assert diversity(uniform, q) == pytest.approx(n, rel=1e-12)

    @pytest.mark.parametrize("q", [True, False, "2", b"2", np.bool_(True), *NON_REAL_PARAMS])
    def test_order_must_be_a_number(self, q):
        # np.complex128(2 + 1j) was read as order 2 + 1j and gave 2.38, no order's D_q.
        with pytest.raises(ValueError, match="not a real number"):
            diversity(OutcomeDistribution((0.5, 0.5)), q)

    def test_point_mass(self):
        point = OutcomeDistribution((1.0, 0.0))
        assert diversity(point, math.inf) == 1.0
        assert diversity(point, 0.5) == 1.0
        assert diversity(point, 0.0) == 1.0

    def test_half_quarter_quarter(self):
        dist = OutcomeDistribution((0.5, 0.25, 0.25))
        expected = (math.sqrt(0.5) + 0.5 + 0.5) ** 2  # 2.9142...
        assert diversity(dist, 0.5) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(2.9142, abs=1e-4)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            diversity(OutcomeDistribution((1.0,)), -1.0)

    def test_rejects_nan_order(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            diversity(OutcomeDistribution((0.5, 0.5)), math.nan)

    @pytest.mark.parametrize("q", [1075.0, 1e308, 1.0 + 2**-52, 1.0 - 2**-53, 1.0 + 1e-300])
    def test_extreme_orders(self, q):
        # 0.5**1075 underflows to 0 and 1/(1 - q) overflows near q = 1.
        assert diversity(OutcomeDistribution((0.5, 0.5)), q) == pytest.approx(2.0, rel=1e-12)
        skewed = OutcomeDistribution((0.5, 0.25, 0.25))
        assert 2.0 - 1e-12 <= diversity(skewed, q) <= 2.9142135623730951

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_continuity_at_q_one(self, weights):
        p = OutcomeDistribution([w / sum(weights) for w in weights])
        at_one = diversity(p, 1.0)
        assert abs(diversity(p, 1.0 + 1e-6) - at_one) <= 1e-4
        assert abs(diversity(p, 1.0 - 1e-6) - at_one) <= 1e-4

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8).filter(lambda w: sum(w) > 0))
    @settings(max_examples=300, deadline=None)
    def test_ordering_and_bounds(self, weights):
        p = OutcomeDistribution([w / sum(weights) for w in weights])
        prof = diversity_profile(p)
        assert prof.d_inf <= prof.d_half + 1e-12
        assert 1.0 - 1e-12 <= prof.d_inf <= p.n + 1e-12
        assert 1.0 - 1e-12 <= prof.d_half <= p.n + 1e-9
        assert prof.h_half == math.log(prof.d_half)
        assert prof.h_inf == math.log(prof.d_inf)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8).filter(lambda w: sum(w) > 0))
    @settings(max_examples=300, deadline=None)
    def test_peak_plus_rest_identity(self, weights):
        # 1/D_inf + (sqrt(D_1/2) - 1/sqrt(D_inf))^2 >= 1, and
        # 2/sqrt(D_inf) - sqrt(D_1/2) <= 1.
        p = OutcomeDistribution([w / sum(weights) for w in weights])
        prof = diversity_profile(p)
        lhs = 1.0 / prof.d_inf + (math.sqrt(prof.d_half) - 1.0 / math.sqrt(prof.d_inf)) ** 2
        assert lhs >= 1.0 - 1e-12
        assert 2.0 / math.sqrt(prof.d_inf) - math.sqrt(prof.d_half) <= 1.0


class TestDiversityProfile:
    @pytest.mark.parametrize(
        "probs,d_inf,d_half",
        [
            ((0.5, 0.5), 2.0, 2.0),
            ((1.0, 0.0), 1.0, 1.0),
            ((0.5, 0.25, 0.25), 2.0, (math.sqrt(0.5) + 1.0) ** 2),
        ],
    )
    def test_examples(self, probs, d_inf, d_half):
        prof = diversity_profile(OutcomeDistribution(probs))
        assert prof.d_inf == pytest.approx(d_inf, rel=1e-12)
        assert prof.d_half == pytest.approx(d_half, rel=1e-12)

    @pytest.mark.parametrize(
        "values",
        [
            (math.nan,) * 4,
            (math.inf,) * 4,
            (2.0, 1.0, math.log(2.0), math.nan),
            (math.inf, 2.0, math.inf, math.log(2.0)),
            (2.0, 2.0, -math.inf, math.log(2.0)),
        ],
        ids=["all-nan", "all-inf", "nan-h_inf", "inf-d_half", "minus-inf-h_half"],
    )
    def test_non_finite_rejected(self, values):
        with pytest.raises(ValueError, match="non-finite"):
            DiversityProfile(*values)

    @pytest.mark.parametrize(
        "values, message",
        [
            ((2.0, 3.0, math.log(2.0), math.log(3.0)), "D_inf = 3.0 exceeds D_1/2 = 2.0"),
            ((0.5, 0.5, math.log(0.5), math.log(0.5)), "must be >= 1"),
            ((2.0, 0.5, math.log(2.0), math.log(0.5)), "must be >= 1"),
        ],
        ids=["d_inf-above-d_half", "both-below-1", "d_inf-below-1"],
    )
    def test_inconsistent_rejected(self, values, message):
        with pytest.raises(ValueError, match=message):
            DiversityProfile(*values)
