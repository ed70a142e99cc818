import math

import numpy as np
import pytest

from postselect import (
    OutcomeDistribution,
    ScenarioTriple,
    check_dichotomic,
    check_generalized,
    check_projective_chain,
    check_projective_raw,
    check_ternary_disk,
    check_ts_region,
    cone_decompose,
    emit_ts_region,
    witness_distribution,
)
from postselect.errors import PolygonViolation, RegionViolation, SingularSystem
from postselect.feasibility import (
    S_BOUND,
    LOWER_CHAIN,
    _row_sum,
    _verdict,
    chain_slacks,
    dichotomic_slacks,
    projective_raw_slack_arrays,
)
from conftest import random_distribution, random_scenario


def scenario(t, s, probs):
    return ScenarioTriple(t, s, OutcomeDistribution(probs))


class TestProjectiveRaw:
    def test_feasible_below_s_cap(self):
        # For P=(1/2,1/4,1/4), S may go up to 1/D_1/2 ~ 0.343.
        assert check_projective_raw(scenario(0.0, 0.30, (0.5, 0.25, 0.25))).feasible

    def test_infeasible_above_s_cap(self):
        v = check_projective_raw(scenario(0.0, 0.35, (0.5, 0.25, 0.25)))
        assert not v.feasible
        assert v.violated == (S_BOUND,)

    def test_identity_scenario(self):
        assert check_projective_raw(scenario(1.0, 1.0, (1.0, 0.0))).feasible

    def test_orthogonal_dichotomic_must_be_fair(self):
        for s in (0.05, 0.2, 0.5):
            assert not check_projective_raw(scenario(0.0, s, (0.6, 0.4))).feasible
            assert check_projective_raw(scenario(0.0, s, (0.5, 0.5))).feasible

    def test_t0_n2_forces_half(self, rng):
        for _ in range(300):
            p = float(rng.random())
            s = float(rng.uniform(1e-3, 0.5))
            if check_projective_raw(scenario(0.0, s, (p, 1.0 - p))).feasible:
                assert abs(p - 0.5) <= 1e-6


class TestProjectiveChain:
    def test_matches_raw_on_random_scenarios(self, rng):
        for _ in range(2000):
            sc = random_scenario(rng)
            assert (
                check_projective_raw(sc).feasible
                == check_projective_chain(sc).feasible
            )

    def test_boundary_slack_zero(self):
        v = check_projective_chain(scenario(0.0, 0.5, (0.5, 0.5)))
        assert v.feasible
        assert v.slack[LOWER_CHAIN] == pytest.approx(0.0, abs=1e-12)

    def test_t_too_large(self):
        assert not check_projective_chain(scenario(0.9, 0.1, (0.5, 0.5))).feasible


class TestChainSlacks:
    def test_scalar_and_row_forms_agree(self, rng):
        t = rng.uniform(0.0, 1.0, 200)
        s = rng.uniform(1e-3, 1.0, 200)
        probs = rng.dirichlet(np.ones(4), 200)
        rows = projective_raw_slack_arrays(t, s, probs)
        for i in range(200):
            sq = [math.sqrt(p) for p in probs[i]]
            scalar = chain_slacks(math.sqrt(t[i] / s[i]), sum(sq), max(sq), math.sqrt(s[i]))
            for tag, v in scalar.items():
                assert v == pytest.approx(rows[tag][i], abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_row_kernel_equals_axis_reductions_bit_for_bit(self, n):
        rng = np.random.default_rng(700 + n)
        t = rng.uniform(0.0, 1.0, 3000)
        s = rng.uniform(1e-3, 1.0, 3000)
        probs = rng.dirichlet(np.ones(n), 3000)
        probs[:300, rng.integers(n)] = 0.0  # zero entries, as zeroed outcomes give
        sq = np.sqrt(probs)
        want = chain_slacks(np.sqrt(t / s), sq.sum(axis=1), sq.max(axis=1), np.sqrt(s))
        got = projective_raw_slack_arrays(t, s, probs)
        assert list(got) == list(want)
        for tag in want:
            assert got[tag].tobytes() == want[tag].tobytes(), tag

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_row_sum_equals_numpy_sum_bit_for_bit(self, dtype):
        # Rows of fewer than 8 scalars are summed by column, wider ones by NumPy.
        # The test fails if a NumPy build stops adding short rows in index order
        # from 0.0, which is a layout of its pairwise sum, not a documented contract.
        rng = np.random.default_rng(1901)
        for k in range(1, 10):
            a = np.zeros((200, k), dtype=dtype)
            a.real = rng.standard_normal((200, k)) * np.exp(8 * rng.standard_normal((200, k)))
            if dtype is complex:
                a.imag = rng.standard_normal((200, k)) * np.exp(8 * rng.standard_normal((200, k)))
            got = _row_sum(a)
            assert got.shape == (200,) and not np.shares_memory(got, a)
            layout = "NumPy no longer sums rows of fewer than 8 scalars in index order"
            assert got.tobytes() == a.sum(axis=1).tobytes(), f"width {k}: {layout}"
        zeros = np.full((3, 2), -0.0, dtype=dtype)
        assert _row_sum(zeros).tobytes() == zeros.sum(axis=1).tobytes()

    def test_nan_slack_is_violated(self):
        v = _verdict({LOWER_CHAIN: float("nan"), S_BOUND: 0.0})
        assert not v.feasible
        assert v.violated == (LOWER_CHAIN,)

    @pytest.mark.parametrize("probs", [(float("nan"), 0.5), (float("inf"),)])
    def test_non_finite_distribution_rejected(self, probs):
        with pytest.raises(ValueError):
            OutcomeDistribution(probs)

    @pytest.mark.parametrize(
        "probs, message",
        [((0.5, 0.6), "probabilities sum to"), ((), "needs at least one outcome"),
         ((0.5, 0.5 + 2e-12), "probabilities sum to")],
        ids=["sum-1.1", "empty", "sum-off-by-2e-12"],
    )
    def test_distribution_refused(self, probs, message):
        with pytest.raises(ValueError, match=message):
            OutcomeDistribution(probs)


ONE = OutcomeDistribution((1.0,))
NON_NUMBER_PROBABILITIES = {
    "t-str": (ScenarioTriple, ("0.5", 0.5, ONE)),
    "s-bool": (ScenarioTriple, (0.5, True, ONE)),
    "t-numpy-bool": (ScenarioTriple, (np.bool_(False), 0.5, ONE)),
    "s-bytes": (ScenarioTriple, (0.5, b"0.5", ONE)),
    "s-numpy-str": (ScenarioTriple, (0.5, np.str_("0.5"), ONE)),
    "t-0-d-bool-array": (ScenarioTriple, (np.array(True), 0.5, ONE)),
    "p-str": (OutcomeDistribution, (["0.5", "0.5"],)),
    "p-bool": (OutcomeDistribution, ((0.0, True),)),
    "p-numpy-str": (OutcomeDistribution, ([0.5, np.str_("0.5")],)),
    "p-bool-array": (OutcomeDistribution, (np.array([True, False]),)),
    "p-str-array": (OutcomeDistribution, (np.array(["0.5", "0.5"]),)),
    "p-0-d-bool-arrays": (OutcomeDistribution, ([np.array(True), 0.0],)),
    "dichotomic-t-str": (check_dichotomic, (0.5, "0.5", 0.5)),
    "dichotomic-p-bool": (check_dichotomic, (True, 0.5, 0.5)),
    "dichotomic-s-numpy-bool": (check_dichotomic, (0.5, 0.5, np.bool_(True))),
    "ts-region-t-str": (check_ts_region, ("0.5", 0.5, 2)),
    "ts-region-s-bool": (check_ts_region, (0.5, True, 2)),
}


@pytest.mark.parametrize(
    "build, args", NON_NUMBER_PROBABILITIES.values(), ids=NON_NUMBER_PROBABILITIES.keys()
)
def test_bool_and_str_probabilities_refused(build, args):
    # float() reads each of these as a number; a probability given as one is an input error.
    with pytest.raises(ValueError):
        build(*args)



@pytest.mark.parametrize(
    "dist", [[0.5, 0.5], (0.5, 0.5), None, {0: 0.5, 1: 0.5}], ids=["list", "tuple", "None", "dict"]
)
def test_scenario_refuses_a_dist_that_is_not_a_distribution(dist):
    # Accepted, it raised AttributeError only later, in the checkers and builders.
    with pytest.raises(ValueError, match=f"OutcomeDistribution, got {type(dist).__name__}"):
        ScenarioTriple(0.5, 0.5, dist)


def test_numeric_probability_types_accepted():
    dist = OutcomeDistribution(np.array([1, 0]))
    assert dist.probs == (1.0, 0.0) and type(dist.probs[0]) is float
    sc = ScenarioTriple(np.float32(0.5), 1, OutcomeDistribution([np.int64(1), np.float32(0.0)]))
    assert (sc.t, sc.s, sc.dist.probs) == (0.5, 1.0, (1.0, 0.0))
    assert type(sc.t) is float and type(sc.s) is float
    # 0-d arrays are judged by their dtype: numbers pass.
    sc = ScenarioTriple(np.array(0.5), np.array(1), OutcomeDistribution([np.array(1.0), 0]))
    assert (sc.t, sc.s, sc.dist.probs) == (0.5, 1.0, (1.0, 0.0))
    # The type scan reads an iterator's entries once, so none are lost.
    assert OutcomeDistribution(x for x in (0.5, 0.5)).probs == (0.5, 0.5)


class TestGeneralized:
    def test_always_feasible(self, rng):
        assert check_generalized(scenario(0.0, 0.9, (0.2,) * 5)).feasible
        assert check_generalized(scenario(1.0, 0.01, (1.0,))).feasible
        for _ in range(200):
            sc = random_scenario(rng)
            assert check_generalized(sc).feasible


class TestTsRegion:
    def test_polarizer_boundary(self):
        for n in (2, 3, 17):
            assert check_ts_region(0.0, 0.5, n).feasible
        assert not check_ts_region(0.0, 0.51, 100).feasible

    def test_lower_bound_exact(self):
        assert check_ts_region(0.8, 0.2, 4).feasible
        assert not check_ts_region(0.8, 0.19, 4).feasible

    def test_raw_feasible_implies_region_feasible(self, rng):
        for _ in range(2000):
            sc = random_scenario(rng)
            if check_projective_raw(sc).feasible:
                assert check_ts_region(sc.t, sc.s, sc.n).feasible

    def test_input_validation(self):
        with pytest.raises(ValueError):
            check_ts_region(1.5, 0.5, 2)
        with pytest.raises(ValueError):
            check_ts_region(0.5, 0.0, 2)
        with pytest.raises(ValueError):
            check_ts_region(0.5, 0.5, 0)
        # n counts outcomes: NaN, inf, a fraction or a bool is refused, not read as a number.
        for n in (math.nan, math.inf, 2.5, 2.0, True):
            with pytest.raises(ValueError, match="not an integer"):
                check_ts_region(0.5, 0.5, n)
            with pytest.raises(ValueError, match="not an integer"):
                emit_ts_region(n, 4)
            with pytest.raises(ValueError, match="not an integer"):
                witness_distribution(0.5, 0.5, n)


class TestTernaryDisk:
    @pytest.mark.parametrize(
        "probs,inside",
        [
            ((1 / 3, 1 / 3, 1 / 3), True),
            ((0.6, 0.2, 0.2), True),
            ((0.7, 0.15, 0.15), False),
            ((0.5, 0.5, 0.0), True),  # side midpoint, boundary
            ((1.0, 0.0, 0.0), False),
        ],
    )
    def test_examples(self, probs, inside):
        assert check_ternary_disk(OutcomeDistribution(probs)) is inside

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            check_ternary_disk(OutcomeDistribution((0.5, 0.5)))

    def test_matches_raw_maximized_over_s(self, rng):
        # Disk membership == feasibility at T=0 for some S: scan an S grid
        # and include the analytic optimum S = 1/D_1/2.
        s_grid = np.linspace(1e-4, 1.0, 10_000)
        for _ in range(300):
            dist = random_distribution(rng, n=3, allow_zeros=True)
            disk = check_ternary_disk(dist)
            d_half = np.sqrt(dist.probs).sum() ** 2
            s_values = np.append(s_grid, min(1.0, 1.0 / d_half))
            p_tiled = np.tile(np.asarray(dist.probs), (s_values.size, 1))
            slacks = projective_raw_slack_arrays(
                np.zeros_like(s_values), s_values, p_tiled
            )
            attainable = bool(
                (np.minimum.reduce(list(slacks.values())) >= -1e-12).any()
            )
            assert disk == attainable


class TestDichotomic:
    @pytest.mark.parametrize(
        "p,t,s,feasible",
        [
            (0.5, 0.0, 0.5, True),
            (0.5, 0.0, 0.6, False),
            (1.0, 1.0, 1.0, True),
        ],
    )
    def test_examples(self, p, t, s, feasible):
        assert check_dichotomic(p, t, s).feasible is feasible

    def test_agrees_with_raw(self, rng):
        for _ in range(1000):
            p = float(rng.random())
            t = float(rng.random())
            s = float(rng.uniform(1e-3, 1.0))
            raw = check_projective_raw(scenario(t, s, (p, 1.0 - p)))
            assert check_dichotomic(p, t, s).feasible == raw.feasible

    def test_slacks_equal_the_region_kernel_bit_for_bit(self):
        # check_dichotomic is the chain checker on (p, 1 - p); the pt and ps maps use
        # dichotomic_slacks.  The two share no code, so this keeps them pinned together.
        rng = np.random.default_rng(1501)
        corners = np.array(
            [(p, t, s) for p in (0.0, 0.5, 1.0) for t in (0.0, 1.0, 0.3)
             for s in (5e-324, 1e-310, 0.5, 1.0)]
        )
        draws = rng.random((3000, 3))
        draws[:, 2] = 1.0 - draws[:, 2]  # s in (0, 1]
        draws[:300, 2] *= 1e-308  # subnormal s, where T/S overflows
        p, t, s = np.concatenate([corners, draws]).T
        kernel = dichotomic_slacks(p, t, s)
        for i, args in enumerate(zip(p.tolist(), t.tolist(), s.tolist())):
            slack = check_dichotomic(*args).slack
            assert list(slack) == list(kernel), args
            got = np.array(list(slack.values()))
            want = np.array([arr[i] for arr in kernel.values()])
            assert got.tobytes() == want.tobytes(), (args, got, want)


class TestConeDecomposition:
    def test_uniform_three_outcomes(self):
        dec = cone_decompose(OutcomeDistribution((1 / 3, 1 / 3, 1 / 3)))
        assert np.allclose(dec.lambdas, math.sqrt(1 / 3) / 2, atol=1e-12)

    def test_n1_refused(self):
        # One ray, and sqrt(P) = (1) breaks its polygon inequality.
        with pytest.raises(ValueError, match="needs n >= 2"):
            cone_decompose(OutcomeDistribution((1.0,)))

    def test_n2_degenerate(self):
        with pytest.raises(SingularSystem):
            cone_decompose(OutcomeDistribution((0.5, 0.5)))

    def test_polygon_violation(self):
        with pytest.raises(PolygonViolation):
            cone_decompose(OutcomeDistribution((0.7, 0.15, 0.15)))

    def test_round_trip(self, rng):
        for _ in range(500):
            n = int(rng.integers(3, 8))
            dist = random_distribution(rng, n=n)
            sq = np.sqrt(dist.probs)
            if sq.max() > sq.sum() - sq.max():
                continue
            dec = cone_decompose(dist)
            rays = np.ones((n, n)) + (2.0 - n) * np.eye(n)
            assert np.max(np.abs(rays @ np.array(dec.lambdas) - sq)) <= 1e-10
            assert min(dec.lambdas) >= -1e-12


class TestWitnessDistribution:
    def test_polarizer_case(self):
        assert witness_distribution(0.0, 0.5, 2).probs == pytest.approx((0.5, 0.5))

    def test_identity_case(self):
        assert witness_distribution(1.0, 1.0, 2).probs == pytest.approx((1.0, 0.0))

    def test_reduction_case(self):
        dist = witness_distribution(0.6, 0.15, 4)
        assert check_projective_raw(scenario(0.6, 0.15, dist.probs)).feasible

    def test_single_outcome(self):
        # One outcome forces S = T; (0.3, 0.4) lies in the (T, S) region for n = 1 even so.
        assert witness_distribution(0.3, 0.3, 1).probs == (1.0,)
        with pytest.raises(RegionViolation, match="n = 1 requires S = T"):
            witness_distribution(0.3, 0.4, 1)

    def test_outside_region(self):
        with pytest.raises(RegionViolation):
            witness_distribution(0.0, 0.6, 2)
        with pytest.raises(RegionViolation):
            witness_distribution(0.9, 0.2, 4)

    def test_region_nonempty_everywhere(self, rng):
        # Every point of the (T, S) region is realized by some distribution.
        for _ in range(2000):
            n = int(rng.integers(2, 7))
            t = float(rng.random())
            s = float(rng.uniform(max(t / n, 1e-6), (t + 1.0) / 2.0))
            if not check_ts_region(t, s, n).feasible:
                continue
            dist = witness_distribution(t, s, n)
            assert dist.n == n
            assert check_projective_raw(ScenarioTriple(t, s, dist)).feasible
