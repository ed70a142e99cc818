import math
from decimal import Decimal

import numpy as np
import pytest

import reference
from postselect import (
    EPS_FEAS,
    EPS_PROB,
    OutcomeDistribution,
    ScenarioTriple,
    check_dichotomic,
    check_generalized,
    check_projective_chain,
    check_projective_raw,
    check_ternary_disk,
    check_ts_region,
    cone_decompose,
    construct_projective,
    emit_ts_region,
    evaluate_witness,
    witness_distribution,
)
from postselect.errors import PolygonViolation, RegionViolation, SingularSystem
from postselect.feasibility import (
    MAX_OUTCOME_POLYGON,
    S_BOUND,
    LOWER_CHAIN,
    _row_sum,
    _verdict,
    chain_slacks,
    dichotomic_slacks,
    projective_raw_slack_arrays,
)
from conftest import NON_REAL, column_sums, random_distribution, random_scenario


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


def long_tailed(rng, n):
    """Dirichlet(1/2) P on n outcomes in descending order, so that a left-to-right
    sum of sqrt(P) adds its many small roots to a large partial sum."""
    return OutcomeDistribution(np.sort(rng.dirichlet(np.full(n, 0.5)))[::-1].tolist())


def face_s(dist):
    """S on the SBound face, 1/(sum_k sqrt(P(k)))^2, with the sum correctly rounded."""
    return 1.0 / math.fsum(map(math.sqrt, dist.probs)) ** 2


class TestExactRootSums:
    """The checkers' and cone_decompose's sums of sqrt(P) do not depend on summation order."""

    @pytest.mark.parametrize("n, draws", [(10**3, 4), (10**4, 2), (10**5, 1)])
    def test_slacks_match_the_60_digit_reference(self, n, draws):
        # Summed left to right, the slacks were off by up to 7e-13 at n = 10**4 and
        # 4.6e-12 at 10**5, more than EPS_FEAS itself.
        rng = np.random.default_rng(n)
        for _ in range(draws):
            dist = long_tailed(rng, n)
            t, s = float(rng.uniform()), face_s(dist)
            sc = ScenarioTriple(t, s, dist)
            roots = reference.roots(dist.probs)
            want = reference.chain_slacks(t, s, roots)
            # The raw form's smallest polygon slack is the largest outcome's, LowerChain.
            raw = check_projective_raw(sc).slack
            raw[LOWER_CHAIN] = raw.pop(MAX_OUTCOME_POLYGON)
            for got in (raw, check_projective_chain(sc).slack):
                assert set(got) == set(want)
                for tag, value in got.items():
                    assert abs(Decimal(value) - want[tag]) <= Decimal(EPS_FEAS) / 10, (n, tag)
            # cone_decompose's lambda_m is (sum_k sqrt(P(k)) - 2 sqrt(P(m))) / (2 (n - 2)).
            lambdas, total = cone_decompose(dist), sum(roots)
            for m in (0, n - 1):
                got = Decimal(lambdas[m]) * (2 * (n - 2))
                assert abs(got - (total - 2 * roots[m])) <= Decimal(EPS_FEAS) / 10, (n, m)

    def test_face_triples_are_accepted_and_built(self):
        # T = S on the SBound face at n = 10**5; the exact slacks lie within 2.5e-14 of 0.
        # Summed left to right, draws 1, 4, 5 and 7 read -3.2e-12 to -1.3e-12 and were
        # refused.  Building takes about 0.1 s at this n, so the first two are built.
        rng = np.random.default_rng(18)
        for i in range(8):
            dist = long_tailed(rng, 10**5)
            s = face_s(dist)
            sc = ScenarioTriple(s, s, dist)
            assert check_projective_raw(sc).feasible and check_projective_chain(sc).feasible, i
            if i < 2:
                out = evaluate_witness(construct_projective(sc))
                assert out.t == pytest.approx(s, abs=1e-9) and out.s == pytest.approx(s, abs=1e-9)


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
        # Sums in index order from 0.0, as `_row_sum` adds; maxima along the row axis.
        rng = np.random.default_rng(700 + n)
        t = rng.uniform(0.0, 1.0, 3000)
        s = rng.uniform(1e-3, 1.0, 3000)
        probs = rng.dirichlet(np.ones(n), 3000)
        probs[:300, rng.integers(n)] = 0.0  # zero entries, as zeroed outcomes give
        sq = np.sqrt(probs)
        want = chain_slacks(np.sqrt(t / s), column_sums(sq), sq.max(axis=1), np.sqrt(s))
        got = projective_raw_slack_arrays(t, s, probs)
        assert list(got) == list(want)
        for tag in want:
            assert got[tag].tobytes() == want[tag].tobytes(), tag

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_row_sum_adds_columns_in_order(self, dtype):
        # At every width, NumPy's pairwise axis sum included (8 scalars and up).
        rng = np.random.default_rng(1901)
        for k in [*range(1, 10), 16, 64]:
            a = np.zeros((200, k), dtype=dtype)
            a.real = rng.standard_normal((200, k)) * np.exp(8 * rng.standard_normal((200, k)))
            if dtype is complex:
                a.imag = rng.standard_normal((200, k)) * np.exp(8 * rng.standard_normal((200, k)))
            got = _row_sum(a)
            assert got.shape == (200,) and not np.shares_memory(got, a)
            assert got.tobytes() == column_sums(a).tobytes(), f"width {k}"
        zeros = np.full((3, 2), -0.0, dtype=dtype)
        assert _row_sum(zeros).tobytes() == np.zeros(3, dtype=dtype).tobytes()

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
         ((0.5, 0.5 + 2e-12), r"^probabilities sum to 1\.000000000002, not 1$")],
        ids=["sum-1.1", "empty", "sum-off-by-2e-12"],
    )
    def test_distribution_refused(self, probs, message):
        with pytest.raises(ValueError, match=message):
            OutcomeDistribution(probs)

    def test_long_distribution_summed_exactly(self):
        # Summed left to right these add up to 0.999999999998641, 1.4e-12 short of 1, and
        # with 2e-12 more in the first entry to 1.000000000000641, within EPS_PROB.
        probs = [0.5] + [0.5 / 29999] * 29999
        assert abs(reference.probability_total(probs) - 1) <= Decimal(EPS_PROB)
        assert OutcomeDistribution(probs).n == 30000
        probs[0] += 2e-12
        assert abs(reference.probability_total(probs) - 1) > Decimal(EPS_PROB)
        with pytest.raises(ValueError, match=r"^probabilities sum to 1\.000000000002, not 1$"):
            OutcomeDistribution(probs)

    def test_distribution_length_is_its_outcome_count(self):
        assert len(OutcomeDistribution((0.5, 0.25, 0.25, 0.0))) == 4


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
    **{f"t-{k}": (ScenarioTriple, (v, 0.5, ONE)) for k, v in NON_REAL.items()},
    **{f"p-{k}": (OutcomeDistribution, ([v, 0.5],)) for k, v in NON_REAL.items()},
}


@pytest.mark.parametrize(
    "build, args", NON_NUMBER_PROBABILITIES.values(), ids=NON_NUMBER_PROBABILITIES.keys()
)
def test_bool_and_str_probabilities_refused(build, args):
    # float() reads each of these as a number (a complex scalar as its real part, with a
    # ComplexWarning, which the test run turns into an error) or raises TypeError for it;
    # a probability given as one is an input error.
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
        lambdas = cone_decompose(OutcomeDistribution((1 / 3, 1 / 3, 1 / 3)))
        assert np.allclose(lambdas, math.sqrt(1 / 3) / 2, atol=1e-12)

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
            lambdas = cone_decompose(dist)
            rays = np.ones((n, n)) + (2.0 - n) * np.eye(n)
            assert np.max(np.abs(rays @ np.array(lambdas) - sq)) <= 1e-10
            assert min(lambdas) >= -1e-12


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
        for t, s in ((0.3, 0.4), (0.5, 0.5 + 5e-10)):  # the second: within 1e-9, not EPS_FEAS
            with pytest.raises(RegionViolation, match="n = 1 requires S = T"):
                witness_distribution(t, s, 1)

    def test_outside_region(self):
        with pytest.raises(RegionViolation):
            witness_distribution(0.0, 0.6, 2)
        with pytest.raises(RegionViolation):
            witness_distribution(0.9, 0.2, 4)

    def test_boundary_sweep_passes_the_checker(self):
        # S at T(1 - delta), T(1 + delta), (T + 1)/2 (1 - delta), 1/2 (1 +- delta) and T/n
        # for n = 1..7, delta log-uniform in [1e-15, 1e-3].  With b = cos^2(alpha - acos(.))
        # and a = (1 - b)/(k - 1), 1 - p taken as 1.0 - p and n = 1 accepted at |T - S| <= 1e-9,
        # 931 of the 9,555 distributions returned failed the checker.
        rng = np.random.default_rng(2301)
        returned = unit = 0
        for n in range(1, 8):
            for _ in range(300):
                t, delta = rng.uniform(1e-6, 1.0), 10.0 ** rng.uniform(-15, -3)
                half = 0.5 * (1.0 + delta * rng.choice([-1.0, 1.0]))
                upper = (t + 1) / 2 * (1 - delta)
                for s in (t * (1 - delta), min(1.0, t * (1 + delta)), upper, half, t / n):
                    try:
                        dist = witness_distribution(t, s, n)
                    except RegionViolation:
                        continue
                    returned += 1
                    verdict = check_projective_raw(ScenarioTriple(t, s, dist))
                    assert verdict.feasible, (t, s, n, dist.probs, verdict.slack)
                    # The target <= 1 + 1e-12 branch: S < T and P = (1, 0, ..., 0).
                    unit += s < t and dist.probs == (1.0,) + (0.0,) * (n - 1)
        assert (returned, unit) == (9472, 581)

    @pytest.mark.parametrize(
        "t, s", [(0.9999883686853374, 0.9999941638810815), (0.9999284307288342, 0.999964215234575)]
    )
    def test_small_outcome_kept_near_the_upper_line(self, t, s):
        # S just below (T + 1)/2 near T = 1, found by a seeded search: with 1 - p taken
        # as 1.0 - p, the small outcome lost its last bits and the polygon check failed.
        dist = witness_distribution(t, s, 2)
        assert check_projective_raw(ScenarioTriple(t, s, dist)).feasible

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
