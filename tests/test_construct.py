import math
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postselect import (
    EPS_PROB,
    GeneralizedWitness,
    OutcomeDistribution,
    ScenarioTriple,
    check_projective_raw,
    close_polygon,
    construct_generalized,
    construct_projective,
    evaluate_witness,
    factor_amplitudes,
)
from postselect import construct, core
from postselect.construct import EPS_CLOSE, _factor_real
from postselect.errors import (
    ClosureFailure,
    DegeneratePostselection,
    InfeasibleScenario,
    NormViolation,
    PolygonViolation,
)
from conftest import (
    NON_REAL,
    NON_REAL_PARAMS,
    REFERENCE_BOUND,
    random_distribution,
    random_feasible_scenario,
    random_scenario,
    reference_deviation,
    triple_deviation,
)


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
        assert np.allclose(np.abs(closed), xs, atol=1e-11)
        assert abs(sum(closed)) <= 1e-10 * max(1.0, total)

    @pytest.mark.parametrize(
        "xs",
        [
            [0.3, 0.3, 0.3, 0.3],
            [1.0, 2.0, 1.0, 2.0, 1.0, 1.0],
            [0.5, 0.25, 0.25],
            [1.0, 2.0, 1.0, 4.0],
            [1.0 + 0.5e-12, 0.5, 0.5],
            [0.5, 1.0 + 0.5e-12, 0.5],
            [0.0, 0.0, 0.0],
            [0.0],
            [0.7, 0.7],
            [0.3, 0.4, 0.5],
            [1.0] + [1e-3] * 1000,
            [1e-3] * 500 + [1.0] + [1e-3] * 500,
            [1e-300] * 3,
            [5e-324] * 3,
            [1e-13] * 3,
            [1e-13, 0.0, 1e-13],
        ],
        ids=[
            "ties", "tied-pairs", "half", "half-last", "half-within-tol", "half-within-tol-second",
            "zeros", "n1", "n2", "n3", "large-then-tiny", "tiny-large-tiny",
            "subnormal-scale", "least-subnormal", "tiny-ties", "tiny-pair-with-zero",
        ],
    )
    def test_split_cases(self, xs):
        # Each group sum is at most half the total, so the three edges always close.
        closed = close_polygon(xs)
        assert np.allclose(np.abs(closed), xs, rtol=1e-15, atol=0.0)
        assert abs(sum(closed)) <= EPS_CLOSE * max(1.0, sum(xs))

    @pytest.mark.parametrize(
        "xs",
        [
            [1e-13] * 3,
            [1e-13, 0.0, 1e-13],
            [1e-300] * 3,
            [1e-170, 1e-170, 1.5e-170],
            [1e160] * 3,
            [1e300] * 3,
        ],
        ids=["ties", "pair-with-zero", "ties-1e-300", "needle-1e-170", "ties-1e160", "ties-1e300"],
    )
    def test_tiny_magnitudes_close(self, xs):
        # Magnitudes below EPS_FEAS still get the half-angle turn, so the sum closes
        # relative to the perimeter, not only within the absolute EPS_CLOSE.  Far from
        # 1 the turn's products would underflow (below ~1e-162) or overflow (from
        # ~1e154) unless the sides are scaled first.
        assert abs(sum(close_polygon(xs))) <= 1e-15 * sum(xs)

    def test_degenerate_pair(self):
        closed = close_polygon([0.7, 0.7])
        assert abs(sum(closed)) <= 1e-12

    def test_all_zero(self):
        assert np.allclose(np.abs(close_polygon([0.0, 0.0, 0.0])), 0.0)

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

    @pytest.mark.parametrize("xs", [[1e308, 1e308], [1e308] * 3], ids=["two", "three"])
    def test_rejects_overflowing_sum(self, xs):
        # Each magnitude is finite but their sum is inf, which would pass the
        # pre-check and the residual bound and return an open polygon.
        with pytest.raises(ValueError, match="finite"):
            close_polygon(xs)

    @pytest.mark.parametrize(
        "xs",
        [
            ["0.5", "0.5"],
            [True, True],
            [0.5, False, 0.5],
            [np.bool_(True), 1.0],
            np.array([1, 1], dtype=bool),
            [np.array(True), np.array(True)],
        ],
        ids=["strings", "bools", "bool-among-floats", "np-bool", "bool-array", "0-d-bool-arrays"],
    )
    def test_rejects_bools_and_strings(self, xs):
        with pytest.raises(ValueError, match="numbers with a finite sum"):
            close_polygon(xs)

    @pytest.mark.parametrize("bad", NON_REAL_PARAMS)
    @pytest.mark.parametrize("where", [0, 1])
    def test_rejects_non_real(self, bad, where):
        # Scanned before float(), which reads a NumPy complex as its real part (with a
        # ComplexWarning) and raises TypeError for None, a complex or an object.
        xs = [0.5, 0.5]
        xs[where] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="numbers with a finite sum"):
                close_polygon(xs)

    def test_reads_arrays_and_iterables(self):
        want = close_polygon([0.5, 0.3, 0.4])
        zero_d = [np.array(0.5), np.array(0.3), np.array(0.4)]
        for xs in (np.array([0.5, 0.3, 0.4]), (0.5, 0.3, 0.4), iter([0.5, 0.3, 0.4]), zero_d):
            assert close_polygon(xs) == want

    def test_residual_scales_with_total(self):
        # Seeded input (n = 284, total 2e4) whose roundoff residual, about
        # 1.1e-11, exceeds the absolute EPS_CLOSE.
        rng = np.random.default_rng(1152)
        xs = rng.dirichlet(np.ones(int(rng.integers(200, 301)))) * 2e4
        closed = close_polygon(xs)
        assert np.allclose(np.abs(closed), xs, rtol=1e-13, atol=0.0)
        assert abs(sum(closed)) <= EPS_CLOSE * sum(xs)


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

    def test_head_entries_are_square_roots(self, rng):
        # The peeling rescalings telescope: every entry but the two largest is sqrt(r_k).
        for n in (2, 3, 7, 40):
            rs = sorted((rng.dirichlet(np.ones(n)) * rng.uniform(0.1, 1.0)).tolist())
            psi, phi = _factor_real(rs)
            head = [math.sqrt(x) for x in rs[:-2]]
            assert psi[:-2] == head and phi[:-2] == head
            assert math.fsum(x * x for x in psi) == pytest.approx(1.0, abs=1e-14)
            assert math.fsum(x * x for x in phi) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n", [1200, 5000])
    def test_long_vectors(self, rng, n):
        # Closed form, no recursion: n beyond the interpreter's recursion limit.
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

    @pytest.mark.parametrize(
        "zs",
        [["0.25", "0.25"], [True, False], [0.25, np.bool_(False)], np.array([True, True]), [b"0"],
         [0.25, np.array(False)]],
        ids=["strings", "bools", "np-bool-among-floats", "bool-array", "bytes",
             "0-d-bool-array-among-floats"],
    )
    def test_rejects_bools_and_strings(self, zs):
        with pytest.raises(ValueError, match="not bools or strings"):
            factor_amplitudes(zs)

    @pytest.mark.parametrize("bad", ["None", "object"])
    @pytest.mark.parametrize("where", [0, 1])
    def test_rejects_non_numbers(self, bad, where):
        # Judged before the complex conversion, which reads None as NaN and raises
        # TypeError for an object; the message names the input, not its conversion.
        zs = [0.5, 0.25]
        zs[where] = NON_REAL[bad]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"must be numbers.*(None|<object)"):
                factor_amplitudes(zs)

    def test_reads_complex_arrays(self):
        z = np.array([0.25, 0.25j, -0.1])
        for zs in (z, z.tolist(), tuple(z), z[:, None]):
            psi, phi = factor_amplitudes(zs)
            assert np.max(np.abs(psi.conj() * phi - z)) <= 1e-12

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


WIDE_N = 1000


def wide_uniform_scenario():
    """Uniform P on WIDE_N outcomes, inside the region (S <= 1/D_1/2 = 1/n)."""
    s = 0.5 / WIDE_N
    return ScenarioTriple(0.15, s, OutcomeDistribution(np.full(WIDE_N, 1.0 / WIDE_N)))


@pytest.fixture
def no_stack(monkeypatch):
    """Fail the test if any labelled witness builds its (n, d, d) projector stack."""

    def refuse(labels, n):
        raise AssertionError(f"({n}, {labels.size}, {labels.size}) projector stack built")

    monkeypatch.setattr(core, "_diagonal_projectors", refuse)


class TestWideProjective:
    """A built witness at n = 1000 keeps its labels: O(n) memory, no stack."""

    def test_build_and_evaluate(self, no_stack):
        sc = wide_uniform_scenario()
        tracemalloc.start()
        try:
            w = construct_projective(sc)
            out = evaluate_witness(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20
        assert w.n_outcomes == WIDE_N and w.dimension == WIDE_N
        assert triple_deviation(out, sc) <= 1e-9

    def test_swapped_keeps_labels(self, no_stack):
        w = construct_projective(wide_uniform_scenario())
        v = w.swapped()
        assert np.array_equal(v.labels, w.labels) and v.n_outcomes == w.n_outcomes
        assert np.array_equal(v.psi, w.phi) and np.array_equal(v.phi, w.psi)
        a, b = evaluate_witness(w), evaluate_witness(v)
        assert abs(a.t - b.t) <= 1e-12 and abs(a.s - b.s) <= 1e-12
        assert np.allclose(a.dist.probs, b.dist.probs, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [200, WIDE_N])
def test_wide_generalized_is_a_qubit(n):
    # The (n, n, n) Kraus stack peaked at 306 MiB at n = 200; the qubit form is O(n).
    sc = ScenarioTriple(0.15, 0.5 / n, OutcomeDistribution(np.full(n, 1.0 / n)))
    tracemalloc.start()
    try:
        w = construct_generalized(sc)
        out = evaluate_witness(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert w.dimension == 2 and w.operators.shape == (n, 2, 2)
    assert triple_deviation(out, sc) <= 1e-9


@pytest.mark.parametrize("build", [construct_projective, construct_generalized])
def test_numerically_zero_success_probability_refused(build):
    # evaluate_witness rejects S <= EPS_PROB, so no builder may hand out such a witness.
    for s in (5e-324, 1e-20, EPS_PROB):
        with pytest.raises(DegeneratePostselection):
            build(ScenarioTriple(s, s, OutcomeDistribution((1.0,))))
    sc = ScenarioTriple(2e-12, 2e-12, OutcomeDistribution((1.0,)))
    assert_reproduces(sc, build(sc), tol=1e-12)


class TestConstructGeneralized:
    """numpy_generalized, below, is the one reference that the builder is compared with."""

    def test_zeroed_outcomes_match_numpy_form_bytewise(self):
        # Bytes pin the sign of every zero: a -0.0 would print as -0.0 in a witness file.
        rng = np.random.default_rng(1801)
        negative, zeroed = 0, 0
        for _ in range(3000):
            n = int(rng.integers(1, 7))
            sc = random_scenario(rng, n=n, allow_zeros=n > 1)
            got = assert_matches_numpy_form(sc)
            assert got.operators.shape == (n, 2, 2)
            # Column 0 of V_k is phi' sqrt(P(k)): a zero outcome times a negative phi'
            # entry is where a plain product would write -0.0.
            if 0.0 in sc.dist.probs:
                zeroed += 1
                negative += bool((got.operators[:, :, 0].real < 0.0).any())
        assert negative > 100 and zeroed > 200, (negative, zeroed)

    def test_edge_families_match_numpy_form(self):
        # numpy_rotate is one Gram-Schmidt step against a basis vector. Families:
        # one-hot P, P with its first n // 2 outcomes zeroed, S = 1 and T in {0, 1}.
        rng = np.random.default_rng(1601)
        scenarios = []
        for n in range(1, 7):
            one_hot = np.eye(n)[int(rng.integers(n))]
            dists = [OutcomeDistribution(one_hot)]
            if n > 1:
                dists += [random_distribution(rng, n=n, allow_zeros=True) for _ in range(60)]
                zeroed = np.array(dists[-1].probs)
                zeroed[: n // 2] = 0.0
                dists.append(OutcomeDistribution(zeroed / zeroed.sum()))
            for dist in dists:
                t, s = float(rng.random()), 1e-6 + (1.0 - 1e-6) * float(rng.random())
                scenarios += [ScenarioTriple(t, s, dist), ScenarioTriple(t, 1.0, dist)]
            scenarios += [ScenarioTriple(t, s, dists[-1]) for t in (0.0, 1.0) for s in (0.3, 1.0)]
        assert sum(0.0 in sc.dist.probs for sc in scenarios) > 50
        for sc in scenarios:
            assert assert_matches_numpy_form(sc) is not None, sc

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

    def test_zero_probability_outcome_leaves_phi_post(self):
        # A zero outcome needs no special operator: V_1 = |phi'><a_1| like the
        # others, completeness holds, and the outcome's amplitude is exactly 0.
        sc = ScenarioTriple(0.2, 0.4, OutcomeDistribution((0.7, 0.0, 0.3)))
        w = construct_generalized(sc)
        psi = np.asarray(w.psi)
        phi_post = w.kraus[0] @ psi / math.sqrt(0.7)
        assert abs(np.linalg.norm(phi_post) - 1.0) <= 1e-12
        assert abs(abs(np.vdot(w.phi, phi_post)) ** 2 - sc.s) <= 1e-12
        for k, v in enumerate(w.kraus):
            # Rank one: V_k = phi' a_k^T, with a_k = phi'^dag V_k and a_k[0] = sqrt(P(k)).
            a_k = phi_post.conj() @ v
            assert np.max(np.abs(v - np.outer(phi_post, a_k))) <= 1e-12
            assert abs(a_k[0] - math.sqrt(sc.dist[k])) <= 1e-12
        assert not (w.kraus[1] @ psi).any()
        assert evaluate_witness(w).dist.probs[1] == 0.0
        assert_reproduces(sc, w, tol=1e-12)

    def test_post_measurement_collinearity(self, rng):
        # All outcomes leave the system in the same pure state: for n >= 2 every
        # V_k is phi' times a row vector a_k^T (rank one) with one phi' for all k,
        # zero-probability outcomes included, whose amplitude is exactly 0; the
        # one outcome of n = 1 is a unitary on a qubit.
        scenarios = [random_scenario(rng, allow_zeros=True) for _ in range(100)]
        scenarios += [
            ScenarioTriple(t, s, OutcomeDistribution((1.0,)))
            for t, s in ((0.0, 0.5), (0.3, 1.0), (1.0, 0.2))
        ]
        assert any(0.0 in sc.dist.probs for sc in scenarios)
        for sc in scenarios:
            w = construct_generalized(sc)
            psi = np.asarray(w.psi)
            assert w.dimension == 2 and w.operators.shape == (sc.n, 2, 2)
            if sc.n == 1:
                v = w.kraus[0]
                assert np.max(np.abs(v.conj().T @ v - np.eye(2))) <= 1e-12
                continue
            live = [k for k in range(sc.n) if sc.dist[k] > 0.0]
            phi_post = w.kraus[live[0]] @ psi
            phi_post /= np.linalg.norm(phi_post)
            for k, v in enumerate(w.kraus):
                assert np.max(np.abs(v - np.outer(phi_post, phi_post.conj() @ v))) <= 1e-12
                out = v @ psi
                if k in live:
                    assert abs(abs(np.vdot(phi_post, out / np.linalg.norm(out))) - 1.0) <= 1e-10
                else:  # a zero outcome never occurs
                    assert not out.any()


class TestBuilderChecks:
    """construct_projective hands its own floats to the closure and factorization cores,
    which keep the checks that the public close_polygon and factor_amplitudes run."""

    SC = ScenarioTriple(0.3, 0.2, OutcomeDistribution((0.6, 0.3, 0.1)))

    def test_open_polygon_refused(self, monkeypatch):
        # With no turn, B runs along A and C against both: the sum is A + B - C, not 0.
        no_turn = types.SimpleNamespace(**{**vars(math), "atan2": lambda y, x: 0.0})
        monkeypatch.setattr(construct, "math", no_turn)
        with pytest.raises(ClosureFailure, match="closure residual"):
            construct_projective(self.SC)

    def test_factorization_residual_refused(self, monkeypatch):
        exact = construct._factor_real

        def perturbed(rs):
            psi, phi = exact(rs)
            return [x + 1e-6 for x in psi], phi

        monkeypatch.setattr(construct, "_factor_real", perturbed)
        with pytest.raises(ClosureFailure, match="factorization residual"):
            construct_projective(self.SC)


def edge_scenarios(rng, count, n_max):
    """Seeded projectively feasible scenarios from n = 2 to n_max, drawn to sit on edges.

    P has zero entries in about 30 % of draws, S is 1/D_1/2 (or a hair below it)
    half the time, and T is 0 or 1 half the time; draws the raw checker refuses
    are skipped.
    """
    scenarios = []
    while len(scenarios) < count:
        n = int(np.exp(rng.uniform(math.log(2), math.log(n_max + 1))))
        dist = random_distribution(rng, n=n, allow_zeros=True)
        sq = np.sqrt(dist.probs)
        s_top = 1.0 / float(sq.sum()) ** 2
        s = s_top * float(rng.choice([1.0, 1.0 - 1e-12, rng.uniform(1e-3, 1.0), rng.uniform(1e-3, 1.0)]))
        lower = max(0.0, 2.0 * float(sq.max()) - float(sq.sum()))
        t_inside = min(1.0, float(rng.uniform(lower, sq.sum())) ** 2 * s)
        t = float(rng.choice([0.0, 1.0, t_inside, t_inside]))
        sc = ScenarioTriple(t, s, dist)
        if check_projective_raw(sc).feasible:
            scenarios.append(sc)
    return scenarios


def test_builder_agrees_with_public_pipeline():
    # The builder skips the public functions' input scans, not their algorithm.
    scenarios = edge_scenarios(np.random.default_rng(2001), 600, 200)
    assert sum(sc.t in (0.0, 1.0) for sc in scenarios) > 100
    assert sum(0.0 in sc.dist.probs for sc in scenarios) > 100
    assert sum(sc.n > 50 for sc in scenarios) > 100
    saturated = 0
    for sc in scenarios:
        xs = [math.sqrt(sc.s * p) for p in sc.dist.probs] + [math.sqrt(sc.t)]
        saturated += math.fsum(xs[:-1]) >= 1.0 - 1e-9
        psi, phi = factor_amplitudes(close_polygon(xs)[: sc.n])
        w = construct_projective(sc)
        assert np.abs(w.psi - psi).max() <= 1e-14, sc
        assert np.abs(w.phi - phi).max() <= 1e-14, sc
        assert reference_deviation(w, evaluate_witness(w)) <= REFERENCE_BOUND, sc
        assert_reproduces(sc, w, tol=1e-9)
    assert saturated > 100


def numpy_rotate(v: np.ndarray, c: float, s: float) -> np.ndarray:
    """The NumPy form of construct._rotate, kept as a reference."""
    k = int(np.abs(v).argmin())
    beta = s / math.sqrt(1.0 - v[k] * v[k])
    out = (c - beta * v[k]) * v
    out[k] += beta
    return out


def numpy_generalized(sc: ScenarioTriple) -> GeneralizedWitness:
    """The NumPy form of construct_generalized, kept as a reference."""
    if sc.s <= EPS_PROB:
        raise DegeneratePostselection(f"success probability {sc.s!r} is numerically zero")
    psi = np.array([1.0, 0.0])
    phi = numpy_rotate(psi, math.sqrt(sc.t), math.sqrt(1.0 - sc.t))
    phi_post = numpy_rotate(phi, math.sqrt(sc.s), math.sqrt(1.0 - sc.s))
    if sc.n == 1:
        # One outcome on a qubit: V_0 = |phi_post><e_0| + |u><e_1|, a unitary.
        kraus = np.stack([phi_post, numpy_rotate(phi_post, 0.0, 1.0)], axis=1)[None]
    else:
        # V_k = |phi_post><a_k|, a_k = (sqrt(P(k)), c_k); + 0.0 writes +0.0 for -0.0.
        roots = np.sqrt(sc.dist.probs)
        a = np.stack([roots, numpy_rotate(roots, 0.0, 1.0)], axis=1)
        kraus = phi_post[None, :, None] * a[:, None, :] + 0.0
    return GeneralizedWitness(psi, phi, kraus)


def assert_matches_numpy_form(sc: ScenarioTriple):
    """Assert that construct_generalized and numpy_generalized give sc the same bytes,
    or both refuse it; return the built witness, or None when refused."""
    try:
        want = numpy_generalized(sc)
    except DegeneratePostselection:
        with pytest.raises(DegeneratePostselection):
            construct_generalized(sc)
        return None
    got = construct_generalized(sc)
    for a, b in ((got.psi, want.psi), (got.phi, want.phi), (got.operators, want.operators)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), sc
    assert_reproduces(sc, got, tol=1e-9)
    return got


def test_generalized_matches_numpy_form_bytewise():
    rng = np.random.default_rng(2002)
    built = refused = zeroed = 0
    for _ in range(2400):
        n = int(rng.integers(1, 9))
        dist = random_distribution(rng, n=n, allow_zeros=n > 1)
        t = float(rng.choice([0.0, 1.0, rng.random(), rng.random()]))
        s = float(rng.choice([1.0, 2e-12, 1e-13, 1e-6 + (1.0 - 1e-6) * rng.random()]))
        sc = ScenarioTriple(t, s, dist)
        if assert_matches_numpy_form(sc) is None:
            refused += 1
            continue
        built += 1
        zeroed += 0.0 in sc.dist.probs
    assert built > 1500 and refused > 300 and zeroed > 200, (built, refused, zeroed)
