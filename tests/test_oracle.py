import numpy as np
import pytest

from postselect import (
    default_rng,
    fuzz_projective,
    oracle_max_s,
    oracle_min_s,
    run_campaign,
    sample_projective,
    sample_state,
    sample_unitary,
)
from postselect.oracle import NBINS, _cell, _grid, _group, _random_labels, merge_reports


class TestSamplers:
    def test_state_is_unit(self, rng):
        for d in (1, 2, 5):
            psi = sample_state(d, rng)
            assert psi.shape == (d,)
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_unitary(self, rng):
        for d in (2, 4):
            u = sample_unitary(d, rng)
            assert np.allclose(u.conj().T @ u, np.eye(d), atol=1e-12)

    def test_unitary_phase_convention_deterministic(self):
        a = sample_unitary(3, default_rng(7))
        b = sample_unitary(3, default_rng(7))
        assert np.array_equal(a, b)

    def test_projective_sets(self, rng):
        for d, n in ((2, 2), (4, 2), (5, 3)):
            projectors = sample_projective(d, n, rng)
            assert len(projectors) == n
            total = sum(projectors)
            assert np.allclose(total, np.eye(d), atol=1e-12)
            for p in projectors:
                assert np.allclose(p @ p, p, atol=1e-12)
                assert np.allclose(p, p.conj().T, atol=1e-12)

    def test_projective_rejects_bad_counts(self, rng):
        with pytest.raises(ValueError):
            sample_projective(2, 3, rng)


class TestPartitions:
    def test_compositions_are_uniform(self):
        labels = _random_labels(60_000, 5, 3, default_rng(11))
        sizes = np.stack([(labels == k).sum(axis=1) for k in range(3)], axis=1)
        compositions, counts = np.unique(sizes, axis=0, return_counts=True)
        assert len(compositions) == 6
        assert np.allclose(counts / 60_000, 1 / 6, atol=0.01)

    @pytest.mark.parametrize("d, n", [(1, 1), (4, 1), (4, 4), (5, 3), (6, 2), (7, 6)])
    def test_groups_are_contiguous_and_non_empty(self, d, n):
        labels = _random_labels(2000, d, n, default_rng(3))
        assert labels.shape == (2000, d)
        # Rows run from 0 to n - 1 in steps of 0 or 1: every group is hit, in order.
        assert (labels[:, 0] == 0).all() and (labels[:, -1] == n - 1).all()
        assert np.isin(np.diff(labels, axis=1), (0, 1)).all()

    @pytest.mark.parametrize("d, n", [(3, 1), (3, 3)])
    def test_fixed_compositions_draw_nothing(self, d, n):
        rng = default_rng(3)
        _random_labels(10, d, n, rng)
        assert rng.random() == default_rng(3).random()

    def test_group_matches_loop(self):
        rng = default_rng(9)
        contrib = rng.standard_normal((50, 6)) + 1j * rng.standard_normal((50, 6))
        labels = _random_labels(50, 6, 3, rng)
        expected = np.zeros((50, 3), dtype=complex)
        for row in range(50):
            for col in range(6):
                expected[row, labels[row, col]] += contrib[row, col]
        # Same additions in the same order, so the sums agree exactly.
        assert np.array_equal(_group(contrib, labels, 3), expected)


class TestFuzz:
    def test_no_violations_small(self, rng):
        for d, n in ((2, 2), (3, 2), (3, 3), (4, 4)):
            report = fuzz_projective(d, n, 5000, rng)
            assert report.samples == 5000
            assert report.violations == ()

    def test_coverage_accumulates(self, rng):
        report = fuzz_projective(2, 2, 20_000, rng)
        assert sum(report.coverage_grid.values()) <= report.samples
        assert len(report.coverage_grid) > 100

    def test_cells_clip_into_grid(self):
        x = np.array([0.0, 0.0099, 0.01, 0.5, 0.999, 1.0])
        cells = _cell(x, x[::-1])
        assert cells.tolist() == [99, 99, 150, 5001, 9900, 9900]
        counts = np.bincount(cells, minlength=NBINS * NBINS)
        assert _grid(counts) == {(0, 99): 2, (1, 50): 1, (50, 1): 1, (99, 0): 2}

    def test_ternary_slice_only_for_three_outcomes(self, rng):
        assert fuzz_projective(3, 3, 3000, rng).ternary_grid
        assert not fuzz_projective(3, 2, 3000, rng).ternary_grid

    def test_merge_is_associative_on_digest(self, rng):
        a = fuzz_projective(2, 2, 1000, default_rng(1))
        b = fuzz_projective(2, 2, 1000, default_rng(2))
        c = fuzz_projective(2, 2, 1000, default_rng(3))
        left = merge_reports([merge_reports([a, b]), c])
        right = merge_reports([a, merge_reports([b, c])])
        assert left.digest() == right.digest()
        assert left.samples == 3000


class TestCampaign:
    @pytest.mark.parametrize("d, n", [(3, 3), (3, 2), (4, 1)])
    def test_deterministic_across_worker_counts(self, d, n):
        serial = run_campaign(d, n, 30_000, 42, max_workers=1, chunk=10_000)
        parallel = run_campaign(d, n, 30_000, 42, max_workers=4, chunk=10_000)
        assert serial.digest() == parallel.digest()
        assert serial.violations == ()

    @pytest.mark.parametrize("chunk", [0, -5, 2.5, np.nan, np.inf, True])
    def test_rejects_empty_chunks(self, chunk):
        with pytest.raises(ValueError, match="chunk"):
            run_campaign(2, 2, 1000, 0, max_workers=1, chunk=chunk)

    @pytest.mark.parametrize("eps", [np.inf, np.nan, -1e-9])
    def test_rejects_unusable_tolerance(self, eps):
        # inf would hide every violation and nan would report every draw.
        with pytest.raises(ValueError, match="eps"):
            fuzz_projective(2, 2, 1000, default_rng(0), eps=eps)
        with pytest.raises(ValueError, match="eps"):
            run_campaign(2, 2, 1000, 0, max_workers=1, eps=eps)

    @pytest.mark.parametrize(
        "samples", [np.nan, np.inf, 2.5, 1000.0, True], ids=["nan", "inf", "2.5", "float", "bool"]
    )
    def test_rejects_non_integer_samples(self, samples):
        # Read as numbers, nan would run no draw, inf would never return and True one draw.
        with pytest.raises(ValueError, match="samples"):
            fuzz_projective(3, 3, samples, default_rng(0))
        with pytest.raises(ValueError, match="samples"):
            run_campaign(3, 3, samples, 0, max_workers=1)

    def test_seed_changes_digest(self):
        a = run_campaign(2, 2, 5000, 0, max_workers=1)
        b = run_campaign(2, 2, 5000, 1, max_workers=1)
        assert a.digest() != b.digest()


class TestExtremalSearch:
    @pytest.mark.parametrize("search", [oracle_max_s, oracle_min_s])
    @pytest.mark.parametrize("t", [1.5, -0.2, np.nan])
    def test_rejects_t_outside_unit_interval(self, search, t):
        with pytest.raises(ValueError, match="transition probability"):
            search(t, 2, 2, 100, default_rng(0))

    def test_max_s_orthogonal_qubit(self):
        # Orthogonal pre/post states on a qubit cap success at 1/2.
        best = oracle_max_s(0.0, 2, 2, 4000, default_rng(5))
        assert 0.45 <= best <= 0.5 + 1e-9

    def test_max_s_upper_bound_half_t_plus_one(self, rng):
        for t in (0.2, 0.7):
            best = oracle_max_s(t, 2, 2, 3000, rng)
            assert best <= (t + 1.0) / 2.0 + 1e-9

    def test_min_s_lower_bound_t_over_n(self, rng):
        t = 0.6
        best = oracle_min_s(t, 3, 3, 4000, rng)
        assert best >= t / 3.0 - 1e-9
        assert best <= t / 3.0 + 0.05
