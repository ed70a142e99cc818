import ast
import concurrent.futures
import dataclasses
import hashlib
import os
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from postselect import (
    check_ts_region,
    default_rng,
    fuzz_projective,
    oracle_max_s,
    oracle_min_s,
    run_campaign,
)
from postselect import oracle
from postselect.cli import main
from postselect.errors import SearchBudgetExhausted
from postselect.feasibility import S_HALF_PLUS_T, T_OVER_N, chain_slacks, ts_region_slacks
from postselect.oracle import (
    FUZZ_EPS,
    FuzzViolation,
    GRID_STEP,
    NBINS,
    S_DISCARD,
    _cell,
    _flat_index,
    _grid,
    _group,
    _random_labels,
    _unit_rows,
    merge_reports,
)
from conftest import NON_REAL_PARAMS, column_sums
from samplers import _complex_normal, _haar, sample_projective, sample_state, sample_unitary


def bin_cells(counts: np.ndarray, t, s, probs, n: int) -> None:
    """Add kept draws to flat counts as fuzz_projective bins them: (T, S) cells, then at
    n = 3 the ternary slice's (P_0, P_1) cells, for draws with T below GRID_STEP."""
    cells = [_cell(t, s)]
    if n == 3:
        cells.append(NBINS * NBINS + _cell(probs[t < GRID_STEP, 0], probs[t < GRID_STEP, 1]))
    counts += np.bincount(np.concatenate(cells), minlength=counts.size)


def haar_basis_cells(d: int, n: int, samples: int, rng) -> np.ndarray:
    """Reference sampler: the fuzz's batch code with a Haar basis u per draw.

    Returns the flat cell counts fuzz_projective bins: (T, S) cells, then the
    ternary slice's (P_0, P_1) cells.  Draws in batches of its own size.
    """
    counts = np.zeros(2 * NBINS * NBINS, dtype=np.int64)
    done = 0
    while done < samples:
        b = min(50_000, samples - done)
        done += b
        psi = _complex_normal(rng, (b, d))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        phi = _complex_normal(rng, (b, d))
        phi /= np.linalg.norm(phi, axis=1, keepdims=True)
        u = _haar(_complex_normal(rng, (b, d, d)))
        left = np.einsum("bi,bij->bj", phi.conj(), u)
        right = np.einsum("bij,bi->bj", u.conj(), psi)
        contrib = left * right
        labels = _random_labels(b, d, n, rng)
        t = np.abs(contrib.sum(axis=1)) ** 2
        weights = np.abs(_group(contrib, _flat_index(labels, n), n)) ** 2
        s = weights.sum(axis=1)
        keep = s > S_DISCARD
        t, s, probs = np.minimum(t[keep], 1.0), np.minimum(s[keep], 1.0), weights[keep] / s[keep, None]
        bin_cells(counts, t, s, probs, n)
    return counts


def in_order_unit_rows(x: np.ndarray) -> np.ndarray:
    """(b, 2d) normals read as (re, im) pairs, divided by their in-order column-sum norms."""
    z = x[:, 0::2] + 1j * x[:, 1::2]
    return z / np.sqrt(column_sums(z.real * z.real + z.imag * z.imag))[:, None]


def axis_reduction_fuzz(d: int, n: int, samples: int, rng, shift: float = 0.0):
    """Reference: the fuzz's block loop written out apart from the package's row kernels.

    Per block of max(1, BLOCK_CELLS // d) rows: psi and phi from one (2, b, 2d)
    normal draw, read as interleaved (re, im) pairs, then the labels.  Norms, T,
    S and the sum of sqrt(P) by an explicit loop over columns (`column_sums`),
    maxima along axis 1, its own slack kernel (every slack lowered by shift)
    and _group for every n.  Reads BLOCK_CELLS and S_DISCARD from the oracle
    module when called, as fuzz_projective does.  Returns (counts, discarded,
    violations).
    """
    violations = []
    counts = np.zeros(2 * NBINS * NBINS, dtype=np.int64)
    done = discarded = 0
    while done < samples:
        b = min(max(1, oracle.BLOCK_CELLS // d), samples - done)
        done += b
        normals = rng.standard_normal((2, b, 2 * d))
        psi, phi = in_order_unit_rows(normals[0]), in_order_unit_rows(normals[1])
        contrib = phi.conj() * psi
        labels = _random_labels(b, d, n, rng)
        t = np.abs(column_sums(contrib)) ** 2
        weights = np.abs(_group(contrib, _flat_index(labels, n), n)) ** 2
        s = column_sums(weights)
        keep = s > oracle.S_DISCARD
        discarded += b - int(np.count_nonzero(keep))
        t_k, s_k = np.minimum(t[keep], 1.0), np.minimum(s[keep], 1.0)
        probs = weights[keep] / s[keep, None]
        sq = np.sqrt(probs)
        slacks = chain_slacks(np.sqrt(t_k / s_k), column_sums(sq), sq.max(axis=1), np.sqrt(s_k))
        slacks = {tag: arr - shift for tag, arr in slacks.items()}
        min_slack = np.minimum.reduce(list(slacks.values()))
        flagged = np.flatnonzero(~(min_slack >= -FUZZ_EPS))
        for i, orig in zip(flagged, np.flatnonzero(keep)[flagged]):
            h = hashlib.sha256()
            for arr in (psi[orig], phi[orig], labels[orig]):
                h.update(np.ascontiguousarray(arr).tobytes())
            tags = tuple(tag for tag, arr in slacks.items() if not arr[i] >= -FUZZ_EPS)
            violations.append(
                FuzzViolation(
                    witness_digest=h.hexdigest(),
                    t=float(t_k[i]),
                    s=float(s_k[i]),
                    probs=tuple(float(x) for x in probs[i]),
                    violated=tags,
                )
            )
        bin_cells(counts, t_k, s_k, probs, n)
    return counts, discarded, tuple(violations)


def coarse(counts) -> np.ndarray:
    """Per-cell counts, flat or (NBINS, NBINS), summed into 10 x 10 coarse bins."""
    return counts.reshape(10, NBINS // 10, 10, NBINS // 10).sum(axis=(1, 3)).ravel()


def two_sample_z(a: np.ndarray, b: np.ndarray, min_count: int = 20) -> float:
    """Two-sample chi-squared of histograms a and b as a Wilson-Hilferty z-score.

    Bins holding fewer than min_count draws from both samples together are
    pooled into one.  Under a common law z is close to standard normal.
    """
    small = a + b < min_count
    a = np.append(a[~small], a[small].sum()).astype(float)
    b = np.append(b[~small], b[small].sum()).astype(float)
    a, b = a[a + b > 0], b[a + b > 0]
    na, nb = a.sum(), b.sum()
    chi2 = ((np.sqrt(nb / na) * a - np.sqrt(na / nb) * b) ** 2 / (a + b)).sum()
    k = len(a) - 1
    return ((chi2 / k) ** (1 / 3) - (1 - 2 / (9 * k))) / np.sqrt(2 / (9 * k))


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

    @pytest.mark.parametrize("d", [0, -2, 2.0, np.nan, np.inf, True])
    @pytest.mark.parametrize(
        "sampler",
        [sample_state, sample_unitary, lambda d, rng: sample_projective(d, 1, rng)],
        ids=["state", "unitary", "projective"],
    )
    def test_rejects_non_dimensions(self, sampler, d):
        # Without the checks, sample_unitary(0) gave an empty array and d = 2.0 a TypeError.
        with pytest.raises(ValueError, match="not an integer|need 1 <= n <= d"):
            sampler(d, default_rng(0))


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

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_tied_draws_cut_n_minus_one_gaps(self, n):
        # A tie at the (n - 1)-th smallest draw: comparing each draw against that
        # value would cut every tied gap, giving a row more than n - 1 cuts.
        class TiedDraws:
            def random(self, shape):
                rows = [[0.5] * 5, [0.2, 0.1, 0.2, 0.2, 0.9], [0.1, 0.1, 0.1, 0.5, 0.5], [0.0] * 5]
                return np.array(rows * (shape[0] // 4))

        labels = _random_labels(8, 6, n, TiedDraws())
        assert (labels[:, 0] == 0).all() and (labels[:, -1] == n - 1).all()
        assert np.isin(np.diff(labels, axis=1), (0, 1)).all()

    @pytest.mark.parametrize("d, n", [(3, 1), (3, 3)])
    def test_fixed_compositions_draw_nothing(self, d, n):
        rng = default_rng(3)
        labels = _random_labels(10, d, n, rng)
        assert rng.random() == default_rng(3).random()
        assert labels.dtype == np.intp and labels.tolist() == [[0, 0, 0] if n == 1 else [0, 1, 2]] * 10

    def test_group_matches_loop(self):
        rng = default_rng(9)
        contrib = rng.standard_normal((50, 6)) + 1j * rng.standard_normal((50, 6))
        labels = _random_labels(50, 6, 3, rng)
        expected = np.zeros((50, 3), dtype=complex)
        for row in range(50):
            for col in range(6):
                expected[row, labels[row, col]] += contrib[row, col]
        # Same additions in the same order, so the sums agree exactly.
        assert np.array_equal(_group(contrib, _flat_index(labels, 3), 3), expected)


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
        assert fuzz_projective(3, 3, 3000, rng).counts[1].any()
        assert not fuzz_projective(3, 2, 3000, rng).counts[1].any()

    # Paper's factor-2 bound T/n <= S <= (T + 1)/2 over fuzz draws.  At 100k
    # draws per shape the tightest best corner had slack 0 (at (2, 1)); with
    # T/n shifted up by 0.02 cells were flagged on 7 of 7 shapes, with (T + 1)/2
    # shifted down by 0.02 on 5 of 7 ((4, 4) and (6, 3) passed).
    REGION_SAMPLES = 100_000

    @pytest.mark.parametrize("d, n", [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2), (4, 4), (6, 3)])
    def test_coverage_stays_in_ts_region(self, d, n):
        # For n >= 2 the two bounding lines lie >= 0.5 apart in S, so a cell
        # meets the region iff one of its corners lies in it; at n = 1 every
        # draw has S = T up to roundoff, and each cell S = T meets has a corner on it.
        counts = fuzz_projective(d, n, self.REGION_SAMPLES, default_rng(10 * d + n)).counts[0]
        i, j = np.nonzero(counts)
        t = (i[:, None] + np.array([0, 0, 1, 1])) * GRID_STEP
        s = (j[:, None] + np.array([0, 1, 0, 1])) * GRID_STEP
        slacks = ts_region_slacks(t, s, n)
        inside = (slacks[T_OVER_N] >= -1e-9) & (slacks[S_HALF_PLUS_T] >= -1e-9)
        outside = ~inside.any(axis=1)
        assert not outside.any(), list(zip(i[outside], j[outside]))

    def test_counts_are_one_read_only_array(self, rng):
        report = merge_reports([fuzz_projective(3, 3, 2000, rng), fuzz_projective(3, 3, 3000, rng)])
        assert report.counts.shape == (2, NBINS, NBINS) and report.counts.dtype == np.int64
        assert report.counts[0].sum() == report.samples - report.discarded
        with pytest.raises(ValueError, match="read-only"):
            report.counts[0, 0, 0] += 1
        assert report.coverage_grid == _grid(report.counts[0])
        empty = merge_reports([])
        assert empty.samples == 0 and not empty.counts.any()

    def test_merge_is_associative_on_digest(self, rng):
        a = fuzz_projective(2, 2, 1000, default_rng(1))
        b = fuzz_projective(2, 2, 1000, default_rng(2))
        c = fuzz_projective(2, 2, 1000, default_rng(3))
        left = merge_reports([merge_reports([a, b]), c])
        right = merge_reports([a, merge_reports([b, c])])
        assert left.digest() == right.digest()
        assert left.samples == 3000


class TestLaw:
    # Over 20 seed pairs per shape the z-scores stayed within [-1.9, 2.4]; labels
    # fixed to np.minimum(arange(d), n - 1) gave z >= 9.5 at (6,3) and (4,2).
    Z_MAX = 4.0

    @pytest.mark.parametrize("d, n, samples", [(3, 3, 200_000), (6, 3, 50_000), (4, 2, 50_000)])
    def test_identity_basis_matches_haar_basis(self, d, n, samples):
        report = fuzz_projective(d, n, samples, default_rng(0))
        reference = haar_basis_cells(d, n, samples, default_rng(1000))
        z = two_sample_z(coarse(report.counts[0]), coarse(reference[: NBINS * NBINS]))
        assert z < self.Z_MAX
        if n == 3 and d == 3:
            z = two_sample_z(coarse(report.counts[1]), coarse(reference[NBINS * NBINS :]))
            assert z < self.Z_MAX


def flag_every_draw(monkeypatch) -> tuple[str, ...]:
    """Shift every slack of the oracle's checker by -10; return the checker's tags."""
    real = oracle.projective_raw_slack_arrays

    def shifted(t, s, probs):
        return {tag: arr - 10.0 for tag, arr in real(t, s, probs).items()}

    monkeypatch.setattr(oracle, "projective_raw_slack_arrays", shifted)
    return tuple(real(np.array([0.5]), np.array([0.5]), np.array([[0.5, 0.5]])))


def record_pool_sizes(monkeypatch) -> list:
    """Replace the thread pool with a serial one; return the list its sizes go to."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    return sizes


class TestViolations:
    def test_violation_records_its_draw(self, monkeypatch):
        tags = flag_every_draw(monkeypatch)
        d, n, samples, seed = 4, 2, 300, 5
        report = fuzz_projective(d, n, samples, default_rng(seed))
        assert report.discarded == 0 and len(report.violations) == samples
        # Re-draw the stream of the one block: psi and phi as (re, im) pairs, then the labels.
        rng = default_rng(seed)
        states = [in_order_unit_rows(x) for x in rng.standard_normal((2, samples, 2 * d))]
        labels = _random_labels(samples, d, n, rng)
        for v, psi, phi, lab in zip(report.violations, *states, labels):
            weights = np.array([abs(np.vdot(phi[lab == k], psi[lab == k])) ** 2 for k in range(n)])
            assert v.t == pytest.approx(abs(np.vdot(phi, psi)) ** 2, rel=1e-12, abs=1e-15)
            assert v.s == pytest.approx(weights.sum(), rel=1e-12)
            assert v.probs == pytest.approx(tuple(weights / weights.sum()), rel=1e-12, abs=1e-15)
            assert v.violated == tags
            digest = hashlib.sha256(psi.tobytes() + phi.tobytes() + lab.tobytes()).hexdigest()
            assert v.witness_digest == digest

    def test_violations_identical_across_worker_counts(self, monkeypatch):
        flag_every_draw(monkeypatch)
        serial = run_campaign(4, 2, 600, 9, max_workers=1, chunk=200)
        parallel = run_campaign(4, 2, 600, 9, max_workers=2, chunk=200)
        assert len(serial.violations) == 600
        assert serial.violations == parallel.violations

    def test_cli_reports_violations(self, monkeypatch, capsys):
        flag_every_draw(monkeypatch)
        code = main(["fuzz", "--dim", "2", "--outcomes", "2", "--samples", "50"])
        out = capsys.readouterr().out
        assert code == 1
        assert "violations: 50" in out
        assert out.count("VIOLATION ") == 20


class TestRedraw:
    SAMPLES = 1_600

    @pytest.mark.parametrize("d, n", [(3, 3), (6, 3), (4, 2)])
    def test_takes_nothing_from_the_stream(self, monkeypatch, d, n):
        # 500-entry blocks of 166, 83 and 125 rows end in a partial block, and the raised
        # threshold discards draws, so flagged rows sit among discarded ones.
        monkeypatch.setattr(oracle, "BLOCK_CELLS", 500)
        monkeypatch.setattr(oracle, "S_DISCARD", 0.05)
        plain = default_rng(d + n)
        unflagged = fuzz_projective(d, n, self.SAMPLES, plain)
        flag_every_draw(monkeypatch)
        rng = default_rng(d + n)
        flagged = fuzz_projective(d, n, self.SAMPLES, rng)
        np.testing.assert_equal(rng.bit_generator.state, plain.bit_generator.state)
        assert unflagged.discarded == flagged.discarded > 0
        assert np.array_equal(flagged.counts, unflagged.counts)
        reference = axis_reduction_fuzz(d, n, self.SAMPLES, default_rng(d + n), shift=10.0)
        assert flagged.violations == reference[2]
        assert len(flagged.violations) == self.SAMPLES - flagged.discarded


class TestBatchLoop:
    """Every draw against the reference, in 500-entry row blocks.

    1,600 draws take several blocks and a partial last one at every d
    (500 // d rows: 500, 250, 166, 125, 83, 55, 41 and 31).
    """

    BLOCK, SAMPLES = 500, 1_600

    @pytest.mark.parametrize("s_discard", [S_DISCARD, 0.05], ids=["default", "raised"])
    @pytest.mark.parametrize(
        "d, n",
        [(1, 1), (2, 1), (4, 1), (9, 1), (3, 3), (4, 2), (4, 4), (6, 3), (9, 4), (16, 16), (12, 9)],
    )
    def test_matches_axis_reduction_reference(self, monkeypatch, d, n, s_discard):
        # Every draw is flagged on both sides, so each violation pins one draw's psi,
        # phi, labels, T, S and P exactly.
        flag_every_draw(monkeypatch)
        monkeypatch.setattr(oracle, "BLOCK_CELLS", self.BLOCK)
        monkeypatch.setattr(oracle, "S_DISCARD", s_discard)
        report = fuzz_projective(d, n, self.SAMPLES, default_rng(100 * d + n))
        reference = axis_reduction_fuzz(d, n, self.SAMPLES, default_rng(100 * d + n), shift=10.0)
        counts, discarded, violations = reference
        assert np.array_equal(report.counts.ravel(), counts)
        assert report.discarded == discarded
        assert report.violations == violations
        assert len(violations) == self.SAMPLES - discarded
        # The raised threshold discards draws (S = 1 at d = 1), so the masked copies run.
        assert (discarded > 0) == (s_discard > S_DISCARD and d > 1)


class TestRowBlocks(TestBatchLoop):
    """TestBatchLoop's shapes in one-row blocks: BLOCK_CELLS = 1, below d wherever d > 1.

    800 draws, so the raised threshold discards some at every d > 1.
    """

    BLOCK, SAMPLES = 1, 800


class TestBlockedBatch:
    @pytest.mark.parametrize(
        "d, n, samples",
        [(3, 3, 50_000), (16, 16, 50_000), (64, 8, 20_000), (6, 3, 50_000), (4, 2, 50_000)],
        ids=["3-3", "16-16", "64-8", "6-3", "4-2"],
    )
    def test_working_set_is_bounded(self, d, n, samples):
        # Every array is sized by the 2**15-entry row block and none outlives its block:
        # the whole call peaks at 1.66, 1.66, 1.66, 1.82 and 1.84 MiB here; the bound
        # leaves 0.4 MiB over the largest.  While each block held its normal draw to its
        # end, it peaked at 2.25, 1.92, 2.51, 2.82 and 2.84 MiB; while each block's arrays
        # lived on into the next block's draw, at 3.6-4.7 MiB; with 50,000-draw batches of
        # normals and labels, at 8.7 MiB at (3, 3), 27.7 at (16, 16) and 68.4 at (64, 8).
        fuzz_projective(d, n, 100, default_rng(0))
        tracemalloc.start()
        try:
            fuzz_projective(d, n, samples, default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * 2**20

    def test_multi_block_digest_is_pinned(self):
        # One 200,000-draw chunk: 36 blocks of 5,461 rows and a partial one.
        digest = "168f90b20cd045e118cab530e025bf95309dfb5e6839823af809370885ba7413"
        for workers in (1, 2):
            assert run_campaign(6, 3, 200_000, 42, max_workers=workers).digest() == digest

    @pytest.mark.parametrize(
        "d, n, samples, digest",
        [
            (16, 16, 100_000, "2c6de5e898b1c1b6b87eba5712a156cce650d4cfc3bb6c2a42f4f540889223e5"),
            (64, 8, 20_000, "6051ff928a634203913a4eb00b65fe786ab773db92214247e2abc1719df12d76"),
        ],
        ids=["16-16", "64-8"],
    )
    def test_wide_digest_is_pinned(self, d, n, samples, digest):
        # Rows of 8 or more outcomes, which NumPy's axis sum would add pairwise.
        for workers in (1, 2):
            assert run_campaign(d, n, samples, 42, max_workers=workers).digest() == digest

    @pytest.mark.parametrize("width", [*range(1, 10), 16, 64])
    def test_unit_rows_multiply_equals_division(self, width):
        z = default_rng(width).standard_normal((5_000, 2 * width)).view(complex)
        want = z / np.sqrt(column_sums(z.real * z.real + z.imag * z.imag))[:, None]
        assert np.array_equal(_unit_rows(z.copy()).view(np.uint64), want.view(np.uint64))


class TestDiscarded:
    def test_counted_and_identical_across_worker_counts(self, monkeypatch):
        # S <= 1e-9 is too rare to see in a test run (at n = 1, S = T and
        # P(T <= x) is about (d - 1) x), so the threshold is raised.
        monkeypatch.setattr(oracle, "S_DISCARD", 0.05)
        serial = run_campaign(3, 1, 20_000, 4, max_workers=1, chunk=5_000)
        parallel = run_campaign(3, 1, 20_000, 4, max_workers=2, chunk=5_000)
        assert serial.discarded == parallel.discarded > 0
        assert serial.discarded + sum(serial.coverage_grid.values()) == serial.samples
        assert serial.digest() == parallel.digest()

    def test_kept_out_of_digest_and_summed_by_merge(self):
        a = fuzz_projective(3, 3, 2000, default_rng(1))
        b = fuzz_projective(3, 2, 2000, default_rng(2))
        assert a.discarded == b.discarded == 0
        a2, b2 = dataclasses.replace(a, discarded=2), dataclasses.replace(b, discarded=3)
        assert a2.digest() == a.digest()
        assert merge_reports([a2, b2]).discarded == 5


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

    @pytest.mark.parametrize("seed", [True, "3", 1.5, np.nan, -1])
    def test_rejects_unusable_seed(self, seed):
        # Without the check, True and "3" run, 1.5 and nan raise NumPy's
        # TypeError and -1 NumPy's own ValueError.
        with pytest.raises(ValueError, match="seed"):
            run_campaign(2, 2, 100, seed, max_workers=1)

    @pytest.mark.parametrize(
        "samples", [np.nan, np.inf, 2.5, 1000.0, True], ids=["nan", "inf", "2.5", "float", "bool"]
    )
    def test_rejects_non_integer_samples(self, samples):
        # Read as numbers, nan would run no draw, inf would never return and True one draw.
        with pytest.raises(ValueError, match="samples"):
            fuzz_projective(3, 3, samples, default_rng(0))
        with pytest.raises(ValueError, match="samples"):
            run_campaign(3, 3, samples, 0, max_workers=1)

    @pytest.mark.parametrize(
        "d, n", [(3.0, 3), (3, 3.0), (np.nan, 2), (2, np.inf), (True, 1), (2, 0), (2, 3)]
    )
    def test_rejects_non_integer_shape(self, d, n):
        with pytest.raises(ValueError, match="not an integer|need 1 <= n <= d"):
            fuzz_projective(d, n, 100, default_rng(0))
        with pytest.raises(ValueError, match="not an integer|need 1 <= n <= d"):
            run_campaign(d, n, 100, 0, max_workers=1)

    @pytest.mark.parametrize("workers", [0, -3, True, 1.5, np.nan])
    def test_rejects_unusable_worker_counts(self, workers):
        with pytest.raises(ValueError, match="max_workers"):
            run_campaign(2, 2, 100, 0, max_workers=workers)

    @pytest.mark.parametrize("cpus, samples, workers", [(3, 5_000, 3), (8, 2_000, 2)])
    def test_default_workers_are_usable_cpus_and_chunks(self, monkeypatch, cpus, samples, workers):
        pools = record_pool_sizes(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        run_campaign(2, 2, samples, 0, chunk=1_000)
        assert pools == [workers]

    @pytest.mark.parametrize("count, workers", [(4, 4), (None, 1)])
    def test_default_workers_without_affinity(self, monkeypatch, count, workers):
        pools = record_pool_sizes(monkeypatch)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        run_campaign(2, 2, 5_000, 0, chunk=1_000)
        assert pools == [workers]

    def test_explicit_workers_are_kept(self, monkeypatch):
        pools = record_pool_sizes(monkeypatch)
        run_campaign(2, 2, 2_000, 0, max_workers=7, chunk=1_000)
        monkeypatch.setenv("POSTSELECT_THREADS", "5")
        assert main(["fuzz", "--dim", "2", "--outcomes", "2", "--samples", "50"]) == 0
        assert pools == [7, 5]

    def test_seed_changes_digest(self):
        a = run_campaign(2, 2, 5000, 0, max_workers=1)
        b = run_campaign(2, 2, 5000, 1, max_workers=1)
        assert a.digest() != b.digest()

    @pytest.mark.parametrize(
        "d, n, digest",
        [
            (3, 3, "aca293b24f81d8449ca428e8553226a20188f9fecc1aee6d09d89110dc18b306"),
            (4, 2, "b77e8e61895bf9a4f3dcc6f405e922c713af3692a24d32f28354374bb6e861b8"),
            (6, 3, "ac2d072f282e67ac7a0e1147b34a2ef7d2e9591ac22b49d1e38f08bbc350ee9a"),
            (3, 1, "2a046d930833c4593120904c959283e2dd5fd185094a9f23fc65e1ee49ec552b"),
        ],
        ids=["3-3", "4-2", "6-3", "3-1"],
    )
    def test_digest_is_pinned(self, d, n, digest):
        for workers in (1, 2):
            report = run_campaign(d, n, 20_000, 7, max_workers=workers, chunk=5_000)
            assert report.digest() == digest


class TestExtremalSearch:
    @pytest.mark.parametrize("search", [oracle_max_s, oracle_min_s])
    @pytest.mark.parametrize("t", [1.5, -0.2, np.nan, *NON_REAL_PARAMS])
    def test_rejects_t_outside_unit_interval(self, search, t):
        with pytest.raises(ValueError, match="transition probability"):
            search(t, 2, 2, 100, default_rng(0))

    @pytest.mark.parametrize("search", [oracle_max_s, oracle_min_s])
    @pytest.mark.parametrize(
        "n, d, trials",
        [(2, 2.0, 100), (2.0, 2, 100), (np.nan, 2, 100), (2, np.inf, 100), (True, 2, 100),
         (3, 2, 100), (2, 2, 0), (2, 2, -5), (2, 2, 10.0), (2, 2, np.inf), (2, 2, True)],
    )
    def test_rejects_non_integer_counts(self, search, n, d, trials):
        # Without the checks, d = 2.0 raised TypeError in np.bincount and trials <= 0 ran one step.
        with pytest.raises(ValueError, match="not an integer|need 1 <= n <= d|trials"):
            search(0.5, n, d, trials, default_rng(0))

    @pytest.mark.parametrize("search", [oracle_max_s, oracle_min_s])
    @pytest.mark.parametrize("t", [Fraction(1, 2), Decimal("0.5")], ids=["Fraction", "Decimal"])
    def test_t_is_read_as_a_float(self, search, t):
        # The check accepts these numbers; the search then runs on the float it returned.
        assert search(t, 2, 2, 50, default_rng(3)) == search(0.5, 2, 2, 50, default_rng(3))

    @pytest.mark.parametrize("search", [oracle_max_s, oracle_min_s])
    def test_budget_exhausted_without_orthogonal_part(self, search):
        # At d = 1 no phi has a part orthogonal to psi, so no walker is valid for t < 1.
        with pytest.raises(SearchBudgetExhausted):
            search(0.5, 1, 1, 200, default_rng(0))
        # At t = 1, phi = psi needs none.
        assert search(1.0, 1, 1, 8, default_rng(0)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "search, t, n, d, seed, value",
        [(oracle_max_s, 0.3, 3, 4, 1313, 0.6401145746744576),
         (oracle_min_s, 0.6, 3, 3, 1314, 0.2002775980580593)],
    )
    def test_pinned_values(self, search, t, n, d, seed, value):
        # Bit-identical for a fixed seed: a refactor of the step loop keeps every float.
        assert search(t, n, d, 400, default_rng(seed)) == value

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

    # Sweep of the (T, S) region T/n <= S <= (T + 1)/2.  Over ten seeds at 1500
    # trials the widest gaps were 1.15e-2 below (T + 1)/2 (one seed; the next
    # 7.4e-3) and 1.9e-5 above T/n, all at (4, 4); this stream's were 1.8e-3
    # and 2.5e-6.  The bounds sit below the 0.01 that a shifted bound adds.
    SWEEP_TRIALS = 1500
    DELTA_MAX = 7.5e-3
    DELTA_MIN = 1e-4

    @pytest.mark.parametrize("d, n", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 4)])
    def test_sweep_reaches_ts_region_boundary(self, d, n):
        rng = default_rng(10 * d + n)
        for t in [k / 10 for k in range(11)]:
            high = oracle_max_s(t, n, d, self.SWEEP_TRIALS, rng)
            low = oracle_min_s(t, n, d, self.SWEEP_TRIALS, rng)
            for s in (high, low):
                assert s <= 1.0 + 1e-9
                slacks = check_ts_region(t, min(s, 1.0), n).slack
                assert min(slacks.values()) >= -1e-9, (t, s, slacks)
            assert ts_region_slacks(t, high, n)[S_HALF_PLUS_T] <= self.DELTA_MAX, (t, high)
            assert ts_region_slacks(t, low, n)[T_OVER_N] <= self.DELTA_MIN, (t, low)


def test_oracle_imports_only_core_feasibility_errors():
    # The oracle may share the checker under test, never the builders or stats.
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or "postselect" in (node.module or ""))
    }
    assert imported <= {"core", "feasibility", "errors"}, imported
