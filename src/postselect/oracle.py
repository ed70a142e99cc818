"""Independent brute-force validation of the analytic checkers.

Samples random states and projective measurements, evaluates their
postselected statistics directly, and confronts them with the feasibility
inequalities.  Also provides hill-climbing searches for the extremal
success probability at fixed transition probability, the only independent
check of T/n <= S <= (T + 1)/2.

Both project in the computational basis, which gives (T, S, P) the law a
Haar basis per draw would (argument in `fuzz_projective`) and reaches every
S a basis would; a fuzz witness is (psi, phi, labels), and a violation's
digest hashes exactly those.  Dimensions, outcome counts and trial counts
are integers (`core._count`): a bool, float, NaN or inf raises ValueError.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import _count, _probability
from .feasibility import _row_sum, projective_raw_slack_arrays
from .errors import SearchBudgetExhausted

# Postselected-ensemble discard threshold: P(.) is undefined when S vanishes.
S_DISCARD = 1e-9
# A fuzz draw is a violation when a chain slack falls below -FUZZ_EPS (roundoff).
FUZZ_EPS = 1e-9
# Coverage grids split [0, 1]^2 into NBINS^2 cells of side GRID_STEP.
GRID_STEP = 0.01
NBINS = round(1 / GRID_STEP)
# Entries per row block (BLOCK_CELLS // d rows, at least one); bounds working memory.  Each
# block draws its normals, then its labels, so it lays out the stream and digests pin it.
BLOCK_CELLS = 2**15
# Walkers advanced together by the extremal-S searches.
RESTARTS = 4


def default_rng(seed: int) -> np.random.Generator:
    """Seeded counter-based generator used by all reproducible campaigns."""
    return np.random.Generator(np.random.Philox(seed))


def _unit_rows(z: np.ndarray) -> np.ndarray:
    """(b, d) complex rows z scaled to unit norm in place; uniform on the sphere for normal draws.

    The squared norm is `_row_sum` of re^2 + im^2, formed in one (b, d) array: re^2,
    then im^2 added in place.  Those are the exact IEEE operations of re**2 + im**2
    (NumPy's z.conj() * z fuses them where the CPU has FMA).  Multiplying by 1 / norm
    gives the bits of dividing by it: NumPy divides a complex number by a real r with
    Smith's algorithm, which computes (a + b*0) * (1/r) and (b - a*0) * (1/r).
    """
    norm2 = np.square(z.real)
    norm2 += np.square(z.imag)
    z *= (1.0 / np.sqrt(_row_sum(norm2)))[:, None]
    return z


def _unit_pair(b: int, d: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(psi, phi): the complex view of one (2, b, 2d) normal draw, rows scaled by `_unit_rows`."""
    psi, phi = (_unit_rows(z) for z in rng.standard_normal((2, b, 2 * d)).view(complex))
    return psi, phi


def _shape(d, n=1) -> tuple[int, int]:
    """(d, n) as integers with 1 <= n <= d, else ValueError; n = 1 checks d alone."""
    d, n = _count(d, "d"), _count(n, "n")
    if not 1 <= n <= d:
        raise ValueError(f"need 1 <= n <= d, got n={n}, d={d}")
    return d, n


def _random_labels(b: int, d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """(b, d) column labels of b uniform compositions of d into n positive parts.

    Cuts go in the n - 1 of the d - 1 column gaps that hold the smallest of
    d - 1 uniform draws; a label counts the cuts before its column.  Nothing
    is drawn when n == 1 or n == d, whose composition is fixed: one row of
    labels, broadcast read-only to b rows.
    """
    if not 1 < n < d:
        return np.broadcast_to(np.minimum(np.arange(d, dtype=np.intp), n - 1), (b, d))
    cuts = np.zeros((b, d), dtype=np.intp)
    gaps = np.argsort(rng.random((b, d - 1)), axis=1)[:, : n - 1]
    np.put_along_axis(cuts, gaps + 1, 1, axis=1)
    return np.cumsum(cuts, axis=1)


def _flat_index(labels: np.ndarray, n: int) -> np.ndarray:
    """(b, d) labels as indices into the flattened (b, n) amplitudes."""
    return (labels + n * np.arange(labels.shape[0])[:, None]).ravel()


def _group(contrib: np.ndarray, flat: np.ndarray, n: int) -> np.ndarray:
    """Sum (b, d) contributions into (b, n) amplitudes by `_flat_index`, in column order.

    Each part's sums go straight into the complex result.  That is re + 1j * im bit for
    bit, since `np.bincount` sums from +0.0 and so never returns -0.0.
    """
    b = contrib.shape[0]
    amps = np.empty((b, n), dtype=complex)
    amps.real = np.bincount(flat, weights=contrib.real.ravel(), minlength=b * n).reshape(b, n)
    amps.imag = np.bincount(flat, weights=contrib.imag.ravel(), minlength=b * n).reshape(b, n)
    return amps


@dataclass(frozen=True)
class FuzzViolation:
    witness_digest: str
    t: float
    s: float
    probs: tuple[float, ...]
    violated: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class FuzzReport:
    """Outcome of one fuzz campaign; violations must stay empty.

    counts is a read-only int64 copy of shape (2, NBINS, NBINS): counts[0][i, j]
    draws fell in (T, S) cell (i, j), counts[1][i, j] in the ternary slice's
    (P_0, P_1) cell (i, j), axes as in `emit_ts_region` / `emit_ternary` at
    resolution NBINS.  `digest()` hashes samples, violations and the
    little-endian bytes of counts.  No `==`: compare reports by `digest()`.
    """

    samples: int
    violations: tuple[FuzzViolation, ...]
    counts: np.ndarray
    discarded: int = 0  # draws with S <= S_DISCARD; not part of the digest

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.int64).reshape(2, NBINS, NBINS)
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def coverage_grid(self) -> dict[tuple[int, int], int]:
        return _grid(self.counts[0])

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(repr(self.samples).encode())
        h.update(repr(self.violations).encode())
        h.update(self.counts.astype("<i8").tobytes())
        return h.hexdigest()


def merge_reports(reports) -> FuzzReport:
    """Associative merge of per-worker fuzz reports."""
    reports = list(reports)
    return FuzzReport(
        samples=sum(r.samples for r in reports),
        violations=tuple(v for r in reports for v in r.violations),
        counts=sum((r.counts for r in reports), np.zeros((2, NBINS, NBINS), dtype=np.int64)),
        discarded=sum(r.discarded for r in reports),
    )


def _cell(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Flat index of each point's grid cell; values at or past 1 go to the last cell."""
    i, j = (np.clip((v / GRID_STEP).astype(int), 0, NBINS - 1) for v in (x, y))
    return i * NBINS + j


def _grid(counts: np.ndarray) -> dict[tuple[int, int], int]:
    """Per-cell counts, flat or (NBINS, NBINS), as the {(i, j): count} dict of non-empty cells."""
    flat = counts.ravel()
    return {divmod(int(c), NBINS): int(flat[c]) for c in np.flatnonzero(flat)}


def fuzz_projective(d: int, n: int, samples: int, rng: np.random.Generator) -> FuzzReport:
    """Evaluate random projective witnesses against the analytic checker.

    Every sampled (psi, phi, projector set) must produce a scenario whose
    chain slacks (projective_raw_slack_arrays) are all >= -FUZZ_EPS.  Draws with
    S <= S_DISCARD are counted as samples and as `discarded`, and are neither
    checked nor binned.  The rest are counted into the report's `counts`
    array, (T, S) cells for every draw and (P_0, P_1) cells for n = 3 draws
    with T < GRID_STEP.

    Outcome k projects onto the basis vectors e_j labelled k, so its amplitude
    is the sum of conj(phi_j) psi_j over them.  A Haar basis U per draw would
    not change the law: (T, S, P) of (psi, phi, {U Pi_k U^dag}) is that of
    (U^dag psi, U^dag phi, {Pi_k}), and for any fixed U that pair has the law
    of (psi, phi), independent and uniform on the sphere; so at every U, and
    averaged over U, (T, S, P) has its law at U = I.  A violation's
    witness_digest is the SHA-256 of its psi, phi and labels bytes.

    Draws run in blocks of max(1, BLOCK_CELLS // d) rows.  Each block draws psi
    and phi as the complex view of one (2, b, 2d) normal draw, then its labels;
    psi and phi are freed once the contributions exist, before the labels are
    drawn.  A block with a violation re-draws its psi and phi for the witness
    digest from the stream state saved before its normal draw, on a second
    generator, so rng ends where it would with no violation.  Every row sum
    (norms, the total behind T, S and the slack kernel's sum of sqrt(P)) adds
    whole columns in index order (`feasibility._row_sum`), and every row
    maximum compares whole columns, so no value depends on how NumPy lays out
    a reduction.  Nothing is grouped at n = d.  At n = 1, S is still
    grouped: `_group`'s `np.bincount` adds each row in index order too.
    """
    samples = _count(samples, "samples", 1)
    d, n = _shape(d, n)
    violations: list[FuzzViolation] = []
    # (T, S) coverage cells, then the ternary slice's (P_0, P_1) cells.
    counts = np.zeros(2 * NBINS * NBINS, dtype=np.int64)
    rows = max(1, BLOCK_CELLS // d)
    discarded = 0
    for start in range(0, samples, rows):
        discarded += _fuzz_block(min(rows, samples - start), d, n, rng, counts, violations)
    return FuzzReport(samples, tuple(violations), counts.reshape(2, NBINS, NBINS), discarded)


def _fuzz_block(
    b: int, d: int, n: int, rng: np.random.Generator, counts: np.ndarray, violations: list
) -> int:
    """Draw and check one block of b rows for `fuzz_projective`; return its discarded count.

    Adds the block's cells to counts and appends its violations.  No array outlives
    the block, and each is dropped, or overwritten in place, after its last use;
    psi and phi go before the labels are drawn.  A flagged block re-draws them
    for hashing from the stream state saved before its normal draw, on a
    generator of its own, so rng advances as it does for a block with none.
    """
    state = rng.bit_generator.state
    psi, phi = _unit_pair(b, d, rng)
    # Per-column amplitude contributions <phi|e_j><e_j|psi>, formed out of place:
    # `*=` into phi can change the last bit of T.
    contrib = np.conjugate(phi, out=phi) * psi
    del psi, phi
    labels = _random_labels(b, d, n, rng)
    t = np.abs(_row_sum(contrib)) ** 2
    # |amplitude|^2 per outcome; at n = d each column is one outcome's amplitude.
    amps = contrib if n == d else _group(contrib, _flat_index(labels, n), n)
    del contrib
    probs = np.abs(amps)
    del amps
    np.square(probs, out=probs)
    s = _row_sum(probs)
    keep = s > S_DISCARD
    kept = int(np.count_nonzero(keep))
    if kept < b:
        t, s, probs = t[keep], s[keep], probs[keep]
    probs /= s[:, None]
    t, s = np.minimum(t, 1.0), np.minimum(s, 1.0)
    slacks = projective_raw_slack_arrays(t, s, probs)
    min_slack = reduce(np.minimum, slacks.values())
    flagged = np.flatnonzero(~(min_slack >= -FUZZ_EPS))
    origins = flagged if kept == b else np.flatnonzero(keep)[flagged]
    if flagged.size:
        redraw = np.random.Generator(type(rng.bit_generator)())
        redraw.bit_generator.state = state
        psi, phi = _unit_pair(b, d, redraw)
    for i, orig in zip(flagged, origins):
        h = hashlib.sha256()
        for arr in (psi[orig], phi[orig], labels[orig]):
            h.update(np.ascontiguousarray(arr).tobytes())
        tags = tuple(tag for tag, arr in slacks.items() if not arr[i] >= -FUZZ_EPS)
        violations.append(
            FuzzViolation(
                witness_digest=h.hexdigest(),
                t=float(t[i]),
                s=float(s[i]),
                probs=tuple(float(x) for x in probs[i]),
                violated=tags,
            )
        )
    cells = [_cell(t, s)]
    if n == 3:
        near_zero_t = t < GRID_STEP
        cells.append(NBINS * NBINS + _cell(probs[near_zero_t, 0], probs[near_zero_t, 1]))
    counts += np.bincount(np.concatenate(cells), minlength=counts.size)
    return b - kept


def run_campaign(
    d: int,
    n: int,
    samples: int,
    seed: int,
    *,
    max_workers: int | None = None,
    chunk: int = 200_000,
) -> FuzzReport:
    """Split a fuzz campaign into deterministic per-chunk streams and merge.

    Each chunk owns its own counter-based stream derived from (seed, index),
    so the result is identical regardless of worker count.  Chunks run on a
    thread pool of max_workers threads; None means one per usable CPU
    (os.sched_getaffinity, else os.cpu_count) and at most one per chunk, since
    every running chunk holds a row block in memory.  seed is an integer >= 0.
    """
    from concurrent.futures import ThreadPoolExecutor

    d, n = _shape(d, n)
    samples, chunk = _count(samples, "samples", 1), _count(chunk, "chunk", 1)
    seed = _count(seed, "seed", 0)
    n_chunks = max(1, -(-samples // chunk))
    if max_workers is None:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        max_workers = min(cpus or 1, n_chunks)
    else:
        max_workers = _count(max_workers, "max_workers", 1)
    sizes = [chunk] * (n_chunks - 1) + [samples - chunk * (n_chunks - 1)]
    streams = [
        np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, i])))
        for i in range(n_chunks)
    ]

    def work(args):
        size, stream = args
        return fuzz_projective(d, n, size, stream)

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        # Wait for every chunk first, so that merge_reports times only the merge.
        return merge_reports(list(pool.map(work, zip(sizes, streams))))


def _search_extremal_s(
    t: float, n: int, d: int, trials: int, rng: np.random.Generator, *, minimize: bool
) -> float:
    """Hill-climb S over witnesses constrained to transition probability t.

    A walker is 4d reals read as 2d complex numbers: psi, then g, whose part
    v orthogonal to psi gives phi = sqrt(t) psi + sqrt(1 - t) v.  Outcome k
    projects onto the basis vectors labelled k; as in the fuzz, a basis U
    would reach no other S, since S of (psi, phi, {U Pi_k U^dag}) is S of
    (U^dag psi, U^dag phi, {Pi_k}).  RESTARTS walkers step together; each
    keeps a proposal that scores better and grows its step by 1.2, else
    shrinks it by 0.97.  A walker whose psi or phi degenerates, or whose
    S <= S_DISCARD, scores -inf, so any valid proposal replaces it.  trials
    counts proposals over all walkers, rounded up to whole steps.
    """
    t = _probability(t, "transition probability")
    d, n = _shape(d, n)
    trials = _count(trials, "trials", 1)
    # Fixed rank partition: rank-1 outcomes plus a remainder block.
    flat = _flat_index(np.broadcast_to(np.minimum(np.arange(d), n - 1), (RESTARTS, d)), n)
    sign = -1.0 if minimize else 1.0
    root_t, root_u = np.sqrt(t), np.sqrt(1.0 - t)
    # At t = 1, phi = psi whatever v is, so v may vanish.
    v_floor = 0.0 if t == 1.0 else 1e-9

    def score(x: np.ndarray) -> np.ndarray:
        """sign * S per walker, -inf where the walker is not a valid witness."""
        z = x.view(np.complex128)
        norm = np.sqrt(np.einsum("ij,ij->i", x[:, : 2 * d], x[:, : 2 * d]))
        psi = z[:, :d] / np.maximum(norm, 1e-9)[:, None]
        v = z[:, d:] - np.einsum("ij,ij->i", psi.conj(), z[:, d:])[:, None] * psi
        vnorm = np.sqrt(np.einsum("ij,ij->i", v.view(np.float64), v.view(np.float64)))
        phi = root_t * psi + (root_u / np.maximum(vnorm, 1e-9))[:, None] * v
        amps = _group(phi.conj() * psi, flat, n).view(np.float64)
        s = np.einsum("ij,ij->i", amps, amps)
        valid = (norm >= 1e-9) & (vnorm >= v_floor) & (s > S_DISCARD)
        return np.where(valid, sign * s, -np.inf)

    x = rng.standard_normal((RESTARTS, 4 * d))
    current = score(x)
    sigma = np.full((RESTARTS, 1), 0.5)
    for _ in range(-(-trials // RESTARTS)):
        proposal = x + sigma * rng.standard_normal(x.shape)
        value = score(proposal)
        better = (value > current)[:, None]
        x = np.where(better, proposal, x)
        current = np.maximum(value, current)
        # sigma stays in [1e-4, 1], so each factor can cross only the bound it faces.
        sigma = np.minimum(np.maximum(sigma * np.where(better, 1.2, 0.97), 1e-4), 1.0)
    best = current.max()
    if best == -np.inf:
        raise SearchBudgetExhausted(f"no valid sample at t={t} within the search budget")
    return float(sign * best)


def oracle_max_s(t: float, n: int, d: int, trials: int, rng: np.random.Generator) -> float:
    """Best success probability found by local random search at fixed t.

    d and n are integers with 1 <= n <= d, trials an integer >= 1; raises
    SearchBudgetExhausted when no walker ever found a witness with S > S_DISCARD.
    """
    return _search_extremal_s(t, n, d, trials, rng, minimize=False)


def oracle_min_s(t: float, n: int, d: int, trials: int, rng: np.random.Generator) -> float:
    """Smallest success probability found by local random search at fixed t; see `oracle_max_s`."""
    return _search_extremal_s(t, n, d, trials, rng, minimize=True)
