"""Independent brute-force validation of the analytic checkers.

Samples random states and projective measurements, evaluates their
postselected statistics directly, and confronts them with the feasibility
inequalities.  Also provides hill-climbing searches for the extremal
success probability at fixed transition probability.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .feasibility import projective_raw_slack_arrays
from .errors import SearchBudgetExhausted

# Postselected-ensemble discard threshold: P(.) is undefined when S vanishes.
S_DISCARD = 1e-9


def default_rng(seed: int) -> np.random.Generator:
    """Seeded counter-based generator used by all reproducible campaigns."""
    return np.random.Generator(np.random.Philox(seed))


def sample_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Unit vector uniform on the complex sphere (normalized complex Gaussian)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    while True:
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        norm = np.linalg.norm(z)
        if norm > 1e-12:
            return z / norm


def sample_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: complex Gaussian matrix, QR, diagonal phase fix."""
    return _batch_unitaries(1, d, rng)[0]


def _batch_unitaries(b: int, d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((b, d, d)) + 1j * rng.standard_normal((b, d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    mags = np.abs(diag)
    phases = np.where(mags > 0, diag / np.where(mags > 0, mags, 1.0), 1.0)
    return q * phases[:, None, :]


def _random_composition(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform composition of d into n positive parts, as column group labels."""
    labels = np.zeros(d, dtype=int)
    if n > 1:
        cuts = rng.choice(d - 1, size=n - 1, replace=False)
        for c in np.sort(cuts):
            labels[c + 1 :] += 1
    return labels


def sample_projective(d: int, n: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Random complete orthogonal projector set: Haar basis, random rank partition."""
    if not 1 <= n <= d:
        raise ValueError(f"need 1 <= n <= d, got n={n}, d={d}")
    u = sample_unitary(d, rng)
    labels = _random_composition(d, n, rng)
    projs = []
    for k in range(n):
        cols = u[:, labels == k]
        projs.append(cols @ cols.conj().T)
    return tuple(projs)


@dataclass(frozen=True)
class FuzzViolation:
    witness_digest: str
    t: float
    s: float
    probs: tuple[float, ...]
    violated: tuple[str, ...]


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of one fuzz campaign; violations must stay empty."""

    samples: int
    violations: tuple[FuzzViolation, ...]
    coverage_grid: dict[tuple[int, int], int] = field(default_factory=dict)
    ternary_grid: dict[tuple[int, int], int] = field(default_factory=dict)
    grid_step: float = 0.01

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(repr(self.samples).encode())
        h.update(repr(self.violations).encode())
        h.update(repr(sorted(self.coverage_grid.items())).encode())
        h.update(repr(sorted(self.ternary_grid.items())).encode())
        h.update(repr(self.grid_step).encode())
        return h.hexdigest()


def merge_reports(reports) -> FuzzReport:
    """Associative merge of per-worker fuzz reports."""
    reports = list(reports)
    if not reports:
        return FuzzReport(samples=0, violations=())
    step = reports[0].grid_step
    samples = 0
    violations: list[FuzzViolation] = []
    coverage: dict[tuple[int, int], int] = {}
    ternary: dict[tuple[int, int], int] = {}
    for r in reports:
        if r.grid_step != step:
            raise ValueError("cannot merge reports with different grid steps")
        samples += r.samples
        violations.extend(r.violations)
        for k, v in r.coverage_grid.items():
            coverage[k] = coverage.get(k, 0) + v
        for k, v in r.ternary_grid.items():
            ternary[k] = ternary.get(k, 0) + v
    return FuzzReport(
        samples=samples,
        violations=tuple(violations),
        coverage_grid=coverage,
        ternary_grid=ternary,
        grid_step=step,
    )


def _accumulate(target: dict, keys: np.ndarray, counts: np.ndarray) -> None:
    for key, cnt in zip(keys, counts):
        k = tuple(int(x) for x in key)
        target[k] = target.get(k, 0) + int(cnt)


def fuzz_projective(
    d: int,
    n: int,
    samples: int,
    rng: np.random.Generator,
    *,
    eps: float = 1e-9,
    grid_step: float = 0.01,
    batch_size: int = 50_000,
) -> FuzzReport:
    """Evaluate random projective witnesses against the analytic checker.

    Every sampled (psi, phi, projector set) must produce a scenario passing
    the raw projective inequalities at tolerance eps (widened against
    roundoff).  Draws with S <= 1e-9 are discarded but still counted.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 1 <= n <= d:
        raise ValueError(f"need 1 <= n <= d, got n={n}, d={d}")
    violations: list[FuzzViolation] = []
    coverage: dict[tuple[int, int], int] = {}
    ternary: dict[tuple[int, int], int] = {}
    nbins = int(round(1.0 / grid_step))
    done = 0
    while done < samples:
        b = min(batch_size, samples - done)
        done += b
        psi = rng.standard_normal((b, d)) + 1j * rng.standard_normal((b, d))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        phi = rng.standard_normal((b, d)) + 1j * rng.standard_normal((b, d))
        phi /= np.linalg.norm(phi, axis=1, keepdims=True)
        u = _batch_unitaries(b, d, rng)
        # Per-column amplitude contributions (phi^dag u_j)(u_j^dag psi).
        left = np.einsum("bi,bij->bj", phi.conj(), u)
        right = np.einsum("bij,bi->bj", u.conj(), psi)
        contrib = left * right
        if n == d:
            labels = np.broadcast_to(np.arange(d), (b, d))
            amps = contrib
        else:
            labels = np.stack([_random_composition(d, n, rng) for _ in range(b)])
            amps = np.zeros((b, n), dtype=complex)
            rows = np.broadcast_to(np.arange(b)[:, None], (b, d))
            np.add.at(amps, (rows, labels), contrib)
        t = np.abs(contrib.sum(axis=1)) ** 2
        weights = np.abs(amps) ** 2
        s = weights.sum(axis=1)
        keep = s > S_DISCARD
        t_k, s_k = np.minimum(t[keep], 1.0), np.minimum(s[keep], 1.0)
        probs = weights[keep] / s[keep, None]
        slacks = projective_raw_slack_arrays(t_k, s_k, probs)
        min_slack = np.minimum.reduce(list(slacks.values()))
        bad = np.flatnonzero(~(min_slack >= -eps))
        if bad.size:
            keep_idx = np.flatnonzero(keep)
            for i in bad:
                orig = keep_idx[i]
                h = hashlib.sha256()
                for arr in (psi[orig], phi[orig], u[orig], labels[orig]):
                    h.update(np.ascontiguousarray(arr).tobytes())
                tags = tuple(
                    tag for tag, arr in slacks.items() if not arr[i] >= -eps
                )
                violations.append(
                    FuzzViolation(
                        witness_digest=h.hexdigest(),
                        t=float(t_k[i]),
                        s=float(s_k[i]),
                        probs=tuple(float(x) for x in probs[i]),
                        violated=tags,
                    )
                )
        it = np.clip((t_k / grid_step).astype(int), 0, nbins - 1)
        i_s = np.clip((s_k / grid_step).astype(int), 0, nbins - 1)
        keys, counts = np.unique(np.stack([it, i_s], axis=1), axis=0, return_counts=True)
        _accumulate(coverage, keys, counts)
        if n == 3:
            near_zero_t = t_k < grid_step
            if near_zero_t.any():
                p_slice = probs[near_zero_t]
                i1 = np.clip((p_slice[:, 0] / grid_step).astype(int), 0, nbins - 1)
                i2 = np.clip((p_slice[:, 1] / grid_step).astype(int), 0, nbins - 1)
                keys, counts = np.unique(
                    np.stack([i1, i2], axis=1), axis=0, return_counts=True
                )
                _accumulate(ternary, keys, counts)
    return FuzzReport(
        samples=samples,
        violations=tuple(violations),
        coverage_grid=coverage,
        ternary_grid=ternary,
        grid_step=grid_step,
    )


def run_campaign(
    d: int,
    n: int,
    samples: int,
    seed: int,
    *,
    max_workers: int | None = None,
    chunk: int = 200_000,
    eps: float = 1e-9,
) -> FuzzReport:
    """Split a fuzz campaign into deterministic per-chunk streams and merge.

    Each chunk owns its own counter-based stream derived from (seed, index),
    so the result is identical regardless of worker count.
    """
    from concurrent.futures import ThreadPoolExecutor

    n_chunks = max(1, -(-samples // chunk))
    sizes = [chunk] * (n_chunks - 1) + [samples - chunk * (n_chunks - 1)]
    streams = [
        np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, i])))
        for i in range(n_chunks)
    ]

    def work(args):
        size, stream = args
        return fuzz_projective(d, n, size, stream, eps=eps)

    if max_workers is not None and max_workers <= 1:
        reports = [work(a) for a in zip(sizes, streams)]
    else:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            reports = list(pool.map(work, zip(sizes, streams)))
    return merge_reports(reports)


def _search_extremal_s(
    t: float,
    n: int,
    d: int,
    trials: int,
    rng: np.random.Generator,
    *,
    minimize: bool,
    restarts: int = 4,
) -> float:
    """Hill-climb S over witnesses constrained to transition probability t."""
    if not 1 <= n <= d:
        raise ValueError(f"need 1 <= n <= d, got n={n}, d={d}")
    nparams = 4 * d + 2 * d * d
    # Fixed rank partition: rank-1 outcomes plus a remainder block.
    labels = np.arange(d)
    labels[n - 1 :] = n - 1

    def success_prob(x: np.ndarray) -> float | None:
        psi = x[:d] + 1j * x[d : 2 * d]
        norm = np.linalg.norm(psi)
        if norm < 1e-9:
            return None
        psi = psi / norm
        g = x[2 * d : 3 * d] + 1j * x[3 * d : 4 * d]
        v = g - np.vdot(psi, g) * psi
        vnorm = np.linalg.norm(v)
        if vnorm < 1e-9:
            return None
        v /= vnorm
        phi = np.sqrt(t) * psi + np.sqrt(1.0 - t) * v
        m = x[4 * d : 4 * d + d * d] + 1j * x[4 * d + d * d :]
        q, r = np.linalg.qr(m.reshape(d, d))
        diag = np.diagonal(r)
        mags = np.abs(diag)
        q = q * np.where(mags > 0, diag / np.where(mags > 0, mags, 1.0), 1.0)
        left = phi.conj() @ q
        right = q.conj().T @ psi
        contrib = left * right
        amps = np.zeros(n, dtype=complex)
        np.add.at(amps, labels, contrib)
        s = float((np.abs(amps) ** 2).sum())
        if s <= S_DISCARD:
            return None
        return s

    sign = -1.0 if minimize else 1.0
    best: float | None = None
    per_restart = max(1, trials // restarts)
    for _ in range(restarts):
        x = rng.standard_normal(nparams)
        current = success_prob(x)
        tries = 0
        while current is None and tries < 50:
            x = rng.standard_normal(nparams)
            current = success_prob(x)
            tries += 1
        if current is None:
            continue
        sigma = 0.5
        for _ in range(per_restart):
            proposal = x + sigma * rng.standard_normal(nparams)
            value = success_prob(proposal)
            if value is not None and sign * value > sign * current:
                x, current = proposal, value
                sigma = min(1.0, sigma * 1.2)
            else:
                sigma = max(1e-4, sigma * 0.97)
        if best is None or sign * current > sign * best:
            best = current
    if best is None:
        raise SearchBudgetExhausted(
            f"no valid sample at t={t} within the search budget"
        )
    return best


def oracle_max_s(
    t: float, n: int, d: int, trials: int, rng: np.random.Generator
) -> float:
    """Best success probability found by local random search at fixed t."""
    return _search_extremal_s(t, n, d, trials, rng, minimize=False)


def oracle_min_s(
    t: float, n: int, d: int, trials: int, rng: np.random.Generator
) -> float:
    """Smallest success probability found by local random search at fixed t."""
    return _search_extremal_s(t, n, d, trials, rng, minimize=True)
