"""Calibration chunks: fixed work, written here and never calling ``postselect``.

On a shared 2-core machine, speed drifts by far more than a change's gain
within a single run, so every timed op is divided by the time of a calibration chunk taken
next to it.  A chunk only cancels drift if the machine slows it the way it
slows the workload, so each workload gets a chunk with the same kind of
work: small-array NumPy calls and object churn for the scenario stream,
complex matrix products for the witness ladder, batched 3x3 QR on the fuzz
worker count, and per-cell tuple and string formatting for the region maps.
The chunks run fixed inputs, so a faster ``postselect`` does not move them.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class _Rec:
    a: float
    b: tuple


def _unit(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


class Scenario:
    """Small complex matrices, reflectors and frozen records, as in witness building."""

    reps = 20

    def __init__(self):
        rng = np.random.default_rng(0)
        self.vecs = [_unit(rng, d) for d in (2, 3, 4, 5, 6)]

    def __call__(self) -> float:
        acc = 0.0
        for _ in range(self.reps):
            for v in self.vecs:
                d = v.size
                m = np.eye(d, dtype=complex) - 2.0 * np.outer(v, v.conj())
                total = np.zeros((d, d), dtype=complex)
                for k in range(d):
                    p = np.zeros((d, d), dtype=complex)
                    p[k, k] = 1.0
                    q = m @ p
                    acc += float(np.max(np.abs(q @ q.conj().T - p)))
                    total += q.conj().T @ q
                acc += abs(np.vdot(v, m @ v))
                rec = _Rec(math.sqrt(abs(acc) % 1.0), tuple(float(x) for x in np.abs(v)))
                acc += rec.a + sum(math.sqrt(x) for x in rec.b)
        return acc


class Wide:
    """Products of 96 x 96 complex matrices, the kernel of the ladder's top rungs."""

    reps = 40

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))

    def __call__(self) -> float:
        acc = 0.0
        for _ in range(self.reps):
            acc += float(np.max(np.abs(self.a @ self.a - self.a)))
        return acc


def _fuzz_task(seed: int) -> float:
    rng = np.random.Generator(np.random.Philox(seed))
    z = rng.standard_normal((3000, 3, 3)) + 1j * rng.standard_normal((3000, 3, 3))
    q, r = np.linalg.qr(z)
    psi = rng.standard_normal((3000, 3)) + 1j * rng.standard_normal((3000, 3))
    contrib = np.einsum("bi,bij->bj", psi.conj(), q) * np.einsum("bij,bi->bj", q.conj(), psi)
    acc = float(np.abs(contrib).sum())
    for _ in range(250):
        acc += float(np.sort(rng.choice(5, size=2, replace=False))[0])
    return acc


class Fuzz:
    """Batched 3x3 QR plus per-sample draws, on as many threads as the fuzz uses."""

    def __init__(self, workers: int):
        self.workers = workers
        self.pool = ThreadPoolExecutor(max_workers=workers)

    def __call__(self) -> float:
        futures = [self.pool.submit(_fuzz_task, i) for i in range(4 * self.workers)]
        return sum(f.result() for f in futures)

    def close(self):
        self.pool.shutdown(wait=True)


class Region:
    """Per-cell tag tuples and formatted CSV rows, hashed."""

    def __init__(self):
        self.xy = np.random.default_rng(0).random((6000, 2))

    def __call__(self) -> str:
        x, y = self.xy[:, 0], self.xy[:, 1]
        bad = {"A": np.sqrt(x * y) > 0.3, "B": x + y > 1.0}
        tags = list(bad)
        cols = np.stack([bad[t] for t in tags], axis=1)
        violated = tuple(tuple(t for t, hit in zip(tags, row) if hit) for row in cols)
        ok = ~cols.any(axis=1)
        lines = []
        for row, good, tg in zip(self.xy, ok, violated):
            cells = [f"{v:.12g}" for v in row]
            cells.append("true" if good else "false")
            cells.append(";".join(tg))
            lines.append(",".join(cells) + "\n")
            if good:
                lines.append(f'<rect x="{row[0] - 0.001:.6g}" y="{row[1] - 0.001:.6g}"/>\n')
        return hashlib.sha256("".join(lines).encode()).hexdigest()
