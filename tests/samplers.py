"""Haar-random states, unitaries and projective measurements for the tests.

The package's fuzz and extremal-S searches measure in the computational
basis and draw none of these.  The tests use them for dense Haar-basis
witnesses and for the law test's reference sampler.  Dimensions and outcome
counts are checked by `oracle._shape`, as the package checks its own.
"""

import numpy as np

from postselect.oracle import _random_labels, _shape


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian array: the real parts are drawn first, then the imaginary parts."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _haar(z: np.ndarray) -> np.ndarray:
    """Q of z = QR with the phases of R's diagonal moved into Q.

    For complex Gaussian z this makes Q Haar-distributed (Mezzadri,
    arXiv:math-ph/0609050).  Takes one (d, d) matrix or a (b, d, d) stack.
    """
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    mags = np.abs(diag)
    return q * np.where(mags > 0, diag / np.where(mags > 0, mags, 1.0), 1.0)[..., None, :]


def sample_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Unit vector uniform on the complex sphere (normalized complex Gaussian)."""
    d = _shape(d)[0]
    while True:
        z = _complex_normal(rng, d)
        norm = np.linalg.norm(z)
        if norm > 1e-12:
            return z / norm


def sample_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: complex Gaussian matrix, QR, diagonal phase fix."""
    return _haar(_complex_normal(rng, (_shape(d)[0],) * 2))


def sample_projective(d: int, n: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Random complete orthogonal projector set: Haar basis, random rank partition."""
    d, n = _shape(d, n)
    u = sample_unitary(d, rng)
    labels = _random_labels(1, d, n, rng)[0]
    projs = []
    for k in range(n):
        cols = u[:, labels == k]
        projs.append(cols @ cols.conj().T)
    return tuple(projs)
