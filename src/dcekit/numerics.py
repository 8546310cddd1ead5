"""Complex-matrix substrate: seeded draws, null-space bases, random semi-unitaries.

Everything operates on plain ``numpy`` ``complex128`` arrays.  The batched
primitives (:func:`complex_normal`, :func:`haar_semiunitary`,
:func:`null_complement`, :func:`herm`) work on any leading batch axes; the
training engine in :mod:`dcekit.protocol` draws on them.  The only state in
this module is :class:`RngStream`, a thin splittable wrapper over numpy's
counter-based Philox bit generator so that Monte Carlo code can hand
independent, reproducible substreams to workers without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ComplexMatrix",
    "DegenerateMatrixError",
    "RngStream",
    "complex_normal",
    "haar_semiunitary",
    "herm",
    "null_complement",
    "null_space_basis",
    "random_gaussian",
]

# Readability alias for signatures; entries are complex128.
ComplexMatrix = np.ndarray

# Relative singular-value cutoff below which an input counts as rank deficient.
RANK_RTOL = 1e-8


class DegenerateMatrixError(ValueError):
    """Input matrix is rank deficient where a full-rank matrix is required."""


@dataclass
class RngStream:
    """Seeded random stream identified by ``(seed, stream_id)``.

    Two streams built with the same identifiers replay the same draw sequence;
    streams with different ``stream_id`` are statistically independent.  The
    underlying bit generator is Philox (counter based), so creating thousands
    of streams is cheap and workers never have to share generator state.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def generator(self) -> np.random.Generator:
        """The live numpy generator for this stream (created on first use)."""
        if self._gen is None:
            seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
            self._gen = np.random.Generator(np.random.Philox(seq))
        return self._gen


def complex_normal(gen: np.random.Generator, shape: tuple[int, ...], var: float) -> np.ndarray:
    """Array of iid CN(0, ``var``) draws: the normals go straight into the
    interleaved real/imaginary parts, bit for bit the values of
    ``(p[..., 0] + 1j * p[..., 1]) * sqrt(var / 2)``, ``p = gen.standard_normal(shape + (2,))``.
    """
    z = np.empty(shape, dtype=np.complex128)
    gen.standard_normal(out=z.reshape(-1).view(np.float64))
    z *= np.sqrt(var / 2.0)
    return z


def random_gaussian(
    rows: int, cols: int, variance: float, rng: RngStream
) -> ComplexMatrix:
    """Draw a ``rows x cols`` matrix of iid circular complex Gaussians.

    Each entry is CN(0, ``variance``): real and imaginary parts are
    independent N(0, ``variance``/2).  ``variance`` = 0 gives the zero matrix
    (the stream still advances, so draw order stays reproducible).
    """
    if rows <= 0 or cols <= 0:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if variance < 0:
        raise ValueError(f"variance must be nonnegative, got {variance}")
    return complex_normal(rng.generator, (rows, cols), variance)


def herm(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return np.swapaxes(x.conj(), -1, -2)


def haar_semiunitary(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Independent Haar-distributed ``tau x n`` semi-unitaries, shape ``(..., tau, n)``.

    Each is the Q factor of a complex Gaussian matrix with the R diagonal
    phase-normalized, so its law is invariant under any fixed right unitary.
    """
    tau, n = shape[-2:]
    if not 1 <= n <= tau:
        raise ValueError(f"need tau >= n >= 1 for orthonormal columns, got {tau}x{n}")
    q, r = np.linalg.qr(complex_normal(gen, shape, 1.0))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    phase = np.where(diag == 0, 1.0 + 0j, diag / np.abs(diag))
    return q * phase.conj()[..., None, :]


def null_complement(mat: np.ndarray) -> np.ndarray:
    """Orthonormal left-null-space completion of ``(..., n, m)`` matrices.

    Never raises: the last ``n - m`` columns of the unitary complete-QR factor
    complement the span of ``mat`` at any rank, zero included, which the
    protocol needs on edges like an unpowered reverse stage.
    """
    return np.linalg.qr(mat, mode="complete")[0][..., mat.shape[-1]:]


def null_space_basis(mat: ComplexMatrix) -> ComplexMatrix:
    """Orthonormal basis of the left null space of a tall full-rank matrix.

    For ``mat`` of shape ``(n, m)`` with ``n > m`` and full column rank,
    returns ``K`` of shape ``(n, n - m)`` with ``K^H mat = 0`` and
    ``K^H K = I``: the :func:`null_complement` of ``mat``, so the basis is
    deterministic for a given input.

    Raises :class:`DegenerateMatrixError` when the smallest singular value
    falls below ``1e-8`` times the largest (rank-deficient input), and
    ``ValueError`` for non-tall shapes.
    """
    mat = np.asarray(mat)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={mat.ndim}")
    n, m = mat.shape
    if n <= m:
        raise ValueError(
            f"matrix must be tall (rows > cols) to have a left null space, got {n}x{m}"
        )
    s = np.linalg.svd(mat, compute_uv=False)
    if s[0] == 0.0 or s[-1] < RANK_RTOL * s[0]:
        raise DegenerateMatrixError(
            f"matrix is rank deficient (singular values {s.min():.3e} .. {s.max():.3e})"
        )
    return np.ascontiguousarray(null_complement(mat))
