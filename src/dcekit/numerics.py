"""Complex-matrix substrate: seeded draws, null-space bases, random semi-unitaries.

Everything operates on plain ``numpy`` ``complex128`` arrays.  The batched
primitives (:func:`complex_normal`, :func:`haar_semiunitary`,
:func:`null_complement`, :func:`herm`) work on any leading batch axes; the
training engine in :mod:`dcekit.protocol` draws on them.  The only state in
this module is :class:`RngStream`, a thin splittable wrapper over numpy's
counter-based Philox bit generator so that Monte Carlo code can hand
independent, reproducible substreams to workers without coordination.

The null complements and the Haar pilots come from a QR factorization with
two paths.  numpy's stacked LAPACK QR makes one ``zgeqrf`` / ``zungqr`` call
per matrix, which dominates a Monte Carlo chunk of thousands of small
matrices; :func:`_householder_qr` instead runs each Householder step as one
vectorized pass over the whole stack, with LAPACK's conventions, so both
paths give the same factors up to rounding.  A vectorized call costs a fixed
0.1-0.2 ms of interpreter work, so stacks below :data:`HOUSEHOLDER_MIN_BATCH`
matrices (the batch-of-one rounds among them) keep the LAPACK call.
Measured on a shared 2-vCPU Xeon VM (numpy 2.4, OpenBLAS on one thread),
the two paths break even at 96-160 matrices for 4x2, 6x3 and 4x4 inputs; at
a 4096-matrix chunk the vectorized path takes 0.9-2.7 ms against 3.5-5.2 ms
for a 4x2 null complement and 3.2-4.0 ms against 8.4-8.9 ms for a 4x4 Haar
pilot.
"""

from __future__ import annotations

import math
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

# Stacks of at least this many matrices take the vectorized Householder QR;
# smaller ones take numpy's LAPACK QR (see the module docstring).
HOUSEHOLDER_MIN_BATCH = 192


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


def _qr(a: np.ndarray, cols: slice) -> tuple[np.ndarray, np.ndarray]:
    """Columns ``cols`` of the complete Q factor and the R diagonal of a stack
    of ``(..., n, m)`` matrices: numpy's LAPACK QR below
    :data:`HOUSEHOLDER_MIN_BATCH` matrices, :func:`_householder_qr` from there on."""
    if math.prod(a.shape[:-2]) < HOUSEHOLDER_MIN_BATCH:
        q, r = np.linalg.qr(a, mode="complete" if cols.stop > a.shape[-1] else "reduced")
        return q[..., cols], np.diagonal(r, axis1=-2, axis2=-1)
    return _householder_qr(a, cols)


def _householder_qr(a: np.ndarray, cols: slice) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_qr` by Householder reflections, each step one pass over the stack.

    LAPACK's ``zgeqrf`` / ``zungqr`` conventions: reflector ``k`` is ``I - tau
    v v^H`` with ``v[0] = 1``; the R diagonal ``beta`` is real, of the sign
    opposite to the pivot's real part; a column with nothing below the
    diagonal and a real pivot is left alone (``tau = 0``).  Column norms are
    taken from the moduli divided by their largest, so no square overflows or
    underflows at any scale, and a zero column gives ``tau = beta = 0``.
    """
    n, m = a.shape[-2:]
    lead = a.shape[:-2]
    # w[j, i] holds entry (i, j) of every matrix: the stack is the last axis,
    # and each column of the matrices is one contiguous block.
    stack = a.reshape((math.prod(lead), n, m))
    w = np.ascontiguousarray(stack.transpose(2, 1, 0), dtype=np.complex128)
    steps = min(n, m)
    diag = np.empty((steps, w.shape[-1]))
    reflectors = []
    for k in range(steps):
        x = w[k, k:]
        mags = np.abs(x)
        s = mags.max(axis=0)
        s[s == 0.0] = 1.0
        alpha = x[0]
        tail = np.square(mags[1:] / s).sum(axis=0)
        keep = (tail == 0.0) & (alpha.imag == 0.0)
        beta = -np.copysign(np.sqrt(np.square(mags[0] / s) + tail) * s, alpha.real)
        beta[keep] = alpha.real[keep]
        tau = (beta - alpha) / np.where(keep, 1.0, beta)
        v = x[1:] * (1.0 / np.where(keep, 1.0, alpha - beta))
        diag[k] = beta
        reflectors.append((v, tau))
        # Apply H^H = I - conj(tau) v v^H to the trailing columns.
        _reflect(w[k + 1:, k:], v, tau.conj())

    # Q[:, cols] = H_0 ... H_{steps-1} I[:, cols], accumulated from the right;
    # when H_k is applied, the columns left of k are still zero below row k.
    idx = np.arange(n)[cols]
    q = np.zeros((idx.size, n, w.shape[-1]), dtype=np.complex128)
    q[np.arange(idx.size), idx] = 1.0
    for k in range(steps - 1, -1, -1):
        v, tau = reflectors[k]
        _reflect(q[max(k - cols.start, 0):, k:], v, tau)
    q = np.ascontiguousarray(q.transpose(2, 1, 0))
    return q.reshape(lead + q.shape[1:]), diag.T.reshape(lead + (steps,))


def _reflect(block: np.ndarray, v: np.ndarray, tau: np.ndarray) -> None:
    """Apply ``I - tau u u^H``, ``u = (1, v)``, in place to every column of
    ``block``, shape ``(columns, rows, stack)`` as in :func:`_householder_qr`."""
    head, body = block[:, 0], block[:, 1:]
    prod = v.conj() * body
    t = tau * (head + prod.sum(axis=1))
    head -= t
    body -= np.multiply(v, t[:, None], out=prod)


def haar_semiunitary(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Independent Haar-distributed ``tau x n`` semi-unitaries, shape ``(..., tau, n)``.

    Each is the Q factor of a complex Gaussian matrix with the R diagonal
    phase-normalized, so its law is invariant under any fixed right unitary.
    """
    tau, n = shape[-2:]
    if not 1 <= n <= tau:
        raise ValueError(f"need tau >= n >= 1 for orthonormal columns, got {tau}x{n}")
    q, diag = _qr(complex_normal(gen, shape, 1.0), slice(0, n))
    phase = np.where(diag == 0, 1.0 + 0j, diag / np.abs(diag))
    return q * phase.conj()[..., None, :]


def null_complement(mat: np.ndarray) -> np.ndarray:
    """Orthonormal left-null-space completion of ``(..., n, m)`` matrices.

    Never raises: the last ``n - m`` columns of the unitary complete-QR factor
    complement the span of ``mat`` at any rank, zero included, which the
    protocol needs on edges like an unpowered reverse stage.
    """
    n, m = mat.shape[-2:]
    return _qr(mat, slice(m, n))[0]


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
