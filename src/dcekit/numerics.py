"""Complex-matrix substrate: seeded draws, null complements, random semi-unitaries.

Everything operates on plain ``numpy`` ``complex128`` arrays.  The batched
primitives (:func:`complex_normal`, :func:`haar_semiunitary`,
:func:`null_complement`, :func:`herm`) work on any leading batch axes; the
training engine in :mod:`dcekit.protocol` draws on them.  The null complement
is the one null-space routine: it completes an input of any rank, so no rank
test or rank error exists here.  The only state in this module is
:class:`RngStream`, a thin splittable wrapper over numpy's counter-based
Philox bit generator so that Monte Carlo code can hand independent,
reproducible substreams to workers without coordination.

Monte Carlo chunks hold thousands of small matrices per array, and numpy's
stacked ``@``, ``np.linalg.solve`` and ``np.linalg.qr`` make one BLAS or
LAPACK call per matrix: about 1 ms per 4096-matrix stack of 4x4, 4x2 or 2x2
products, whatever their size.  The training engine therefore keeps every
chunk-scale stack in *stack-last* memory: the array is still ``(batch, rows,
cols)``, but the batch axis has unit stride (:func:`stack_last` makes the
copy; ``strides[0] == itemsize``).  On that layout :func:`matmul` computes a
product of two stacks as ``q`` multiply-adds of contiguous vectors along the
stack per row of the result, and a product with one shared matrix as a few
GEMMs against whole rows of the stack; :func:`hermitian_solve` is a Cholesky
factorization and two triangular solves with one vector operation per step;
:func:`_householder_qr`, behind the null complements and the Haar pilots,
runs each Householder step as one vectorized pass with LAPACK's conventions
and returns stack-last factors without a copy.  Each of these pays a fixed
interpreter cost per step, so all of them share one crossover,
:data:`HOUSEHOLDER_MIN_BATCH`: smaller stacks (the batch-of-one rounds among
them) keep numpy's own calls and their exact bits.  Larger stacks differ
from numpy only by rounding (elementwise sums in place of ``zgemm``).

Measured on a shared 2-vCPU Xeon VM (numpy 2.4, OpenBLAS on one thread), at
a 4096-matrix stack: the stack products take 0.10-0.7 ms against
1.0-2.2 ms for numpy's stacked ``@`` (4x4@4x2, 4x2@2x4, 4x4@4x4, 2x4@4x2,
4x2@2x2), a shared 2x4 factor times a 4x4 stack 0.12 ms against 0.36 ms for
one reshaped GEMM on batch-first memory, the 2x2 Hermitian solve with four
right-hand sides 0.5-0.9 ms against 1.3-2.9 ms, and the Householder QR
0.9-2.7 ms against 3.5-5.2 ms for a 4x2 null complement and 3.2-4.0 ms
against 8.4-8.9 ms for a 4x4 Haar pilot.  The products break even with
numpy at 32-64 matrices and the solve and the QR at 64-160, so at 192 every
kernel is on its faster side.  Minor page faults are part of these times:
on that VM each costs about 2 us, and a chunk's temporaries take from one to
five thousand of them, depending on how the allocator last trimmed its heap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RngStream",
    "complex_normal",
    "haar_semiunitary",
    "herm",
    "hermitian_solve",
    "matmul",
    "null_complement",
    "random_gaussian",
    "stack_last",
]

# Stacks of at least this many matrices take the vector kernels (QR, product,
# Hermitian solve) in stack-last memory; smaller ones take numpy's calls (see
# the module docstring).
HOUSEHOLDER_MIN_BATCH = 192


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


def random_gaussian(rows: int, cols: int, variance: float, rng: RngStream) -> np.ndarray:
    """Draw a ``rows x cols`` matrix of iid circular complex Gaussians.

    Each entry is CN(0, ``variance``): real and imaginary parts are
    independent N(0, ``variance``/2).  ``variance`` must be finite and
    ``>= 0``, as :func:`dcekit.model.validate` requires of every variance; 0
    gives the zero matrix (the stream still advances, so draw order stays
    reproducible).
    """
    if rows <= 0 or cols <= 0:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if not 0.0 <= variance < math.inf:
        raise ValueError(f"variance must be finite and nonnegative, got {variance}")
    return complex_normal(rng.generator, (rows, cols), variance)


def herm(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return np.swapaxes(x.conj(), -1, -2)


def stack_last(x: np.ndarray) -> np.ndarray:
    """The ``(batch, rows, cols)`` stack ``x`` in stack-last memory: from
    :data:`HOUSEHOLDER_MIN_BATCH` matrices on a copy whose batch axis has unit
    stride (``x`` itself if it already has), below that, or for an input that
    is not 3-D, ``x`` unchanged."""
    if x.shape[0] < HOUSEHOLDER_MIN_BATCH or x.ndim != 3:
        return x
    return np.ascontiguousarray(x.transpose(1, 2, 0)).transpose(2, 0, 1)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a ``(batch, p, q)`` stack times a ``(batch, q, r)`` stack,
    where either factor may instead be one matrix shared by the stack.

    From :data:`HOUSEHOLDER_MIN_BATCH` matrices on the result is stack-last:
    a shared factor makes a few GEMMs against whole rows of the stack, and two
    stacks make, per row of the result, ``q`` multiply-adds of ``r`` vectors
    along the stack (fast when the inputs are stack-last, correct for any
    strides).  Smaller stacks, and inputs that are not 2-D or 3-D, take
    numpy's ``@``.
    """
    # Every product of a batch-of-one round passes here: the first test is
    # the cheapest that sends it to numpy.
    if a.shape[0] < HOUSEHOLDER_MIN_BATCH and b.shape[0] < HOUSEHOLDER_MIN_BATCH:
        return a @ b
    batch = max(a.shape[0] if a.ndim == 3 else 1, b.shape[0] if b.ndim == 3 else 1)
    if batch < HOUSEHOLDER_MIN_BATCH or not (2 <= a.ndim <= 3 and 2 <= b.ndim <= 3):
        return a @ b
    if a.ndim == 2:  # one (p, q) @ (q, batch) GEMM per column of b
        return np.matmul(a, b.transpose(2, 1, 0)).transpose(2, 1, 0)
    am = a.transpose(1, 2, 0)
    if b.ndim == 2:  # one (r, q) @ (q, batch) GEMM per row of a
        return np.matmul(b.T, am).transpose(2, 0, 1)
    bm = b.transpose(1, 2, 0)
    out = np.empty((am.shape[0], bm.shape[1], batch), dtype=np.result_type(a, b))
    term = np.empty(out.shape[1:], dtype=out.dtype)
    for i, row in enumerate(out):  # row i of every product, (r, batch)
        np.multiply(am[i, 0], bm[0], out=row)
        for k in range(1, am.shape[1]):
            row += np.multiply(am[i, k], bm[k], out=term)
    return out.transpose(2, 0, 1)


def hermitian_solve(s: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(s, rhs)`` for a ``(batch, n, n)`` stack of Hermitian
    positive-definite ``s`` and a ``(batch, n, m)`` stack ``rhs``.

    From :data:`HOUSEHOLDER_MIN_BATCH` matrices on: a Cholesky factorization
    ``s = L L^H`` and two triangular solves, each step one vector operation
    along the stack, result stack-last.  Only the lower triangle of ``s`` is
    read.  Smaller stacks, and inputs that are not 3-D, take ``np.linalg.solve``.
    """
    if s.shape[0] < HOUSEHOLDER_MIN_BATCH or s.ndim != 3:
        return np.linalg.solve(s, rhs)
    sm = s.transpose(1, 2, 0)
    n = sm.shape[0]
    low = np.zeros(sm.shape, dtype=np.complex128)
    diag = np.empty((n, sm.shape[-1]))
    for j in range(n):
        col = sm[j:, j] - (low[j:, :j] * low[j, :j].conj()).sum(axis=1)
        diag[j] = np.sqrt(col[0].real)
        low[j:, j] = col / diag[j]
    x = np.array(rhs.transpose(1, 2, 0), dtype=np.complex128, order="C")
    for i in range(n):  # L y = rhs
        x[i] -= (low[i, :i, None] * x[:i]).sum(axis=0)
        x[i] /= diag[i]
    for i in range(n - 1, -1, -1):  # L^H x = y
        x[i] -= (low[i + 1:, i, None].conj() * x[i + 1:]).sum(axis=0)
        x[i] /= diag[i]
    return x.transpose(2, 0, 1)


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
    # and each column of the matrices is one contiguous block.  From a
    # stack-last input this copy moves whole rows of the stack.
    stack = a.reshape((math.prod(lead), n, m))
    w = np.array(stack.transpose(2, 1, 0), dtype=np.complex128, order="C")
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
    q = q.transpose(2, 1, 0)  # stack-last: no copy back
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
