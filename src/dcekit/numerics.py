"""Complex-matrix substrate: seeded draws, null complements, random semi-unitaries.

Everything operates on plain ``numpy`` ``complex128`` arrays.  The batched
primitives (:func:`complex_normal`, :func:`haar_semiunitary`,
:func:`null_complement`, :func:`herm`) work on any leading batch axes; the
training engine in :mod:`dcekit.protocol` draws on them.  The null complement
is the one null-space routine: it completes an input of any rank, so no rank
test or rank error exists here.  :class:`RngStream` is a thin splittable
wrapper over numpy's counter-based Philox bit generator so that Monte Carlo
code can hand independent, reproducible substreams to workers without
coordination.

Monte Carlo chunks hold thousands of small matrices per array, and numpy's
stacked ``@``, ``np.linalg.solve`` and ``np.linalg.qr`` make one BLAS or
LAPACK call per matrix: about 1 ms per 4096-matrix stack of 4x4, 4x2 or 2x2
products, whatever their size.  The training engine therefore keeps every
chunk-scale stack in *stack-last* memory: the array is still ``(batch, rows,
cols)``, but the batch axis has unit stride (:func:`empty_stack` allocates
one; ``strides[0] == itemsize``).  On that layout :func:`matmul` computes a
product of two stacks as ``q`` multiply-adds of contiguous vectors along the
stack per row of the result, and a shared left factor times a stack as one
GEMM per column of the stack; :func:`hermitian_solve` is a Cholesky
factorization and two triangular solves with one vector operation per step,
on ``(batch, n, n)`` stacks only; :func:`_householder_qr`, behind the null
complements, runs each Householder step as one vectorized pass with
LAPACK's conventions and returns the complement columns stack-last without
a copy; and :func:`haar_semiunitary` builds the Haar pilots from the same
reflector step without a full Gaussian matrix or its QR.  Each of these pays
a fixed interpreter cost per step, so all of them share one crossover,
:data:`HOUSEHOLDER_MIN_BATCH`: smaller stacks (the batch-of-one rounds among
them) keep numpy's own calls and their exact bits.  Larger stacks differ
from numpy by rounding (elementwise sums in place of ``zgemm``).  Every
Gaussian draw goes through one routine, :func:`_fill_normal`, which writes
the normals straight into its destination in that array's memory order; the
draw functions differ only in the destination (:func:`empty`,
:func:`empty_stack`, or :func:`empty_like` of the target of
:func:`add_complex_normal`).  So :func:`empty_stack`'s test is the one
crossover a draw depends on, and stack-last draws differ from numpy's in
which draw lands in which entry.

Measured on a shared 2-vCPU Xeon VM (numpy 2.4, OpenBLAS on one thread), at
a 4096-matrix stack: the stack products take 0.10-0.7 ms against
1.0-2.2 ms for numpy's stacked ``@`` (4x4@4x2, 4x2@2x4, 4x4@4x4, 2x4@4x2,
4x2@2x2), a shared 2x4 factor times a 4x4 stack 0.12 ms against 0.36 ms for
one reshaped GEMM on batch-first memory, the 2x2 Hermitian solve with four
right-hand sides 0.5-0.9 ms against 1.3-2.9 ms, the Householder QR 0.9-2.7
ms against 3.5-5.2 ms for a 4x2 null complement, and a 4x4 Haar pilot from
reflectors 2.7-3.4 ms against 4.3-5.0 ms for the Householder QR of a full
Gaussian draw and 7.7-8.6 ms for numpy's QR of it.  The products break even
with numpy at 32-64 matrices and the solve and the QR at 64-160, so at 192
every kernel is on its faster side.

Scratch arenas.  A chunk's arrays are megabytes, and the C allocator hands
freed memory of that size back to the system, so without reuse every chunk
page-faults much of its working set in again: about 2,450 minor faults per
4096-trial reciprocal ``mc_nmse`` chunk and 4,730 per non-reciprocal one, at
about 2 us each on that VM.  An :class:`Arena` is one block of memory that a
Monte Carlo worker keeps from chunk to chunk; :mod:`dcekit.simkit` activates
one for the length of each chunk (a ``contextvars`` variable, so threads
never share one).  While one is active, every chunk-scale output and
temporary here and in the engine comes from it through ``out=``:
:func:`empty`, :func:`empty_like` and :func:`empty_stack` take memory,
:func:`scratch` opens a frame whose arrays are free again when it closes,
and :func:`keep` marks results that must outlive the caller's frame.  The
footprint rule is that whatever is dead by the next step shares memory: each
kernel's temporaries go when it returns, and each noise draw once it is
added in place.  So a 4x2x2 chunk's arena is 6.1 MiB reciprocal and 8.4
MiB non-reciprocal for ``mc_nmse`` (7.3 and 9.3 MiB for ``mc_ser``), against
a peak of 9.6 and 16.1 MiB of live numpy memory without arenas, and a
steady-state chunk takes no page fault.  That cut a ``mc_nmse`` chunk from
20.4-21.0 ms to 14.7-15.6 ms reciprocal and from 35-44 ms to 28-32 ms
non-reciprocal (one BLAS thread, fresh processes, alternating), a share that
depends on how the allocator last trimmed its heap.  With no arena active (a
direct :func:`dcekit.protocol.run_rounds` call, the batch-of-one rounds) numpy
allocates as it always did, and below :data:`HOUSEHOLDER_MIN_BATCH` matrices
the products, solves and QRs take numpy's calls before any arena lookup.
Only the destination memory changes, never an operation or its order, so the
bits are the same either way.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Arena",
    "RngStream",
    "active_arena",
    "add_complex_normal",
    "complex_normal",
    "empty",
    "empty_like",
    "empty_stack",
    "haar_semiunitary",
    "herm",
    "hermitian_solve",
    "keep",
    "matmul",
    "null_complement",
    "random_gaussian",
    "scratch",
    "stacked_complex_normal",
]

# Stacks of at least this many matrices take the vector kernels (QR, product,
# Hermitian solve) in stack-last memory; smaller ones take numpy's calls (see
# the module docstring).
HOUSEHOLDER_MIN_BATCH = 192

_ALIGN = 64  # bytes; every arena array starts on a cache line


class Arena:
    """Scratch memory that one Monte Carlo worker reuses from chunk to chunk.

    One block, used as a stack from each end.  Arrays that last the chunk
    (taken outside any frame, or inside :func:`keep`) grow from the bottom;
    the temporaries of a :func:`scratch` frame grow from the top and are
    given back when the frame closes.  A request that does not fit gets
    fresh numpy memory, and when :meth:`activate` ends, the block grows to
    the largest size the chunk used, so from the next chunk with the same
    shapes on nothing is allocated.  An arena serves one thread at a time.
    """

    def __init__(self) -> None:
        self._block = np.empty(0, dtype=np.uint8)
        self._low = 0  # bytes taken from the bottom
        self._top = 0  # bytes taken from the top
        self._used = 0  # the largest _low + _top seen
        self._frames: list[int | None] = []  # saved _top per scratch frame, None per keep frame
        self._scratch = _Frame(self, scratch=True)
        self._keep = _Frame(self, scratch=False)

    @property
    def nbytes(self) -> int:
        """Size of the block the arena holds between chunks."""
        return self._block.size

    @contextlib.contextmanager
    def activate(self):
        """Serve this thread's allocations from the arena until the ``with``
        statement ends; nothing taken inside may be used after it."""
        token = _ACTIVE.set(self)
        try:
            yield self
        finally:
            _ACTIVE.reset(token)
            self._low = self._top = 0
            self._frames.clear()
            if self._used > self._block.size:
                self._block = np.empty(self._used, dtype=np.uint8)

    def _take(self, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        """An uninitialised C-order array of ``shape`` and ``dtype``."""
        nbytes = -(-math.prod(shape) * dtype.itemsize // _ALIGN) * _ALIGN
        if self._frames and self._frames[-1] is not None:
            self._top += nbytes
            start = self._block.size - self._top
        else:
            start = self._low
            self._low += nbytes
        used = self._low + self._top
        if used > self._used:
            self._used = used
        if used > self._block.size:
            return np.empty(shape, dtype)
        return np.ndarray(shape, dtype, self._block, start)


class _Frame:
    """A :func:`scratch` or :func:`keep` frame of one arena."""

    __slots__ = ("_arena", "_scratch")

    def __init__(self, arena: Arena, scratch: bool) -> None:
        self._arena, self._scratch = arena, scratch

    def __enter__(self) -> None:
        arena = self._arena
        arena._frames.append(arena._top if self._scratch else None)

    def __exit__(self, *exc) -> None:
        top = self._arena._frames.pop()
        if top is not None:
            self._arena._top = top


_ACTIVE: contextvars.ContextVar[Arena | None] = contextvars.ContextVar("dcekit_arena", default=None)
_NO_FRAME = contextlib.nullcontext()


def active_arena() -> Arena | None:
    """The arena serving this thread's allocations, or ``None``."""
    return _ACTIVE.get()


def scratch():
    """Frame of the active arena whose arrays are free again when it closes;
    with no arena active, a no-op.  Nothing taken inside may escape it
    unless taken inside a nested :func:`keep`."""
    arena = _ACTIVE.get()
    return _NO_FRAME if arena is None else arena._scratch


def keep():
    """Frame inside which the active arena's arrays last the chunk, whatever
    frame encloses it; with no arena active, a no-op."""
    arena = _ACTIVE.get()
    return _NO_FRAME if arena is None else arena._keep


def empty(shape: tuple[int, ...], dtype=np.complex128) -> np.ndarray:
    """``np.empty(shape, dtype)``, from the active arena if there is one."""
    arena = _ACTIVE.get()
    if arena is None:
        return np.empty(shape, dtype)
    return arena._take(shape, np.dtype(dtype))


def empty_like(x: np.ndarray, dtype=None) -> np.ndarray:
    """``np.empty_like(x, dtype)``, from the active arena if there is one: the
    axes keep ``x``'s memory order, as numpy's ``K`` order does, so a
    reduction over the result sums in the order it would have."""
    arena = _ACTIVE.get()
    if arena is None:
        return np.empty_like(x, dtype)
    order = _memory_order(x)
    buf = arena._take(tuple(x.shape[i] for i in order), np.dtype(x.dtype if dtype is None else dtype))
    return buf.transpose(np.argsort(order))


def _memory_order(x: np.ndarray) -> list[int]:
    """``x``'s axes from the largest stride to the smallest (numpy's ``K`` order)."""
    return sorted(range(x.ndim), key=lambda i: -abs(x.strides[i]))


def empty_stack(shape: tuple[int, ...], dtype=np.complex128) -> np.ndarray:
    """Uninitialised ``(batch, rows, cols)`` array in stack-last memory (rows
    outermost, the layout :func:`matmul` gives a product of two stacks) from
    :data:`HOUSEHOLDER_MIN_BATCH` matrices on, C order otherwise; from the
    active arena if there is one."""
    if shape[0] < HOUSEHOLDER_MIN_BATCH:
        return empty(shape, dtype)
    return empty(shape[1:] + shape[:1], dtype).transpose(2, 0, 1)


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


def _fill_normal(gen: np.random.Generator, out: np.ndarray, var: float) -> np.ndarray:
    """Fill the dense ``out`` with iid CN(0, ``var``) draws and return it: bit
    for bit ``m[...] = (p[..., 0] + 1j * p[..., 1]) * sqrt(var / 2)``, ``p =
    gen.standard_normal(m.shape + (2,))``, for ``m`` the view of ``out`` in
    its memory order (axes from the largest stride to the smallest)."""
    # Every draw of a batch-of-one round is C-contiguous: it skips the stride sort.
    flat = (out if out.flags.c_contiguous else out.transpose(_memory_order(out))).reshape(-1)
    gen.standard_normal(out=flat.view(np.float64))
    flat *= np.sqrt(var / 2.0)
    return out


def complex_normal(gen: np.random.Generator, shape: tuple[int, ...], var: float) -> np.ndarray:
    """Array of iid CN(0, ``var``) draws in :func:`empty` (C-order) memory."""
    return _fill_normal(gen, empty(shape), var)


def stacked_complex_normal(gen: np.random.Generator, shape: tuple[int, ...], var: float) -> np.ndarray:
    """iid CN(0, ``var``) draws in :func:`empty_stack` memory for a ``(batch,
    rows, cols)`` shape, in that memory's order: below
    :data:`HOUSEHOLDER_MIN_BATCH` matrices the values of ``complex_normal(gen,
    shape, var)``, from there on entry ``(b, i, j)`` takes draw ``(i * cols +
    j) * batch + b``."""
    return _fill_normal(gen, empty_stack(shape), var)


def add_complex_normal(x: np.ndarray, gen: np.random.Generator, var: float) -> np.ndarray:
    """``x += z`` for iid CN(0, ``var``) draws ``z``, made in scratch
    :func:`empty_like` memory and drawn in ``x``'s own memory order; returns
    ``x``.  The add runs over two arrays of the same strides, which numpy
    does in one pass with no buffer of its own."""
    with scratch():
        x += _fill_normal(gen, empty_like(x), var)
    return x


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
    return np.swapaxes(np.conjugate(x, out=empty_like(x)), -1, -2)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a ``(batch, p, q)`` stack times a ``(batch, q, r)`` stack
    ``b``, where ``a`` may instead be one ``(p, q)`` matrix shared by the stack.

    From :data:`HOUSEHOLDER_MIN_BATCH` matrices on the result is stack-last:
    a shared ``a`` makes one ``(p, q) @ (q, batch)`` GEMM per column of ``b``,
    and two stacks make, per row of the result, ``q`` multiply-adds of ``r``
    vectors along the stack (fast when the inputs are stack-last, correct for
    any strides).  Smaller stacks take numpy's ``@``.
    """
    # Every product of a batch-of-one round passes here: one test sends it to numpy.
    batch = b.shape[0]
    if batch < HOUSEHOLDER_MIN_BATCH:
        return a @ b
    dtype = np.result_type(a, b)
    if a.ndim == 2:  # one (p, q) @ (q, batch) GEMM per column of b
        bm = b.transpose(2, 1, 0)
        out = empty((bm.shape[0], a.shape[0], batch), dtype)
        return np.matmul(a, bm, out=out).transpose(2, 1, 0)
    am, bm = a.transpose(1, 2, 0), b.transpose(1, 2, 0)
    out = empty((am.shape[0], bm.shape[1], batch), dtype)
    with scratch():
        term = empty(out.shape[1:], dtype)
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
    read.  Smaller stacks take ``np.linalg.solve``.
    """
    if s.shape[0] < HOUSEHOLDER_MIN_BATCH:
        return np.linalg.solve(s, rhs)
    sm = s.transpose(1, 2, 0)
    n, size = sm.shape[0], sm.shape[-1]
    x = empty(rhs.shape[1:] + rhs.shape[:1])
    np.copyto(x, rhs.transpose(1, 2, 0))
    m = x.shape[1]
    with scratch():
        low = empty(sm.shape)
        low.fill(0.0)
        diag = empty((n, size), np.float64)
        conj, col, sums = empty((n, size)), empty((n, size)), empty((m, size))
        prod = empty((n * max(n, m), size))  # each step's terms, before their sum
        for j in range(n):
            # col = sm[j:, j] - (low[j:, :j] * low[j, :j].conj()).sum(axis=1)
            terms = np.multiply(low[j:, :j], np.conjugate(low[j, :j], out=conj[:j]),
                                out=prod[:(n - j) * j].reshape(n - j, j, size))
            np.subtract(sm[j:, j], np.sum(terms, axis=1, out=col[j:]), out=col[j:])
            np.sqrt(col[j].real, out=diag[j])
            np.divide(col[j:], diag[j], out=low[j:, j])
        for i in range(n):  # L y = rhs
            terms = np.multiply(low[i, :i, None], x[:i], out=prod[:i * m].reshape(i, m, size))
            x[i] -= np.sum(terms, axis=0, out=sums)
            x[i] /= diag[i]
        for i in range(n - 1, -1, -1):  # L^H x = y
            lc = np.conjugate(low[i + 1:, i, None], out=conj[:n - i - 1, None])
            terms = np.multiply(lc, x[i + 1:], out=prod[:(n - i - 1) * m].reshape(n - i - 1, m, size))
            x[i] -= np.sum(terms, axis=0, out=sums)
            x[i] /= diag[i]
    return x.transpose(2, 0, 1)


def _householder_qr(a: np.ndarray) -> np.ndarray:
    """The last ``n - m`` columns of the complete Q factor of a stack of
    ``(..., n, m)`` matrices, by Householder reflections, each step one pass
    over the stack; stack-last, with its columns outermost.

    LAPACK's ``zgeqrf`` / ``zungqr`` conventions: reflector ``k`` is ``I - tau
    v v^H`` with ``v[0] = 1``; the R diagonal ``beta`` is real, of the sign
    opposite to the pivot's real part; a column with nothing below the
    diagonal and a real pivot is left alone (``tau = 0``).  Column norms are
    taken from the moduli divided by their largest, so no square overflows or
    underflows at any scale, and a zero column gives ``tau = beta = 0``.
    The result is taken (:func:`empty`) before the working copy and the
    per-step vectors, which live in one :func:`scratch` frame.
    """
    n, m = a.shape[-2:]
    lead = a.shape[:-2]
    stack = a.reshape((math.prod(lead), n, m))
    size = stack.shape[0]
    steps = min(n, m)
    q = empty((max(n - m, 0), n, size))
    with scratch():
        # w[j, i] holds entry (i, j) of every matrix: the stack is the last
        # axis, and each column of the matrices is one contiguous block.  From
        # a stack-last input this copy moves whole rows of the stack.  The
        # reflector vectors v overwrite the columns below the diagonal.
        w = empty((m, n, size))
        np.copyto(w, stack.transpose(2, 1, 0))
        taus, beta, tau_h = empty((steps, size)), empty((size,), np.float64), empty((size,))
        for k in range(steps):
            _reflector(w[k, k:], beta, taus[k])
            # Apply H^H = I - conj(tau) v v^H to the trailing columns.
            _reflect(w[k + 1:, k:], w[k, k + 1:], np.conjugate(taus[k], out=tau_h))

        # Q[:, m:] = H_0 ... H_{steps-1} I[:, m:], accumulated from the right.
        q.fill(0.0)
        q[np.arange(n - m), np.arange(m, n)] = 1.0
        for k in range(steps - 1, -1, -1):
            _reflect(q[:, k:], w[k, k + 1:], taus[k])
    q = q.transpose(2, 1, 0)  # stack-last: no copy back
    return q.reshape(lead + q.shape[1:])


def _reflector(x: np.ndarray, beta: np.ndarray, tau: np.ndarray) -> None:
    """Householder reflector ``H = I - tau v v^H``, ``v = (1, x[1:] / (x[0] -
    beta))``, with ``H^H x = beta e_0``, of every column of the ``(rows,
    stack)`` block ``x`` (the stack last), in the LAPACK conventions that
    :func:`_householder_qr` states.  Writes ``beta`` (real) and ``tau``, and
    overwrites ``x[1:]`` with ``v[1:]``."""
    n, size = x.shape
    real = np.float64
    alpha = x[0]
    with scratch():
        mag, ratio = empty((n, size), real), empty((n - 1, size), real)
        s, tail, den = empty((size,), real), empty((size,), real), empty((size,), real)
        alone, real_pivot, inv = empty((size,), np.bool_), empty((size,), np.bool_), empty((size,))
        np.abs(x, out=mag)
        np.max(mag, axis=0, out=s)
        np.copyto(s, 1.0, where=np.equal(s, 0.0, out=alone))
        np.divide(mag[1:], s, out=ratio)
        np.sum(np.square(ratio, out=ratio), axis=0, out=tail)
        np.equal(tail, 0.0, out=alone)
        alone &= np.equal(alpha.imag, 0.0, out=real_pivot)
        # beta = -copysign(sqrt((|alpha| / s)^2 + tail) * s, Re alpha)
        np.divide(mag[0], s, out=beta)
        np.square(beta, out=beta)
        beta += tail
        np.sqrt(beta, out=beta)
        beta *= s
        np.negative(np.copysign(beta, alpha.real, out=beta), out=beta)
        np.copyto(beta, alpha.real, where=alone)
        # tau = (beta - alpha) / where(alone, 1, beta)
        np.subtract(beta, alpha, out=tau)
        np.copyto(den, beta)
        np.copyto(den, 1.0, where=alone)
        np.divide(tau, den, out=tau)
        # v = x[1:] / where(alone, 1, alpha - beta)
        np.subtract(alpha, beta, out=inv)
        np.copyto(inv, 1.0, where=alone)
        np.divide(1.0, inv, out=inv)
        np.multiply(x[1:], inv, out=x[1:])


def _reflect(block: np.ndarray, v: np.ndarray, tau: np.ndarray) -> None:
    """Apply ``I - tau u u^H``, ``u = (1, v)``, in place to every column of
    ``block``, shape ``(columns, rows, stack)`` as in :func:`_householder_qr`."""
    head, body = block[:, 0], block[:, 1:]
    with scratch():
        prod = np.multiply(np.conjugate(v, out=empty(v.shape)), body, out=empty(body.shape))
        t = np.sum(prod, axis=1, out=empty(head.shape))
        np.add(head, t, out=t)
        np.multiply(tau, t, out=t)
        head -= t
        body -= np.multiply(v, t[:, None], out=prod)


def haar_semiunitary(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Independent Haar-distributed ``tau x n`` semi-unitaries, shape ``(..., tau, n)``.

    Each is the Q factor of a complex Gaussian (Ginibre) matrix with the R
    diagonal made positive, whose law is invariant under any fixed unitary.
    Below :data:`HOUSEHOLDER_MIN_BATCH` matrices that is literal: LAPACK's QR
    of ``complex_normal(gen, shape, 1.0)``, then a phase per column.

    A larger stack draws only what Q depends on.  Householder QR takes the
    columns one at a time: reflector ``k`` is built from column ``k`` below
    row ``k`` after reflectors ``0 .. k-1`` were applied, and as those are
    unitary and depend on the earlier columns only, that is a fresh Gaussian
    vector of length ``tau - k``, independent of the rest.  So Q is the
    product of ``n`` reflectors of independent Gaussian vectors of lengths
    ``tau, tau - 1, ..., tau - n + 1`` (G. W. Stewart, SIAM J. Numer. Anal.
    17(3), 1980; F. Mezzadri, Notices AMS 54(5), 2007): 10 complex normals
    for a 4x4, not 16, and no update of the trailing columns.  They are drawn
    as one stack-last block, unscaled (a reflector does not depend on its
    vector's scale), and Q is accumulated from the right starting from
    ``diag(sign beta_k)``, which is the phase step.  The result is stack-last
    with its columns outermost, as :func:`_householder_qr`'s Q factor.  The
    module docstring has the timings.
    """
    tau, n = shape[-2:]
    if not 1 <= n <= tau:
        raise ValueError(f"need tau >= n >= 1 for orthonormal columns, got {tau}x{n}")
    lead = shape[:-2]
    size = math.prod(lead)
    if size < HOUSEHOLDER_MIN_BATCH:
        with scratch():
            q, r = np.linalg.qr(complex_normal(gen, shape, 1.0))
            diag = np.diagonal(r, axis1=-2, axis2=-1)
            ratio = np.divide(diag, np.abs(diag, out=empty_like(diag)), out=empty_like(diag))
            phase = empty_like(diag, np.complex128)
            np.copyto(phase, ratio)
            np.copyto(phase, 1.0 + 0j, where=np.equal(diag, 0, out=empty_like(diag, np.bool_)))
            with keep():
                out = empty_like(q)
            return np.multiply(q, np.conjugate(phase, out=phase)[..., None, :], out=out)
    q = empty((n, tau, size))  # q[j, i] holds entry (i, j) of every matrix
    q.fill(0.0)
    with scratch():
        # Reflector k's vector is rows starts[k] .. starts[k + 1] of the block.
        starts = [k * tau - k * (k - 1) // 2 for k in range(n + 1)]
        block = empty((starts[n], size))
        gen.standard_normal(out=block.reshape(-1).view(np.float64))
        taus, beta = empty((n, size)), empty((size,), np.float64)
        for k in range(n):
            _reflector(block[starts[k]:starts[k + 1]], beta, taus[k])
            np.copysign(1.0, beta, out=q[k, k].real)
        # Q = H_0 ... H_{n-1} diag(sign beta)[:, :n], accumulated from the right.
        for k in range(n - 1, -1, -1):
            _reflect(q[k:, k:], block[starts[k] + 1:starts[k + 1]], taus[k])
    q = q.transpose(2, 1, 0)
    return q.reshape(lead + q.shape[1:])


def null_complement(mat: np.ndarray) -> np.ndarray:
    """Orthonormal left-null-space completion of ``(..., n, m)`` matrices.

    Never raises: the last ``n - m`` columns of the unitary complete-QR factor
    complement the span of ``mat`` at any rank, zero included, which the
    protocol needs on edges like an unpowered reverse stage.  Numpy's LAPACK
    QR below :data:`HOUSEHOLDER_MIN_BATCH` matrices, :func:`_householder_qr`
    from there on.
    """
    if math.prod(mat.shape[:-2]) < HOUSEHOLDER_MIN_BATCH:
        return np.linalg.qr(mat, mode="complete")[0][..., mat.shape[-1]:]
    return _householder_qr(mat)
