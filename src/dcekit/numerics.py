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
kernel's temporaries go when it returns, each noise draw once it is added in
place (a large one a slab at a time), and a buffer that outlives its
operands is taken before their frame opened: a product through
:func:`matmul`'s ``out``, a null basis through :func:`null_complement`'s (a
stack solve, :func:`hermitian_solve`, takes its stack-last right-hand side's
memory instead).
The engine also drops its last reference to each array where the array's
frame closes, so a chunk that runs without an arena holds about as much.
The footprint of one fresh 4096-trial chunk at ``SystemConfig(4, 2, 2)``
with default plans, in MiB: the arena it leaves (:attr:`Arena.nbytes`) and
the most live numpy memory it holds with no arena (tracemalloc peak):

    ==========================  =====  ========
    chunk                       arena  no arena
    ==========================  =====  ========
    reciprocal ``mc_nmse``      4.41   4.38
    reciprocal ``mc_ser``       4.41   4.55
    non-reciprocal ``mc_nmse``  4.75   4.88
    non-reciprocal ``mc_ser``   4.75   4.88
    ==========================  =====  ========

The reciprocal arena peaks in the null complement's QR, with the forward
signal and the null basis taken before the reverse estimate; without an
arena, at the AN product (``mc_nmse``) or in the detector (``mc_ser``).
Both non-reciprocal peaks are the echo's first noise draw, with the pilot,
the channels and the buffers of the echo and the uplink estimate live (the
uplink Gram dies with the echo estimate's solve).  This table is the one
place these figures are stated; ``TestArenas`` in ``tests/test_simkit.py``
pins them.

A request that does not fit the block (in a worker's first chunk, or the
first chunk of a larger shape) gets an anonymous memory mapping of its
own, which goes back to the system at the array's last use, so nothing of
an overflow stays resident after its chunk.  From numpy, arrays of that
size would come from the C heap, which keeps much of them: once glibc has
freed a large mapping, it serves blocks up to that size from its heap.
The cost is page faults, once per arena: a fresh arena's first 4096-trial
``mc_nmse`` chunk takes about 5-9 ms longer than the next one reciprocal
and 10-19 ms non-reciprocal (1-4 ms with heap memory), and a scheme switch
that outgrows an arena pays it for the larger stages alone.  A
steady-state chunk takes no page fault.  Arenas cut a ``mc_nmse`` chunk
from 20.4-21.0 ms to 14.7-15.6 ms reciprocal and from 35-44 ms to
28-32 ms non-reciprocal (one BLAS thread, fresh processes, alternating),
a share that depends on how the allocator last trimmed its heap.  With no
arena active (a direct :func:`dcekit.protocol.run_rounds` call, the
batch-of-one rounds) numpy allocates as it always did, and below
:data:`HOUSEHOLDER_MIN_BATCH` matrices the products, solves and QRs take
numpy's calls before any arena lookup.  Only the destination memory
changes, never an operation or its order, so the bits are the same either
way.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import mmap
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

# An arena's overflow pages are private where the OS has the flag: mmap's
# default for an anonymous map is shared memory, whose pages fault in more
# slowly (BENCH_arena_pages.json has the first-chunk times of both).
_OVERFLOW_MAP = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}

# Entries of the scratch slab a large noise draw is made in (256 KiB): a
# 4096-trial chunk draws a 4x4 stack's noise in four slabs, a 4x2 stack's in
# two, and nothing smaller is split.
_NOISE_SLAB = 1 << 14


class Arena:
    """Scratch memory that one Monte Carlo worker reuses from chunk to chunk.

    One block, used as a stack from each end.  Arrays that last the chunk
    (taken outside any frame, or inside :func:`keep`) grow from the bottom;
    the temporaries of a :func:`scratch` frame grow from the top and are
    given back when the frame closes.  A request that does not fit gets an
    anonymous memory mapping of its own, unmapped when the array and its
    views are gone, and when :meth:`activate` ends, the block grows to the
    largest size the chunk used, so from the next chunk with the same
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
        if used > self._block.size:  # its own pages, unmapped at the array's last use
            pages = mmap.mmap(-1, max(nbytes, 1), **_OVERFLOW_MAP)  # mmap takes no empty length
            return np.frombuffer(pages, dtype, math.prod(shape)).reshape(shape)
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


def empty_stack(shape: tuple[int, ...], dtype=np.complex128, columns_first: bool = False) -> np.ndarray:
    """Uninitialised ``(batch, rows, cols)`` array in stack-last memory from
    :data:`HOUSEHOLDER_MIN_BATCH` matrices on, C order otherwise; from the
    active arena if there is one.  Rows are outermost (the layout
    :func:`matmul` gives a product of two stacks), or with ``columns_first``
    the columns (the layout of a shared factor's product and of
    :func:`null_complement`)."""
    if shape[0] < HOUSEHOLDER_MIN_BATCH:
        return empty(shape, dtype)
    if columns_first:
        return empty(shape[:0:-1] + shape[:1], dtype).transpose(2, 1, 0)
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
    dense = out if out.flags.c_contiguous else out.transpose(_memory_order(out))
    gen.standard_normal(out=dense.view(np.float64))
    dense *= math.sqrt(var / 2.0)
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
    """``x += z`` for iid CN(0, ``var``) draws ``z``, drawn in ``x``'s own
    memory order; returns ``x``.  A dense ``x`` of more than 2^14 entries
    (``_NOISE_SLAB``) takes its draws one 256 KiB scratch slab at a time, in
    order along its memory (one fill split over consecutive slabs draws the
    same values), so a large draw's scratch stays a slab.
    Any other ``x`` draws into scratch :func:`empty_like` memory.  Each add
    runs over two arrays of the same strides, which numpy does in one pass
    with no buffer of its own."""
    with scratch():
        if x.size > _NOISE_SLAB:
            flat = x.transpose(_memory_order(x))
            if flat.flags.c_contiguous:
                flat, slab = flat.reshape(-1), empty((_NOISE_SLAB,))
                for lo in range(0, flat.size, _NOISE_SLAB):
                    part = flat[lo:lo + _NOISE_SLAB]
                    part += _fill_normal(gen, slab[:part.size], var)
                return x
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
    return np.conjugate(x, out=empty_like(x)).swapaxes(-1, -2)


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` for a ``(batch, p, q)`` stack times a ``(batch, q, r)`` stack
    ``b``, where ``a`` may instead be one ``(p, q)`` matrix shared by the stack.

    From :data:`HOUSEHOLDER_MIN_BATCH` matrices on the result is stack-last:
    a shared ``a`` makes one ``(p, q) @ (q, batch)`` GEMM per column of ``b``,
    and two stacks make, per row of the result, ``q`` multiply-adds of ``r``
    vectors along the stack (fast when the inputs are stack-last, correct for
    any strides).  Smaller stacks take numpy's ``@``.  A given ``out``, a
    complex ``(batch, p, r)`` :func:`empty_stack` array taken earlier (rows
    or columns outermost), receives the same bits and is returned, so a
    product can outlive the frame its operands live in.
    """
    # Every product of a batch-of-one round passes here: one test sends it to numpy.
    batch = b.shape[0]
    if batch < HOUSEHOLDER_MIN_BATCH:
        return a @ b if out is None else np.matmul(a, b, out=out)
    dtype = np.result_type(a, b)
    if a.ndim == 2:  # one (p, q) @ (q, batch) GEMM per column of b
        if out is None:
            out = empty_stack((batch, a.shape[0], b.shape[2]), dtype, columns_first=True)
        np.matmul(a, b.transpose(2, 1, 0), out=out.transpose(2, 1, 0))
        return out
    am, bm = a.transpose(1, 2, 0), b.transpose(1, 2, 0)
    if out is None:
        out = empty_stack((batch, am.shape[0], bm.shape[1]), dtype)
    with scratch():
        term = empty((bm.shape[1], batch), dtype)
        for i, row in enumerate(out.transpose(1, 2, 0)):  # row i of every product, (r, batch)
            np.multiply(am[i, 0], bm[0], out=row)
            for k in range(1, am.shape[1]):
                row += np.multiply(am[i, k], bm[k], out=term)
    return out


def hermitian_solve(s: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(s, rhs)`` for a ``(batch, n, n)`` stack of Hermitian
    positive-definite ``s`` and a ``(batch, n, m)`` stack ``rhs``.

    From :data:`HOUSEHOLDER_MIN_BATCH` matrices on: a Cholesky factorization
    ``s = L L^H`` and two triangular solves, each step one vector operation
    along the stack, result stack-last.  Only the lower triangle of ``s`` is
    read.  Smaller stacks take ``np.linalg.solve``.  From the crossover on, a
    stack-last ``rhs`` (:func:`empty_stack` memory) is overwritten with the
    result, which is returned in its memory, so no second stack is taken;
    any other ``rhs`` is left as it was, and the result is a stack-last
    array that lasts the chunk (:func:`keep`).  Either way the result
    outlives every frame opened after ``rhs`` was taken.
    """
    if s.shape[0] < HOUSEHOLDER_MIN_BATCH:
        return np.linalg.solve(s, rhs)
    sm = s.transpose(1, 2, 0)
    n, size = sm.shape[0], sm.shape[-1]
    x = rhs.transpose(1, 2, 0)
    if not x.flags.c_contiguous:
        with keep():
            x = empty(x.shape)
        np.copyto(x, rhs.transpose(1, 2, 0))
    m = x.shape[1]
    with scratch():
        low = empty(sm.shape)
        low.fill(0.0)
        diag = empty((n, size), np.float64)
        conj, col, sums = empty((n, size)), empty((n, size)), empty((m, size))
        # Each sum below has at most n - 1 terms; past one, every later term
        # is formed in a spare block before it is added.
        spare = empty((max(n, m), size)) if n > 2 else None

        def dot(acc, a, b):
            """``acc = sum_k a[k] * b[k]``, left to right, as ``np.sum`` adds
            along an outer axis."""
            np.multiply(a[0], b[0], out=acc)
            for k in range(1, len(a)):
                acc += np.multiply(a[k], b[k], out=spare[:len(acc)])
            return acc

        for j in range(n):
            # col = sm[j:, j] - (low[j:, :j] * low[j, :j].conj()).sum(axis=1)
            if j:
                lc = np.conjugate(low[j, :j, None], out=conj[:j, None])
                np.subtract(sm[j:, j], dot(col[j:], low[j:, :j].swapaxes(0, 1), lc), out=col[j:])
            else:
                np.copyto(col, sm[:, 0])
            np.sqrt(col[j].real, out=diag[j])
            np.divide(col[j:], diag[j], out=low[j:, j])
        for i in range(n):  # L y = rhs
            if i:
                x[i] -= dot(sums, low[i, :i, None], x[:i])
            x[i] /= diag[i]
        for i in range(n - 1, -1, -1):  # L^H x = y
            if i < n - 1:
                lc = np.conjugate(low[i + 1:, i, None], out=conj[:n - i - 1, None])
                x[i] -= dot(sums, lc, x[i + 1:])
            x[i] /= diag[i]
    return x.transpose(2, 0, 1)


def _householder_qr(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The last ``n - m`` columns of the complete Q factor of a stack of
    ``(..., n, m)`` matrices, by Householder reflections, each step one pass
    over the stack; stack-last, with its columns outermost (written into a
    given ``out`` of that layout).

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
    q = empty((max(n - m, 0), n, size)) if out is None else out.transpose(2, 1, 0)
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
    if out is not None:
        return out
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
        diag = r.diagonal(0, -2, -1)
        phase = np.ones_like(diag)
        np.divide(diag, abs(diag), out=phase, where=diag != 0)
        return np.multiply(q, np.conjugate(phase, out=phase)[..., None, :])
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


def null_complement(mat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal left-null-space completion of ``(..., n, m)`` matrices.

    Never raises: the last ``n - m`` columns of the unitary complete-QR factor
    complement the span of ``mat`` at any rank, zero included, which the
    protocol needs on edges like an unpowered reverse stage.  Numpy's LAPACK
    QR below :data:`HOUSEHOLDER_MIN_BATCH` matrices, :func:`_householder_qr`
    from there on.  A given ``out``, a ``(batch, n, n - m)`` array taken
    earlier with ``empty_stack(..., columns_first=True)``, receives the
    complement and is returned, so it can outlive the frame ``mat`` lives in.
    """
    if math.prod(mat.shape[:-2]) < HOUSEHOLDER_MIN_BATCH:
        q = np.linalg.qr(mat, mode="complete")[0][..., mat.shape[-1]:]
        if out is None:
            return q
        np.copyto(out, q)
        return out
    return _householder_qr(mat, out)
