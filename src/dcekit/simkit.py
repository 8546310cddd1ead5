r"""Monte-Carlo harness: NMSE validation runs and coded-data SER runs.

Trials are processed in fixed chunks of :data:`CHUNK`; chunk ``i`` draws from
its own counter-based stream ``RngStream(seed, i)`` and one reduction adds
the chunks' partial sums in chunk order, so results are byte-identical for
any ``workers`` value.  Workers are threads (the heavy lifting is batched
linear algebra, which releases the GIL).

Each running chunk borrows a scratch arena (:class:`dcekit.numerics.Arena`)
from a module-level pool and gives it back when it ends, so a chunk's
arrays reuse the memory of the chunks before it, in this call and in
earlier ones, instead of faulting fresh pages in.  The pool makes at most
``os.cpu_count()`` arenas (a chunk that finds none free and the pool full
allocates from numpy), and keeps them for the life of the process: the
memory retained is at most that many times the largest chunk's working set
(the footprint table in :mod:`dcekit.numerics` has the 4x2x2 sizes).
Nothing allocated in an arena leaves its chunk: the chunk functions return
Python numbers.

The data phase uses a rate-3/4 orthogonal space-time block code over four
transmit antennas carrying three unit-energy 64-QAM symbols per block.  For
orthogonal designs, coherent ML detection with an (imperfect) channel
estimate reduces to linear combining into six real coordinates; for a
product constellation such as square QAM each coordinate is then sliced
against its own axis levels, which is what :func:`ostbc_detect` implements
(other constellations are rejected).  Feeding it the true channel gives the
perfect-CSI baseline.  One table, ``_OSTBC_ENTRIES``, states the codeword:
:func:`ostbc_encode` builds blocks from it, :func:`mc_ser` sends blocks
straight from it (each row of ``y`` sums the row's three nonzero entries
times their channel rows, with no codeword array), and the detector sums
its soft symbols from it.  The detector reads the stack-last blocks of a chunk as
they are: each of the 12 entries of ``y h_hat^H`` the codeword uses is a few
vector operations along the 4096 trials, and each coordinate's level is a
count of the thresholds at or above it, all in arena memory.  A detected
symbol is a copy of a constellation value, so :func:`mc_ser` counts errors
by exact comparison with the sent one.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import analytics
from .model import MIN_TRIALS, PowerAllocation, SystemConfig, TrainingPlan
from .numerics import (
    Arena,
    RngStream,
    add_complex_normal,
    empty,
    empty_like,
    empty_stack,
    scratch,
)
from .protocol import run_rounds, squared_error

__all__ = [
    "CHUNK",
    "NmseReport",
    "QAM4",
    "QAM64",
    "SerReport",
    "mc_nmse",
    "mc_ser",
    "ostbc_encode",
    "ostbc_detect",
]

CHUNK = 4096

_WILSON_Z = 1.96  # 95% two-sided


def _square_qam(levels: np.ndarray) -> np.ndarray:
    pts = (levels[:, None] + 1j * levels[None, :]).ravel()
    return pts / math.sqrt(float(np.mean(np.abs(pts) ** 2)))


#: Unit-average-energy square constellations.
QAM64 = _square_qam(np.array([-7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0]))
QAM4 = _square_qam(np.array([-1.0, 1.0]))


@dataclass(frozen=True)
class NmseReport:
    """Empirical vs closed-form NMSE from one Monte-Carlo run.

    NMSE is the per-entry mean squared estimation error, i.e.
    ``E ||H - H_hat||_F^2 / (n_t * n_l)``; ``*_se`` are standard errors of
    the empirical means.  ``nmse_l_closed`` is exact for the reciprocal
    scheme and the high-accuracy approximation for the non-reciprocal one.
    """

    trials: int
    nmse_l: float
    nmse_l_se: float
    nmse_u: float
    nmse_u_se: float
    nmse_l_closed: float
    nmse_u_closed: float


@dataclass(frozen=True)
class SerReport:
    """Symbol error rates from one Monte-Carlo data-phase run.

    ``*_ci`` are 95% Wilson-interval halfwidths on the corresponding rate;
    ``ser_l_perfect`` is LR's SER when detection uses the true channel
    instead of its estimate (the perfect-CSI baseline).
    """

    trials: int
    data_power: float
    ser_l: float
    ser_l_ci: float
    ser_u: float
    ser_u_ci: float
    ser_l_perfect: float
    ser_l_perfect_ci: float


class _ArenaPool:
    """The scratch arenas of running chunks, kept between chunks and calls.

    :meth:`lend` hands a chunk a free arena, makes a new one while fewer
    than ``limit`` exist, and otherwise lends none (the chunk then allocates
    from numpy).  So at most ``limit`` arenas exist, each about the largest
    chunk it has served.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.arenas: list[Arena] = []
        self._free: list[Arena] = []
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def lend(self):
        with self._lock:
            if self._free:
                arena = self._free.pop()
            elif len(self.arenas) < self.limit:
                arena = Arena()
                self.arenas.append(arena)
            else:
                arena = None
        if arena is None:
            yield
            return
        try:
            with arena.activate():
                yield
        finally:
            with self._lock:
                self._free.append(arena)


_ARENAS = _ArenaPool(os.cpu_count() or 1)


def _reduce_chunks(chunk, trials: int, seed: int, workers: int) -> tuple:
    """Run ``chunk(gen, size)`` on ``RngStream(seed, i)`` for every chunk
    ``i`` of at most :data:`CHUNK` trials and add the returned tuples
    elementwise, from 0 and in chunk order, on any number of ``workers``;
    returns ``trials`` as a Python ``int``, then the sums.  Each chunk runs
    under an arena from the pool, so ``chunk`` must return Python scalars,
    never an array.  ``trials``, ``seed`` and ``workers`` must be integers
    (``TypeError`` otherwise, before any thread starts), ``workers`` at least
    1, ``trials`` at least :data:`dcekit.model.MIN_TRIALS` and ``seed`` at
    least 0 (``ValueError`` otherwise); ``chunk`` checks the rest."""
    ints = []
    for name, value in (("trials", trials), ("seed", seed), ("workers", workers)):
        try:
            ints.append(operator.index(value))
        except TypeError:
            raise TypeError(f"{name} must be an integer, got {value!r}") from None
    trials, seed, workers = ints
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials for a meaningful run, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    full, rem = divmod(trials, CHUNK)
    sizes = [CHUNK] * full + ([rem] if rem else [])

    def run(i: int) -> tuple:
        with _ARENAS.lend():
            return chunk(RngStream(seed, i).generator, sizes[i])

    if workers <= 1:
        parts = [run(i) for i in range(len(sizes))]
    else:
        # Imported here: with the logging it loads, 5-7 ms of `import dcekit`.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, range(len(sizes))))
    # Explicit left-to-right +: sum() adds floats differently from 3.12 on.
    return (trials, *(functools.reduce(operator.add, column, 0) for column in zip(*parts)))


def mc_nmse(
    config: SystemConfig,
    plan: TrainingPlan,
    alloc: PowerAllocation,
    trials: int,
    seed: int,
    workers: int = 1,
) -> NmseReport:
    """Estimate LR/UR training NMSE empirically and pair it with closed forms."""
    norm_l = config.n_t * config.n_l
    norm_u = config.n_t * config.n_u

    def one_chunk(gen, m: int):
        out = run_rounds(config, plan, alloc, gen, batch=m)
        xl = squared_error(out["h"], out["h_lr"])
        xl /= norm_l
        xu = squared_error(out["g"], out["g_ur"])
        xu /= norm_u
        sq = empty((m,), np.float64)
        return (
            float(xl.sum()), float(np.multiply(xl, xl, out=sq).sum()),
            float(xu.sum()), float(np.multiply(xu, xu, out=sq).sum()),
        )

    n, sum_l, sumsq_l, sum_u, sumsq_u = _reduce_chunks(one_chunk, trials, seed, workers)
    mean_l, mean_u = sum_l / n, sum_u / n
    se_l = math.sqrt(max(sumsq_l - n * mean_l**2, 0.0) / (n - 1) / n)
    se_u = math.sqrt(max(sumsq_u - n * mean_u**2, 0.0) / (n - 1) / n)
    cf_l, cf_u = analytics.closed_forms(config, plan, alloc)
    return NmseReport(
        trials=n, nmse_l=mean_l, nmse_l_se=se_l, nmse_u=mean_u, nmse_u_se=se_u,
        nmse_l_closed=cf_l, nmse_u_closed=cf_u,
    )


# ---------------------------------------------------------------------------
# Rate-3/4 orthogonal space-time block code over 4 antennas.
# ---------------------------------------------------------------------------


# The codeword, row by row:
#     [  s1     s2     s3    0  ]
#     [ -s2*    s1*    0     s3 ]
#     [ -s3*    0      s1*  -s2 ]
#     [  0     -s3*    s2*   s1 ]
# as (row, column): (symbol index, conjugated, negated); the rest are zero.
_OSTBC_ENTRIES = {
    (0, 0): (0, False, False), (0, 1): (1, False, False), (0, 2): (2, False, False),
    (1, 0): (1, True, True), (1, 1): (0, True, False), (1, 3): (2, False, False),
    (2, 0): (2, True, True), (2, 2): (0, True, False), (2, 3): (1, False, True),
    (3, 1): (2, True, True), (3, 2): (1, True, False), (3, 3): (0, False, False),
}


# Each codeword row's nonzero entries as (column, symbol index, conjugated,
# negated), in the order mc_ser sums them: column order, except that a row
# whose first entry is negated starts from its second (-a + b is b - a, and
# no row has its first two negated).
_OSTBC_SEND = tuple(
    (row[1], row[0], *row[2:]) if row[0][3] else row
    for row in (
        tuple((j, *_OSTBC_ENTRIES[i, j]) for j in range(4) if (i, j) in _OSTBC_ENTRIES)
        for i in range(4)
    )
)


def ostbc_encode(s1, s2, s3) -> np.ndarray:
    """Map three symbols to the 4x4 rate-3/4 orthogonal codeword.

    Inputs may be scalars or broadcastable arrays; the codeword axes are the
    last two of the output (time x antenna), and the input axes have the
    smallest strides (a stack of codewords is stack-last, as
    :func:`dcekit.numerics.matmul` wants).  The design satisfies
    ``X X^H = (|s1|^2+|s2|^2+|s3|^2) I`` for every input triple.
    """
    syms = np.broadcast_arrays(
        np.asarray(s1, dtype=complex), np.asarray(s2, dtype=complex), np.asarray(s3, dtype=complex)
    )
    x = empty((4, 4) + syms[0].shape)
    for i, j in np.ndindex(4, 4):
        entry = x[i, j, ...]
        if (i, j) not in _OSTBC_ENTRIES:
            entry.fill(0.0)
            continue
        k, conj, neg = _OSTBC_ENTRIES[i, j]
        if conj:
            np.conjugate(syms[k], out=entry)
        else:
            np.copyto(entry, syms[k])
        if neg:
            np.negative(entry, out=entry)
    return x.transpose(*range(2, x.ndim), 0, 1)


def _ostbc_send(sym: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``ostbc_encode(*s) @ h`` for an ``(m, 4, n_r)`` channel stack, from
    ``sym``: the ``(2, 3, m)`` symbols ``s`` and their conjugates.  Each row
    of the result sums the codeword row's nonzero entries times their
    channel rows (``_OSTBC_SEND``), with no codeword array.  From
    :data:`dcekit.numerics.HOUSEHOLDER_MIN_BATCH` trials on these are the
    bits of :func:`dcekit.numerics.matmul` of the codeword, whose zero
    entries add nothing; below, numpy's ``@`` of it can differ in the last
    bit."""
    m, n_r = h.shape[0], h.shape[-1]
    y = empty_stack((m, 4, n_r))
    rows = h.transpose(1, 2, 0)  # row j of every channel, (n_r, m)
    with scratch():
        term = empty((n_r, m))
        for y_row, ((j, k, conj, _), *rest) in zip(y.transpose(1, 2, 0), _OSTBC_SEND):
            np.multiply(sym[int(conj), k], rows[j], out=y_row)
            for j, k, conj, neg in rest:
                np.multiply(sym[int(conj), k], rows[j], out=term)
                (np.subtract if neg else np.add)(y_row, term, out=y_row)
    return y


def _axis_slicer(constellation: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis decision thresholds and the point table of a product constellation.

    Returns the midpoints between adjacent sorted real levels, the same for
    the imaginary levels, and ``table``: the point whose real level lies
    below ``a`` of the real thresholds and whose imaginary level lies below
    ``b`` of the imaginary ones is ``table[a * n_im + b]``, ``n_im`` being
    the number of imaginary levels.
    """
    pts = np.asarray(constellation, dtype=complex)
    re, at_re = np.unique(pts.real, return_inverse=True)
    im, at_im = np.unique(pts.imag, return_inverse=True)
    grid = np.full((re.size, im.size), np.nan, dtype=complex)
    grid[at_re, at_im] = pts
    if pts.size == 0 or pts.size != grid.size or np.isnan(grid).any():
        raise ValueError(
            "per-axis slicing needs a product constellation: every pairing of "
            "a real level with an imaginary level must be a point, exactly once"
        )
    slicer = (re[1:] + re[:-1]) / 2.0, (im[1:] + im[:-1]) / 2.0, grid[::-1, ::-1].ravel()
    for part in slicer:
        part.setflags(write=False)
    return slicer


@functools.cache
def _qam64_slicer() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The default constellation's slicer, built on first use and kept.  Not
    built at import: the first ``np.unique`` in a process maps in about 0.7
    MB, which a run that never detects would otherwise carry."""
    return _axis_slicer(QAM64)


def ostbc_detect(
    y: np.ndarray,
    h_hat: np.ndarray,
    scale: float = 1.0,
    constellation: np.ndarray | None = None,
) -> np.ndarray:
    """Coherent ML detection of a rate-3/4 block against a channel estimate.

    ``y`` is the received block ``(..., 4, n_r)`` for transmitted
    ``scale * ostbc_encode(s1, s2, s3) @ H``; ``h_hat`` the ``(..., 4, n_r)``
    channel estimate used for detection (pass the true channel for the
    perfect-CSI baseline); their leading axes broadcast, so either may be one
    matrix shared by a stack.  ``scale`` must be positive and finite, and
    misshapen blocks or a bad ``scale`` raise ``ValueError``.  Returns the
    detected symbols ``(..., 3)`` as constellation values (default 64-QAM).

    Orthogonality of the design makes exact ML decouple into six real
    coordinates ``Re tr(B_k^H y h_hat^H) / (scale ||h_hat||^2)``.  The soft
    symbols are summed from the codeword table: each of the 12 entries of
    ``y h_hat^H`` the codeword uses, a sum of ``n_r`` elementwise products
    along the leading axes, is added to or subtracted from its symbol's
    plain or conjugated part, and a soft symbol is its plain part plus the
    conjugate of its conjugated part.  For a constellation
    that is the Cartesian product of its real and imaginary levels (every
    square QAM, including :data:`QAM4` and :data:`QAM64`) each coordinate is
    then sliced on its own axis; any other constellation raises
    ``ValueError``.  The default's thresholds and point table are built once
    per process, a constellation passed in on every call.  A coordinate's
    level is the number of thresholds below it, so one exactly on a
    threshold takes the lower level, NaN the top level, and an infinite one
    the outer level on its side.  Under an arena every array the size of the
    stack comes from it.
    """
    if not 0.0 < scale < math.inf:
        raise ValueError(f"scale must be positive and finite, got {scale}")
    if y.ndim < 2 or y.shape[-2:] != h_hat.shape[-2:] or y.shape[-2] != 4 or y.shape[-1] < 1:
        raise ValueError(
            f"y and h_hat must be (..., 4, n_r) blocks with the same n_r >= 1, "
            f"got {y.shape} and {h_hat.shape}"
        )
    if constellation is None:
        mids_re, mids_im, table = _qam64_slicer()
    else:  # built and checked on every call
        mids_re, mids_im, table = _axis_slicer(constellation)
    lead, n_r = np.broadcast_shapes(y.shape[:-2], h_hat.shape[:-2]), y.shape[-1]
    detected = empty(lead + (3,))
    with scratch():
        denom = empty(h_hat.shape[:-2], np.float64)
        with scratch():
            energy = np.square(h_hat.real, out=empty_like(h_hat, np.float64))
            energy += np.square(h_hat.imag, out=empty_like(h_hat, np.float64))
            if energy.ndim == 3 and energy.strides[0] == energy.itemsize:
                # A stack-last stack: one C-contiguous (entries, trials) block
                # in memory order, summed down its entries as np.sum adds the
                # two outer axes.  A batch-first matrix's contiguous entries
                # are added pairwise instead, so that keeps np.sum.
                order = (1, 2) if energy.strides[1] >= energy.strides[2] else (2, 1)
                block = energy.transpose(*order, 0).reshape(-1, energy.shape[0])
                np.add.reduce(block, axis=0, out=denom)
            else:
                np.sum(energy, axis=(-2, -1), out=denom)
        np.multiply(scale, np.maximum(denom, 1e-300, out=denom), out=denom)

        # Each M[i, j] of M = y h_hat^H is summed over r one vector over the
        # leading axes at a time: numpy copies through a fresh buffer any
        # product whose operands' strides differ on more than one axis, and
        # a stack-last y or h_hat may have its rows or its columns outermost.
        # The entries go column by column of the codeword, so one row of
        # h_hat is conjugated at a time; each part takes two entries, and two
        # adds to 0 give the same sum in either order.
        parts = empty((2, 3) + lead)  # plain, then conjugated
        parts.fill(0.0)
        with scratch():
            h_row = empty((n_r,) + h_hat.shape[:-2])
            m, term = empty(lead), empty(lead)
            for j in range(4):
                np.conjugate(np.moveaxis(h_hat[..., j, :], -1, 0), out=h_row)
                for i in range(4):
                    if (i, j) not in _OSTBC_ENTRIES:
                        continue
                    k, conj, neg = _OSTBC_ENTRIES[i, j]
                    np.multiply(y[..., i, 0], h_row[0], out=m)
                    for r in range(1, n_r):
                        m += np.multiply(y[..., i, r], h_row[r], out=term)
                    part = parts[int(conj), k, ...]
                    (np.subtract if neg else np.add)(part, m, out=part)
        plain, conjugated = parts
        soft = np.add(plain, np.conjugate(conjugated, out=conjugated), out=plain)

        coords = empty((2, 3) + lead, np.float64)  # real parts, then imaginary parts
        for k in range(3):
            np.divide(soft[k].real, denom, out=coords[0, k, ...])
            np.divide(soft[k].imag, denom, out=coords[1, k, ...])
        # Per axis, count the thresholds at or above each coordinate (one
        # byte per comparison); the two counts make the index into table.
        counts = empty((2, 3) + lead, np.min_scalar_type(table.size - 1))
        for part, mids, count in zip(coords, (mids_re, mids_im), counts):
            at_or_above = empty(mids.shape + part.shape, np.uint8)
            thresholds = mids.reshape(mids.shape + (1,) * part.ndim)
            np.less_equal(part, thresholds, out=at_or_above.view(np.bool_))
            np.add.reduce(at_or_above, axis=0, out=count)
        position = np.multiply(counts[0], mids_im.size + 1, out=counts[0])
        position += counts[1]
        index = empty(lead + (3,), np.intp)
        np.copyto(np.moveaxis(index, -1, 0), position)
        np.take(table, index, out=detected, mode="clip")
    return detected


def _wilson_halfwidth(errors: int, n: int) -> float:
    z = _WILSON_Z
    p = errors / n
    return z * math.sqrt(p * (1.0 - p) / n + z**2 / (4.0 * n**2)) / (1.0 + z**2 / n)


def mc_ser(
    config: SystemConfig,
    plan: TrainingPlan,
    alloc: PowerAllocation,
    data_power: float,
    trials: int,
    seed: int,
    workers: int = 1,
) -> SerReport:
    """Symbol error rate of the coded data phase after one training round.

    Each trial runs a full training round, then sends one OSTBC block (three
    uniform 64-QAM symbols) at average per-use transmit power ``data_power``
    over the same forward channel with fresh receiver noise.  LR detects with
    its training estimate (and, as a baseline, with the true channel); UR
    detects with its own estimate.  Requires ``n_t == 4`` (the code is a
    four-antenna design).
    """
    if config.n_t != 4:
        raise ValueError(f"the data phase uses a 4-antenna block code, got n_t={config.n_t}")
    if not 0.0 < data_power < math.inf:
        raise ValueError(f"data_power must be positive and finite, got {data_power}")
    # Unit-energy symbols, 12 units per 4-use codeword: scale^2 * 12 = 4 * P.
    amp = math.sqrt(data_power / 3.0)

    # Detected symbols are constellation values copied from QAM64, as the
    # sent ones are, so a correct decision is exactly equal.
    def count_errors(y: np.ndarray, h_hat: np.ndarray, sent: np.ndarray) -> int:
        with scratch():
            wrong = np.not_equal(ostbc_detect(y, h_hat, amp), sent, out=empty(sent.shape, np.bool_))
            return int(np.count_nonzero(wrong))

    def one_chunk(gen, m: int):
        out = run_rounds(config, plan, alloc, gen, batch=m)
        s = np.take(QAM64, gen.integers(0, QAM64.size, size=(m, 3)), out=empty((m, 3)), mode="clip")
        counts = []
        with scratch():
            # The block goes out as amp * s and its conjugate, straight from
            # the codeword table.  Each receiver's block lives until its
            # detections end; detection draws nothing, so the noise order
            # stays LR's, then UR's.
            sym = empty((2, 3, m))
            np.multiply(amp, s.T, out=sym[0])
            np.conjugate(sym[0], out=sym[1])
            for h, var, estimates in (
                (out["h"], config.var_w, (out["h_lr"], out["h"])),
                (out["g"], config.var_v, (out["g_ur"],)),
            ):
                with scratch():
                    y = add_complex_normal(_ostbc_send(sym, h), gen, var)
                    counts += [count_errors(y, est, s) for est in estimates]
                    del y
        return tuple(counts)

    trials, err_l, err_lp, err_u = _reduce_chunks(one_chunk, trials, seed, workers)
    n_sym = 3 * trials
    return SerReport(
        trials=trials,
        data_power=float(data_power),
        ser_l=err_l / n_sym,
        ser_l_ci=_wilson_halfwidth(err_l, n_sym),
        ser_u=err_u / n_sym,
        ser_u_ci=_wilson_halfwidth(err_u, n_sym),
        ser_l_perfect=err_lp / n_sym,
        ser_l_perfect_ci=_wilson_halfwidth(err_lp, n_sym),
    )
