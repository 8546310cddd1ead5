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
memory retained is at most that many times the largest chunk's working set,
about 10 MiB for a 4x2x2 chunk.  Nothing allocated in an arena leaves its
chunk: the chunk functions return Python numbers.

The data phase uses a rate-3/4 orthogonal space-time block code over four
transmit antennas carrying three unit-energy 64-QAM symbols per block.  For
orthogonal designs, coherent ML detection with an (imperfect) channel
estimate reduces to linear combining into six real coordinates; for a
product constellation such as square QAM each coordinate is then sliced
against its own axis levels, which is what :func:`ostbc_detect` implements
(other constellations are rejected).  Feeding it the true channel gives the
perfect-CSI baseline.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
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
    herm,
    keep,
    matmul,
    scratch,
)
from .protocol import check_inputs, run_rounds

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
    elementwise, from 0 and in chunk order, on any number of ``workers``.
    Each chunk runs under an arena from the pool, so ``chunk`` must return
    Python scalars, never an array."""
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
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, range(len(sizes))))
    # Explicit left-to-right +: sum() adds floats differently from 3.12 on.
    return tuple(functools.reduce(operator.add, column, 0) for column in zip(*parts))


def mc_nmse(
    config: SystemConfig,
    plan: TrainingPlan,
    alloc: PowerAllocation,
    trials: int,
    seed: int,
    workers: int = 1,
) -> NmseReport:
    """Estimate LR/UR training NMSE empirically and pair it with closed forms."""
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials for a meaningful run, got {trials}")
    check_inputs(config, plan, alloc, plan.scheme)
    norm_l = config.n_t * config.n_l
    norm_u = config.n_t * config.n_u

    def one_chunk(gen, m: int):
        out = run_rounds(config, plan, alloc, gen, batch=m)
        xl = np.divide(out["sq_lr"], norm_l, out=out["sq_lr"])
        xu = np.divide(out["sq_ur"], norm_u, out=out["sq_ur"])
        sq = empty((m,), np.float64)
        return (
            float(xl.sum()), float(np.multiply(xl, xl, out=sq).sum()),
            float(xu.sum()), float(np.multiply(xu, xu, out=sq).sum()),
        )

    sum_l, sumsq_l, sum_u, sumsq_u = _reduce_chunks(one_chunk, trials, seed, workers)
    n = trials
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


# Real-linear expansion basis: the codewords B_k of the 6 unit real
# coordinates (Re s1, Im s1, Re s2, Im s2, Re s3, Im s3), column k holding the
# 16 interleaved (real, imaginary) parts of B_k.  Since Re <B_k, M> =
# Re(B_k) . Re(M) + Im(B_k) . Im(M), the six correlations of a 4x4 complex M
# are one real (.., 32) @ (32, 6) product.
_OSTBC_CORR = np.stack([
    ostbc_encode(1, 0, 0), ostbc_encode(1j, 0, 0),
    ostbc_encode(0, 1, 0), ostbc_encode(0, 1j, 0),
    ostbc_encode(0, 0, 1), ostbc_encode(0, 0, 1j),
]).reshape(6, 16).view(np.float64).T


def _axis_slicer(constellation: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis decision thresholds and the level grid of a product constellation.

    Returns the midpoints between adjacent sorted real levels, the same for
    the imaginary levels, and ``grid[i, j]``, the constellation point with
    real level ``i`` and imaginary level ``j``.
    """
    pts = np.asarray(constellation, dtype=complex)
    re, im = np.unique(pts.real), np.unique(pts.imag)
    grid = np.full((re.size, im.size), np.nan, dtype=complex)
    grid[np.searchsorted(re, pts.real), np.searchsorted(im, pts.imag)] = pts
    if pts.size == 0 or pts.size != grid.size or np.isnan(grid).any():
        raise ValueError(
            "per-axis slicing needs a product constellation: every pairing of "
            "a real level with an imaginary level must be a point, exactly once"
        )
    return (re[1:] + re[:-1]) / 2.0, (im[1:] + im[:-1]) / 2.0, grid


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
    perfect-CSI baseline).  Returns the detected symbols ``(..., 3)`` as
    constellation values (default 64-QAM).  Orthogonality of the design makes
    exact ML decouple into six real correlations ``Re tr(B_k^H y h_hat^H)``;
    for a constellation that is the Cartesian product of its real and
    imaginary levels (every square QAM, including :data:`QAM4` and
    :data:`QAM64`) each correlation is then sliced on its own axis, so the
    cost does not grow with the constellation size.  Any other constellation
    raises ``ValueError``.
    """
    mids_re, mids_im, grid = _axis_slicer(QAM64 if constellation is None else constellation)
    lead = np.broadcast_shapes(y.shape[:-2], h_hat.shape[:-2])
    detected = empty(lead + (3,))
    with scratch():
        energy = np.square(h_hat.real, out=empty_like(h_hat, np.float64))
        energy += np.square(h_hat.imag, out=empty_like(h_hat, np.float64))
        denom = np.sum(energy, axis=(-2, -1), out=empty(h_hat.shape[:-2], np.float64))
        np.multiply(scale, np.maximum(denom, 1e-300, out=denom), out=denom)
        m = empty(lead + (4, 4))  # y h_hat^H, batch-first for the correlation GEMM
        with scratch():
            np.copyto(m, matmul(y, herm(h_hat)))
        m_parts = m.reshape(lead + (16,)).view(np.float64)
        coords = np.matmul(m_parts, _OSTBC_CORR, out=empty(lead + (6,), np.float64))
        coords /= denom[..., None]
        # A coordinate exactly on a threshold (say, from a zero estimate) takes
        # the lower level.  grid[i_re, i_im], as one flat index:
        index = np.searchsorted(mids_re, coords[..., 0::2])
        index *= grid.shape[1]
        index += np.searchsorted(mids_im, coords[..., 1::2])
        np.take(grid, index, out=detected, mode="clip")
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
    if trials < MIN_TRIALS:
        raise ValueError(f"need at least {MIN_TRIALS} trials for a meaningful run, got {trials}")
    if config.n_t != 4:
        raise ValueError(f"the data phase uses a 4-antenna block code, got n_t={config.n_t}")
    if not 0.0 < data_power < math.inf:
        raise ValueError(f"data_power must be positive and finite, got {data_power}")
    check_inputs(config, plan, alloc, plan.scheme)
    # Unit-energy symbols, 12 units per 4-use codeword: scale^2 * 12 = 4 * P.
    amp = math.sqrt(data_power / 3.0)

    def count_errors(y: np.ndarray, h_hat: np.ndarray, sent: np.ndarray) -> int:
        with scratch():
            miss = np.subtract(ostbc_detect(y, h_hat, amp), sent, out=empty(sent.shape))
            dist = np.abs(miss, out=empty(sent.shape, np.float64))
            return int(np.count_nonzero(np.greater(dist, 1e-9, out=empty(sent.shape, np.bool_))))

    def one_chunk(gen, m: int):
        out = run_rounds(config, plan, alloc, gen, batch=m)
        s = np.take(QAM64, gen.integers(0, QAM64.size, size=(m, 3)), out=empty((m, 3)), mode="clip")
        with scratch():
            x = ostbc_encode(s[:, 0], s[:, 1], s[:, 2])
            np.multiply(amp, x, out=x)
            with keep():
                y_l = matmul(x, out["h"])
                y_u = matmul(x, out["g"])
        add_complex_normal(y_l, gen, config.var_w)
        add_complex_normal(y_u, gen, config.var_v)
        return (
            count_errors(y_l, out["h_lr"], s),
            count_errors(y_l, out["h"], s),
            count_errors(y_u, out["g_ur"], s),
        )

    err_l, err_lp, err_u = _reduce_chunks(one_chunk, trials, seed, workers)
    n_sym = 3 * trials
    return SerReport(
        trials=trials,
        data_power=data_power,
        ser_l=err_l / n_sym,
        ser_l_ci=_wilson_halfwidth(err_l, n_sym),
        ser_u=err_u / n_sym,
        ser_u_ci=_wilson_halfwidth(err_u, n_sym),
        ser_l_perfect=err_lp / n_sym,
        ser_l_perfect_ci=_wilson_halfwidth(err_lp, n_sym),
    )
