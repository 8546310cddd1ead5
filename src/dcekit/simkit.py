r"""Monte-Carlo harness: NMSE validation runs and coded-data SER runs.

Trials are processed in fixed chunks of :data:`CHUNK`; chunk ``i`` draws from
its own counter-based stream ``RngStream(seed, i)`` and one reduction adds
the chunks' partial sums in chunk order, so results are byte-identical for
any ``workers`` value.  Workers are threads (the heavy lifting is batched
linear algebra, which releases the GIL).

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

import functools
import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import analytics
from .model import MIN_TRIALS, PowerAllocation, SystemConfig, TrainingPlan
from .numerics import RngStream, complex_normal, matmul
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


def _reduce_chunks(chunk, trials: int, seed: int, workers: int) -> tuple:
    """Run ``chunk(gen, size)`` on ``RngStream(seed, i)`` for every chunk
    ``i`` of at most :data:`CHUNK` trials and add the returned tuples
    elementwise, from 0 and in chunk order, on any number of ``workers``."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    full, rem = divmod(trials, CHUNK)
    sizes = [CHUNK] * full + ([rem] if rem else [])

    def run(i: int) -> tuple:
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
        xl = out["sq_lr"] / norm_l
        xu = out["sq_ur"] / norm_u
        return (
            float(xl.sum()), float((xl * xl).sum()),
            float(xu.sum()), float((xu * xu).sum()),
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


def ostbc_encode(s1, s2, s3) -> np.ndarray:
    """Map three symbols to the 4x4 rate-3/4 orthogonal codeword.

    Inputs may be scalars or broadcastable arrays; the codeword axes are the
    last two of the output (time x antenna), and the input axes have the
    smallest strides (a stack of codewords is stack-last, as
    :func:`dcekit.numerics.matmul` wants).  The design satisfies
    ``X X^H = (|s1|^2+|s2|^2+|s3|^2) I`` for every input triple.
    """
    s1, s2, s3 = np.broadcast_arrays(
        np.asarray(s1, dtype=complex), np.asarray(s2, dtype=complex), np.asarray(s3, dtype=complex)
    )
    zero = np.zeros_like(s1)
    rows = [
        [s1, s2, s3, zero],
        [-s2.conj(), s1.conj(), zero, s3],
        [-s3.conj(), zero, s1.conj(), -s2],
        [zero, -s3.conj(), s2.conj(), s1],
    ]
    x = np.stack([np.stack(r) for r in rows])
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
    h_energy = np.sum(h_hat.real**2 + h_hat.imag**2, axis=(-2, -1))
    denom = scale * np.maximum(h_energy, 1e-300)
    m = np.ascontiguousarray(matmul(y, np.swapaxes(h_hat.conj(), -1, -2)), dtype=np.complex128)
    m_parts = m.reshape(m.shape[:-2] + (16,)).view(np.float64)
    coords = (m_parts @ _OSTBC_CORR) / denom[..., None]
    # A coordinate exactly on a threshold (say, from a zero estimate) takes
    # the lower level.
    i_re = np.searchsorted(mids_re, coords[..., 0::2])
    i_im = np.searchsorted(mids_im, coords[..., 1::2])
    return grid[i_re, i_im]


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

    def count_errors(detected: np.ndarray, sent: np.ndarray) -> int:
        return int(np.count_nonzero(np.abs(detected - sent) > 1e-9))

    def one_chunk(gen, m: int):
        out = run_rounds(config, plan, alloc, gen, batch=m)
        sym_idx = gen.integers(0, QAM64.size, size=(m, 3))
        s = QAM64[sym_idx]
        x = amp * ostbc_encode(s[:, 0], s[:, 1], s[:, 2])
        y_l = matmul(x, out["h"])
        y_l += complex_normal(gen, (m, 4, config.n_l), config.var_w)
        y_u = matmul(x, out["g"])
        y_u += complex_normal(gen, (m, 4, config.n_u), config.var_v)
        return (
            count_errors(ostbc_detect(y_l, out["h_lr"], amp), s),
            count_errors(ostbc_detect(y_l, out["h"], amp), s),
            count_errors(ostbc_detect(y_u, out["g_ur"], amp), s),
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
