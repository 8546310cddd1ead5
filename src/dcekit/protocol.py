r"""Two-way training protocols: signal generation, estimation, transcripts.

Reciprocal scheme (shared channel H)::

    stage 1  LR -> TX   reverse pilot X_L;        TX forms H-hat
    stage 2  TX -> all  forward pilot + AN        X_t = sqrt(E_F/N_t) C_t + A K^H
                        (K spans the left null space of H-hat, so the
                        artificial noise A misses LR up to estimation error)

Non-reciprocal scheme (independent uplink H_u / downlink H_d)::

    stage 0  TX -> LR   downlink pilot X_t0 (square unitary, redrawn each
                        round, known only to TX)
    stage 1  LR -> TX   amplified echo  alpha * Y_L0   (amplify-and-forward)
    stage 2  LR -> TX   uplink pilot X_L2;          TX forms H_u-hat
             TX combines echo + H_u-hat into a downlink estimate H_dt-hat
    stage 3  TX -> all  guarded forward pilot X_t3 = sqrt(E_t3/N_t) C_t3 + A K^H

Deterministic DFT-based pilots are used for every stage except the initial
downlink pilot ``C_t0``, which must stay unpredictable to both receivers and
is therefore Haar-random per round.

:func:`run_rounds` is the one estimation engine, a batch of independent
rounds of either scheme; :mod:`dcekit.simkit` drives it after one
:func:`check_inputs`.  :func:`run_reciprocal` / :func:`run_nonreciprocal` are
its batch-of-one views (bit for bit ``run_rounds(..., batch=1, channels=...)``
on the same stream) that add the error statistics of :mod:`dcekit.analytics`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analytics
from .estimator import (
    echo_downlink_estimate,
    effective_forward_noise_var,
    lmmse_combiner,
)
from .model import (
    NONRECIPROCAL,
    RECIPROCAL,
    AllocationError,
    ChannelRealization,
    PowerAllocation,
    SystemConfig,
    TrainingPlan,
    allocation_violations,
    validate,
)
from .numerics import (
    RngStream,
    complex_normal,
    haar_semiunitary,
    herm,
    null_complement,
)

__all__ = [
    "EstimateWithError",
    "TrainingTranscript",
    "check_inputs",
    "dft_semiunitary",
    "forward_pilot",
    "run_nonreciprocal",
    "run_reciprocal",
    "run_rounds",
]

# Transcript sanity: AN must sit in the estimated null space to this residual.
_NULL_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class EstimateWithError:
    """An estimate bundled with its exact per-direction error statistics.

    ``per_direction_error_var`` holds the per-entry error variance along each
    eigendirection of the pilot Gram; ``nmse`` is their mean, i.e. the
    per-entry mean-square error, which always lies in ``[0, prior_var]``.
    """

    estimate: np.ndarray
    per_direction_error_var: np.ndarray
    nmse: float


@dataclass(frozen=True)
class TrainingTranscript:
    """Everything one training round produced.

    ``signals`` maps stage names to arrays (keys depend on the scheme);
    ``estimates`` holds the transmitter's, LR's, and UR's channel estimates
    under keys ``"tx"``, ``"lr"``, ``"ur"``; ``squared_errors`` the matching
    squared Frobenius estimation errors for this realization.
    """

    scheme: str
    signals: dict[str, np.ndarray]
    an_matrix: np.ndarray
    null_basis: np.ndarray
    estimates: dict[str, EstimateWithError]
    squared_errors: dict[str, float]


def dft_semiunitary(tau: int, n: int) -> np.ndarray:
    """Deterministic ``tau x n`` semi-unitary: leading columns of the DFT."""
    if not 1 <= n <= tau:
        raise ValueError(f"need tau >= n >= 1, got tau={tau}, n={n}")
    j = np.arange(tau)[:, None]
    k = np.arange(n)[None, :]
    return np.exp(-2j * np.pi * j * k / tau) / np.sqrt(tau)


def forward_pilot(n_t: int, tau: int, d) -> np.ndarray:
    """Unscaled forward pilot ``C`` with Gram eigenvalue profile ``d``.

    Columns of a DFT semi-unitary scaled by ``sqrt(d_k)``, so ``C^H C =
    diag(d)`` and ``Tr(C^H C) = sum(d) = n_t``.  A rank-K profile simply
    zeroes out ``n_t - K`` columns.
    """
    base = dft_semiunitary(tau, n_t)
    return base * np.sqrt(np.asarray(d, dtype=float))[None, :]


def _fixed_matmul(fixed: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """``fixed @ batch`` for one ``(p, q)`` matrix and a ``(b, q, r)`` stack as
    a single 2-D GEMM; a stacked matmul makes one small BLAS call per matrix,
    which for a batch of one is that GEMM without the reshaping around it."""
    b, q, r = batch.shape
    if b == 1:
        return fixed @ batch
    cols = batch.transpose(1, 0, 2).reshape(q, b * r)
    return (fixed @ cols).reshape(-1, b, r).transpose(1, 0, 2)


def _sq_err(truth: np.ndarray, est: np.ndarray) -> np.ndarray:
    diff = truth - est
    return np.sum(diff.real**2 + diff.imag**2, axis=(-2, -1))


def check_inputs(
    config: SystemConfig, plan: TrainingPlan, alloc: PowerAllocation, scheme: str
) -> None:
    """Raise unless ``config``, ``plan`` and ``alloc`` admit a ``scheme`` round:
    ``ValueError`` for a mismatched plan or an invalid configuration,
    :class:`AllocationError` for a malformed allocation."""
    if plan.scheme != scheme:
        raise ValueError(f"plan scheme {plan.scheme!r} does not match {scheme!r}")
    problems = validate(config, plan)
    if problems:
        raise ValueError(f"invalid configuration: {problems[0]}")
    problems = allocation_violations(alloc, config, plan)
    if problems:
        raise AllocationError(f"infeasible allocation: {problems[0]}")


# ---------------------------------------------------------------------------
# Batched engine.  Draw order is part of the contract (reproducibility and
# the batch-of-one runs below): channels first (when not supplied), then
# stage noises in protocol order, then the AN matrix, then receiver noises.
# ---------------------------------------------------------------------------


def run_rounds(
    config: SystemConfig,
    plan: TrainingPlan,
    alloc: PowerAllocation,
    gen: np.random.Generator,
    batch: int,
    channels: tuple[np.ndarray, ...] | None = None,
    keep_signals: bool = False,
) -> dict:
    """Run ``batch`` independent rounds of ``plan.scheme`` (inputs as passed by
    :func:`check_inputs`).  ``channels`` holds batched ``(h, g)`` or ``(h_d,
    h_u, g)``; without it they are the first draws from ``gen``.

    Returns ``(batch, ...)`` arrays: channels ``"h"`` (LR's) and ``"g"``,
    estimates ``"h_hat"`` (transmitter's), ``"h_lr"``, ``"g_ur"``, null basis
    ``"k_null"``, AN ``"an"`` and squared errors ``"sq_tx"``, ``"sq_lr"``,
    ``"sq_ur"``; also the float ``"noise_l"``, the noise level LR's estimate
    assumed.  Non-reciprocal adds ``"hu_hat"`` and the echo gain
    ``"alpha"``, and ``keep_signals`` every stage signal under ``"signals"``.
    """
    if plan.scheme == RECIPROCAL:
        return _reciprocal_rounds(config, plan, alloc, gen, batch, channels, keep_signals)
    return _nonreciprocal_rounds(config, plan, alloc, gen, batch, channels, keep_signals)


def _reciprocal_rounds(config, plan, alloc, gen, batch, channels, keep_signals) -> dict:
    n_t, n_l = config.n_t, config.n_l
    if channels is None:
        h = complex_normal(gen, (batch, n_t, n_l), config.var_h)
        g = complex_normal(gen, (batch, n_t, config.n_u), config.var_g)
    else:
        h, g = channels
    w_t = complex_normal(gen, (batch, plan.tau_r, n_t), config.var_wt)

    x_l = np.sqrt(alloc.e_r / n_l) * dft_semiunitary(plan.tau_r, n_l)
    y_t = _fixed_matmul(x_l, np.swapaxes(h, -1, -2)) + w_t
    k_rev = lmmse_combiner(x_l, config.var_h, config.var_wt)
    h_hat = np.swapaxes(_fixed_matmul(k_rev, y_t), -1, -2)  # plain transpose: unknown was H^T

    out = {"h": h, "g": g, "h_hat": h_hat}
    if keep_signals:
        out["signals"] = {"x_l": x_l, "y_t": y_t}
    r_bar = effective_forward_noise_var(config, alloc.e_r, alloc.var_a) / n_l
    return _forward_stage(config, plan, alloc, gen, out, alloc.e_f, config.var_h, r_bar, "")


def _nonreciprocal_rounds(config, plan, alloc, gen, batch, channels, keep_signals) -> dict:
    n_t, n_l = config.n_t, config.n_l
    e_t0, e_l2 = alloc.e_t0, alloc.e_l2

    # Haar-random square unitary pilot, redrawn every round.
    c_t0 = haar_semiunitary(gen, (batch, n_t, n_t))
    if channels is None:
        h_d = complex_normal(gen, (batch, n_t, n_l), config.var_hd)
        h_u = complex_normal(gen, (batch, n_l, n_t), config.var_hu)
        g = complex_normal(gen, (batch, n_t, config.n_u), config.var_g)
    else:
        h_d, h_u, g = channels

    w0 = complex_normal(gen, (batch, plan.tau_t0, n_l), config.var_w)
    x_t0 = np.sqrt(e_t0 / n_t) * c_t0
    y_l0 = x_t0 @ h_d + w0

    alpha = analytics.alpha_gain(config, e_t0, alloc.e_l1, plan.tau_t0)
    wt1 = complex_normal(gen, (batch, plan.tau_t0, n_t), config.var_wt)
    y_t1 = alpha * (y_l0 @ h_u) + wt1

    wt2 = complex_normal(gen, (batch, plan.tau_l2, n_t), config.var_wt)
    x_l2 = np.sqrt(e_l2 / n_l) * dft_semiunitary(plan.tau_l2, n_l)
    y_t2 = _fixed_matmul(x_l2, h_u) + wt2
    hu_hat = _fixed_matmul(lmmse_combiner(x_l2, config.var_hu, config.var_wt), y_t2)
    hd_hat = echo_downlink_estimate(y_t1, x_t0, hu_hat, alpha, config, e_t0, e_l2)

    out = {"h": h_d, "g": g, "h_hat": hd_hat, "hu_hat": hu_hat, "alpha": alpha}
    if keep_signals:
        out["signals"] = {"x_t0": x_t0, "y_l0": y_l0, "y_t1": y_t1, "x_l2": x_l2, "y_t2": y_t2}
    d_bar = analytics.nonreciprocal_effective_noise(config, alloc)
    return _forward_stage(config, plan, alloc, gen, out, alloc.e_t3, config.var_hd, d_bar, "3")


def _forward_stage(config, plan, alloc, gen, out, e_fwd, prior_l, noise_l, stage) -> dict:
    """The guarded forward stage both schemes end with, added to ``out``: the
    ``e_fwd`` pilot plus AN in the null complement of ``out["h_hat"]``; LR
    estimates against prior ``prior_l`` and noise ``noise_l``, UR against the
    full AN.  ``stage`` suffixes the signal names (``"3"`` gives ``x_t3``)."""
    n_t, n_l = config.n_t, config.n_l
    h, g = out["h"], out["g"]
    batch = h.shape[0]
    tau = plan.tau_f if plan.scheme == RECIPROCAL else plan.tau_t3

    k_null = null_complement(out["h_hat"])
    a = complex_normal(gen, (batch, tau, n_t - n_l), alloc.var_a)
    x_bar = np.sqrt(e_fwd / n_t) * forward_pilot(n_t, tau, plan.pilot_eigs)
    x_t = x_bar + a @ herm(k_null)

    w = complex_normal(gen, (batch, tau, n_l), config.var_w)
    v = complex_normal(gen, (batch, tau, config.n_u), config.var_v)
    y_l = x_t @ h + w
    y_u = x_t @ g + v

    h_lr = _fixed_matmul(lmmse_combiner(x_bar, prior_l, noise_l), y_l)
    r_u = analytics.ur_disturbance(config, alloc.var_a)
    g_ur = _fixed_matmul(lmmse_combiner(x_bar, config.var_g, r_u), y_u)

    out.update({
        "h_lr": h_lr, "g_ur": g_ur, "k_null": k_null, "an": a,
        "sq_tx": _sq_err(h, out["h_hat"]), "sq_lr": _sq_err(h, h_lr), "sq_ur": _sq_err(g, g_ur),
        "noise_l": noise_l,
    })
    if "signals" in out:
        out["signals"].update({f"x_t{stage}": x_t, f"y_l{stage}": y_l, f"y_u{stage}": y_u})
    return out


# ---------------------------------------------------------------------------
# Single rounds: batch-of-one views of the engine.
# ---------------------------------------------------------------------------


def _guard_null_residual(null_basis: np.ndarray, estimate: np.ndarray) -> None:
    residual = np.max(np.abs(herm(null_basis) @ estimate)) if estimate.size else 0.0
    scale = max(1.0, float(np.max(np.abs(estimate))) if estimate.size else 1.0)
    if residual > _NULL_RESIDUAL_TOL * scale:
        raise RuntimeError(
            f"artificial-noise basis leaked into the estimated channel "
            f"(residual {residual:.3e})"
        )


def _transcript(config, plan, alloc, out, e_fwd, prior_l, tx_dirs) -> TrainingTranscript:
    """Unbatch one engine round and attach the per-direction error statistics:
    ``tx_dirs`` for the transmitter, the forward stage's for LR (at the noise
    level the engine used) and UR."""
    null_basis = out["k_null"][0]
    _guard_null_residual(null_basis, out["h_hat"][0])
    d = np.asarray(plan.pilot_eigs, dtype=float)
    r_u = analytics.ur_disturbance(config, alloc.var_a)
    dirs = {
        "tx": tx_dirs,
        "lr": analytics.forward_direction_errors(config, prior_l, e_fwd, out["noise_l"], d),
        "ur": analytics.forward_direction_errors(config, config.var_g, e_fwd, r_u, d),
    }
    keys = {"tx": "h_hat", "lr": "h_lr", "ur": "g_ur"}
    return TrainingTranscript(
        scheme=plan.scheme,
        signals={k: x[0] if x.ndim == 3 else x for k, x in out["signals"].items()},
        an_matrix=out["an"][0],
        null_basis=null_basis,
        estimates={k: EstimateWithError(out[keys[k]][0], dirs[k], float(dirs[k].mean()))
                   for k in keys},
        squared_errors={k: float(out[f"sq_{k}"][0]) for k in keys},
    )


def run_reciprocal(
    config: SystemConfig,
    plan: TrainingPlan,
    alloc: PowerAllocation,
    channels: ChannelRealization,
    rng: RngStream,
) -> TrainingTranscript:
    """Execute one reciprocal training round for a given channel draw."""
    check_inputs(config, plan, alloc, RECIPROCAL)
    if channels.h is None:
        raise ValueError("reciprocal run needs channels.h")
    out = run_rounds(
        config, plan, alloc, rng.generator, batch=1,
        channels=(channels.h[None], channels.g[None]), keep_signals=True,
    )
    delta2 = analytics.reverse_error_var(config, config.var_h, alloc.e_r)
    tx_dirs = np.full(config.n_l, delta2)
    return _transcript(config, plan, alloc, out, alloc.e_f, config.var_h, tx_dirs)


def run_nonreciprocal(
    config: SystemConfig,
    plan: TrainingPlan,
    alloc: PowerAllocation,
    channels: ChannelRealization,
    rng: RngStream,
) -> TrainingTranscript:
    """Execute one non-reciprocal training round for a given channel draw."""
    check_inputs(config, plan, alloc, NONRECIPROCAL)
    if channels.h_d is None or channels.h_u is None:
        raise ValueError("non-reciprocal run needs channels.h_d and channels.h_u")
    out = run_rounds(
        config, plan, alloc, rng.generator, batch=1,
        channels=(channels.h_d[None], channels.h_u[None], channels.g[None]),
        keep_signals=True,
    )
    hu_hat = out["hu_hat"][0]
    lam = np.linalg.eigvalsh(hu_hat @ hu_hat.conj().T)
    b = analytics.beta(config, alloc.e_t0, alloc.e_l2, out["alpha"])
    tx_dirs = analytics.downlink_direction_error(config, alloc.e_t0, b, lam)
    return _transcript(config, plan, alloc, out, alloc.e_t3, config.var_hd, tx_dirs)
