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

The public entry points :func:`run_reciprocal` / :func:`run_nonreciprocal`
execute one round for a given channel draw and return a full
:class:`TrainingTranscript`.  The private ``*_core`` functions are the
batched engines behind :mod:`dcekit.simkit`; they draw noise in the exact
same order as the public runs so the two paths are bit-comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analytics
from .estimator import EstimateWithError, effective_forward_noise_var
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
from .numerics import ComplexMatrix, RngStream

__all__ = [
    "TrainingTranscript",
    "dft_semiunitary",
    "forward_pilot",
    "run_nonreciprocal",
    "run_reciprocal",
]

# Transcript sanity: AN must sit in the estimated null space to this residual.
_NULL_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class TrainingTranscript:
    """Everything one training round produced.

    ``signals`` maps stage names to arrays (keys depend on the scheme);
    ``estimates`` holds the transmitter's, LR's, and UR's channel estimates
    under keys ``"tx"``, ``"lr"``, ``"ur"``; ``squared_errors`` the matching
    squared Frobenius estimation errors for this realization.
    """

    scheme: str
    signals: dict[str, ComplexMatrix]
    an_matrix: ComplexMatrix
    null_basis: ComplexMatrix
    estimates: dict[str, EstimateWithError]
    squared_errors: dict[str, float]


def dft_semiunitary(tau: int, n: int) -> ComplexMatrix:
    """Deterministic ``tau x n`` semi-unitary: leading columns of the DFT."""
    if not 1 <= n <= tau:
        raise ValueError(f"need tau >= n >= 1, got tau={tau}, n={n}")
    j = np.arange(tau)[:, None]
    k = np.arange(n)[None, :]
    return np.exp(-2j * np.pi * j * k / tau) / np.sqrt(tau)


def forward_pilot(n_t: int, tau: int, d) -> ComplexMatrix:
    """Unscaled forward pilot ``C`` with Gram eigenvalue profile ``d``.

    Columns of a DFT semi-unitary scaled by ``sqrt(d_k)``, so ``C^H C =
    diag(d)`` and ``Tr(C^H C) = sum(d) = n_t``.  A rank-K profile simply
    zeroes out ``n_t - K`` columns.
    """
    base = dft_semiunitary(tau, n_t)
    return base * np.sqrt(np.asarray(d, dtype=float))[None, :]


def _cn(gen: np.random.Generator, shape: tuple[int, ...], var: float) -> np.ndarray:
    """Batched iid CN(0, var) draws (same recipe as numerics.random_gaussian).

    The normals are drawn straight into the interleaved real/imaginary parts
    of the result and scaled in place: the same values, bit for bit, as
    ``(p[..., 0] + 1j * p[..., 1]) * sqrt(var / 2)`` for
    ``p = gen.standard_normal(shape + (2,))``, without the temporaries.
    """
    z = np.empty(shape, dtype=np.complex128)
    gen.standard_normal(out=z.reshape(-1).view(np.float64))
    z *= np.sqrt(var / 2.0)
    return z


def _null_complement(mat: np.ndarray) -> np.ndarray:
    """Orthonormal left-null-space completion of ``(..., n, m)`` matrices.

    Unlike the public :func:`dcekit.numerics.null_space_basis` this never
    raises on degenerate input: a rank-deficient (even zero) estimate still
    gets a valid orthonormal complement, which is exactly what the protocol
    needs on edges like an unpowered reverse stage.  The complete QR factor
    ``Q`` is unitary and its first ``m`` columns span every column of
    ``mat``, so its last ``n - m`` columns are such a complement at any rank.
    """
    return np.linalg.qr(mat, mode="complete")[0][..., mat.shape[-1]:]


def _herm(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x.conj(), -1, -2)


def _combiner(pilot: ComplexMatrix, prior_var: float, noise_var: float) -> ComplexMatrix:
    """LMMSE combiner ``prior * P^H (prior * P P^H + noise * I)^{-1}``."""
    tau = pilot.shape[0]
    cov = prior_var * (pilot @ pilot.conj().T) + noise_var * np.eye(tau)
    return prior_var * np.linalg.solve(cov, pilot).conj().T


def _sq_err(truth: np.ndarray, est: np.ndarray) -> np.ndarray:
    diff = truth - est
    return np.sum(diff.real**2 + diff.imag**2, axis=(-2, -1))


# ---------------------------------------------------------------------------
# Batched engines.  Draw order is part of the contract (reproducibility and
# public/core bit-compatibility): channels first (when not supplied), then
# stage noises in protocol order, then the AN matrix, then receiver noises.
# ---------------------------------------------------------------------------


def _reciprocal_core(
    config: SystemConfig,
    plan: TrainingPlan,
    alloc: PowerAllocation,
    gen: np.random.Generator,
    batch: int,
    channels: tuple[np.ndarray, np.ndarray] | None = None,
    keep_signals: bool = False,
) -> dict:
    n_t, n_l, n_u = config.n_t, config.n_l, config.n_u
    tau_r, tau_f = plan.tau_r, plan.tau_f
    e_r, e_f, var_a = alloc.e_r, alloc.e_f, alloc.var_a

    if channels is None:
        h = _cn(gen, (batch, n_t, n_l), config.var_h)
        g = _cn(gen, (batch, n_t, n_u), config.var_g)
    else:
        h, g = channels
    w_t = _cn(gen, (batch, tau_r, n_t), config.var_wt)

    x_l = np.sqrt(e_r / n_l) * dft_semiunitary(tau_r, n_l)
    y_t = x_l @ np.swapaxes(h, -1, -2) + w_t
    k_rev = _combiner(x_l, config.var_h, config.var_wt)
    h_hat = np.swapaxes(k_rev @ y_t, -1, -2)  # plain transpose: unknown was H^T

    k_null = _null_complement(h_hat)
    a = _cn(gen, (batch, tau_f, n_t - n_l), var_a)
    x_bar = np.sqrt(e_f / n_t) * forward_pilot(n_t, tau_f, plan.pilot_eigs)
    x_t = x_bar + a @ _herm(k_null)

    w = _cn(gen, (batch, tau_f, n_l), config.var_w)
    v = _cn(gen, (batch, tau_f, n_u), config.var_v)
    y_l = x_t @ h + w
    y_u = x_t @ g + v

    r_bar = effective_forward_noise_var(config, e_r, var_a) / n_l
    h_lr = _combiner(x_bar, config.var_h, r_bar) @ y_l
    r_u = (n_t - n_l) * var_a * config.var_g + config.var_v
    g_ur = _combiner(x_bar, config.var_g, r_u) @ y_u

    out = {
        "h": h, "g": g, "h_hat": h_hat, "h_lr": h_lr, "g_ur": g_ur,
        "k_null": k_null, "an": a,
        "sq_tx": _sq_err(h, h_hat), "sq_lr": _sq_err(h, h_lr), "sq_ur": _sq_err(g, g_ur),
    }
    if keep_signals:
        out.update({"x_l": x_l, "y_t": y_t, "x_t": x_t, "y_l": y_l, "y_u": y_u,
                    "x_bar": x_bar})
    return out


def _nonreciprocal_core(
    config: SystemConfig,
    plan: TrainingPlan,
    alloc: PowerAllocation,
    gen: np.random.Generator,
    batch: int,
    channels: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    keep_signals: bool = False,
) -> dict:
    n_t, n_l, n_u = config.n_t, config.n_l, config.n_u
    tau_t0, tau_l2, tau_t3 = plan.tau_t0, plan.tau_l2, plan.tau_t3
    e_t0, e_l1, e_l2, e_t3 = alloc.e_t0, alloc.e_l1, alloc.e_l2, alloc.e_t3
    var_a = alloc.var_a

    # Haar-random square unitary pilot, redrawn every round.
    z0 = _cn(gen, (batch, n_t, n_t), 1.0)
    q_fac, r_fac = np.linalg.qr(z0)
    diag = np.diagonal(r_fac, axis1=-2, axis2=-1)
    phase = np.where(diag == 0, 1.0 + 0j, diag / np.abs(diag))
    c_t0 = q_fac * phase.conj()[..., None, :]

    if channels is None:
        h_d = _cn(gen, (batch, n_t, n_l), config.var_hd)
        h_u = _cn(gen, (batch, n_l, n_t), config.var_hu)
        g = _cn(gen, (batch, n_t, n_u), config.var_g)
    else:
        h_d, h_u, g = channels

    w0 = _cn(gen, (batch, tau_t0, n_l), config.var_w)
    x_t0 = np.sqrt(e_t0 / n_t) * c_t0
    y_l0 = x_t0 @ h_d + w0

    alpha = analytics.alpha_gain(config, e_t0, e_l1, tau_t0)
    wt1 = _cn(gen, (batch, tau_t0, n_t), config.var_wt)
    y_t1 = alpha * (y_l0 @ h_u) + wt1

    wt2 = _cn(gen, (batch, tau_l2, n_t), config.var_wt)
    x_l2 = np.sqrt(e_l2 / n_l) * dft_semiunitary(tau_l2, n_l)
    y_t2 = x_l2 @ h_u + wt2
    hu_hat = _combiner(x_l2, config.var_hu, config.var_wt) @ y_t2

    if alpha == 0.0:
        hd_hat = np.zeros((batch, n_t, n_l), dtype=complex)
    else:
        q_const = config.var_hd * e_t0 + n_t * config.var_w
        b = analytics.beta(config, e_t0, e_l2, alpha)
        pref = config.var_hd * n_t / (alpha * q_const)
        z = _herm(x_t0) @ y_t1
        s_mat = hu_hat @ _herm(hu_hat) + b * np.eye(n_l)
        right = _herm(np.linalg.solve(s_mat, hu_hat))
        hd_hat = pref * (z @ right)

    k_null = _null_complement(hd_hat)
    a = _cn(gen, (batch, tau_t3, n_t - n_l), var_a)
    x_bar = np.sqrt(e_t3 / n_t) * forward_pilot(n_t, tau_t3, plan.pilot_eigs)
    x_t3 = x_bar + a @ _herm(k_null)

    w3 = _cn(gen, (batch, tau_t3, n_l), config.var_w)
    v3 = _cn(gen, (batch, tau_t3, n_u), config.var_v)
    y_l3 = x_t3 @ h_d + w3
    y_u3 = x_t3 @ g + v3

    d_bar = analytics.nonreciprocal_effective_noise(config, alloc, plan)
    h_lr = _combiner(x_bar, config.var_hd, d_bar) @ y_l3
    r_u = (n_t - n_l) * var_a * config.var_g + config.var_v
    g_ur = _combiner(x_bar, config.var_g, r_u) @ y_u3

    out = {
        "h": h_d, "g": g, "h_hat": hd_hat, "h_lr": h_lr, "g_ur": g_ur,
        "k_null": k_null, "an": a, "hu_hat": hu_hat, "alpha": alpha,
        "sq_tx": _sq_err(h_d, hd_hat), "sq_lr": _sq_err(h_d, h_lr), "sq_ur": _sq_err(g, g_ur),
    }
    if keep_signals:
        out.update({"x_t0": x_t0, "y_l0": y_l0, "y_t1": y_t1, "x_l2": x_l2,
                    "y_t2": y_t2, "x_t3": x_t3, "y_l3": y_l3, "y_u3": y_u3,
                    "x_bar": x_bar})
    return out


# ---------------------------------------------------------------------------
# Public single-round runs.
# ---------------------------------------------------------------------------


def _check_inputs(
    config: SystemConfig,
    plan: TrainingPlan,
    alloc: PowerAllocation,
    scheme: str,
) -> None:
    if plan.scheme != scheme:
        raise ValueError(f"plan scheme {plan.scheme!r} does not match {scheme!r}")
    problems = validate(config, plan)
    if problems:
        raise ValueError(f"invalid configuration: {problems[0]}")
    problems = allocation_violations(alloc, config, plan)
    if problems:
        raise AllocationError(f"infeasible allocation: {problems[0]}")


def _guard_null_residual(null_basis: np.ndarray, estimate: np.ndarray) -> None:
    residual = np.max(np.abs(_herm(null_basis) @ estimate)) if estimate.size else 0.0
    scale = max(1.0, float(np.max(np.abs(estimate))) if estimate.size else 1.0)
    if residual > _NULL_RESIDUAL_TOL * scale:
        raise RuntimeError(
            f"artificial-noise basis leaked into the estimated channel "
            f"(residual {residual:.3e})"
        )


def run_reciprocal(
    config: SystemConfig,
    plan: TrainingPlan,
    alloc: PowerAllocation,
    channels: ChannelRealization,
    rng: RngStream,
) -> TrainingTranscript:
    """Execute one reciprocal training round for a given channel draw."""
    _check_inputs(config, plan, alloc, RECIPROCAL)
    if channels.h is None:
        raise ValueError("reciprocal run needs channels.h")
    core = _reciprocal_core(
        config, plan, alloc, rng.generator, batch=1,
        channels=(channels.h[None], channels.g[None]), keep_signals=True,
    )
    n_l = config.n_l
    d = np.asarray(plan.pilot_eigs, dtype=float)

    delta2 = 1.0 / (1.0 / config.var_h + alloc.e_r / (n_l * config.var_wt))
    r_bar = effective_forward_noise_var(config, alloc.e_r, alloc.var_a) / n_l
    lr_dirs = 1.0 / (1.0 / config.var_h + (alloc.e_f / config.n_t) * d / r_bar)
    r_u = (config.n_t - n_l) * alloc.var_a * config.var_g + config.var_v
    ur_dirs = 1.0 / (1.0 / config.var_g + (alloc.e_f / config.n_t) * d / r_u)

    estimates = {
        "tx": EstimateWithError(core["h_hat"][0], np.full(n_l, delta2), float(delta2)),
        "lr": EstimateWithError(core["h_lr"][0], lr_dirs, float(lr_dirs.mean())),
        "ur": EstimateWithError(core["g_ur"][0], ur_dirs, float(ur_dirs.mean())),
    }
    null_basis = core["k_null"][0]
    _guard_null_residual(null_basis, core["h_hat"][0])
    signals = {key: core[key][0] if core[key].ndim == 3 else core[key]
               for key in ("x_l", "y_t", "x_t", "y_l", "y_u")}
    return TrainingTranscript(
        scheme=RECIPROCAL,
        signals=signals,
        an_matrix=core["an"][0],
        null_basis=null_basis,
        estimates=estimates,
        squared_errors={k: float(core[f"sq_{k}"][0]) for k in ("tx", "lr", "ur")},
    )


def run_nonreciprocal(
    config: SystemConfig,
    plan: TrainingPlan,
    alloc: PowerAllocation,
    channels: ChannelRealization,
    rng: RngStream,
) -> TrainingTranscript:
    """Execute one non-reciprocal training round for a given channel draw."""
    _check_inputs(config, plan, alloc, NONRECIPROCAL)
    if channels.h_d is None or channels.h_u is None:
        raise ValueError("non-reciprocal run needs channels.h_d and channels.h_u")
    core = _nonreciprocal_core(
        config, plan, alloc, rng.generator, batch=1,
        channels=(channels.h_d[None], channels.h_u[None], channels.g[None]),
        keep_signals=True,
    )
    n_t, n_l = config.n_t, config.n_l
    d = np.asarray(plan.pilot_eigs, dtype=float)

    alpha = core["alpha"]
    if alpha == 0.0:
        tx_dirs = np.full(n_l, config.var_hd)
    else:
        b = analytics.beta(config, alloc.e_t0, alloc.e_l2, alpha)
        q_const = config.var_hd * alloc.e_t0 + n_t * config.var_w
        rho0 = config.var_hd * alloc.e_t0 / q_const
        lam = np.linalg.eigvalsh(core["hu_hat"][0] @ core["hu_hat"][0].conj().T)
        tx_dirs = config.var_hd - config.var_hd * rho0 * lam / (lam + b)

    d_bar = analytics.nonreciprocal_effective_noise(config, alloc, plan)
    lr_dirs = 1.0 / (1.0 / config.var_hd + (alloc.e_t3 / n_t) * d / d_bar)
    r_u = (n_t - n_l) * alloc.var_a * config.var_g + config.var_v
    ur_dirs = 1.0 / (1.0 / config.var_g + (alloc.e_t3 / n_t) * d / r_u)

    estimates = {
        "tx": EstimateWithError(core["h_hat"][0], tx_dirs, float(np.mean(tx_dirs))),
        "lr": EstimateWithError(core["h_lr"][0], lr_dirs, float(lr_dirs.mean())),
        "ur": EstimateWithError(core["g_ur"][0], ur_dirs, float(ur_dirs.mean())),
    }
    null_basis = core["k_null"][0]
    _guard_null_residual(null_basis, core["h_hat"][0])
    signals = {key: core[key][0] if core[key].ndim == 3 else core[key]
               for key in ("x_t0", "y_l0", "y_t1", "x_l2", "y_t2", "x_t3", "y_l3", "y_u3")}
    return TrainingTranscript(
        scheme=NONRECIPROCAL,
        signals=signals,
        an_matrix=core["an"][0],
        null_basis=null_basis,
        estimates=estimates,
        squared_errors={k: float(core[f"sq_{k}"][0]) for k in ("tx", "lr", "ur")},
    )
