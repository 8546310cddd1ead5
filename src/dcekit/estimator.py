r"""Linear MMSE channel estimators, batched over any leading axes.

Every estimator in the package rests on one observation template

.. math:: Y = X U + W

with a white matrix prior on the unknown ``U`` and white noise ``W``.  Its
LMMSE combiner :func:`lmmse_combiner` is the one the training engine in
:mod:`dcekit.protocol` applies at every stage (reverse pilot, uplink pilot,
and both forward-stage receivers).  The estimate's error covariance depends
on the pilot only through the Gram ``X^H X``: the per-direction errors are
:func:`dcekit.analytics.posterior_var` at its eigenvalues over the noise
level, which is what makes the closed-form NMSE expressions in
:mod:`dcekit.analytics` exact rather than approximate.

The artificial-noise-protected forward stage is handled by whitening: the AN
seen by a receiver that cannot cancel it acts as extra white noise whose
variance is known in closed form, so the same template applies with an
"effective" noise level (:func:`effective_forward_noise_var` for LR,
:func:`dcekit.analytics.ur_disturbance` for UR).

The non-reciprocal transmitter's downlink estimate from the amplified echo is
:func:`echo_downlink_estimate`; its conditional error statistics are
:func:`dcekit.analytics.downlink_direction_error`.

Matrix inverses are never formed; everything goes through linear solves.
"""

from __future__ import annotations

import numpy as np

from . import analytics
from .model import SystemConfig
from .numerics import herm

__all__ = [
    "echo_downlink_estimate",
    "effective_forward_noise_var",
    "lmmse_combiner",
]


def lmmse_combiner(pilot: np.ndarray, prior_var: float, noise_var: float) -> np.ndarray:
    """LMMSE combiner ``prior * P^H (prior * P P^H + noise * I)^{-1}``.

    Left-multiplying an observation ``Y = P U + W`` (or a batch of them) by
    the ``n x tau`` result gives the LMMSE estimate of ``U``.
    """
    tau = pilot.shape[0]
    cov = prior_var * (pilot @ pilot.conj().T) + noise_var * np.eye(tau)
    return prior_var * np.linalg.solve(cov, pilot).conj().T


def effective_forward_noise_var(config: SystemConfig, e_r: float, var_a: float) -> float:
    r"""Row covariance level of the disturbance LR faces in the forward stage.

    The forward observation is :math:`Y_L = \bar{C} H + \bar{W}` where
    :math:`\bar{W}` lumps thermal noise with the artificial-noise leakage
    caused by the transmitter's reverse-training error.  Its covariance is
    white with level

    .. math::
        N_L \Big[ (N_t - N_L)\big(1/\sigma_h^2 + E_R/(N_L\sigma_{\tilde w}^2)\big)^{-1}
        \sigma_a^2 + \sigma_w^2 \Big]

    (the factor ``N_L`` is the row convention: dividing by ``N_L`` gives the
    per-entry level :func:`dcekit.analytics.reciprocal_effective_noise`).
    """
    return config.n_l * analytics.reciprocal_effective_noise(config, e_r, var_a)


def echo_downlink_estimate(
    y_t1: np.ndarray,
    x_t0: np.ndarray,
    hu_hat: np.ndarray,
    alpha: float,
    config: SystemConfig,
    e_t0: float,
    e_l2: float,
) -> np.ndarray:
    r"""Transmitter's downlink estimates from the amplified echo (non-reciprocal).

    The echo observation is :math:`Y_{t1} = \alpha (X_{t0} H_d + W_0) H_u +
    \tilde{W}_1`; substituting the uplink estimate
    :math:`\hat{H}_u = H_u - \Delta H_u` and whitening the residual terms
    yields the linear estimator

    .. math::
        \hat{H}_{d,t} = \frac{\sigma_{h_d}^2 N_t}{\alpha q}\, X_{t0}^H\, Y_{t1}\,
        \hat{H}_u^H \big(\hat{H}_u \hat{H}_u^H + \beta I_{N_L}\big)^{-1},

    with ``q`` from :func:`dcekit.analytics.echo_power` and :math:`\beta`
    from :func:`dcekit.analytics.beta`.  ``x_t0`` is the energy-scaled square
    unitary initial pilot; all arrays may carry the same leading batch axes.
    Its exact conditional (on :math:`\hat{H}_u`) error along each eigenvalue
    of :math:`\hat{H}_u \hat{H}_u^H` is
    :func:`dcekit.analytics.downlink_direction_error`.  With ``alpha == 0``
    the echo carries no signal and the estimate is the prior mean (zero).
    """
    if alpha == 0.0:
        return np.zeros(y_t1.shape[:-2] + (config.n_t, config.n_l), dtype=complex)
    b = analytics.beta(config, e_t0, e_l2, alpha)
    pref = config.var_hd * config.n_t / (alpha * analytics.echo_power(config, e_t0))
    z = herm(x_t0) @ y_t1  # matched filter over the initial pilot
    s_mat = hu_hat @ herm(hu_hat) + b * np.eye(config.n_l)
    # Z Hu^H (Hu Hu^H + beta I)^{-1}, through one solve on the n_l side.
    right = herm(np.linalg.solve(s_mat, hu_hat))
    return pref * (z @ right)
