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
:func:`echo_downlink_estimate`.  Its prefactor and regularizer depend only on
the training energies, so the training engine builds them once per
allocation and passes them in; its conditional error statistics are
:func:`dcekit.analytics.downlink_direction_error` at the eigenvalues of the
uplink Gram.  A caller that forms that Gram itself, for those eigenvalues,
hands it to :func:`echo_downlink_estimate_from_gram` instead.

Matrix inverses are never formed; everything goes through linear solves.
"""

from __future__ import annotations

import numpy as np

from . import analytics
from .model import SystemConfig
from .numerics import empty_stack, herm, hermitian_solve, keep, matmul, scratch

__all__ = [
    "echo_downlink_estimate",
    "echo_downlink_estimate_from_gram",
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
    scale: float,
    beta: float,
) -> np.ndarray:
    r"""Transmitter's downlink estimates from the amplified echo (non-reciprocal).

    The echo observation is :math:`Y_{t1} = \alpha (X_{t0} H_d + W_0) H_u +
    \tilde{W}_1`; substituting the uplink estimate
    :math:`\hat{H}_u = H_u - \Delta H_u` and whitening the residual terms
    yields the linear estimator

    .. math::
        \hat{H}_{d,t} = s\, X_{t0}^H \big(Y_{t1} R\big), \qquad
        R = \hat{H}_u^H \big(\hat{H}_u \hat{H}_u^H + \beta I_{N_L}\big)^{-1},
        \qquad s = \frac{\sigma_{h_d}^2 N_t}{\alpha q},

    with ``q`` from :func:`dcekit.analytics.echo_power`; ``scale`` is
    :math:`s` and ``beta`` is :func:`dcekit.analytics.beta`.  ``x_t0`` is
    the energy-scaled square unitary initial pilot and ``hu_hat`` the
    ``n_l x n_t`` uplink estimate, which the solve may overwrite; all arrays
    may carry the same leading batch axes.  Its exact conditional (on
    :math:`\hat{H}_u`) error along each eigenvalue of the Gram
    :math:`\hat{H}_u \hat{H}_u^H` is
    :func:`dcekit.analytics.downlink_direction_error`; the Gram is formed
    here and dies with the solve, before the two products.  With ``scale ==
    0`` (``alpha == 0``: the echo carries no signal) the estimate is the
    prior mean (zero).  The products go from the narrow side: ``Y_t1 R``
    and then ``X_t0^H`` times that are both ``n_t x n_l``, so no ``n_t x
    n_t`` product is formed.
    """
    return _echo_estimate(y_t1, x_t0, hu_hat, None, scale, beta)


def echo_downlink_estimate_from_gram(
    y_t1: np.ndarray,
    x_t0: np.ndarray,
    hu_hat: np.ndarray,
    gram: np.ndarray,
    scale: float,
    beta: float,
) -> np.ndarray:
    """:func:`echo_downlink_estimate`, bit for bit, on the uplink Gram ``gram
    = hu_hat hu_hat^H`` its caller has formed and keeps (``beta I`` is added
    to a copy).  The batch-of-one rounds take this route, since their
    transcripts read the same Gram's eigenvalues."""
    return _echo_estimate(y_t1, x_t0, hu_hat, gram.copy(), scale, beta)


def _echo_estimate(y_t1, x_t0, hu_hat, gram, scale, beta) -> np.ndarray:
    """The echo estimate, on ``gram`` (overwritten) or, for ``None``, on a
    Gram formed in the frame that closes after the solve."""
    n_t, n_l = hu_hat.shape[-1], hu_hat.shape[-2]
    if scale == 0.0:
        est = empty_stack(y_t1.shape[:-2] + (n_t, n_l))
        est.fill(0.0)
        return est
    with scratch():
        # R = Hu^H (Hu Hu^H + beta I)^{-1}, through one solve on the n_l side
        # whose result outlives the Gram's frame (in hu_hat's memory, or kept),
        # conjugated in place: hu_hat's only use is R.
        with scratch():
            if gram is None:
                gram = empty_stack(hu_hat.shape[:-1] + (n_l,))
                with scratch():
                    matmul(hu_hat, herm(hu_hat), out=gram)
            for k in range(n_l):  # + beta I per diagonal stack vector: no iterator buffer
                gram[..., k, k] += beta
            solved = hermitian_solve(gram, hu_hat)
            del gram
        right = np.conjugate(solved, out=solved).swapaxes(-1, -2)
        m = matmul(y_t1, right)
        # X^H M = conj(X^T conj(M)) term by term, without a copy of X^H.
        np.conjugate(m, out=m)
        with keep():
            est = matmul(x_t0.swapaxes(-1, -2), m)
    np.conjugate(est, out=est)
    est *= scale
    return est
