r"""Closed-form NMSE expressions, the UR floor window, and protocol constants.

Notation used throughout (all per-entry variances):

======================  =====================================================
``var_h``               reciprocal channel prior
``var_hd`` / ``var_hu`` non-reciprocal downlink / uplink priors
``var_g``               unauthorized receiver's channel prior
``var_wt``              transmitter-side noise, ``var_w`` LR noise, ``var_v``
                        UR noise
``d``                   eigenvalue profile of the unscaled forward pilot Gram
                        (``n_t`` entries summing to ``n_t``)
======================  =====================================================

Every scalar error formula of the package is written here once, from the
per-direction posterior :func:`posterior_var` up; the estimators and the
round transcripts take their error statistics from these functions.

The reciprocal formulas are exact for the LMMSE estimators in
:mod:`dcekit.estimator`.  The non-reciprocal LR formula is an approximation,
made once in :func:`downlink_error_floor`: the uplink-estimate Gram
eigenvalues are collapsed to their mean (a Jensen step), which leaves the
echo quality ``Q`` (:func:`echo_quality`, the one the solver optimizes).
Monte Carlo agreement at operating SNRs is part of the acceptance suite.

:func:`gamma_range` is the window of UR floors a full-rank pilot can meet
under the transmitter cap alone; it is no feasibility verdict.  A total cap
or a lower pilot rank moves what is reachable, so the solvers in
:mod:`dcekit.allocator` decide feasibility (``InfeasibleGamma``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    NONRECIPROCAL,
    RECIPROCAL,
    PowerAllocation,
    SystemConfig,
    TrainingPlan,
    optimal_pilot_gram,
)

__all__ = [
    "FeasibleGammaRange",
    "alpha_gain",
    "beta",
    "closed_forms",
    "downlink_direction_error",
    "downlink_error",
    "downlink_error_floor",
    "echo_coefficients",
    "echo_power",
    "echo_quality",
    "forward_direction_errors",
    "forward_nmse",
    "gamma_range",
    "gamma_tilde",
    "leak_noise",
    "mu",
    "nmse_l_nonreciprocal_approx",
    "nmse_l_reciprocal",
    "nmse_lower_bound",
    "nmse_u",
    "nonreciprocal_effective_noise",
    "posterior_var",
    "reciprocal_effective_noise",
    "reverse_error_var",
    "ur_disturbance",
]


@dataclass(frozen=True)
class FeasibleGammaRange:
    """Full-rank, per-node window ``[lo, hi]`` of UR NMSE floors (see
    :func:`gamma_range`); the solvers decide what a whole budget can meet."""

    lo: float
    hi: float


def gamma_tilde(config: SystemConfig, gamma: float) -> float:
    """Transformed leakage threshold ``(1/gamma - 1/var_g) * n_t * var_v``."""
    return (1.0 / gamma - 1.0 / config.var_g) * config.n_t * config.var_v


def gamma_range(config: SystemConfig, e_t_max: float) -> FeasibleGammaRange:
    """Window of UR NMSE floors a full-rank pilot can meet under the
    transmitter cap: ``gamma`` lies in it iff ``0 <= gamma_tilde <= e_t_max``.

    The lower edge is UR's best NMSE when the whole cap is spent on an
    unguarded forward pilot, ``(1/var_g + e_t_max/(n_t var_v))^{-1}``; the
    upper edge is the prior ``var_g`` (reached by sending nothing).
    """
    lo = posterior_var(config.var_g, e_t_max / (config.n_t * config.var_v))
    return FeasibleGammaRange(lo=lo, hi=config.var_g)


def posterior_var(prior: float, gain):
    """Per-direction LMMSE posterior ``(1/prior + gain)^{-1}`` (zero for a zero prior)."""
    if prior == 0.0:
        return gain * 0.0
    return 1.0 / (1.0 / prior + gain)


def reverse_error_var(config: SystemConfig, prior: float, energy: float) -> float:
    """Per-entry error ``delta^2`` of the transmitter's estimate from an ``n_l``-row pilot."""
    return posterior_var(prior, energy / (config.n_l * config.var_wt))


def reciprocal_effective_noise(config: SystemConfig, e_r: float, var_a: float) -> float:
    """Per-entry forward noise at LR (reciprocal): AN leaking through ``delta^2``, plus thermal."""
    delta2 = reverse_error_var(config, config.var_h, e_r)
    return (config.n_t - config.n_l) * delta2 * var_a + config.var_w


def ur_disturbance(config: SystemConfig, var_a: float) -> float:
    """Per-entry forward disturbance at UR (both schemes): the full AN plus thermal noise."""
    return (config.n_t - config.n_l) * var_a * config.var_g + config.var_v


def _direction_errors(config: SystemConfig, prior: float, e_fwd: float, noise: float, d):
    """:func:`forward_direction_errors` as a list of Python floats, each
    rounded as numpy's elementwise arithmetic rounds it."""
    scale, noise = e_fwd / config.n_t, float(noise)
    return [posterior_var(prior, scale * d_i / noise) for d_i in d]


def forward_direction_errors(config: SystemConfig, prior: float, e_fwd: float, noise: float, d):
    """Per-direction errors of a forward LMMSE estimate, an array: pilot
    energy ``e_fwd`` with Gram profile ``d`` against per-entry noise
    ``noise``."""
    return np.array(_direction_errors(config, prior, e_fwd, noise, d), dtype=float)


def forward_nmse(config: SystemConfig, prior: float, e_fwd: float, noise: float, d) -> float:
    """NMSE of a forward LMMSE estimate: the mean of
    :func:`forward_direction_errors` over the pilot directions, to the bit
    ``np.mean``'s."""
    errors = _direction_errors(config, prior, e_fwd, noise, d)
    if len(errors) >= 8:  # numpy sums 8 or more terms in interleaved partial sums
        return float(np.add.reduce(np.array(errors, dtype=float)) / len(errors))
    total = 0.0
    for error in errors:  # and fewer left to right
        total += error
    return float(total / len(errors))


def nmse_l_reciprocal(
    config: SystemConfig,
    e_r: float,
    e_f: float,
    var_a: float,
    d: np.ndarray | tuple[float, ...],
) -> float:
    r"""LR's forward-stage NMSE under the reciprocal scheme (exact).

    .. math::
        \frac{1}{N_t} \sum_i \Big( \frac{1}{\sigma_h^2} +
            \frac{(E_F/N_t)\, d_i}{\bar{r}} \Big)^{-1},
        \qquad
        \bar{r} = (N_t - N_L)\Big(\frac{1}{\sigma_h^2} +
            \frac{E_R}{N_L \sigma_{\tilde w}^2}\Big)^{-1} \sigma_a^2
            + \sigma_w^2 .

    ``r_bar`` is the per-entry effective forward noise: residual
    artificial-noise leakage (shrinking as the reverse energy ``e_r`` grows)
    plus LR thermal noise.
    """
    r_bar = reciprocal_effective_noise(config, e_r, var_a)
    return forward_nmse(config, config.var_h, e_f, r_bar, d)


def nmse_u(
    config: SystemConfig,
    e_f: float,
    var_a: float,
    d: np.ndarray | tuple[float, ...],
) -> float:
    """UR's forward-stage NMSE (exact; same form for both schemes).

    UR faces the full artificial noise: per-entry disturbance
    :func:`ur_disturbance`.
    """
    r_u = ur_disturbance(config, var_a)
    return forward_nmse(config, config.var_g, e_f, r_u, d)


def mu(config: SystemConfig) -> float:
    r"""Reverse-energy threshold deciding whether reverse training pays off.

    .. math::
        \mu = N_L\Big( \frac{\sigma_v^2 \sigma_{\tilde w}^2}
                            {\sigma_g^2 \sigma_w^2}
                     - \frac{\sigma_{\tilde w}^2}{\sigma_h^2} \Big)

    When the LR energy cap cannot reach ``mu``, spending anything on the
    reverse pilot is wasteful and the optimal reciprocal allocation degrades
    gracefully to forward-only training without artificial noise.  Each
    ratio is taken before the product, which stays in range wherever ``mu``
    does (the product of two noise variances overflows past about 1e154).
    """
    return config.n_l * (
        (config.var_v / config.var_g) * (config.var_wt / config.var_w)
        - config.var_wt / config.var_h
    )


def alpha_gain(
    config: SystemConfig, e_t0: float, e_l1: float, tau_t0: int
) -> float:
    """Echo amplification obeying LR's energy ``e_l1``:
    ``sqrt(e_l1 / (e_t0 n_l var_hd + tau_t0 n_l var_w))``."""
    denom = e_t0 * config.n_l * config.var_hd + tau_t0 * config.n_l * config.var_w
    return math.sqrt(e_l1 / denom)


def beta(config: SystemConfig, e_t0: float, e_l2: float, alpha: float) -> float:
    r"""Regularizer in the transmitter's echo-based downlink estimator.

    .. math::
        \beta = N_L\Big(\frac{1}{\sigma_{h_u}^2} +
                    \frac{E_{L2}}{N_L \sigma_{\tilde w}^2}\Big)^{-1}
              + \frac{N_t \sigma_{\tilde w}^2}{\alpha^2 q},
        \qquad q = \sigma_{h_d}^2 E_{t0} + N_t \sigma_w^2 .

    The first term is the uplink estimation error, the second the echo noise
    referred through the amplification.  ``alpha == 0`` (no echo energy)
    returns ``inf``: the echo carries no signal.
    """
    if alpha == 0.0:
        return math.inf
    delta_u2 = reverse_error_var(config, config.var_hu, e_l2)
    q = echo_power(config, e_t0)
    return config.n_l * delta_u2 + config.n_t * config.var_wt / (alpha**2 * q)


def echo_power(config: SystemConfig, e_t0: float) -> float:
    """``q = var_hd e_t0 + n_t var_w``: the initial downlink stage's power, as echoed."""
    return config.var_hd * e_t0 + config.n_t * config.var_w


def _rho0(config: SystemConfig, e_t0):
    """Round-trip signal share ``rho0 = var_hd e_t0 / q`` of the echo, ``q``
    from :func:`echo_power`."""
    return config.var_hd * e_t0 / echo_power(config, e_t0)


def downlink_direction_error(config: SystemConfig, e_t0: float, b: float, lam):
    """Conditional per-entry error of the echo-based downlink estimate along an
    uplink-estimate Gram eigenvalue ``lam``, ``rho0`` as in
    :func:`downlink_error_floor`; ``b = inf`` (no echo) gives ``var_hd``."""
    return config.var_hd - config.var_hd * _rho0(config, e_t0) * (lam / (b + lam))


def echo_coefficients(config: SystemConfig) -> tuple[float, float, float]:
    """``(a, b, c)`` of :func:`echo_quality`; infinite when ``var_hu == 0``
    (no uplink to unwind the echo with)."""
    if config.var_hu == 0.0:
        return math.inf, math.inf, math.inf
    b = config.n_l * config.var_wt / config.var_hu
    return config.n_l**2 * config.var_wt / (config.n_t * config.var_hu), b, b * b


def echo_quality(coefficients, e_l1, e_l2):
    """Echo quality ``Q`` of :func:`downlink_error_floor`, elementwise, for
    the coefficients ``(a, b, c)`` of :func:`echo_coefficients`; a zero
    energy makes it infinite."""
    a, b, c = coefficients
    return 1.0 + a / e_l2 + b / e_l1 + c / (e_l1 * e_l2)


def downlink_error_floor(config: SystemConfig, e_t0, e_l1, e_l2):
    r"""Typical per-entry error of the transmitter's echo-based downlink
    estimate, elementwise over array energies:

    .. math::
        \sigma_{h_d}^2 \Big(1 - \frac{\rho_0}{Q}\Big), \quad
        \rho_0 = \frac{\sigma_{h_d}^2 E_{t0}}{q}, \quad
        Q = 1 + \frac{a}{E_{L2}} + \frac{b}{E_{L1}} + \frac{c}{E_{L1} E_{L2}},

    ``q`` from :func:`echo_power`, ``Q`` from :func:`echo_quality` with ``a =
    n_l^2 var_wt / (n_t var_hu)``, ``b = n_l var_wt / var_hu``, ``c = b^2``.
    This is :func:`downlink_direction_error` at ``b = beta`` with the
    uplink-estimate Gram eigenvalues collapsed to their mean ``n_t (var_hu -
    delta_u^2)`` (the Jensen step): ``validate()`` pins ``tau_t0 = n_t``, so
    ``alpha^2 q = e_l1 / n_l`` and ``lam / (beta + lam) = 1 / Q``.  A zero
    energy or ``var_hu == 0`` gives the prior ``var_hd``.
    """
    e_t0, e_l1, e_l2 = (np.asarray(x, dtype=float) for x in (e_t0, e_l1, e_l2))
    with np.errstate(divide="ignore"):  # a zero energy makes Q infinite
        q = echo_quality(echo_coefficients(config), e_l1, e_l2)
    return downlink_error(config, e_t0, q)


def downlink_error(config: SystemConfig, e_t0, q):
    """The Jensen downlink error ``var_hd (1 - rho0 / Q)`` of
    :func:`downlink_error_floor` at echo quality ``q``, elementwise in plain
    arithmetic on what the caller passes (no conversion, no error state)."""
    return config.var_hd * (1.0 - _rho0(config, e_t0) / q)


def leak_noise(config: SystemConfig, var_a, err):
    r"""Per-entry forward noise at LR when AN of variance ``var_a`` leaks
    through a per-entry downlink error ``err``, elementwise:
    :math:`(N_t - N_L)\,\sigma_a^2\,\mathrm{err} + \sigma_w^2`."""
    return (config.n_t - config.n_l) * var_a * err + config.var_w


def nonreciprocal_effective_noise(config: SystemConfig, alloc: PowerAllocation):
    r"""Effective per-entry forward noise LR faces in the non-reciprocal scheme,
    elementwise over array-valued allocation fields:
    :math:`\bar{D} = (N_t - N_L)\,\sigma_a^2\,\mathrm{err} + \sigma_w^2`
    (:func:`leak_noise`), the artificial noise leaking through the downlink
    error ``err`` of :func:`downlink_error_floor` before adding to LR thermal
    noise.
    """
    err = downlink_error_floor(config, alloc.e_t0, alloc.e_l1, alloc.e_l2)
    return leak_noise(config, alloc.var_a, err)


def nmse_l_nonreciprocal_approx(
    config: SystemConfig, alloc: PowerAllocation, plan: TrainingPlan
) -> float:
    r"""LR's forward NMSE under the non-reciprocal scheme (approximation).

    Same per-direction form as the reciprocal case but with the effective
    noise :func:`nonreciprocal_effective_noise`.  Exact when ``var_a == 0``
    (the downlink-error bracket no longer matters); otherwise the Monte Carlo
    agreement at operating SNRs is checked by the acceptance suite.
    """
    if alloc.scheme != NONRECIPROCAL:
        raise ValueError(f"allocation scheme must be {NONRECIPROCAL!r}, got {alloc.scheme!r}")
    d_bar = nonreciprocal_effective_noise(config, alloc)
    d = optimal_pilot_gram(config.n_t, plan.pilot_rank)
    return forward_nmse(config, config.var_hd, alloc.e_t3, d_bar, d)


def closed_forms(
    config: SystemConfig, plan: TrainingPlan, alloc: PowerAllocation
) -> tuple[float, float]:
    """Closed-form ``(NMSE_L, NMSE_U)`` of an allocation under the plan's scheme.

    LR's value is :func:`nmse_l_reciprocal` or
    :func:`nmse_l_nonreciprocal_approx`; UR's is :func:`nmse_u` at the
    forward pilot energy, ``e_f`` or ``e_t3``.  ``ValueError`` if the
    allocation and the plan are of different schemes.
    """
    if alloc.scheme != plan.scheme:
        raise ValueError(
            f"allocation scheme {alloc.scheme!r} does not match plan scheme {plan.scheme!r}"
        )
    d = optimal_pilot_gram(config.n_t, plan.pilot_rank)
    if plan.scheme == RECIPROCAL:
        nmse_l = nmse_l_reciprocal(config, alloc.e_r, alloc.e_f, alloc.var_a, d)
        return nmse_l, nmse_u(config, alloc.e_f, alloc.var_a, d)
    nmse_l = nmse_l_nonreciprocal_approx(config, alloc, plan)
    return nmse_l, nmse_u(config, alloc.e_t3, alloc.var_a, d)


def nmse_lower_bound(
    config: SystemConfig,
    e_t_max: float,
    e_ave_max: float = math.inf,
    scheme: str = RECIPROCAL,
) -> float:
    """Genie lower bound on LR's NMSE under the energy caps.

    No scheme can beat spending every available joule on an unguarded
    forward pilot: ``(1/prior + min(e_t_max, e_ave_max)/(n_t var_w))^{-1}``
    with the prior chosen by ``scheme``.
    """
    prior = config.var_h if scheme == RECIPROCAL else config.var_hd
    budget = min(e_t_max, e_ave_max)
    return posterior_var(prior, budget / (config.n_t * config.var_w))
