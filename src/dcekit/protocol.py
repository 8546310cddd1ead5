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
rounds of either scheme, and the one input check: ``ValueError`` for an
invalid configuration or plan, :class:`AllocationError` for a malformed
allocation.  :func:`run_reciprocal` / :func:`run_nonreciprocal` are its
batch-of-one views, one body for both schemes: they check the plan's scheme
and each channel's shape (:func:`dcekit.model.channel_table`), run the
engine's stages on the constants of one memo lookup (bit for bit
``run_rounds(..., batch=1, channels=...)`` on the same stream), and add the
error statistics of :mod:`dcekit.analytics` and the three squared errors,
taken together in one buffer.

What a round needs that no draw changes (:class:`_RoundConstants`) is
checked and built once per (config, plan, allocation), in one memo that
keeps the :data:`_MEMO_SIZE` latest distinct valid inputs.  Every round of
those inputs shares these arrays, so they are read-only; so is every
transcript's ``per_direction_error_var``, and its pilot signals ``x_l`` /
``x_l2`` are the shared arrays.  Invalid inputs store nothing, so they are
checked, and raise, on every call.

Every per-trial array of a chunk lives in stack-last memory (see
:mod:`dcekit.numerics`): the channels and AN are drawn straight into it,
every product goes through :func:`dcekit.numerics.matmul`, and each noise
draw is made in its product's own memory order and added in place.  Below
:data:`dcekit.numerics.HOUSEHOLDER_MIN_BATCH` rounds numpy's own draws,
products, solves and QRs run, which keeps the batch-of-one bits, so a
single round is numpy's per-call cost: its QR, solve and eigenvalue calls
alone take about 100 us of the 355 us of one reciprocal and one
non-reciprocal round (README, "Single rounds").
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

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
    channel_table,
    optimal_pilot_gram,
    validate,
)
from .numerics import (
    RngStream,
    active_arena,
    add_complex_normal,
    empty,
    empty_like,
    empty_stack,
    haar_semiunitary,
    herm,
    keep,
    matmul,
    null_complement,
    scratch,
    stacked_complex_normal,
)

__all__ = [
    "EstimateWithError",
    "TrainingTranscript",
    "dft_semiunitary",
    "forward_pilot",
    "run_nonreciprocal",
    "run_reciprocal",
    "run_rounds",
    "squared_error",
]

# Transcript sanity: AN must sit in the estimated null space to this residual.
_NULL_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class EstimateWithError:
    """An estimate bundled with its exact per-direction error statistics.

    ``per_direction_error_var`` holds the per-entry error variance along each
    eigendirection of the pilot Gram.
    """

    estimate: np.ndarray
    per_direction_error_var: np.ndarray

    @property
    def nmse(self) -> float:
        """Mean of ``per_direction_error_var``, i.e. the per-entry mean-square
        error, which always lies in ``[0, prior_var]``."""
        return float(self.per_direction_error_var.mean())


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
    zeroes out ``n_t - K`` columns.  The engine passes a plan's profile,
    :func:`dcekit.model.optimal_pilot_gram` ``(n_t, plan.pilot_rank)``.
    """
    base = dft_semiunitary(tau, n_t)
    return base * np.sqrt(np.asarray(d, dtype=float))[None, :]


def squared_error(truth: np.ndarray, est: np.ndarray) -> np.ndarray:
    """Squared Frobenius error ``||truth - est||_F^2`` of each matrix of a
    stack, shape ``truth.shape[:-2]``.  The difference is scratch, laid out
    as ``truth`` (numpy's choice for ``truth - est``) and squared in place."""
    out = empty(truth.shape[:-2], np.float64)
    with scratch():
        diff = np.subtract(truth, est, out=empty_like(truth))
        re, im = np.square(diff.real, out=diff.real), np.square(diff.imag, out=diff.imag)
        re += im
        return np.add.reduce(re, axis=(-2, -1), out=out)


# Distinct (config, plan, alloc) inputs the memo below keeps: more than the
# operating points a sweep or a benchmark pass revisits, and each entry is a
# few small arrays.
_MEMO_SIZE = 16


@dataclass(frozen=True)
class _RoundConstants:
    """What every round of one (config, plan, alloc) shares; arrays read-only."""

    x_rev: np.ndarray  # reverse pilot x_l (reciprocal) or uplink pilot x_l2
    k_rev: np.ndarray  # its LMMSE combiner
    alpha: float | None  # echo gain (non-reciprocal)
    beta: float | None  # echo estimator's regularizer (non-reciprocal)
    echo_scale: float | None  # echo estimator's prefactor (0 when alpha is)
    x_bar: np.ndarray  # energy-scaled forward pilot
    k_l: np.ndarray  # LR's forward combiner
    k_u: np.ndarray  # UR's forward combiner
    noise_l: float  # per-entry noise level LR's forward estimate assumes
    # Per-direction error variances for "lr", "ur" and, when they do not
    # depend on the draw (reciprocal), "tx".
    errors: Mapping[str, np.ndarray]


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _round_constants(
    config: SystemConfig, plan: TrainingPlan, alloc: PowerAllocation
) -> _RoundConstants:
    """Check the inputs (``ValueError`` for an invalid configuration or plan,
    :class:`AllocationError` for a malformed allocation), then build the
    draw-independent part of their rounds.  A raising call stores nothing."""
    problems = validate(config, plan)
    if problems:
        raise ValueError(f"invalid configuration: {problems[0]}")
    problems = allocation_violations(alloc, config, plan)
    if problems:
        raise AllocationError(f"infeasible allocation: {problems[0]}")
    n_t, n_l = config.n_t, config.n_l
    if plan.scheme == RECIPROCAL:
        e_fwd, prior_l, tau = alloc.e_f, config.var_h, plan.tau_f
        x_rev = np.sqrt(alloc.e_r / n_l) * dft_semiunitary(plan.tau_r, n_l)
        k_rev = lmmse_combiner(x_rev, config.var_h, config.var_wt)
        alpha = b = scale = None
        noise_l = effective_forward_noise_var(config, alloc.e_r, alloc.var_a) / n_l
        delta2 = analytics.reverse_error_var(config, config.var_h, alloc.e_r)
        dirs = {"tx": np.full(n_l, delta2)}
    else:
        e_fwd, prior_l, tau = alloc.e_t3, config.var_hd, plan.tau_t3
        x_rev = np.sqrt(alloc.e_l2 / n_l) * dft_semiunitary(plan.tau_l2, n_l)
        k_rev = lmmse_combiner(x_rev, config.var_hu, config.var_wt)
        alpha = analytics.alpha_gain(config, alloc.e_t0, alloc.e_l1, plan.tau_t0)
        b = analytics.beta(config, alloc.e_t0, alloc.e_l2, alpha)
        q = analytics.echo_power(config, alloc.e_t0)
        scale = config.var_hd * n_t / (alpha * q) if alpha else 0.0
        noise_l = analytics.nonreciprocal_effective_noise(config, alloc)
        dirs = {}
    d = optimal_pilot_gram(n_t, plan.pilot_rank)
    r_u = analytics.ur_disturbance(config, alloc.var_a)
    x_bar = np.sqrt(e_fwd / n_t) * forward_pilot(n_t, tau, d)
    k_l = lmmse_combiner(x_bar, prior_l, noise_l)
    k_u = lmmse_combiner(x_bar, config.var_g, r_u)
    dirs["lr"] = analytics.forward_direction_errors(config, prior_l, e_fwd, noise_l, d)
    dirs["ur"] = analytics.forward_direction_errors(config, config.var_g, e_fwd, r_u, d)
    for arr in (x_rev, k_rev, x_bar, k_l, k_u, *dirs.values()):
        arr.setflags(write=False)
    errors = MappingProxyType(dirs)
    return _RoundConstants(x_rev, k_rev, alpha, b, scale, x_bar, k_l, k_u, noise_l, errors)


# ---------------------------------------------------------------------------
# Batched engine.  Draw order is part of the contract (reproducibility and
# the batch-of-one runs below): the non-reciprocal Haar pilot c_t0 first,
# then the channels (when not supplied), then stage noises in protocol
# order, then the AN matrix, then receiver noises.  Under an arena
# (dcekit.numerics) the returned arrays last the chunk and the intermediate
# signals live in scratch frames.
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
    """Run ``batch`` independent rounds of ``plan.scheme``; ``ValueError`` for
    an invalid configuration or plan, :class:`AllocationError` for a
    malformed allocation.  ``channels`` holds batched ``(h, g)`` or ``(h_d,
    h_u, g)``, used as given; without it they are drawn from ``gen``
    (stack-last) in :func:`dcekit.model.channel_table` order.

    Returns ``(batch, ...)`` arrays: channels ``"h"`` (LR's) and ``"g"``,
    estimates ``"h_hat"`` (transmitter's), ``"h_lr"``, ``"g_ur"``, null basis
    ``"k_null"`` and AN ``"an"``; a caller that wants an estimate's error
    takes :func:`squared_error` of it.  Non-reciprocal adds ``"hu_hat"``, and
    ``keep_signals`` every stage signal under ``"signals"`` (and, for
    non-reciprocal rounds, the echo estimator's ``"hu_gram"``, ``hu_hat
    hu_hat^H``); these are scratch under an arena, so ``keep_signals`` needs
    none active.  What the
    inputs fix (LR's noise level, the echo gain) is in
    :func:`_round_constants`.
    """
    const = _round_constants(config, plan, alloc)
    return _rounds(config, alloc, const, plan.scheme, gen, batch, channels, keep_signals)


def _rounds(config, alloc, const, scheme, gen, batch, channels, keep_signals) -> dict:
    """:func:`run_rounds` on the constants of its inputs."""
    if keep_signals and active_arena() is not None:
        raise ValueError("keep_signals needs numpy's own memory, but an arena is active")
    stages = _reciprocal_rounds if scheme == RECIPROCAL else _nonreciprocal_rounds
    return stages(config, alloc, const, gen, batch, channels, keep_signals)


def _draw_channels(config, scheme, gen, batch) -> tuple[np.ndarray, ...]:
    """A batch of ``scheme``'s channels, stack-last, in :func:`channel_table` order."""
    table = channel_table(config, scheme)
    return tuple(stacked_complex_normal(gen, (batch, *shape), var) for _, shape, var in table)


def _reciprocal_rounds(config, alloc, const, gen, batch, channels, keep_signals) -> dict:
    h, g = _draw_channels(config, RECIPROCAL, gen, batch) if channels is None else channels
    with scratch():
        y_t = add_complex_normal(matmul(const.x_rev, h.swapaxes(-1, -2)), gen, config.var_wt)
        with keep():
            h_hat = matmul(const.k_rev, y_t).swapaxes(-1, -2)  # plain transpose: unknown was H^T

    out = {"h": h, "g": g, "h_hat": h_hat}
    if keep_signals:
        out["signals"] = {"x_l": const.x_rev, "y_t": y_t}
    return _forward_stage(config, alloc, gen, out, const, "")


def _nonreciprocal_rounds(config, alloc, const, gen, batch, channels, keep_signals) -> dict:
    n_t, n_l = config.n_t, config.n_l

    # Haar-random square unitary pilot, redrawn every round.
    c_t0 = haar_semiunitary(gen, (batch, n_t, n_t))
    h_d, h_u, g = _draw_channels(config, NONRECIPROCAL, gen, batch) if channels is None else channels

    x_t0 = np.multiply(math.sqrt(alloc.e_t0 / n_t), c_t0, out=c_t0)
    with scratch():
        y_l0 = add_complex_normal(matmul(x_t0, h_d), gen, config.var_w)
        y_t1 = matmul(y_l0, h_u)
        y_t1 *= const.alpha
        add_complex_normal(y_t1, gen, config.var_wt)
        y_t2 = add_complex_normal(matmul(const.x_rev, h_u), gen, config.var_wt)
        with keep():
            hu_hat = matmul(const.k_rev, y_t2)
        gram = matmul(hu_hat, herm(hu_hat))
        hu_gram = gram.copy(order="K") if keep_signals else None  # the estimate adds beta I to gram
        with keep():
            hd_hat = echo_downlink_estimate(y_t1, x_t0, hu_hat, gram, const.echo_scale, const.beta)

    out = {"h": h_d, "g": g, "h_hat": hd_hat, "hu_hat": hu_hat}
    if keep_signals:
        out["hu_gram"] = hu_gram
        out["signals"] = {
            "x_t0": x_t0, "y_l0": y_l0, "y_t1": y_t1, "x_l2": const.x_rev, "y_t2": y_t2,
        }
    return _forward_stage(config, alloc, gen, out, const, "3")


def _forward_stage(config, alloc, gen, out, const, stage) -> dict:
    """The guarded forward stage both schemes end with, added to ``out``: the
    pilot ``const.x_bar`` plus AN in the null complement of ``out["h_hat"]``,
    estimated by LR and UR through ``const``'s combiners.  ``stage``
    suffixes the signal names (``"3"`` gives ``x_t3``)."""
    n_t, n_l = config.n_t, config.n_l
    h, g = out["h"], out["g"]
    batch, tau = h.shape[0], const.x_bar.shape[0]

    k_null = null_complement(out["h_hat"])
    a = stacked_complex_normal(gen, (batch, tau, n_t - n_l), alloc.var_a)
    with scratch():
        # The pilot copied into every matrix, then the AN added over equal
        # strides: numpy runs a broadcast add through an iterator buffer of
        # up to 8192 entries, and a copy takes none.  The AN product is
        # free again before the received signals are taken.
        x_t = empty_stack((batch, tau, n_t))
        x_t[...] = const.x_bar
        with scratch():
            x_an = matmul(a, herm(k_null))
            x_t += x_an
        y_l = add_complex_normal(matmul(x_t, h), gen, config.var_w)
        y_u = add_complex_normal(matmul(x_t, g), gen, config.var_v)
        with keep():
            h_lr = matmul(const.k_l, y_l)
            g_ur = matmul(const.k_u, y_u)

    out.update({"h_lr": h_lr, "g_ur": g_ur, "k_null": k_null, "an": a})
    if "signals" in out:
        out["signals"].update({f"x_t{stage}": x_t, f"y_l{stage}": y_l, f"y_u{stage}": y_u})
    return out


# ---------------------------------------------------------------------------
# Single rounds: batch-of-one views of the engine.
# ---------------------------------------------------------------------------


def _guard_null_residual(null_basis: np.ndarray, estimate: np.ndarray) -> None:
    # The bound is tol * max(1, max |estimate|): the estimate is read only past tol.
    residual = abs(null_basis.conj().T @ estimate).max()
    if residual > _NULL_RESIDUAL_TOL and residual > _NULL_RESIDUAL_TOL * abs(estimate).max():
        raise RuntimeError(
            f"artificial-noise basis leaked into the estimated channel "
            f"(residual {residual:.3e})"
        )


def _transcript_errors(pairs) -> list[float]:
    """``float(squared_error(truth, est)[0])`` of each batch-of-one pair, bit
    for bit, in one buffer: each matrix's entries are summed as one contiguous
    run, which numpy sums as it sums the matrix's two axes."""
    ends = list(itertools.accumulate(truth.size for truth, _ in pairs))
    diff = np.empty(ends[-1], np.complex128)
    for (truth, est), lo, hi in zip(pairs, [0, *ends], ends):
        np.subtract(truth, est, out=diff[lo:hi].reshape(truth.shape))
    parts = diff.view(np.float64)
    np.square(parts, out=parts)
    entries = np.add(parts[0::2], parts[1::2])
    return [float(np.add.reduce(entries[lo:hi])) for lo, hi in zip([0, *ends], ends)]


def _single_round(config, plan, alloc, channels, rng, scheme) -> TrainingTranscript:
    """One ``scheme`` round on a given channel draw: the engine's stages at
    batch one on the constants checked here, unbatched into a transcript with
    its error statistics."""
    if plan.scheme != scheme:
        raise ValueError(f"plan scheme {plan.scheme!r} does not match {scheme!r}")
    const = _round_constants(config, plan, alloc)
    batched = []
    for name, shape, _ in channel_table(config, scheme):
        x = getattr(channels, name)
        if x is None:
            raise ValueError(f"this scheme's run needs channels.{name}")
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != shape:
            raise ValueError(f"channels.{name} must have shape {shape}, got {x.shape}")
        batched.append(x[None])
    out = _rounds(config, alloc, const, scheme, rng.generator, 1, tuple(batched), True)

    errors = const.errors
    if scheme == NONRECIPROCAL:  # the echo estimate's errors depend on the draw
        lam = np.linalg.eigvalsh(out["hu_gram"][0])
        tx_dirs = analytics.downlink_direction_error(config, alloc.e_t0, const.beta, lam)
        tx_dirs.setflags(write=False)
        errors = {**errors, "tx": tx_dirs}
    null_basis = out["k_null"][0]
    _guard_null_residual(null_basis, out["h_hat"][0])
    keys = {"tx": ("h", "h_hat"), "lr": ("h", "h_lr"), "ur": ("g", "g_ur")}
    squared = _transcript_errors([(out[truth], out[est]) for truth, est in keys.values()])
    return TrainingTranscript(
        scheme=scheme,
        signals={k: x[0] if x.ndim == 3 else x for k, x in out["signals"].items()},
        an_matrix=out["an"][0],
        null_basis=null_basis,
        estimates={k: EstimateWithError(out[est][0], errors[k]) for k, (_, est) in keys.items()},
        squared_errors=dict(zip(keys, squared)),
    )


def run_reciprocal(
    config: SystemConfig,
    plan: TrainingPlan,
    alloc: PowerAllocation,
    channels: ChannelRealization,
    rng: RngStream,
) -> TrainingTranscript:
    """Execute one reciprocal training round for a given channel draw.  Raises
    as :func:`run_rounds` does, and ``ValueError`` for a non-reciprocal plan or
    a missing or misshapen channel."""
    return _single_round(config, plan, alloc, channels, rng, RECIPROCAL)


def run_nonreciprocal(
    config: SystemConfig,
    plan: TrainingPlan,
    alloc: PowerAllocation,
    channels: ChannelRealization,
    rng: RngStream,
) -> TrainingTranscript:
    """Execute one non-reciprocal training round for a given channel draw.  Raises
    as :func:`run_rounds` does, and ``ValueError`` for a reciprocal plan or
    a missing or misshapen channel."""
    return _single_round(config, plan, alloc, channels, rng, NONRECIPROCAL)
