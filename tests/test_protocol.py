"""Transcript-level tests for the two training protocols.

These exercise the single-round public entry points: signal bookkeeping,
exact pilot energy accounting, null-space guarding of the artificial noise,
and determinism under a fixed stream.  Statistical agreement of the recorded
errors with the closed forms is covered by the Monte Carlo suite.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import pickle
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from dcekit import analytics, estimator, protocol
from dcekit.allocator import solve_nonreciprocal, solve_reciprocal
from dcekit.estimator import effective_forward_noise_var
from dcekit.model import (
    NONRECIPROCAL,
    RECIPROCAL,
    AllocationError,
    ChannelRealization,
    EnergyBudget,
    PowerAllocation,
    SystemConfig,
    draw_channels,
    nonreciprocal_plan,
    optimal_pilot_gram,
    reciprocal_plan,
    training_spend,
    validate,
)
from dcekit.numerics import HOUSEHOLDER_MIN_BATCH, Arena, RngStream, complex_normal, null_complement
from dcekit.protocol import (
    _guard_null_residual,
    _round_constants,
    dft_semiunitary,
    forward_pilot,
    run_nonreciprocal,
    run_reciprocal,
    run_rounds,
    squared_error,
)

CFG = SystemConfig(n_t=4, n_l=2, n_u=2)
R_PLAN = reciprocal_plan(CFG)
N_PLAN = nonreciprocal_plan(CFG)
R_ALLOC = PowerAllocation(scheme=RECIPROCAL, e_r=2.0, e_f=4.0, var_a=1.0)
N_ALLOC = PowerAllocation(
    scheme=NONRECIPROCAL, e_t0=4.0, e_l1=4.0, e_l2=2.0, e_t3=8.0, var_a=1.0
)


def _line_peaks(run, codes) -> dict:
    """Peak traced memory of each source line of the functions whose code
    objects are in ``codes``, over one call of ``run``, keyed by ``(code,
    line)``: a line's peak covers the calls it makes, above the memory traced
    when it starts."""
    peaks, state = {}, {}

    def start(frame):
        tracemalloc.reset_peak()
        state["line"], state["base"] = frame.f_lineno, tracemalloc.get_traced_memory()[0]

    def local(frame, event, arg):
        if event in ("line", "return"):
            key = (frame.f_code, state["line"])
            peaks[key] = max(peaks.get(key, 0), tracemalloc.get_traced_memory()[1] - state["base"])
            start(frame)
        return local

    def call(frame, event, arg):
        if frame.f_code in codes:
            start(frame)
            return local
        return None

    tracemalloc.start()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
        tracemalloc.stop()
    return peaks


def _recip_round(seed_ch=1, seed_noise=2, alloc=R_ALLOC):
    channels = draw_channels(CFG, RECIPROCAL, RngStream(seed_ch))
    return channels, run_reciprocal(CFG, R_PLAN, alloc, channels, RngStream(seed_noise))


def _nonrec_round(seed_ch=1, seed_noise=2, alloc=N_ALLOC):
    channels = draw_channels(CFG, NONRECIPROCAL, RngStream(seed_ch))
    return channels, run_nonreciprocal(CFG, N_PLAN, alloc, channels, RngStream(seed_noise))


class TestPilots:
    @pytest.mark.parametrize("tau,n", [(4, 4), (8, 3), (2, 1)])
    def test_dft_semiunitary_columns(self, tau, n):
        c = dft_semiunitary(tau, n)
        np.testing.assert_allclose(c.conj().T @ c, np.eye(n), atol=1e-12)

    def test_dft_semiunitary_rejects_wide(self):
        with pytest.raises(ValueError):
            dft_semiunitary(3, 4)

    @pytest.mark.parametrize("d", [(1.0, 1.0, 1.0, 1.0), (2.0, 2.0, 0.0, 0.0)])
    def test_forward_pilot_gram(self, d):
        c = forward_pilot(4, 4, d)
        np.testing.assert_allclose(c.conj().T @ c, np.diag(d), atol=1e-12)
        assert np.trace(c.conj().T @ c).real == pytest.approx(4.0)


class TestPilotRank:
    """The rank alone sets the forward pilot: ``replace(plan, pilot_rank=k)``
    is a valid plan whose engine pilot has the Gram profile
    ``optimal_pilot_gram(n_t, k)``, the profile its closed forms use."""

    @pytest.mark.parametrize("k", range(1, CFG.n_t + 1))
    @pytest.mark.parametrize("scheme", [RECIPROCAL, NONRECIPROCAL])
    def test_rank_sets_profile(self, scheme, k):
        d = optimal_pilot_gram(CFG.n_t, k)
        if scheme == RECIPROCAL:
            plan, alloc, run, stage = R_PLAN, R_ALLOC, run_reciprocal, ""
            e_fwd, prior = R_ALLOC.e_f, CFG.var_h
            noise = analytics.reciprocal_effective_noise(CFG, R_ALLOC.e_r, R_ALLOC.var_a)
        else:
            plan, alloc, run, stage = N_PLAN, N_ALLOC, run_nonreciprocal, "3"
            e_fwd, prior = N_ALLOC.e_t3, CFG.var_hd
            noise = analytics.nonreciprocal_effective_noise(CFG, N_ALLOC)
        plan = dataclasses.replace(plan, pilot_rank=k)
        assert validate(CFG, plan) == []

        channels = draw_channels(CFG, scheme, RngStream(1))
        # Without AN the forward signal is the bare pilot.
        quiet = run(CFG, plan, dataclasses.replace(alloc, var_a=0.0), channels, RngStream(2))
        c = quiet.signals[f"x_t{stage}"] / np.sqrt(e_fwd / CFG.n_t)
        np.testing.assert_allclose(c.conj().T @ c, np.diag(d), atol=1e-12)

        nmse_l, nmse_u = analytics.closed_forms(CFG, plan, alloc)
        assert nmse_l == float(np.mean(
            analytics.forward_direction_errors(CFG, prior, e_fwd, noise, d)
        ))
        assert nmse_u == analytics.nmse_u(CFG, e_fwd, alloc.var_a, d)
        t = run(CFG, plan, alloc, channels, RngStream(2))
        assert t.estimates["lr"].nmse == pytest.approx(nmse_l, rel=1e-12)
        assert t.estimates["ur"].nmse == pytest.approx(nmse_u, rel=1e-12)


class TestGuard:
    def test_orthogonal_basis_passes(self):
        basis = np.array([[0.0], [1.0]], dtype=complex)
        estimate = np.array([[5.0], [0.0]], dtype=complex)
        _guard_null_residual(basis, estimate)  # must not raise

    def test_leaky_basis_raises(self):
        basis = np.array([[1.0], [0.0]], dtype=complex)
        estimate = np.array([[5.0], [0.0]], dtype=complex)
        with pytest.raises(RuntimeError, match="leaked"):
            _guard_null_residual(basis, estimate)

    def test_bound_scales_with_large_estimates(self):
        """The bound is 1e-10 times the larger of 1 and the estimate's largest
        modulus."""
        basis = np.array([[0.0], [1.0]], dtype=complex)  # residual 2e-9 below
        _guard_null_residual(basis, np.array([[50.0], [2e-9]], dtype=complex))
        for scale in (0.5, 5.0):
            with pytest.raises(RuntimeError, match="leaked"):
                _guard_null_residual(basis, np.array([[scale], [2e-9]], dtype=complex))


class TestBatchedKernels:
    @pytest.mark.parametrize("shape", [(1, 4, 2), (1, 4, 4), (7, 3, 2), (4096, 4, 2), (2, 5)])
    @pytest.mark.parametrize("var", [0.0, 0.3, 2.0])
    def test_cn_bits_match_reference_recipe(self, shape, var):
        gen_a = RngStream(31, 4).generator
        gen_b = RngStream(31, 4).generator
        z = complex_normal(gen_a, shape, var)
        parts = gen_b.standard_normal(shape + (2,))
        ref = (parts[..., 0] + 1j * parts[..., 1]) * np.sqrt(var / 2.0)
        assert z.shape == shape and z.dtype == np.complex128
        np.testing.assert_array_equal(z.view(np.uint64), ref.view(np.uint64))
        # The result owns its buffer: no other live array aliases it.
        assert z.flags.owndata and z.base is None
        # Both generators consumed the same number of draws.
        assert gen_a.standard_normal() == gen_b.standard_normal()

    @staticmethod
    def _degenerate_batch(kind: str, batch: int) -> np.ndarray:
        gen = RngStream(32).generator
        if kind == "rank_one":
            return complex_normal(gen, (batch, 4, 1), 1.0) @ complex_normal(gen, (batch, 1, 2), 1.0)
        if kind == "large_rank_one":
            return 1e6 * complex_normal(gen, (batch, 4, 1), 1.0) @ complex_normal(gen, (batch, 1, 2), 1.0)
        if kind == "zero":
            return np.zeros((batch, 4, 2), dtype=complex)
        if kind == "real":
            return complex_normal(gen, (batch, 4, 2), 1.0).real.astype(complex)
        if kind == "real_triangular":
            # Nothing below the diagonal and a real pivot: every reflector is I.
            return np.triu(complex_normal(gen, (batch, 4, 2), 1.0).real).astype(complex)
        scale = {"full_rank": 1.0, "tiny": 1e-200, "huge": 1e200}[kind]
        return scale * complex_normal(gen, (batch, 4, 2), 1.0)

    @pytest.mark.parametrize("kind", [
        "full_rank", "rank_one", "large_rank_one", "zero", "real", "real_triangular", "tiny", "huge",
    ])
    def test_null_complement_degenerate_inputs(self, kind):
        """Both QR paths (stacks on either side of the crossover) give an
        orthonormal complement, without a warning, at any rank and scale."""
        for batch in (HOUSEHOLDER_MIN_BATCH - 1, HOUSEHOLDER_MIN_BATCH):
            mat = self._degenerate_batch(kind, batch)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                k = null_complement(mat)
            k_h = np.swapaxes(k.conj(), -1, -2)
            assert k.shape == (batch, 4, 2)
            ortho = np.linalg.norm(k_h @ k - np.eye(2), axis=(-2, -1))
            assert np.max(ortho) < 1e-12
            # Entrywise moduli: a Frobenius norm of the 1e200 stack would overflow.
            leak = np.max(np.abs(k_h @ mat), axis=(-2, -1))
            scale = np.max(np.abs(mat), axis=(-2, -1))
            assert np.all(leak <= 1e-12 * scale)


class TestHouseholderPath:
    """``run_rounds`` on stacks that take the vectorized QR keeps the
    artificial noise out of the transmitter's estimate (the per-round guard
    only sees batch-of-one transcripts)."""

    @pytest.mark.parametrize("scheme", [RECIPROCAL, NONRECIPROCAL])
    def test_null_basis_invariants(self, scheme):
        plan, alloc = (R_PLAN, R_ALLOC) if scheme == RECIPROCAL else (N_PLAN, N_ALLOC)
        out = run_rounds(CFG, plan, alloc, RngStream(12).generator, batch=4096, keep_signals=True)
        k, h_hat = out["k_null"], out["h_hat"]
        k_h = np.swapaxes(k.conj(), -1, -2)
        scale = np.maximum(1.0, np.max(np.abs(h_hat), axis=(-2, -1)))
        assert np.all(np.max(np.abs(k_h @ h_hat), axis=(-2, -1)) <= 1e-10 * scale)
        assert np.max(np.abs(k_h @ k - np.eye(CFG.n_t - CFG.n_l))) <= 1e-12

    @pytest.mark.parametrize("scheme", [RECIPROCAL, NONRECIPROCAL])
    def test_chunk_arrays_are_stack_last(self, scheme):
        """Every per-trial array of a 4096-round chunk has the trial axis as
        its unit-stride axis, which the vector kernels rely on for speed."""
        plan, alloc = (R_PLAN, R_ALLOC) if scheme == RECIPROCAL else (N_PLAN, N_ALLOC)
        out = run_rounds(CFG, plan, alloc, RngStream(13).generator, batch=4096, keep_signals=True)
        arrays = {k: v for k, v in out.items() if isinstance(v, np.ndarray)}
        arrays.update((k, v) for k, v in out["signals"].items() if v.ndim == 3)
        assert {"h", "g", "h_hat", "h_lr", "g_ur", "k_null", "an"} <= set(arrays)
        assert len(arrays) > 10  # the stage signals too
        for name, x in arrays.items():
            assert x.shape[0] == 4096 and x.strides[0] == x.itemsize, name

    @pytest.mark.parametrize("batch", [3, 4096])
    @pytest.mark.parametrize("scheme", [RECIPROCAL, NONRECIPROCAL])
    def test_returns_only_what_callers_read(self, scheme, batch):
        """Without ``keep_signals`` a round returns the channels and the
        receivers' estimates, nothing else: every other array is dropped at
        its last use.  The estimates are those of a kept-signals run."""
        plan, alloc = (R_PLAN, R_ALLOC) if scheme == RECIPROCAL else (N_PLAN, N_ALLOC)
        out = run_rounds(CFG, plan, alloc, RngStream(14).generator, batch=batch)
        assert set(out) == {"h", "g", "h_lr", "g_ur"}
        kept = run_rounds(CFG, plan, alloc, RngStream(14).generator, batch=batch, keep_signals=True)
        for name, value in out.items():
            np.testing.assert_array_equal(value, kept[name], err_msg=name)


    @pytest.mark.parametrize("scheme", [RECIPROCAL, NONRECIPROCAL])
    def test_arena_changes_no_bit(self, scheme):
        """Under an arena only the memory changes: every returned array is
        bit-equal to numpy's, on the chunk that grows the block and on the
        next one, which runs inside it."""
        plan, alloc = (R_PLAN, R_ALLOC) if scheme == RECIPROCAL else (N_PLAN, N_ALLOC)
        ref = run_rounds(CFG, plan, alloc, RngStream(21).generator, batch=4096)
        arena = Arena()
        for _ in range(2):
            with arena.activate():
                out = run_rounds(CFG, plan, alloc, RngStream(21).generator, batch=4096)
                for name, value in ref.items():
                    np.testing.assert_array_equal(out[name], value, err_msg=name)
        assert arena.nbytes > 0

    @pytest.mark.parametrize("batch", [150, 4096])
    @pytest.mark.parametrize("scheme", [RECIPROCAL, NONRECIPROCAL])
    def test_warm_fixed_adds_take_no_buffer(self, scheme, batch):
        """Adding a fixed matrix to a chunk takes no numpy iterator buffer in
        either stack layout: ``beta I`` goes onto the echo estimator's Gram
        one diagonal stack vector at a time, and the pilot ``x_bar`` is copied
        into the forward signal before the AN is added over equal strides (a
        broadcast add of ``x_bar`` took 39 KiB at 150 rounds and 129 KiB at
        4096, of ``beta I`` 9.6 and 129 KiB).  Measured per source line over a
        warm chunk, lines that call a stack kernel excepted."""
        plan, alloc = (R_PLAN, R_ALLOC) if scheme == RECIPROCAL else (N_PLAN, N_ALLOC)
        sites = [(protocol._forward_stage, "x_t[...] = const.x_bar"),
                 (protocol._forward_stage, "x_t += x_an")]
        if scheme == NONRECIPROCAL:
            sites.append((estimator.echo_downlink_estimate, "gram[..., k, k] += beta"))
        lines = {}
        for fn, text in sites:
            source, start = inspect.getsourcelines(fn)
            found = {start + i for i, line in enumerate(source) if text in line}
            assert len(found) == 1, text
            lines.setdefault(fn.__code__, set()).update(found)
        arena, gen = Arena(), RngStream(23).generator

        def chunk():
            with arena.activate():
                run_rounds(CFG, plan, alloc, gen, batch=batch)

        chunk()
        chunk()
        peaks = _line_peaks(chunk, set(lines))
        for code, numbers in lines.items():
            seen = [peak for (c, n), peak in peaks.items() if c is code and n in numbers]
            assert seen and max(seen) < 4 * 1024, (code.co_name, seen)

    def test_signals_need_numpy_memory(self):
        with Arena().activate(), pytest.raises(ValueError, match="keep_signals"):
            run_rounds(CFG, R_PLAN, R_ALLOC, RngStream(22).generator, batch=4096, keep_signals=True)


class TestReciprocalRound:
    def test_signal_shapes(self):
        _, t = _recip_round()
        assert t.scheme == RECIPROCAL
        assert t.signals["x_l"].shape == (R_PLAN.tau_r, CFG.n_l)
        assert t.signals["y_t"].shape == (R_PLAN.tau_r, CFG.n_t)
        assert t.signals["x_t"].shape == (R_PLAN.tau_f, CFG.n_t)
        assert t.signals["y_l"].shape == (R_PLAN.tau_f, CFG.n_l)
        assert t.signals["y_u"].shape == (R_PLAN.tau_f, CFG.n_u)
        assert t.an_matrix.shape == (R_PLAN.tau_f, CFG.n_t - CFG.n_l)
        assert t.null_basis.shape == (CFG.n_t, CFG.n_t - CFG.n_l)

    def test_reverse_pilot_energy_exact(self):
        _, t = _recip_round()
        assert np.sum(np.abs(t.signals["x_l"]) ** 2) == pytest.approx(R_ALLOC.e_r, rel=1e-12)

    def test_forward_pilot_energy_exact(self):
        """Removing the AN part must leave exactly the e_f joules of pilot."""
        _, t = _recip_round()
        pilot = t.signals["x_t"] - t.an_matrix @ t.null_basis.conj().T
        assert np.sum(np.abs(pilot) ** 2) == pytest.approx(R_ALLOC.e_f, rel=1e-12)

    def test_null_basis_orthonormal_and_clean(self):
        _, t = _recip_round()
        k = t.null_basis
        np.testing.assert_allclose(k.conj().T @ k, np.eye(2), atol=1e-12)
        h_hat = t.estimates["tx"].estimate
        assert np.max(np.abs(k.conj().T @ h_hat)) < 1e-10

    def test_squared_errors_match_estimates(self):
        channels, t = _recip_round()
        truth = {"tx": channels.h, "lr": channels.h, "ur": channels.g}
        for key, h in truth.items():
            direct = float(np.sum(np.abs(h - t.estimates[key].estimate) ** 2))
            assert t.squared_errors[key] == pytest.approx(direct, rel=1e-10)

    def test_an_energy_statistics(self):
        """Mean AN energy over rounds is tau_f * (n_t - n_l) * var_a."""
        total, rounds = 0.0, 400
        for i in range(rounds):
            _, t = _recip_round(seed_ch=1000 + i, seed_noise=2000 + i)
            total += float(np.sum(np.abs(t.an_matrix) ** 2))
        expected = R_PLAN.tau_f * (CFG.n_t - CFG.n_l) * R_ALLOC.var_a
        assert total / rounds == pytest.approx(expected, rel=0.1)

    def test_no_an_when_var_a_zero(self):
        alloc = PowerAllocation(scheme=RECIPROCAL, e_r=2.0, e_f=4.0, var_a=0.0)
        _, t = _recip_round(alloc=alloc)
        np.testing.assert_array_equal(t.an_matrix, 0.0)

    def test_zero_reverse_energy_gives_prior_mean(self):
        alloc = PowerAllocation(scheme=RECIPROCAL, e_r=0.0, e_f=4.0, var_a=0.5)
        channels, t = _recip_round(alloc=alloc)
        np.testing.assert_array_equal(t.estimates["tx"].estimate, 0.0)
        assert t.estimates["tx"].nmse == pytest.approx(CFG.var_h)
        assert t.squared_errors["tx"] == pytest.approx(
            float(np.sum(np.abs(channels.h) ** 2)), rel=1e-12
        )

    def test_deterministic_under_fixed_stream(self):
        _, a = _recip_round()
        _, b = _recip_round()
        for key in a.signals:
            np.testing.assert_array_equal(a.signals[key], b.signals[key])
        assert a.squared_errors == b.squared_errors

    def test_missing_channel_rejected(self):
        channels = ChannelRealization(g=np.zeros((4, 2), dtype=complex))
        with pytest.raises(ValueError, match="channels.h"):
            run_reciprocal(CFG, R_PLAN, R_ALLOC, channels, RngStream(3))

    def test_plan_scheme_mismatch_rejected(self):
        channels = draw_channels(CFG, RECIPROCAL, RngStream(1))
        with pytest.raises(ValueError, match="scheme"):
            run_reciprocal(CFG, N_PLAN, R_ALLOC, channels, RngStream(3))

    def test_negative_energy_rejected(self):
        alloc = PowerAllocation(scheme=RECIPROCAL, e_r=-1.0, e_f=4.0, var_a=0.0)
        channels = draw_channels(CFG, RECIPROCAL, RngStream(1))
        with pytest.raises(AllocationError):
            run_reciprocal(CFG, R_PLAN, alloc, channels, RngStream(3))


class TestNonreciprocalRound:
    def test_signal_shapes(self):
        _, t = _nonrec_round()
        assert t.scheme == NONRECIPROCAL
        assert t.signals["x_t0"].shape == (N_PLAN.tau_t0, CFG.n_t)
        assert t.signals["y_l0"].shape == (N_PLAN.tau_t0, CFG.n_l)
        assert t.signals["y_t1"].shape == (N_PLAN.tau_t0, CFG.n_t)
        assert t.signals["x_l2"].shape == (N_PLAN.tau_l2, CFG.n_l)
        assert t.signals["y_t2"].shape == (N_PLAN.tau_l2, CFG.n_t)
        assert t.signals["x_t3"].shape == (N_PLAN.tau_t3, CFG.n_t)
        assert t.signals["y_l3"].shape == (N_PLAN.tau_t3, CFG.n_l)
        assert t.signals["y_u3"].shape == (N_PLAN.tau_t3, CFG.n_u)

    def test_initial_pilot_scaled_unitary(self):
        _, t = _nonrec_round()
        x = t.signals["x_t0"]
        np.testing.assert_allclose(
            x.conj().T @ x, (N_ALLOC.e_t0 / CFG.n_t) * np.eye(4), atol=1e-10
        )

    def test_initial_pilot_redrawn_per_round(self):
        _, a = _nonrec_round(seed_noise=2)
        _, b = _nonrec_round(seed_noise=3)
        assert np.max(np.abs(a.signals["x_t0"] - b.signals["x_t0"])) > 1e-3

    def test_stage_energies_exact(self):
        _, t = _nonrec_round()
        assert np.sum(np.abs(t.signals["x_l2"]) ** 2) == pytest.approx(N_ALLOC.e_l2, rel=1e-12)
        pilot = t.signals["x_t3"] - t.an_matrix @ t.null_basis.conj().T
        assert np.sum(np.abs(pilot) ** 2) == pytest.approx(N_ALLOC.e_t3, rel=1e-12)

    def test_echo_energy_statistics(self):
        """The amplified echo spends e_l1 joules on average."""
        alpha = analytics.alpha_gain(CFG, N_ALLOC.e_t0, N_ALLOC.e_l1, N_PLAN.tau_t0)
        total, rounds = 0.0, 400
        for i in range(rounds):
            _, t = _nonrec_round(seed_ch=3000 + i, seed_noise=4000 + i)
            total += alpha**2 * float(np.sum(np.abs(t.signals["y_l0"]) ** 2))
        assert total / rounds == pytest.approx(N_ALLOC.e_l1, rel=0.1)

    def test_squared_errors_match_estimates(self):
        channels, t = _nonrec_round()
        truth = {"tx": channels.h_d, "lr": channels.h_d, "ur": channels.g}
        for key, h in truth.items():
            direct = float(np.sum(np.abs(h - t.estimates[key].estimate) ** 2))
            assert t.squared_errors[key] == pytest.approx(direct, rel=1e-10)

    def test_null_basis_guards_tx_estimate(self):
        _, t = _nonrec_round()
        k = t.null_basis
        np.testing.assert_allclose(k.conj().T @ k, np.eye(2), atol=1e-12)
        assert np.max(np.abs(k.conj().T @ t.estimates["tx"].estimate)) < 1e-10

    def test_zero_echo_energy_degenerates(self):
        alloc = PowerAllocation(
            scheme=NONRECIPROCAL, e_t0=4.0, e_l1=0.0, e_l2=2.0, e_t3=8.0, var_a=0.0
        )
        _, t = _nonrec_round(alloc=alloc)
        np.testing.assert_array_equal(t.estimates["tx"].estimate, 0.0)
        assert t.estimates["tx"].nmse == pytest.approx(CFG.var_hd)

    def test_deterministic_under_fixed_stream(self):
        _, a = _nonrec_round()
        _, b = _nonrec_round()
        for key in a.signals:
            np.testing.assert_array_equal(a.signals[key], b.signals[key])
        assert a.squared_errors == b.squared_errors

    def test_missing_uplink_rejected(self):
        channels = draw_channels(CFG, NONRECIPROCAL, RngStream(1))
        broken = ChannelRealization(g=channels.g, h_d=channels.h_d, h_u=None)
        with pytest.raises(ValueError, match="h_u"):
            run_nonreciprocal(CFG, N_PLAN, N_ALLOC, broken, RngStream(3))

    def test_plan_scheme_mismatch_rejected(self):
        channels = draw_channels(CFG, NONRECIPROCAL, RngStream(1))
        with pytest.raises(ValueError, match="scheme"):
            run_nonreciprocal(CFG, R_PLAN, N_ALLOC, channels, RngStream(3))


class TestChannelChecks:
    """The single-round runs check each supplied channel's shape against the
    config and take real arrays as their complex twins."""

    @staticmethod
    def _run(scheme, channels):
        if scheme == RECIPROCAL:
            return run_reciprocal(CFG, R_PLAN, R_ALLOC, channels, RngStream(3))
        return run_nonreciprocal(CFG, N_PLAN, N_ALLOC, channels, RngStream(3))

    @pytest.mark.parametrize("scheme", [RECIPROCAL, NONRECIPROCAL])
    def test_wrong_ur_width_rejected(self, scheme):
        channels = draw_channels(CFG, scheme, RngStream(1))
        wide = dataclasses.replace(channels, g=np.zeros((CFG.n_t, CFG.n_u + 1), dtype=complex))
        with pytest.raises(ValueError, match=r"channels\.g must have shape \(4, 2\), got \(4, 3\)"):
            self._run(scheme, wide)

    def test_transposed_uplink_rejected(self):
        channels = draw_channels(CFG, NONRECIPROCAL, RngStream(1))
        flipped = dataclasses.replace(channels, h_u=channels.h_u.T)
        with pytest.raises(ValueError, match=r"channels\.h_u must have shape \(2, 4\)"):
            self._run(NONRECIPROCAL, flipped)

    @pytest.mark.parametrize("scheme,field", [(RECIPROCAL, "h"), (NONRECIPROCAL, "h_d")])
    def test_real_channel_runs_as_complex_twin(self, scheme, field):
        channels = draw_channels(CFG, scheme, RngStream(1))
        real = getattr(channels, field).real
        as_real = dataclasses.replace(channels, **{field: real})
        as_complex = dataclasses.replace(channels, **{field: real.astype(complex)})
        assert pickle.dumps(self._run(scheme, as_real)) == pickle.dumps(
            self._run(scheme, as_complex)
        )


class TestBatchOfOne:
    """The single-round runs are ``run_rounds(batch=1)`` on the same stream."""

    @staticmethod
    def _assert_same_bits(a: np.ndarray, b: np.ndarray) -> None:
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("scheme", [RECIPROCAL, NONRECIPROCAL])
    @pytest.mark.parametrize("seed", [2, 5, 11])
    def test_run_matches_engine_bits(self, scheme, seed):
        if scheme == RECIPROCAL:
            channels, t = _recip_round(seed_noise=seed)
            plan, alloc, batched = R_PLAN, R_ALLOC, (channels.h[None], channels.g[None])
        else:
            channels, t = _nonrec_round(seed_noise=seed)
            plan, alloc = N_PLAN, N_ALLOC
            batched = (channels.h_d[None], channels.h_u[None], channels.g[None])
        out = run_rounds(
            CFG, plan, alloc, RngStream(seed).generator, batch=1,
            channels=batched, keep_signals=True,
        )
        for key, name in (("tx", "h_hat"), ("lr", "h_lr"), ("ur", "g_ur")):
            self._assert_same_bits(out[name][0], t.estimates[key].estimate)
            truth = out["g" if key == "ur" else "h"]
            assert squared_error(truth, out[name])[0] == t.squared_errors[key]
        self._assert_same_bits(out["an"][0], t.an_matrix)
        self._assert_same_bits(out["k_null"][0], t.null_basis)
        assert out["signals"].keys() == t.signals.keys()
        for name, sig in out["signals"].items():
            self._assert_same_bits(sig[0] if sig.ndim == 3 else sig, t.signals[name])
        # Without signals the receivers' estimates are the same bits.
        out = run_rounds(CFG, plan, alloc, RngStream(seed).generator, batch=1, channels=batched)
        for key, name in (("lr", "h_lr"), ("ur", "g_ur")):
            self._assert_same_bits(out[name][0], t.estimates[key].estimate)

    @pytest.mark.parametrize("n,m,u", [(2, 1, 1), (4, 2, 2), (6, 3, 2), (16, 9, 3), (40, 7, 1)])
    def test_transcript_errors_are_squared_error(self, n, m, u):
        """The transcript's one-buffer errors equal :func:`squared_error` bit
        for bit, sums of more than 8 and 128 entries and transposed estimates
        included."""
        gen = RngStream(n).generator
        h, g = complex_normal(gen, (1, n, m), 1.0), complex_normal(gen, (1, n, u), 1.0)
        pairs = [
            (h, complex_normal(gen, (1, m, n), 1.0).swapaxes(-1, -2)),
            (h, complex_normal(gen, (1, n, m), 1e-3)),
            (g, complex_normal(gen, (1, n, u), 1e3)),
        ]
        expected = [float(squared_error(truth, est)[0]) for truth, est in pairs]
        assert protocol._transcript_errors(pairs) == expected

    @pytest.mark.parametrize("scheme", [RECIPROCAL, NONRECIPROCAL])
    def test_transcript_reads_engine_noise_level(self, scheme):
        """LR's statistics use the noise level the engine estimated with."""
        if scheme == RECIPROCAL:
            _, t = _recip_round()
            plan, e_fwd, prior = R_PLAN, R_ALLOC.e_f, CFG.var_h
            noise = effective_forward_noise_var(CFG, R_ALLOC.e_r, R_ALLOC.var_a) / CFG.n_l
            alloc = R_ALLOC
        else:
            _, t = _nonrec_round()
            plan, e_fwd, prior = N_PLAN, N_ALLOC.e_t3, CFG.var_hd
            noise = analytics.nonreciprocal_effective_noise(CFG, N_ALLOC)
            alloc = N_ALLOC
        assert _round_constants(CFG, plan, alloc).noise_l == noise
        d = optimal_pilot_gram(CFG.n_t, plan.pilot_rank)
        expected = analytics.forward_direction_errors(CFG, prior, e_fwd, noise, d)
        self._assert_same_bits(t.estimates["lr"].per_direction_error_var, expected)

    @pytest.mark.parametrize("seed", [2, 5, 11])
    def test_echo_errors_read_uplink_gram(self, seed):
        """The transcript's echo-estimate errors are the conditional ones at
        the eigenvalues of the uplink estimate's Gram, not of the Gram plus
        ``beta I`` the estimator solves with."""
        _, t = _nonrec_round(seed_noise=seed)
        const = _round_constants(CFG, N_PLAN, N_ALLOC)
        hu_hat = const.k_rev @ t.signals["y_t2"]
        lam = np.linalg.eigvalsh(hu_hat @ hu_hat.conj().T)
        expected = analytics.downlink_direction_error(CFG, N_ALLOC.e_t0, const.beta, lam)
        got = t.estimates["tx"].per_direction_error_var
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_batch_rows_are_independent_rounds(self):
        """Row i of a batch depends on the channels of row i only."""
        gen = RngStream(6).generator
        out = run_rounds(CFG, R_PLAN, R_ALLOC, gen, batch=3, keep_signals=True)
        assert out["h_hat"].shape == (3, CFG.n_t, CFG.n_l)
        assert squared_error(out["h"], out["h_lr"]).shape == (3,)
        assert not np.array_equal(out["h_lr"][0], out["h_lr"][1])


class TestSingleRoundPins:
    """Exact values of single rounds, so that a bit change the view and the
    engine share shows (``TestBatchOfOne`` only compares the two).  Channels
    and round share the stream, as in ``model.draw_channels`` then
    ``run_*``.  Each entry: the ``tx``, ``lr``, ``ur`` squared errors, then
    the sums of the null basis, the AN matrix and the three estimates."""

    PINS = {
        ((4, 2, 2), RECIPROCAL, 2): (
            (6.3170587729449155, 5.883273647441968, 8.761622477149652),
            (0.865898008587328+1.0078310050179011j, 3.5944436598856084+1.0114637490246605j,
             0.21829060998674177-2.0241708699909218j, 0.5834522399201821-1.6646839927166068j,
             -1.9580592744136154-2.0029539435571033j)),
        ((4, 2, 2), RECIPROCAL, 5): (
            (3.1091663850045537, 6.329304001501274, 5.687388385673692),
            (0.5759002980673447+0.25578893883392007j, -1.555352576235641+2.7518667573956277j,
             2.439690358207711-1.109562516697268j, 0.8831404296776448-0.8480650954925468j,
             -0.4228017599173862-0.9539825702358005j)),
        ((4, 2, 2), NONRECIPROCAL, 2): (
            (5.46414540030792, 4.373516352929044, 9.863376182311164),
            (0.3827251272503399-0.5315227315788612j, 2.0690198329711103-3.6598810041430934j,
             1.2910484399564306-1.2307221580033474j, -0.03139251940997606-1.902874972636167j,
             -1.8830152623335736+2.9278221831295514j)),
        ((4, 2, 2), NONRECIPROCAL, 5): (
            (4.868765705452763, 2.3972010032426665, 3.962481370331713),
            (0.7639808538426278+0.2703056672081926j, -0.8759706636483144+2.868976306969194j,
             -0.8251272778257545-0.8519798507089467j, 0.22938470399636046-1.951496202306009j,
             1.0270707504712815+0.49705845995293857j)),
        ((6, 3, 2), RECIPROCAL, 2): (
            (12.197268857413931, 15.738248337413449, 10.84109916502029),
            (-0.1439502011342439+0.5917123661394853j, 1.9931406668758838-1.573067739027515j,
             -1.3442523889194389-0.9020174065144921j, -0.6657658205768255-2.3142838965587904j,
             -0.25762979918380896-0.527910372336023j)),
        ((6, 3, 2), RECIPROCAL, 5): (
            (10.971442581835145, 11.489095844774058, 9.537766134689734),
            (1.14570538374016-0.4593885070610252j, -3.3924284557517845-1.483422348196548j,
             2.0636590943902027-0.23236945613569j, -1.385602096853341-1.7371015104725398j,
             0.8338318994203344+0.870091309836373j)),
        ((6, 3, 2), NONRECIPROCAL, 2): (
            (21.33031693849012, 18.30100761083597, 13.278832963232158),
            (-0.22734504951315593-1.1444704192701307j, -2.671547516488493+0.18125048684130407j,
             -1.742628772738799-2.133814370586383j, -2.5724372489736433-2.2667510498433203j,
             -2.113696180529092-1.1109781970328263j)),
        ((6, 3, 2), NONRECIPROCAL, 5): (
            (13.310913820858307, 11.509072945235413, 11.614763490965048),
            (1.4708768804293353+1.1447145225356954j, 0.9210655550804059-0.45805025000483757j,
             -0.7267213645185815-0.7279365632092819j, -0.3156067503801799-1.7817910952815563j,
             -0.10005622235297468+0.17915658595687944j)),
    }

    @pytest.mark.parametrize("key", list(PINS), ids=lambda k: f"{k[0]}-{k[1]}-{k[2]}")
    def test_round_is_pinned(self, key):
        dims, scheme, seed = key
        cfg = SystemConfig(*dims)
        if scheme == RECIPROCAL:
            plan, alloc, run = reciprocal_plan(cfg), R_ALLOC, run_reciprocal
        else:
            plan, alloc, run = nonreciprocal_plan(cfg), N_ALLOC, run_nonreciprocal
        rng = RngStream(seed)
        t = run(cfg, plan, alloc, draw_channels(cfg, scheme, rng), rng)
        arrays = (t.null_basis, t.an_matrix, *(t.estimates[k].estimate for k in ("tx", "lr", "ur")))
        errors, sums = self.PINS[key]
        assert tuple(t.squared_errors[k] for k in ("tx", "lr", "ur")) == errors
        assert tuple(complex(np.sum(x)) for x in arrays) == sums


class TestRoundConstants:
    """Pilots, combiners and draw-free error statistics are built once per
    (config, plan, alloc) and shared, read-only, by every round of them."""

    CFG2 = SystemConfig(n_t=4, n_l=2, n_u=3, var_h=0.6, var_hd=1.4, var_g=0.8, var_w=0.5)

    @classmethod
    def _inputs(cls):
        """Two configs x two schemes x two allocations, as (config, plan, alloc, run)."""
        out = []
        for cfg in (CFG, cls.CFG2):
            for alloc in (R_ALLOC, dataclasses.replace(R_ALLOC, e_r=5.0, var_a=0.3)):
                out.append((cfg, reciprocal_plan(cfg, tau_f=6), alloc, run_reciprocal))
            for alloc in (N_ALLOC, dataclasses.replace(N_ALLOC, e_l1=9.0, e_t3=3.0)):
                out.append((cfg, nonreciprocal_plan(cfg, pilot_rank=3), alloc, run_nonreciprocal))
        return out

    @staticmethod
    def _round(cfg, plan, alloc, run, seed):
        rng = RngStream(seed)
        return pickle.dumps(run(cfg, plan, alloc, draw_channels(cfg, plan.scheme, rng), rng))

    def test_alternating_inputs_match_cold_cache(self):
        inputs = self._inputs()
        order = [(i, seed) for seed in range(3) for i in range(len(inputs))]
        warm = [self._round(*inputs[i], seed) for i, seed in order]
        cold = []
        for i, seed in order:
            _round_constants.cache_clear()
            cold.append(self._round(*inputs[i], seed))
        assert warm == cold

    @pytest.mark.parametrize("scheme", [RECIPROCAL, NONRECIPROCAL])
    def test_shared_arrays_are_read_only(self, scheme):
        if scheme == RECIPROCAL:
            _, t = _recip_round()
            const, pilot = _round_constants(CFG, R_PLAN, R_ALLOC), "x_l"
        else:
            _, t = _nonrec_round()
            const, pilot = _round_constants(CFG, N_PLAN, N_ALLOC), "x_l2"
        arrays = [const.x_rev, const.k_rev, const.x_bar, const.k_l, const.k_u]
        arrays += list(const.errors.values())
        arrays += [e.per_direction_error_var for e in t.estimates.values()]
        arrays.append(t.signals[pilot])
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0
        assert t.signals[pilot] is const.x_rev
        for key in ("lr", "ur"):
            assert t.estimates[key].per_direction_error_var is const.errors[key]

    def test_cache_is_bounded(self):
        _round_constants.cache_clear()
        size = _round_constants.cache_info().maxsize
        channels = draw_channels(CFG, RECIPROCAL, RngStream(1))
        for i in range(size + 5):
            alloc = dataclasses.replace(R_ALLOC, e_f=4.0 + i)
            run_reciprocal(CFG, R_PLAN, alloc, channels, RngStream(2))
        info = _round_constants.cache_info()
        assert info.currsize <= info.maxsize == size

    @pytest.mark.parametrize("scheme", [RECIPROCAL, NONRECIPROCAL])
    def test_check_fills_the_one_memo(self, scheme):
        """A single round's input check leaves one memo entry, which the engine
        then hits."""
        plan, alloc = (R_PLAN, R_ALLOC) if scheme == RECIPROCAL else (N_PLAN, N_ALLOC)
        run = run_reciprocal if scheme == RECIPROCAL else run_nonreciprocal
        _round_constants.cache_clear()
        run(CFG, plan, alloc, draw_channels(CFG, scheme, RngStream(1)), RngStream(3))
        assert _round_constants.cache_info().currsize == 1
        hits = _round_constants.cache_info().hits
        run_rounds(CFG, plan, alloc, RngStream(4).generator, batch=2)
        info = _round_constants.cache_info()
        assert (info.currsize, info.hits) == (1, hits + 1)

    @pytest.mark.parametrize("scheme", [RECIPROCAL, NONRECIPROCAL])
    def test_one_lookup_per_round(self, scheme):
        plan, alloc = (R_PLAN, R_ALLOC) if scheme == RECIPROCAL else (N_PLAN, N_ALLOC)
        run = run_reciprocal if scheme == RECIPROCAL else run_nonreciprocal
        rng = RngStream(1)
        channels = draw_channels(CFG, scheme, rng)
        run(CFG, plan, alloc, channels, rng)
        for _ in range(3):
            hits = _round_constants.cache_info().hits
            run(CFG, plan, alloc, channels, rng)
            assert _round_constants.cache_info().hits == hits + 1

    @pytest.mark.parametrize("scheme", [RECIPROCAL, NONRECIPROCAL])
    def test_view_checks_raise_every_call(self, scheme):
        """On warm inputs the view's own checks (plan scheme, channels, no
        active arena) still raise on every call."""
        plan, alloc = (R_PLAN, R_ALLOC) if scheme == RECIPROCAL else (N_PLAN, N_ALLOC)
        other = N_PLAN if scheme == RECIPROCAL else R_PLAN
        run = run_reciprocal if scheme == RECIPROCAL else run_nonreciprocal
        channels = draw_channels(CFG, scheme, RngStream(1))
        run(CFG, plan, alloc, channels, RngStream(2))
        cases = [
            (other, channels, "does not match"),
            (plan, dataclasses.replace(channels, g=None), r"needs channels\.g"),
            (plan, dataclasses.replace(channels, g=channels.g[:, :1]), r"channels\.g must have shape"),
        ]
        for _ in range(3):
            for p, ch, match in cases:
                with pytest.raises(ValueError, match=match):
                    run(CFG, p, alloc, ch, RngStream(2))
            with Arena().activate(), pytest.raises(ValueError, match="arena is active"):
                run(CFG, plan, alloc, channels, RngStream(2))

    def test_infeasible_allocation_raises_every_call(self):
        alloc = dataclasses.replace(R_ALLOC, e_f=-1.0)
        channels = draw_channels(CFG, RECIPROCAL, RngStream(1))
        _round_constants.cache_clear()
        for _ in range(3):
            with pytest.raises(AllocationError, match="e_f") as single:
                run_reciprocal(CFG, R_PLAN, alloc, channels, RngStream(3))
            with pytest.raises(AllocationError) as engine:
                run_rounds(CFG, R_PLAN, alloc, RngStream(4).generator, batch=2)
            assert str(engine.value) == str(single.value)
        assert _round_constants.cache_info().currsize == 0  # a raising call stores nothing


class TestTrainingSpend:
    """``training_spend`` bills what the engine transmits, AN included on
    every use of a forward pilot longer than ``n_t``."""

    @pytest.mark.parametrize("scheme", [RECIPROCAL, NONRECIPROCAL])
    def test_matches_measured_energy(self, scheme):
        budget = EnergyBudget(8000.0, 600.0, 0.1)
        if scheme == RECIPROCAL:
            plan = reciprocal_plan(CFG, tau_f=8)
            alloc = solve_reciprocal(CFG, plan, budget).allocation
        else:
            plan = nonreciprocal_plan(CFG, tau_t3=8)
            alloc = solve_nonreciprocal(CFG, plan, budget).allocation
        out = run_rounds(CFG, plan, alloc, RngStream(8).generator, batch=4096, keep_signals=True)
        sig = out["signals"]

        def energy(x):
            return np.broadcast_to(np.sum(np.abs(x) ** 2, axis=(-2, -1)), (4096,))

        if scheme == RECIPROCAL:
            tx, lr = energy(sig["x_t"]), energy(sig["x_l"])
        else:
            tx = energy(sig["x_t0"]) + energy(sig["x_t3"])
            alpha = _round_constants(CFG, plan, alloc).alpha
            lr = alpha**2 * energy(sig["y_l0"]) + energy(sig["x_l2"])
        billed = training_spend(alloc, CFG, plan)
        for measured, bill, cap in zip((tx, lr), billed, (budget.e_t_max, budget.e_l_max)):
            se = measured.std() / math.sqrt(measured.size)
            assert measured.mean() <= cap * (1 + 1e-9) + 3.0 * se
            assert abs(measured.mean() - bill) <= 3.0 * se + 1e-9 * bill


class TestNonFiniteInputs:
    """The estimation layer's gate rejects NaN and infinite inputs."""

    @pytest.mark.parametrize("field,value", [("var_w", math.nan), ("var_h", math.inf)])
    def test_config_rejected(self, field, value):
        cfg = SystemConfig(n_t=4, n_l=2, n_u=2, **{field: value})
        channels = draw_channels(CFG, RECIPROCAL, RngStream(1))
        with pytest.raises(ValueError, match=field):
            run_reciprocal(cfg, R_PLAN, R_ALLOC, channels, RngStream(3))

    @pytest.mark.parametrize(
        "alloc",
        [
            PowerAllocation(scheme=RECIPROCAL, e_r=2.0, e_f=math.nan, var_a=1.0),
            PowerAllocation(scheme=RECIPROCAL, e_r=2.0, e_f=4.0, var_a=math.inf),
        ],
        ids=["e_f_nan", "var_a_inf"],
    )
    def test_allocation_rejected(self, alloc):
        channels = draw_channels(CFG, RECIPROCAL, RngStream(1))
        with pytest.raises(AllocationError, match="finite"):
            run_reciprocal(CFG, R_PLAN, alloc, channels, RngStream(3))

    def test_nonreciprocal_allocation_rejected(self):
        alloc = PowerAllocation(
            scheme=NONRECIPROCAL, e_t0=4.0, e_l1=4.0, e_l2=math.nan, e_t3=8.0, var_a=1.0
        )
        channels = draw_channels(CFG, NONRECIPROCAL, RngStream(1))
        with pytest.raises(AllocationError, match="e_l2"):
            run_nonreciprocal(CFG, N_PLAN, alloc, channels, RngStream(3))
