"""Transcript-level tests for the two training protocols.

These exercise the single-round public entry points: signal bookkeeping,
exact pilot energy accounting, null-space guarding of the artificial noise,
and determinism under a fixed stream.  Statistical agreement of the recorded
errors with the closed forms is covered by the Monte Carlo suite.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from dcekit import analytics
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
    reciprocal_plan,
    training_spend,
)
from dcekit.numerics import RngStream, complex_normal, null_complement
from dcekit.protocol import (
    _guard_null_residual,
    dft_semiunitary,
    forward_pilot,
    run_nonreciprocal,
    run_reciprocal,
    run_rounds,
)

CFG = SystemConfig(n_t=4, n_l=2, n_u=2)
R_PLAN = reciprocal_plan(CFG)
N_PLAN = nonreciprocal_plan(CFG)
R_ALLOC = PowerAllocation(scheme=RECIPROCAL, e_r=2.0, e_f=4.0, var_a=1.0)
N_ALLOC = PowerAllocation(
    scheme=NONRECIPROCAL, e_t0=4.0, e_l1=4.0, e_l2=2.0, e_t3=8.0, var_a=1.0
)


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
    def _degenerate_batch(kind: str) -> np.ndarray:
        gen = RngStream(32).generator
        if kind == "full_rank":
            return complex_normal(gen, (64, 4, 2), 1.0)
        if kind == "rank_one":
            return complex_normal(gen, (64, 4, 1), 1.0) @ complex_normal(gen, (64, 1, 2), 1.0)
        if kind == "large_rank_one":
            return 1e6 * complex_normal(gen, (64, 4, 1), 1.0) @ complex_normal(gen, (64, 1, 2), 1.0)
        return np.zeros((64, 4, 2), dtype=complex)

    @pytest.mark.parametrize("kind", ["full_rank", "rank_one", "large_rank_one", "zero"])
    def test_null_complement_degenerate_inputs(self, kind):
        mat = self._degenerate_batch(kind)
        k = null_complement(mat)
        k_h = np.swapaxes(k.conj(), -1, -2)
        assert k.shape == (64, 4, 2)
        ortho = np.linalg.norm(k_h @ k - np.eye(2), axis=(-2, -1))
        assert np.max(ortho) < 1e-12
        leak = np.linalg.norm(k_h @ mat, axis=(-2, -1))
        scale = np.maximum(1.0, np.linalg.norm(mat, axis=(-2, -1)))
        assert np.all(leak < 1e-10 * scale)


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
        for keep in (True, False):
            out = run_rounds(
                CFG, plan, alloc, RngStream(seed).generator, batch=1,
                channels=batched, keep_signals=keep,
            )
            for key, name in (("tx", "h_hat"), ("lr", "h_lr"), ("ur", "g_ur")):
                self._assert_same_bits(out[name][0], t.estimates[key].estimate)
                assert out[f"sq_{key}"][0] == t.squared_errors[key]
            self._assert_same_bits(out["an"][0], t.an_matrix)
            self._assert_same_bits(out["k_null"][0], t.null_basis)
            if keep:
                assert out["signals"].keys() == t.signals.keys()
                for name, sig in out["signals"].items():
                    self._assert_same_bits(sig[0] if sig.ndim == 3 else sig, t.signals[name])
            else:
                assert "signals" not in out

    @pytest.mark.parametrize("scheme", [RECIPROCAL, NONRECIPROCAL])
    def test_transcript_reads_engine_noise_level(self, scheme):
        """LR's statistics use the noise level the engine estimated with."""
        if scheme == RECIPROCAL:
            channels, t = _recip_round()
            plan, e_fwd, prior = R_PLAN, R_ALLOC.e_f, CFG.var_h
            noise = effective_forward_noise_var(CFG, R_ALLOC.e_r, R_ALLOC.var_a) / CFG.n_l
            batched = (channels.h[None], channels.g[None])
            alloc = R_ALLOC
        else:
            channels, t = _nonrec_round()
            plan, e_fwd, prior = N_PLAN, N_ALLOC.e_t3, CFG.var_hd
            noise = analytics.nonreciprocal_effective_noise(CFG, N_ALLOC)
            batched = (channels.h_d[None], channels.h_u[None], channels.g[None])
            alloc = N_ALLOC
        out = run_rounds(CFG, plan, alloc, RngStream(2).generator, batch=1, channels=batched)
        assert out["noise_l"] == noise
        expected = analytics.forward_direction_errors(CFG, prior, e_fwd, noise, plan.pilot_eigs)
        self._assert_same_bits(t.estimates["lr"].per_direction_error_var, expected)

    def test_batch_rows_are_independent_rounds(self):
        """Row i of a batch depends on the channels of row i only."""
        gen = RngStream(6).generator
        out = run_rounds(CFG, R_PLAN, R_ALLOC, gen, batch=3)
        assert out["h_hat"].shape == (3, CFG.n_t, CFG.n_l)
        assert out["sq_lr"].shape == (3,)
        assert not np.array_equal(out["h_lr"][0], out["h_lr"][1])


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
            lr = out["alpha"] ** 2 * energy(sig["y_l0"]) + energy(sig["x_l2"])
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
