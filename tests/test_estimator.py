"""Tests for the LMMSE building blocks.

The LMMSE combiner is checked against a hand-computed scalar case, the
orthogonality principle, and an independently assembled dense LMMSE matrix
(the "two routes to the same estimator" check for the echo-based downlink
estimator, built from vectorized covariances with explicit Kronecker
products rather than the push-through shortcut the implementation uses).
Each test runs the batched estimator the training engine runs, with the
error statistics of :mod:`dcekit.analytics`.
"""

from __future__ import annotations

import numpy as np
import pytest

from dcekit import analytics
from dcekit.estimator import (
    echo_downlink_estimate,
    effective_forward_noise_var,
    lmmse_combiner,
)
from dcekit.model import (
    NONRECIPROCAL,
    RECIPROCAL,
    PowerAllocation,
    SystemConfig,
    draw_channels,
    nonreciprocal_plan,
    optimal_pilot_gram,
    reciprocal_plan,
)
from dcekit.numerics import RngStream, haar_semiunitary, random_gaussian
from dcekit.protocol import forward_pilot, run_nonreciprocal, run_reciprocal

CFG = SystemConfig(n_t=4, n_l=2, n_u=2)


def _lmmse(y, x, prior, noise):
    """LMMSE estimate of ``U`` from ``Y = X U + W`` and its per-direction
    errors, the posterior at the pilot Gram eigenvalues (ascending)."""
    per_dir = analytics.posterior_var(prior, np.linalg.eigvalsh(x.conj().T @ x) / noise)
    return lmmse_combiner(x, prior, noise) @ y, per_dir


class TestLmmseBlock:
    """``lmmse_combiner(X, prior, noise) @ Y`` with the errors of
    :func:`dcekit.analytics.posterior_var`."""

    def test_scalar_oracle(self):
        # y = x*u + w with x=1, prior=1, noise=1: cov=2, W = 1/2.
        est, per_dir = _lmmse(np.array([[2.0 + 0j]]), np.array([[1.0 + 0j]]), 1.0, 1.0)
        assert est[0, 0] == pytest.approx(1.0)
        assert per_dir[0] == pytest.approx(0.5)
        assert per_dir.mean() == pytest.approx(0.5)

    def test_nmse_is_mean_of_directions(self):
        """Every transcript estimate reports the mean of its per-direction
        errors as its NMSE: ``n_l`` directions for the transmitter, ``n_t``
        for the receivers."""
        for seed, (run, scheme, plan, alloc) in enumerate((
            (run_reciprocal, RECIPROCAL, reciprocal_plan(CFG),
             PowerAllocation(scheme=RECIPROCAL, e_r=3.0, e_f=10.0, var_a=0.8)),
            (run_nonreciprocal, NONRECIPROCAL, nonreciprocal_plan(CFG),
             PowerAllocation(scheme=NONRECIPROCAL, e_t0=8.0, e_l1=3.0, e_l2=2.0,
                             e_t3=10.0, var_a=0.8)),
        )):
            channels = draw_channels(CFG, scheme, RngStream(seed, 1))
            t = run(CFG, plan, alloc, channels, RngStream(seed, 2))
            for key, n in (("tx", CFG.n_l), ("lr", CFG.n_t), ("ur", CFG.n_t)):
                out = t.estimates[key]
                assert out.per_direction_error_var.shape == (n,)
                assert out.nmse == pytest.approx(out.per_direction_error_var.mean(), rel=0, abs=0)

    def test_zero_prior_returns_prior_mean(self):
        y = random_gaussian(5, 2, 1.0, RngStream(4))
        x = random_gaussian(5, 3, 1.0, RngStream(5))
        est, per_dir = _lmmse(y, x, 0.0, 1.0)
        np.testing.assert_array_equal(est, 0.0)
        assert per_dir.mean() == 0.0

    def test_dense_lmmse_oracle(self):
        """Compare against W = prior X^H (prior X X^H + noise I)^{-1} built densely."""
        stream = RngStream(11)
        x = random_gaussian(7, 4, 1.3, stream)
        y = random_gaussian(7, 6, 2.0, stream)
        prior, noise = 0.8, 0.35
        est, per_dir = _lmmse(y, x, prior, noise)
        cov = prior * (x @ x.conj().T) + noise * np.eye(7)
        w_oracle = prior * x.conj().T @ np.linalg.inv(cov)
        np.testing.assert_allclose(est, w_oracle @ y, rtol=1e-11, atol=1e-13)
        # Per-direction error variances are the eigenvalues of the dense
        # error covariance prior (I - W X).
        expected = np.linalg.eigvalsh(prior * (np.eye(4) - w_oracle @ x))
        np.testing.assert_allclose(np.sort(per_dir), expected, rtol=1e-10)

    def test_orthogonality_principle(self):
        """E[(U - Uhat) Uhat^H] = 0: check with a wide block of iid columns."""
        stream = RngStream(2024)
        prior, noise = 1.5, 0.6
        x = random_gaussian(8, 3, 1.0, stream)
        u = random_gaussian(3, 4000, prior, stream)
        w = random_gaussian(8, 4000, noise, stream)
        est, per_dir = _lmmse(x @ u + w, x, prior, noise)
        err = u - est
        cross = (err @ est.conj().T) / u.shape[1]
        assert np.abs(cross).max() < 0.05
        # Empirical per-entry MSE matches the reported mean to MC accuracy.
        emp = float(np.mean(np.abs(err) ** 2))
        assert emp == pytest.approx(per_dir.mean(), rel=0.05)


class TestEffectiveForwardNoise:
    def test_worked_value(self):
        # delta^2 = (1/1 + 2/(2*1))^{-1} = 1/2; level = 2 * ((4-2)*0.5*1 + 1) = 4.
        assert effective_forward_noise_var(CFG, e_r=2.0, var_a=1.0) == pytest.approx(4.0)

    def test_no_artificial_noise(self):
        assert effective_forward_noise_var(CFG, e_r=5.0, var_a=0.0) == pytest.approx(
            CFG.n_l * CFG.var_w
        )

    def test_large_reverse_energy_removes_leakage(self):
        almost = effective_forward_noise_var(CFG, e_r=1e12, var_a=3.0)
        assert almost == pytest.approx(CFG.n_l * CFG.var_w, rel=1e-10)


def _forward_pilot(e_f: float, d: np.ndarray, seed: int = 7) -> np.ndarray:
    """tau_f x n_t pilot whose Gram has eigenvalues (e_f / n_t) * d."""
    c = haar_semiunitary(RngStream(seed).generator, (4, 4))
    return np.sqrt(e_f / 4.0) * (c * np.sqrt(d))


class TestForwardEstimates:
    @pytest.mark.parametrize("d", [np.ones(4), np.array([2.0, 2.0, 0.0, 0.0])])
    def test_lr_nmse_matches_closed_form(self, d):
        e_r, e_f, var_a = 3.0, 10.0, 0.8
        pilot = _forward_pilot(e_f, d)
        y = np.zeros((4, CFG.n_l), dtype=complex)
        noise = analytics.reciprocal_effective_noise(CFG, e_r, var_a)
        _, per_dir = _lmmse(y, pilot, CFG.var_h, noise)
        expected = analytics.nmse_l_reciprocal(CFG, e_r, e_f, var_a, d)
        assert per_dir.mean() == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("d", [np.ones(4), np.array([4.0, 0.0, 0.0, 0.0])])
    def test_ur_nmse_matches_closed_form(self, d):
        e_f, var_a = 10.0, 0.8
        pilot = _forward_pilot(e_f, d)
        y = np.zeros((4, CFG.n_u), dtype=complex)
        _, per_dir = _lmmse(y, pilot, CFG.var_g, analytics.ur_disturbance(CFG, var_a))
        expected = analytics.nmse_u(CFG, e_f, var_a, d)
        assert per_dir.mean() == pytest.approx(expected, rel=1e-12)

    def test_lr_applies_lumped_noise_level(self):
        """The LR combiner must use the effective noise, not the thermal noise."""
        e_r, e_f, var_a = 3.0, 10.0, 0.8
        alloc = PowerAllocation(scheme=RECIPROCAL, e_r=e_r, e_f=e_f, var_a=var_a)
        plan = reciprocal_plan(CFG)
        channels = draw_channels(CFG, RECIPROCAL, RngStream(8))
        t = run_reciprocal(CFG, plan, alloc, channels, RngStream(9))
        d = optimal_pilot_gram(CFG.n_t, plan.pilot_rank)
        pilot = np.sqrt(e_f / CFG.n_t) * forward_pilot(CFG.n_t, plan.tau_f, d)
        noise = analytics.reciprocal_effective_noise(CFG, e_r, var_a)
        assert effective_forward_noise_var(CFG, e_r, var_a) / CFG.n_l == pytest.approx(
            noise, rel=1e-15
        )
        ref, ref_dirs = _lmmse(t.signals["y_l"], pilot, CFG.var_h, noise)
        lr = t.estimates["lr"]
        np.testing.assert_allclose(lr.estimate, ref, rtol=1e-12)
        np.testing.assert_allclose(lr.per_direction_error_var, ref_dirs, rtol=1e-12)
        thermal, _ = _lmmse(t.signals["y_l"], pilot, CFG.var_h, CFG.var_w)
        assert np.max(np.abs(lr.estimate - thermal)) > 1e-3


def _echo_constants(alpha, e_t0, e_l2):
    """The echo estimator's prefactor ``var_hd n_t / (alpha q)`` (0 without
    echo) and regularizer ``beta``."""
    scale = CFG.var_hd * CFG.n_t / (alpha * analytics.echo_power(CFG, e_t0)) if alpha else 0.0
    return scale, analytics.beta(CFG, e_t0, e_l2, alpha)


def _echo_estimate(y_t1, h_u_hat, alpha, e_t0, e_l2, c_t0=None):
    """Echo estimate and its conditional per-direction errors for one round.

    ``c_t0`` is the square unitary initial pilot; ``None`` means ``y_t1`` has
    already been derotated by it.
    """
    n_t = CFG.n_t
    x_t0 = np.sqrt(e_t0 / n_t) * (np.eye(n_t) if c_t0 is None else c_t0)
    scale, b = _echo_constants(alpha, e_t0, e_l2)
    lam = np.linalg.eigvalsh(h_u_hat @ h_u_hat.conj().T)
    estimate = echo_downlink_estimate(y_t1, x_t0, h_u_hat.copy(), scale, b)  # may be overwritten
    per_dir = analytics.downlink_direction_error(CFG, e_t0, b, lam)
    return estimate, per_dir


class TestTxDownlinkEstimate:
    E_T0, E_L2, ALPHA = 4.0, 2.0, 0.5

    def test_alpha_zero_degenerates_to_prior(self):
        est, per_dir = _echo_estimate(
            np.ones((4, 4), dtype=complex), np.ones((2, 4), dtype=complex), 0.0, 4.0, 2.0
        )
        np.testing.assert_array_equal(est, 0.0)
        assert est.shape == (CFG.n_t, CFG.n_l)
        assert per_dir.mean() == pytest.approx(CFG.var_hd)

    def test_per_direction_with_orthonormal_uplink_rows(self):
        # q = 8, rho0 = 1/2, delta^2 = 1/2, beta = 2*0.5 + 4/(0.25*8) = 3.
        # lambda = 1 for both rows: per-dir error = 1 - 0.5 * 1/(1+3) = 0.875.
        h_u_hat = np.zeros((2, 4), dtype=complex)
        h_u_hat[0, 0] = 1.0
        h_u_hat[1, 1] = 1.0
        _, per_dir = _echo_estimate(
            np.zeros((4, 4), dtype=complex), h_u_hat, self.ALPHA, self.E_T0, self.E_L2
        )
        np.testing.assert_allclose(per_dir, [0.875, 0.875], rtol=1e-12)
        assert per_dir.mean() == pytest.approx(0.875)
        assert analytics.beta(CFG, self.E_T0, self.E_L2, self.ALPHA) == pytest.approx(3.0)

    def _kron_lmmse(self, h_u_hat: np.ndarray):
        """Densely assembled conditional LMMSE matrix for vec(Z) -> vec(Hd).

        Conditioned on the uplink estimate, Z = X^H Y_t1 obeys

            vec(Z) = a e (Hu^T kron I) vec(Hd) + a (Hu^T kron X^H) vec(W0)
                     + (I kron X^H) vec(W1),    e = E_t0 / n_t,

        with Hu = h_u_hat + Delta, Delta iid CN(0, delta^2).  Taking
        expectations over Hd, W0, W1 and Delta gives the covariances below.
        """
        n_t, n_l = CFG.n_t, CFG.n_l
        eps = self.E_T0 / n_t
        alpha = self.ALPHA
        delta2 = 1.0 / (1.0 / CFG.var_hu + self.E_L2 / (n_l * CFG.var_wt))
        m = h_u_hat.T @ h_u_hat.conj() + n_l * delta2 * np.eye(n_t)
        c_zh = alpha * eps * CFG.var_hd * np.kron(h_u_hat.T, np.eye(n_t))
        c_zz = alpha**2 * eps * (eps * CFG.var_hd + CFG.var_w) * np.kron(
            m, np.eye(n_t)
        ) + CFG.var_wt * eps * np.eye(n_t * n_t)
        return c_zh.conj().T @ np.linalg.inv(c_zz), c_zh

    def test_matches_dense_kron_oracle(self):
        """Two routes to the same linear map: closed form vs assembled covariances."""
        h_u_hat = random_gaussian(2, 4, 1.0, RngStream(21))
        w_oracle, c_zh = self._kron_lmmse(h_u_hat)
        # Recover the implementation's map by feeding it a basis of observations.
        n_t = CFG.n_t
        x_t0 = np.sqrt(self.E_T0 / n_t) * np.eye(n_t)
        w_mine = np.zeros((n_t * CFG.n_l, n_t * n_t), dtype=complex)
        for k in range(n_t * n_t):
            z = np.zeros(n_t * n_t, dtype=complex)
            z[k] = 1.0
            y = np.linalg.inv(x_t0.conj().T) @ z.reshape((n_t, n_t), order="F")
            est, _ = _echo_estimate(y, h_u_hat, self.ALPHA, self.E_T0, self.E_L2)
            w_mine[:, k] = est.reshape(-1, order="F")
        assert np.linalg.norm(w_mine - w_oracle) <= 1e-9 * np.linalg.norm(w_oracle)
        # Error covariance trace agrees with the reported per-direction mean.
        e_err = CFG.var_hd * np.eye(8) - w_oracle @ c_zh
        _, per_dir = _echo_estimate(
            np.zeros((4, 4), dtype=complex), h_u_hat, self.ALPHA, self.E_T0, self.E_L2
        )
        assert np.real(np.trace(e_err)) / 8 == pytest.approx(per_dir.mean(), rel=1e-10)

    def test_conditional_mse_monte_carlo(self):
        """Empirical conditional MSE matches the reported per-entry error variance."""
        stream = RngStream(99)
        h_u_hat = random_gaussian(2, 4, 1.0, stream)
        n_t, n_l = CFG.n_t, CFG.n_l
        delta2 = 1.0 / (1.0 / CFG.var_hu + self.E_L2 / (n_l * CFG.var_wt))
        x_t0 = np.sqrt(self.E_T0 / n_t) * np.eye(n_t)
        _, ref = _echo_estimate(
            np.zeros((4, 4), dtype=complex), h_u_hat, self.ALPHA, self.E_T0, self.E_L2
        )
        total, trials = 0.0, 2000
        for _ in range(trials):
            h_d = random_gaussian(n_t, n_l, CFG.var_hd, stream)
            h_u = h_u_hat + random_gaussian(n_l, n_t, delta2, stream)
            w0 = random_gaussian(n_t, n_l, CFG.var_w, stream)
            w1 = random_gaussian(n_t, n_t, CFG.var_wt, stream)
            y_t1 = self.ALPHA * (x_t0 @ h_d + w0) @ h_u + w1
            est, _ = _echo_estimate(y_t1, h_u_hat, self.ALPHA, self.E_T0, self.E_L2)
            total += float(np.sum(np.abs(h_d - est) ** 2))
        emp = total / (trials * n_t * n_l)
        assert emp == pytest.approx(ref.mean(), rel=0.05)

    def test_custom_initial_pilot_derotation(self):
        """A non-identity unitary initial pilot gives the same estimate as derotating."""
        h_u_hat = random_gaussian(2, 4, 1.0, RngStream(31))
        c_t0 = haar_semiunitary(RngStream(32).generator, (4, 4))
        y = random_gaussian(4, 4, 1.0, RngStream(33))
        with_pilot, dirs_a = _echo_estimate(
            y, h_u_hat, self.ALPHA, self.E_T0, self.E_L2, c_t0=c_t0
        )
        derotated, dirs_b = _echo_estimate(
            c_t0.conj().T @ y, h_u_hat, self.ALPHA, self.E_T0, self.E_L2
        )
        np.testing.assert_allclose(with_pilot, derotated, rtol=1e-10)
        assert dirs_a.mean() == pytest.approx(dirs_b.mean())

    def test_batch_matches_single_rounds(self):
        """A batch of echoes gives the per-round estimates, stacked."""
        gen = RngStream(41).generator
        y = random_gaussian(4, 4, 1.0, RngStream(42))
        ys = np.stack([y, 2.0 * y, y.conj()])
        hus = np.stack([random_gaussian(2, 4, 1.0, RngStream(43 + i)) for i in range(3)])
        x_t0 = np.sqrt(self.E_T0 / CFG.n_t) * haar_semiunitary(gen, (3, 4, 4))
        constants = _echo_constants(self.ALPHA, self.E_T0, self.E_L2)
        batched = echo_downlink_estimate(ys, x_t0, hus.copy(), *constants)
        assert batched.shape == (3, CFG.n_t, CFG.n_l)
        for i in range(3):
            single = echo_downlink_estimate(ys[i], x_t0[i], hus[i].copy(), *constants)
            np.testing.assert_allclose(batched[i], single, rtol=1e-13, atol=1e-15)
