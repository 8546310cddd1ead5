"""Closed-form oracle tests.

Every numeric expectation below was computed by hand from the definitions
(unit variances, n_t=4, n_l=2, n_u=2 unless stated) and frozen before the
implementation was consulted, so these are independent checks rather than
snapshots.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcekit import analytics
from dcekit.model import (
    NONRECIPROCAL,
    RECIPROCAL,
    PowerAllocation,
    SystemConfig,
    nonreciprocal_plan,
    optimal_pilot_gram,
    reciprocal_plan,
)

CFG = SystemConfig(n_t=4, n_l=2, n_u=2)
ONES = np.ones(4)


class TestGammaTransform:
    def test_worked_value(self):
        # (1/0.1 - 1/1) * 4 * 1 = 36.
        assert analytics.gamma_tilde(CFG, 0.1) == pytest.approx(36.0)

    def test_at_prior_is_zero(self):
        assert analytics.gamma_tilde(CFG, CFG.var_g) == pytest.approx(0.0)

    @pytest.mark.parametrize("gamma", [0.05, 0.1, 0.5, 0.99])
    def test_inverse_roundtrip(self, gamma):
        gt = analytics.gamma_tilde(CFG, gamma)
        back = 1.0 / (gt / (CFG.n_t * CFG.var_v) + 1.0 / CFG.var_g)
        assert back == pytest.approx(gamma, rel=1e-12)

    def test_range_edges(self):
        r = analytics.gamma_range(CFG, e_t_max=120.0)
        assert r.lo == pytest.approx(1.0 / 31.0)
        assert r.hi == pytest.approx(1.0)
        assert [f.name for f in dataclasses.fields(r)] == ["lo", "hi"]

    @pytest.mark.parametrize("gamma", [0.02, 1.0 / 31.0, 0.1, 1.0, 1.5])
    def test_range_agrees_with_transformed_test(self, gamma):
        """gamma in [lo, hi] must coincide with 0 <= gamma_tilde <= cap."""
        r = analytics.gamma_range(CFG, e_t_max=120.0)
        in_window = r.lo <= gamma <= r.hi
        assert in_window == (0.0 <= analytics.gamma_tilde(CFG, gamma) <= 120.0)
        assert in_window == (gamma in (1.0 / 31.0, 0.1, 1.0))


class TestReciprocalNmse:
    def test_lr_worked_value(self):
        # delta^2 = (1 + 2/2)^{-1} = 1/2; r_bar = 2*(1/2)*1 + 1 = 2;
        # gains = (4/4)/2 = 1/2 each; NMSE = (1 + 1/2)^{-1} = 2/3.
        got = analytics.nmse_l_reciprocal(CFG, e_r=2.0, e_f=4.0, var_a=1.0, d=ONES)
        assert got == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_lr_no_an_is_thermal_only(self):
        got = analytics.nmse_l_reciprocal(CFG, e_r=0.0, e_f=4.0, var_a=0.0, d=ONES)
        assert got == pytest.approx(1.0 / 2.0, rel=1e-12)

    def test_ur_worked_value(self):
        # r_u = 2*1*1 + 1 = 3; gains = 1/3; NMSE = (1 + 1/3)^{-1} = 3/4.
        got = analytics.nmse_u(CFG, e_f=4.0, var_a=1.0, d=ONES)
        assert got == pytest.approx(0.75, rel=1e-12)

    def test_ur_rank_two_pilot(self):
        # Untrained directions stay at the prior: (1/3 + 1/3 + 1 + 1)/4 = 2/3.
        got = analytics.nmse_u(CFG, e_f=4.0, var_a=0.0, d=np.array([2.0, 2.0, 0.0, 0.0]))
        assert got == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_rank_k_pilot_floor(self):
        """A rank-K pilot can never push UR below (n_t - K)/n_t of the prior."""
        for k in (1, 2, 3):
            d = np.zeros(4)
            d[:k] = 4.0 / k
            got = analytics.nmse_u(CFG, e_f=1e9, var_a=0.0, d=d)
            floor = (CFG.n_t - k) * CFG.var_g / CFG.n_t
            assert got >= floor
            assert got == pytest.approx(floor, rel=1e-6)

    def test_lr_monotone_in_energies(self):
        grid = np.linspace(0.0, 40.0, 9)
        ef_curve = [analytics.nmse_l_reciprocal(CFG, 2.0, e, 1.0, ONES) for e in grid]
        assert np.all(np.diff(ef_curve) < 0)
        er_curve = [analytics.nmse_l_reciprocal(CFG, e, 4.0, 1.0, ONES) for e in grid]
        assert np.all(np.diff(er_curve) < 0)
        an_curve = [analytics.nmse_l_reciprocal(CFG, 2.0, 4.0, a, ONES) for a in grid]
        assert np.all(np.diff(an_curve) > 0)

    def test_ur_monotone_in_an(self):
        grid = np.linspace(0.0, 40.0, 9)
        curve = [analytics.nmse_u(CFG, 4.0, a, ONES) for a in grid]
        assert np.all(np.diff(curve) > 0)


class TestMu:
    def test_symmetric_variances_give_zero(self):
        assert analytics.mu(CFG) == pytest.approx(0.0)

    def test_weak_eavesdropper_channel(self):
        cfg = SystemConfig(n_t=4, n_l=2, n_u=2, var_g=0.01)
        assert analytics.mu(cfg) == pytest.approx(198.0)

    def test_noisy_eavesdropper(self):
        cfg = SystemConfig(n_t=4, n_l=2, n_u=2, var_v=2.0)
        assert analytics.mu(cfg) == pytest.approx(2.0)


class TestEchoConstants:
    def test_alpha_worked_value(self):
        # denom = 4*2*1 + 4*2*1 = 16; alpha = sqrt(4/16) = 1/2.
        assert analytics.alpha_gain(CFG, e_t0=4.0, e_l1=4.0, tau_t0=4) == pytest.approx(0.5)

    def test_alpha_zero_echo(self):
        assert analytics.alpha_gain(CFG, 4.0, 0.0, 4) == 0.0

    def test_beta_worked_value(self):
        # delta_u^2 = 1/2; q = 8; beta = 2*(1/2) + 4/(0.25*8) = 3.
        assert analytics.beta(CFG, e_t0=4.0, e_l2=2.0, alpha=0.5) == pytest.approx(3.0)

    def test_beta_infinite_without_echo(self):
        assert analytics.beta(CFG, 4.0, 2.0, 0.0) == math.inf

    def test_echo_quality_worked_value(self):
        # a = 2^2/4 = 1, b = 2, c = 4: Q = 1 + 1/1 + 2/2 + 4/(2*1) = 5.
        coefficients = analytics.echo_coefficients(CFG)
        assert coefficients == (1.0, 2.0, 4.0)
        assert analytics.echo_quality(coefficients, 2.0, 1.0) == 5.0
        with np.errstate(divide="ignore"):
            q = analytics.echo_quality(coefficients, np.array([0.0, 2.0]), np.array([1.0, 0.0]))
        assert np.all(np.isinf(q))

    def test_error_floor_worked_value(self):
        # rho0 = 1/2, shrink = 4*(1/2)/(3 + 2) = 2/5: err = 1 - 1/2 * 2/5 = 0.8.
        got = analytics.downlink_error_floor(CFG, e_t0=4.0, e_l1=4.0, e_l2=2.0)
        assert got == pytest.approx(0.8, rel=1e-12)

    @pytest.mark.parametrize("e_t0,e_l1", [(0.0, 4.0), (4.0, 0.0)])
    def test_error_floor_degrades_to_prior(self, e_t0, e_l1):
        got = analytics.downlink_error_floor(CFG, e_t0, e_l1, 2.0)
        assert got == CFG.var_hd

    def test_error_floor_decreases_with_energy(self):
        vals = [
            analytics.downlink_error_floor(CFG, e, e, e / 2.0)
            for e in (1.0, 4.0, 16.0, 64.0, 256.0)
        ]
        assert np.all(np.diff(vals) < 0)
        assert all(0.0 < v <= CFG.var_hd for v in vals)

    def test_error_floor_is_the_estimator_error_at_the_mean_eigenvalue(self):
        """The factored floor equals the estimator's conditional error
        (through alpha and beta) at the mean uplink-estimate Gram eigenvalue,
        on random configs and energies, zero energies and var_hu = 0 included;
        array input gives the scalar values elementwise.  Both forms lose
        digits to cancellation when the error is far below var_hd (large
        energies), hence the absolute term at a tiny fraction of the prior."""
        rng = np.random.default_rng(7)
        for _ in range(100):
            n_t = int(rng.integers(2, 7))
            var = {name: float(10.0 ** rng.uniform(-1, 1))
                   for name in ("var_hu", "var_hd", "var_wt", "var_w")}
            if rng.random() < 0.2:
                var["var_hu"] = 0.0
            cfg = SystemConfig(n_t=n_t, n_l=int(rng.integers(1, n_t)), n_u=2, **var)
            energies = 10.0 ** rng.uniform(-1, 4, size=(3, 8))
            energies[rng.random((3, 8)) < 0.2] = 0.0
            got = analytics.downlink_error_floor(cfg, *energies)
            for j, (e_t0, e_l1, e_l2) in enumerate(energies.T.tolist()):
                assert analytics.downlink_error_floor(cfg, e_t0, e_l1, e_l2) == got[j]
                alpha = analytics.alpha_gain(cfg, e_t0, e_l1, cfg.n_t)
                lam = cfg.n_t * (cfg.var_hu - analytics.reverse_error_var(cfg, cfg.var_hu, e_l2))
                want = analytics.downlink_direction_error(
                    cfg, e_t0, analytics.beta(cfg, e_t0, e_l2, alpha), lam
                )
                assert got[j] == pytest.approx(want, rel=1e-12, abs=1e-14 * cfg.var_hd)


def _nonrec_alloc(**kw) -> PowerAllocation:
    base = dict(scheme=NONRECIPROCAL, e_t0=4.0, e_l1=4.0, e_l2=2.0, e_t3=8.0, var_a=1.0)
    base.update(kw)
    return PowerAllocation(**base)


class TestNonreciprocalNmse:
    PLAN = nonreciprocal_plan(CFG)

    def test_effective_noise_worked_value(self):
        # (4-2) * 1 * 0.8 + 1 = 2.6.
        got = analytics.nonreciprocal_effective_noise(CFG, _nonrec_alloc())
        assert got == pytest.approx(2.6, rel=1e-12)

    def test_effective_noise_without_an_is_thermal(self):
        got = analytics.nonreciprocal_effective_noise(CFG, _nonrec_alloc(var_a=0.0))
        assert got == CFG.var_w

    def test_lr_approx_worked_value(self):
        # gains = (8/4)/2.6 = 10/13; NMSE = (1 + 10/13)^{-1} = 13/23.
        got = analytics.nmse_l_nonreciprocal_approx(CFG, _nonrec_alloc(), self.PLAN)
        assert got == pytest.approx(13.0 / 23.0, rel=1e-12)

    def test_wrong_scheme_rejected(self):
        alloc = PowerAllocation(scheme=RECIPROCAL, e_r=1.0, e_f=1.0)
        with pytest.raises(ValueError, match="scheme"):
            analytics.nmse_l_nonreciprocal_approx(CFG, alloc, self.PLAN)

    def test_exact_when_an_free(self):
        """With var_a = 0 the Jensen step is vacuous: must equal the plain form."""
        alloc = _nonrec_alloc(var_a=0.0)
        got = analytics.nmse_l_nonreciprocal_approx(CFG, alloc, self.PLAN)
        plain = 1.0 / (1.0 / CFG.var_hd + (alloc.e_t3 / CFG.n_t) / CFG.var_w)
        assert got == pytest.approx(plain, rel=1e-14)


class TestClosedForms:
    def test_reciprocal(self):
        plan = reciprocal_plan(CFG, pilot_rank=2)
        alloc = PowerAllocation(scheme=RECIPROCAL, e_r=3.0, e_f=5.0, var_a=0.7)
        d = optimal_pilot_gram(CFG.n_t, plan.pilot_rank)
        assert analytics.closed_forms(CFG, plan, alloc) == (
            analytics.nmse_l_reciprocal(CFG, 3.0, 5.0, 0.7, d),
            analytics.nmse_u(CFG, 5.0, 0.7, d),
        )

    def test_nonreciprocal(self):
        plan = nonreciprocal_plan(CFG, pilot_rank=3)
        alloc = _nonrec_alloc()
        d = optimal_pilot_gram(CFG.n_t, plan.pilot_rank)
        assert analytics.closed_forms(CFG, plan, alloc) == (
            analytics.nmse_l_nonreciprocal_approx(CFG, alloc, plan),
            analytics.nmse_u(CFG, alloc.e_t3, alloc.var_a, d),
        )

    @pytest.mark.parametrize("plan_scheme", [RECIPROCAL, NONRECIPROCAL])
    def test_scheme_mismatch_raises(self, plan_scheme):
        """Either pairing of a plan with the other scheme's allocation is a
        ValueError, not an arithmetic error on a missing field."""
        if plan_scheme == RECIPROCAL:
            plan, alloc = reciprocal_plan(CFG), _nonrec_alloc()
        else:
            plan = nonreciprocal_plan(CFG)
            alloc = PowerAllocation(scheme=RECIPROCAL, e_r=3.0, e_f=5.0, var_a=0.7)
        with pytest.raises(ValueError, match="does not match plan scheme"):
            analytics.closed_forms(CFG, plan, alloc)


class TestLowerBound:
    def test_worked_value(self):
        assert analytics.nmse_lower_bound(CFG, 120.0) == pytest.approx(1.0 / 31.0)

    def test_average_cap_binds(self):
        assert analytics.nmse_lower_bound(CFG, 120.0, e_ave_max=40.0) == pytest.approx(1.0 / 11.0)

    def test_equals_unguarded_forward_pilot(self):
        """The bound is exactly the AN-free, reverse-free reciprocal NMSE."""
        for cap in (1.0, 40.0, 120.0, 4000.0):
            lb = analytics.nmse_lower_bound(CFG, cap)
            direct = analytics.nmse_l_reciprocal(CFG, 0.0, cap, 0.0, ONES)
            assert lb == pytest.approx(direct, rel=1e-14)

    def test_scheme_selects_prior(self):
        cfg = SystemConfig(n_t=4, n_l=2, n_u=2, var_h=2.0)
        recip = analytics.nmse_lower_bound(cfg, 4.0, scheme=RECIPROCAL)
        nonrec = analytics.nmse_lower_bound(cfg, 4.0, scheme=NONRECIPROCAL)
        assert recip == pytest.approx(1.0 / (0.5 + 1.0))
        assert nonrec == pytest.approx(1.0 / (1.0 + 1.0))

    @settings(max_examples=40, deadline=None)
    @given(
        e_r=st.floats(0.0, 50.0),
        e_f=st.floats(0.01, 100.0),
        var_a=st.floats(0.0, 10.0),
    )
    def test_dominates_feasible_reciprocal_points(self, e_r, e_f, var_a):
        """The genie bound never exceeds any same-cap achievable NMSE."""
        cap = e_f + (CFG.n_t - CFG.n_l) * var_a * 2.0  # forward-stage spend, tau_f = 2
        lb = analytics.nmse_lower_bound(CFG, cap)
        achieved = analytics.nmse_l_reciprocal(CFG, e_r, e_f, var_a, ONES)
        assert lb <= achieved + 1e-12
