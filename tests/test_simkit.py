"""Monte Carlo engine and space-time block code tests.

The detector test is the important one: the fast per-coordinate slicer must
coincide with brute-force maximum likelihood over the full symbol-triple
grid, including under channel-estimate mismatch, because the closed-form SER
comparisons in the acceptance suite lean on that equivalence.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from dcekit import analytics
from dcekit.model import (
    NONRECIPROCAL,
    RECIPROCAL,
    PowerAllocation,
    SystemConfig,
    nonreciprocal_plan,
    reciprocal_plan,
)
from dcekit.numerics import RngStream, complex_normal, random_gaussian
from dcekit.simkit import (
    QAM4,
    QAM64,
    mc_nmse,
    mc_ser,
    ostbc_detect,
    ostbc_encode,
)

CFG = SystemConfig(n_t=4, n_l=2, n_u=2)
R_PLAN = reciprocal_plan(CFG)
N_PLAN = nonreciprocal_plan(CFG)
R_ALLOC = PowerAllocation(scheme=RECIPROCAL, e_r=2.0, e_f=4.0, var_a=1.0)
N_ALLOC = PowerAllocation(
    scheme=NONRECIPROCAL, e_t0=4.0, e_l1=4.0, e_l2=2.0, e_t3=8.0, var_a=1.0
)


class TestConstellations:
    def test_unit_average_energy(self):
        assert np.mean(np.abs(QAM64) ** 2) == pytest.approx(1.0, rel=1e-12)
        assert np.mean(np.abs(QAM4) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_sizes_and_uniqueness(self):
        assert len(np.unique(np.round(QAM64, 12))) == 64
        assert len(np.unique(np.round(QAM4, 12))) == 4


class TestOstbcEncode:
    def test_scalar_shape(self):
        x = ostbc_encode(1.0 + 0j, 1j, -1.0 + 0j)
        assert x.shape == (4, 4)

    def test_batch_shape(self):
        s = np.ones(7, dtype=complex)
        assert ostbc_encode(s, s, s).shape == (7, 4, 4)

    def test_orthogonal_design(self):
        """X X^H = (|s1|^2 + |s2|^2 + |s3|^2) I for every symbol triple."""
        stream = RngStream(70)
        s = random_gaussian(3, 500, 1.0, stream)
        x = ostbc_encode(s[0], s[1], s[2])
        gram = x @ x.conj().transpose(0, 2, 1)
        energy = np.sum(np.abs(s) ** 2, axis=0)
        target = energy[:, None, None] * np.eye(4)
        assert np.max(np.abs(gram - target)) < 1e-12


def _reference_detect(y, h_hat, scale, constellation):
    """Reference detector: six basis products, then an argmin over every point."""
    basis = np.stack([
        ostbc_encode(1, 0, 0), ostbc_encode(1j, 0, 0),
        ostbc_encode(0, 1, 0), ostbc_encode(0, 1j, 0),
        ostbc_encode(0, 0, 1), ostbc_encode(0, 0, 1j),
    ])
    h_energy = np.sum(h_hat.real**2 + h_hat.imag**2, axis=(-2, -1))
    denom = scale * np.maximum(h_energy, 1e-300)
    coords = []
    for b_k in basis:
        phi = b_k @ h_hat
        corr = np.sum((phi.conj() * y).real, axis=(-2, -1))
        coords.append(corr / denom)
    s_soft = np.stack(
        [coords[0] + 1j * coords[1], coords[2] + 1j * coords[3], coords[4] + 1j * coords[5]],
        axis=-1,
    )
    idx = np.argmin(np.abs(s_soft[..., None] - constellation) ** 2, axis=-1)
    return constellation[idx]


class TestOstbcDetect:
    @pytest.mark.parametrize("constellation", [QAM64, QAM4], ids=["qam64", "qam4"])
    @pytest.mark.parametrize("est_var", [0.0, 0.1], ids=["true", "mismatched"])
    @pytest.mark.parametrize("data_power", [3.0, 30.0, 300.0])
    def test_matches_reference_detector_on_chunks(self, constellation, est_var, data_power):
        gen = RngStream(74, int(data_power)).generator
        m, amp = 4096, np.sqrt(data_power / 3.0)
        sent = constellation[gen.integers(0, constellation.size, size=(m, 3))]
        h = complex_normal(gen, (m, 4, 2), 1.0)
        h_hat = h + complex_normal(gen, (m, 4, 2), est_var)
        y = amp * ostbc_encode(sent[:, 0], sent[:, 1], sent[:, 2]) @ h + complex_normal(gen, (m, 4, 2), 1.0)
        fast = ostbc_detect(y, h_hat, amp, constellation)
        np.testing.assert_array_equal(fast, _reference_detect(y, h_hat, amp, constellation))

    @pytest.mark.parametrize("constellation", [QAM64, QAM4], ids=["qam64", "qam4"])
    def test_far_outside_and_zero_energy_match_reference(self, constellation):
        gen = RngStream(75).generator
        h = complex_normal(gen, (200, 4, 2), 1.0)
        # Soft values up to ~1e6 away from every point clip to the outer levels.
        y = 1e6 * complex_normal(gen, (200, 4, 2), 1.0)
        far = ostbc_detect(y, h, 1.0, constellation)
        np.testing.assert_array_equal(far, _reference_detect(y, h, 1.0, constellation))
        corners = constellation[np.abs(constellation) == np.abs(constellation).max()]
        assert np.all(np.isin(far, corners))
        zero = np.zeros_like(h)
        flat = ostbc_detect(y, zero, 1.0, constellation)
        np.testing.assert_array_equal(flat, _reference_detect(y, zero, 1.0, constellation))

    @pytest.mark.parametrize(
        "constellation",
        [
            np.exp(2j * np.pi * np.arange(8) / 8),
            QAM4[:3],
            np.concatenate([QAM4, QAM4[:1]]),
            np.array([], dtype=complex),
        ],
        ids=["psk8", "missing_point", "duplicate_point", "empty"],
    )
    def test_non_product_constellation_rejected(self, constellation):
        y = random_gaussian(4, 2, 1.0, RngStream(76))
        with pytest.raises(ValueError, match="product constellation"):
            ostbc_detect(y, y, 1.0, constellation)

    def test_noiseless_perfect_csi(self):
        stream = RngStream(71)
        gen = stream.generator
        sent = QAM64[gen.integers(0, 64, size=(40, 3))]
        h = random_gaussian(4, 2, 1.0, stream)
        y = 2.5 * ostbc_encode(sent[:, 0], sent[:, 1], sent[:, 2]) @ h
        out = ostbc_detect(y, h, scale=2.5)
        np.testing.assert_allclose(out, sent, atol=1e-9)

    def test_matches_brute_force_ml_under_mismatch(self):
        """Fast slicing == exhaustive ML over all 4-QAM triples, noisy + mismatched."""
        stream = RngStream(72)
        gen = stream.generator
        trials, scale = 60, 1.3
        sent = QAM4[gen.integers(0, 4, size=(trials, 3))]
        h = random_gaussian(4, 2, 1.0, stream)
        h_hat = h + random_gaussian(4, 2, 0.3, stream)
        y = scale * ostbc_encode(sent[:, 0], sent[:, 1], sent[:, 2]) @ h + random_gaussian(
            4, 2 * trials, 1.0, stream
        ).reshape(trials, 4, 2)
        fast = ostbc_detect(y, h_hat, scale=scale, constellation=QAM4)
        # Exhaustive search over the 64 possible triples.
        triples = np.array([(a, b, c) for a in QAM4 for b in QAM4 for c in QAM4])
        cands = scale * ostbc_encode(triples[:, 0], triples[:, 1], triples[:, 2]) @ h_hat
        for i in range(trials):
            metrics = np.sum(np.abs(y[i] - cands) ** 2, axis=(1, 2))
            np.testing.assert_allclose(fast[i], triples[np.argmin(metrics)], atol=1e-12)

    def test_zero_estimate_degrades_gracefully(self):
        y = random_gaussian(4, 2, 1.0, RngStream(73))
        out = ostbc_detect(y, np.zeros((4, 2), dtype=complex))
        assert out.shape == (3,)
        assert np.all(np.isfinite(out))
        assert all(np.min(np.abs(QAM64 - v)) < 1e-12 for v in out)


class TestMcNmse:
    def test_reciprocal_matches_closed_forms(self):
        rep = mc_nmse(CFG, R_PLAN, R_ALLOC, trials=20000, seed=5)
        assert rep.trials == 20000
        assert rep.nmse_l_closed == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert rep.nmse_u_closed == pytest.approx(0.75, rel=1e-12)
        assert abs(rep.nmse_l - rep.nmse_l_closed) <= 3.5 * rep.nmse_l_se
        assert abs(rep.nmse_u - rep.nmse_u_closed) <= 3.5 * rep.nmse_u_se

    def test_nonreciprocal_ur_exact_lr_approximate(self):
        rep = mc_nmse(CFG, N_PLAN, N_ALLOC, trials=20000, seed=15)
        assert rep.nmse_u_closed == pytest.approx(
            analytics.nmse_u(CFG, N_ALLOC.e_t3, N_ALLOC.var_a, np.ones(4)), rel=1e-12
        )
        assert abs(rep.nmse_u - rep.nmse_u_closed) <= 3.5 * rep.nmse_u_se
        # The LR closed form is an approximation here; 10% agreement at this point.
        assert rep.nmse_l == pytest.approx(rep.nmse_l_closed, rel=0.10)

    @pytest.mark.parametrize("plan, alloc", [(R_PLAN, R_ALLOC), (N_PLAN, N_ALLOC)],
                             ids=[RECIPROCAL, NONRECIPROCAL])
    def test_worker_count_does_not_change_results(self, plan, alloc):
        a = mc_nmse(CFG, plan, alloc, trials=12000, seed=7, workers=1)
        b = mc_nmse(CFG, plan, alloc, trials=12000, seed=7, workers=4)
        assert a == b

    def test_seed_reproducibility(self):
        a = mc_nmse(CFG, R_PLAN, R_ALLOC, trials=4000, seed=9)
        b = mc_nmse(CFG, R_PLAN, R_ALLOC, trials=4000, seed=9)
        c = mc_nmse(CFG, R_PLAN, R_ALLOC, trials=4000, seed=10)
        assert a == b
        assert a.nmse_l != c.nmse_l

    def test_too_few_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            mc_nmse(CFG, R_PLAN, R_ALLOC, trials=99, seed=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            mc_nmse(CFG, R_PLAN, R_ALLOC, trials=500, seed=-1)

    def test_scheme_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mc_nmse(CFG, R_PLAN, N_ALLOC, trials=500, seed=1)

    @pytest.mark.parametrize("field", ["var_h", "var_hu"])
    def test_zero_prior_channel(self, field):
        """A zero-variance channel has nothing to estimate: zero error, no crash."""
        cfg = dataclasses.replace(CFG, **{field: 0.0})
        if field == "var_h":
            rep = mc_nmse(cfg, reciprocal_plan(cfg), R_ALLOC, trials=500, seed=1)
            assert rep.nmse_l == 0.0 and rep.nmse_l_closed == 0.0
        else:
            rep = mc_nmse(cfg, nonreciprocal_plan(cfg), N_ALLOC, trials=500, seed=1)
            assert math.isfinite(rep.nmse_l_closed)
        assert abs(rep.nmse_u - rep.nmse_u_closed) <= 3.5 * rep.nmse_u_se

    def test_non_finite_inputs_rejected(self):
        """A NaN variance or energy is an error, not an all-NaN report."""
        nan_cfg = dataclasses.replace(CFG, var_w=math.nan)
        with pytest.raises(ValueError, match="var_w"):
            mc_nmse(nan_cfg, R_PLAN, R_ALLOC, trials=500, seed=1)
        with pytest.raises(ValueError, match="e_f"):
            mc_nmse(CFG, R_PLAN, dataclasses.replace(R_ALLOC, e_f=math.nan), trials=500, seed=1)
        with pytest.raises(ValueError, match="var_a"):
            mc_ser(CFG, N_PLAN, dataclasses.replace(N_ALLOC, var_a=math.inf),
                   data_power=1.0, trials=500, seed=1)


class TestMcSer:
    def test_report_sanity(self):
        rep = mc_ser(CFG, N_PLAN, N_ALLOC, data_power=30.0, trials=3000, seed=6)
        assert rep.trials == 3000
        assert rep.data_power == 30.0
        for p, ci in [
            (rep.ser_l, rep.ser_l_ci),
            (rep.ser_u, rep.ser_u_ci),
            (rep.ser_l_perfect, rep.ser_l_perfect_ci),
        ]:
            assert 0.0 <= p <= 1.0
            assert ci > 0.0

    def test_perfect_csi_beats_training(self):
        rep = mc_ser(CFG, N_PLAN, N_ALLOC, data_power=30.0, trials=5000, seed=6)
        assert rep.ser_l_perfect + rep.ser_l_perfect_ci < rep.ser_l - rep.ser_l_ci

    def test_ur_cannot_demodulate(self):
        rep = mc_ser(CFG, N_PLAN, N_ALLOC, data_power=30.0, trials=5000, seed=6)
        assert rep.ser_u > 0.5

    def test_zero_errors_still_have_interval(self):
        # Massive symbol power with perfect CSI: no LR errors at this size,
        # but the Wilson interval must stay strictly positive.
        alloc = PowerAllocation(scheme=RECIPROCAL, e_r=100.0, e_f=4000.0, var_a=0.0)
        rep = mc_ser(CFG, R_PLAN, alloc, data_power=1e7, trials=500, seed=11)
        assert rep.ser_l_perfect == 0.0
        assert rep.ser_l_perfect_ci > 0.0

    @pytest.mark.parametrize("plan, alloc", [(R_PLAN, R_ALLOC), (N_PLAN, N_ALLOC)],
                             ids=[RECIPROCAL, NONRECIPROCAL])
    def test_worker_count_does_not_change_results(self, plan, alloc):
        a = mc_ser(CFG, plan, alloc, data_power=30.0, trials=9000, seed=8, workers=1)
        b = mc_ser(CFG, plan, alloc, data_power=30.0, trials=9000, seed=8, workers=3)
        assert a == b

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            mc_ser(CFG, R_PLAN, R_ALLOC, data_power=1.0, trials=10, seed=1)
        for power in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="power"):
                mc_ser(CFG, R_PLAN, R_ALLOC, data_power=power, trials=500, seed=1)
        with pytest.raises(ValueError, match="seed"):
            mc_ser(CFG, R_PLAN, R_ALLOC, data_power=1.0, trials=500, seed=-1)
        wide = SystemConfig(n_t=6, n_l=2, n_u=2)
        with pytest.raises(ValueError, match="n_t"):
            mc_ser(
                wide,
                reciprocal_plan(wide),
                dataclasses.replace(R_ALLOC),
                data_power=1.0,
                trials=500,
                seed=1,
            )
