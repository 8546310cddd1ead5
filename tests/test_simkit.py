"""Monte Carlo engine and space-time block code tests.

The detector test is the important one: the fast per-coordinate slicer must
coincide with brute-force maximum likelihood over the full symbol-triple
grid, including under channel-estimate mismatch, because the closed-form SER
comparisons in the acceptance suite lean on that equivalence.
"""

from __future__ import annotations

import dataclasses
import json
import math
import mmap
import os
import signal
import sys
import threading
import time
import tracemalloc
import types
import warnings
import weakref

import numpy as np
import pytest

from dcekit import analytics, numerics, simkit
from dcekit.model import (
    NONRECIPROCAL,
    RECIPROCAL,
    PowerAllocation,
    SystemConfig,
    nonreciprocal_plan,
    reciprocal_plan,
)
from dcekit.numerics import (
    HOUSEHOLDER_MIN_BATCH,
    Arena,
    RngStream,
    complex_normal,
    matmul,
    random_gaussian,
    stacked_complex_normal,
)
from dcekit.protocol import run_rounds
from dcekit.simkit import (
    CHUNK,
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

    @pytest.mark.parametrize("n_r", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 100, HOUSEHOLDER_MIN_BATCH - 1, HOUSEHOLDER_MIN_BATCH, CHUNK])
    def test_table_send_is_the_codeword_product(self, m, n_r):
        """mc_ser sends a block straight from the codeword table: from the
        stack kernels' crossover on, the bits of the scaled codeword's
        product; below it, numpy's ``@`` rounds differently in the last bit."""
        gen = RngStream(71).generator
        amp = math.sqrt(1000.0 / 3.0)
        s = QAM64[gen.integers(0, QAM64.size, size=(m, 3))]
        h = stacked_complex_normal(gen, (m, 4, n_r), 1.0)
        x = ostbc_encode(s[:, 0], s[:, 1], s[:, 2])
        ref = matmul(amp * x, h)  # numpy's @ below the crossover
        sym = np.stack([amp * s.T, np.conjugate(amp * s.T)])
        y = simkit._ostbc_send(sym, h)
        if m < HOUSEHOLDER_MIN_BATCH:
            err = np.linalg.norm(y - ref, axis=(-2, -1)) / np.linalg.norm(ref, axis=(-2, -1))
            assert np.max(err) <= 1e-15
        else:
            assert y.strides == ref.strides and y.tobytes() == ref.tobytes()


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


def _detector_cases() -> list:
    """(constellation, est_var, data_power, n_r) cases; an n_r = 2 id has no n_r suffix."""
    cases = []
    for n_r in (1, 2, 3):
        for constellation, c_id in ((QAM64, "qam64"), (QAM4, "qam4")):
            for est_var, v_id in ((0.0, "true"), (0.1, "mismatched")):
                for data_power in (3.0, 30.0, 300.0):
                    case_id = f"{data_power}-{v_id}-{c_id}" + ("" if n_r == 2 else f"-n_r{n_r}")
                    cases.append(pytest.param(constellation, est_var, data_power, n_r, id=case_id))
    return cases


class TestOstbcDetect:
    @pytest.mark.parametrize("constellation, est_var, data_power, n_r", _detector_cases())
    def test_matches_reference_detector_on_chunks(self, constellation, est_var, data_power, n_r):
        gen = RngStream(74, int(data_power)).generator
        m, amp = 4096, np.sqrt(data_power / 3.0)
        sent = constellation[gen.integers(0, constellation.size, size=(m, 3))]
        h = complex_normal(gen, (m, 4, n_r), 1.0)
        h_hat = h + complex_normal(gen, (m, 4, n_r), est_var)
        y = amp * ostbc_encode(sent[:, 0], sent[:, 1], sent[:, 2]) @ h + complex_normal(gen, (m, 4, n_r), 1.0)
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

    def test_default_slicer_is_built_once(self, monkeypatch):
        """The default QAM64 slicer is built once per process; a
        constellation passed in is sliced (and checked) afresh on every call."""
        simkit._qam64_slicer()
        built = []
        real_slicer = simkit._axis_slicer
        monkeypatch.setattr(simkit, "_axis_slicer", lambda c: built.append(c) or real_slicer(c))
        y = random_gaussian(4, 2, 1.0, RngStream(77))
        for _ in range(2):
            np.testing.assert_array_equal(ostbc_detect(y, y), ostbc_detect(y, y, 1.0, QAM64))
        assert len(built) == 2
        with pytest.raises(ValueError, match="product constellation"):
            ostbc_detect(y, y, 1.0, QAM4[:3])
        assert len(built) == 3

    def test_many_levels_per_axis_match_reference(self):
        """A rectangular product constellation, 300 real by 3 unevenly spaced
        imaginary levels: more thresholds and points than a byte counts."""
        levels_re, levels_im = np.arange(300) - 149.5, np.array([-1.0, 0.0, 2.0])
        constellation = (levels_re[:, None] + 1j * levels_im[None, :]).ravel() / 50.0
        gen = RngStream(80).generator
        sent = constellation[gen.integers(0, constellation.size, size=(500, 3))]
        h = complex_normal(gen, (500, 4, 2), 1.0)
        y = ostbc_encode(sent[:, 0], sent[:, 1], sent[:, 2]) @ h
        y += complex_normal(gen, (500, 4, 2), 0.01)
        got = ostbc_detect(y, h, 1.0, constellation)
        np.testing.assert_array_equal(got, _reference_detect(y, h, 1.0, constellation))
        assert 0.05 < np.mean(got == sent) < 0.95

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

    @pytest.mark.parametrize("batch", [HOUSEHOLDER_MIN_BATCH - 1, HOUSEHOLDER_MIN_BATCH])
    def test_shared_matrix_matches_stacked_copies(self, batch):
        """A 2-D ``y`` or ``h_hat`` shared by the stack (the zero estimate
        among them) detects as the same matrix repeated in a stack."""
        gen = RngStream(77).generator
        y = complex_normal(gen, (batch, 4, 2), 1.0)
        h_hat = complex_normal(gen, (batch, 4, 2), 1.0)
        for est in (h_hat[0], np.zeros((4, 2), dtype=complex)):
            stacked = np.broadcast_to(est, y.shape).copy()
            np.testing.assert_array_equal(ostbc_detect(y, est), ostbc_detect(y, stacked))
            reference = _reference_detect(y, stacked, 1.0, QAM64)
            np.testing.assert_array_equal(ostbc_detect(y, est), reference)
        stacked = np.broadcast_to(y[0], y.shape).copy()
        np.testing.assert_array_equal(ostbc_detect(y[0], h_hat), ostbc_detect(stacked, h_hat))

    def test_zero_estimate_degrades_gracefully(self):
        y = random_gaussian(4, 2, 1.0, RngStream(73))
        out = ostbc_detect(y, np.zeros((4, 2), dtype=complex))
        assert out.shape == (3,)
        assert np.all(np.isfinite(out))
        assert all(np.min(np.abs(QAM64 - v)) < 1e-12 for v in out)

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_bad_scale_rejected(self, scale):
        """A zero scale used to divide by zero, a negative one mirrored every
        decision, and NaN returned the top corner."""
        y = random_gaussian(4, 2, 1.0, RngStream(79))
        with pytest.raises(ValueError, match="scale"):
            ostbc_detect(y, y, scale)

    @pytest.mark.parametrize(
        "y_shape, h_shape",
        [
            ((4, 3), (4, 2)), ((3, 2), (3, 2)), ((6, 4, 2), (6, 2, 4)),
            ((4,), (4,)), ((4, 0), (4, 0)),
        ],
        ids=["n_r_differs", "three_rows", "transposed_estimate", "one_axis", "no_antenna"],
    )
    def test_misshapen_blocks_rejected(self, y_shape, h_shape):
        y, h_hat = np.ones(y_shape, dtype=complex), np.ones(h_shape, dtype=complex)
        with pytest.raises(ValueError, match=r"\(\.\.\., 4, n_r\)"):
            ostbc_detect(y, h_hat)

    def test_warm_arena_call_allocates_no_chunk_memory(self):
        """Under a warmed arena a 4096-block detection takes every array from
        it: what numpy allocates besides stays under 64 KiB (a 4096 x 3 index
        array alone is 96 KiB)."""
        gen = RngStream(78).generator
        y = stacked_complex_normal(gen, (CHUNK, 4, 2), 1.0)
        h_hat = stacked_complex_normal(gen, (CHUNK, 4, 2), 1.0)
        arena = Arena()
        with arena.activate():
            warm = ostbc_detect(y, h_hat).copy()
        size = arena.nbytes
        with arena.activate():
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                again = ostbc_detect(y, h_hat)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            np.testing.assert_array_equal(again, warm)
        assert peak - base < 64 << 10
        assert arena._used <= size  # no overflow, whose own mapping tracemalloc misses


def _unit_probe_blocks(coords: np.ndarray) -> np.ndarray:
    """Received blocks ``(..., 4, 2)`` whose six detection coordinates against
    :data:`_UNIT_PROBE` at scale 1 are ``coords`` ``(..., 6)``, exactly: with
    that estimate, ``Re s1, Im s1`` read ``y[0, 0]``, ``Re s2, Im s2`` read
    ``-conj(y[1, 0])`` and ``Re s3, Im s3`` read ``-conj(y[2, 0])``."""
    y = np.zeros(coords.shape[:-1] + (4, 2), dtype=complex)
    for row, (re, im) in enumerate(((0, 1), (2, 3), (4, 5))):
        y.real[..., row, 0] = coords[..., re] if row == 0 else -coords[..., re]
        y.imag[..., row, 0] = coords[..., im]
    return y


# A unit-energy channel estimate with one nonzero entry, which turns the
# received block into its detection coordinates without rounding.
_UNIT_PROBE = np.zeros((4, 2), dtype=complex)
_UNIT_PROBE[0, 0] = 1.0


class TestSlicerEdges:
    """How each coordinate is sliced at the edges, pinned on inputs whose
    coordinates are exact: a coordinate exactly on a threshold takes the lower
    level, NaN takes the top level, and an infinite one the outer level on its
    side.  Batches on both sides of the stack-kernel crossover and a full
    chunk, with the estimate stacked and shared."""

    @staticmethod
    def _run(y, scale, constellation, batch, shared):
        h_hat = _UNIT_PROBE if shared else np.broadcast_to(_UNIT_PROBE, (batch, 4, 2)).copy()
        return ostbc_detect(y, h_hat, scale, constellation)

    @pytest.mark.parametrize("shared", [False, True], ids=["stacked", "shared"])
    @pytest.mark.parametrize("batch", [1, HOUSEHOLDER_MIN_BATCH - 1, HOUSEHOLDER_MIN_BATCH, CHUNK])
    @pytest.mark.parametrize("constellation", [QAM64, QAM4], ids=["qam64", "qam4"])
    def test_ties_nan_and_infinities(self, constellation, batch, shared):
        levels_re, levels_im = np.unique(constellation.real), np.unique(constellation.imag)
        mids_re = (levels_re[1:] + levels_re[:-1]) / 2.0
        mids_im = (levels_im[1:] + levels_im[:-1]) / 2.0
        # Ties: trial t puts coordinate k on threshold (6 t + k) mod (levels - 1).
        pick = np.arange(6 * batch).reshape(batch, 6)
        j_re, j_im = pick[:, 0::2] % mids_re.size, pick[:, 1::2] % mids_im.size
        coords = np.empty((batch, 6))
        coords[:, 0::2], coords[:, 1::2] = mids_re[j_re], mids_im[j_im]
        got = self._run(_unit_probe_blocks(coords), 1.0, constellation, batch, shared)
        np.testing.assert_array_equal(got, levels_re[j_re] + 1j * levels_im[j_im])

        top = levels_re[-1] + 1j * levels_im[-1]
        nan = _unit_probe_blocks(np.full((batch, 6), np.nan))
        got = self._run(nan, 1.0, constellation, batch, shared)
        np.testing.assert_array_equal(got, np.full((batch, 3), top))

        # 1e300 over a scale of 1e-300 overflows to an infinite coordinate.
        sign = np.where(pick % 3 == 0, -1.0, 1.0)
        with np.errstate(over="ignore"):
            got = self._run(_unit_probe_blocks(1e300 * sign), 1e-300, constellation, batch, shared)
        outer_re = np.where(sign[:, 0::2] > 0, levels_re[-1], levels_re[0])
        outer_im = np.where(sign[:, 1::2] > 0, levels_im[-1], levels_im[0])
        np.testing.assert_array_equal(got, outer_re + 1j * outer_im)


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

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            mc_nmse(CFG, R_PLAN, R_ALLOC, trials=500, seed=1, workers=workers)
        with pytest.raises(ValueError, match="workers"):
            mc_ser(CFG, R_PLAN, R_ALLOC, data_power=1.0, trials=500, seed=1, workers=workers)

    @pytest.mark.parametrize("workers", [1.5, float("nan"), "2"], ids=["1.5", "nan", "str"])
    def test_non_integer_workers_rejected(self, workers):
        """A worker count that is no integer is a TypeError before any pool
        is built: a pool of NaN workers would never run a chunk."""
        with pytest.raises(TypeError, match="workers"):
            mc_nmse(CFG, R_PLAN, R_ALLOC, trials=500, seed=1, workers=workers)
        with pytest.raises(TypeError, match="workers"):
            mc_ser(CFG, R_PLAN, R_ALLOC, data_power=1.0, trials=500, seed=1, workers=workers)

    @pytest.mark.parametrize("name", ["trials", "seed"])
    def test_non_integer_count_rejected(self, name):
        """A float trial count or seed is a TypeError that names it."""
        args = {"trials": 200, "seed": 1}
        args[name] = float(args[name])
        with pytest.raises(TypeError, match=name):
            mc_nmse(CFG, R_PLAN, R_ALLOC, **args)
        with pytest.raises(TypeError, match=name):
            mc_ser(CFG, R_PLAN, R_ALLOC, data_power=1.0, **args)

    def test_numpy_integers_accepted(self):
        ref = mc_nmse(CFG, R_PLAN, R_ALLOC, trials=500, seed=1)
        assert mc_nmse(CFG, R_PLAN, R_ALLOC, trials=np.int64(500), seed=np.int32(1)) == ref

    def test_report_from_numpy_trials_is_json(self):
        rep = mc_nmse(CFG, R_PLAN, R_ALLOC, trials=np.int64(500), seed=1)
        fields = dataclasses.asdict(rep)
        assert json.loads(json.dumps(fields)) == fields
        assert {type(v) for v in fields.values()} <= {int, float}

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

    def test_report_from_numpy_trials_is_json(self):
        rep = mc_ser(CFG, R_PLAN, R_ALLOC, data_power=30.0, trials=np.int64(500), seed=1)
        fields = dataclasses.asdict(rep)
        assert json.loads(json.dumps(fields)) == fields
        assert {type(v) for v in fields.values()} <= {int, float}

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


class TestPerSeedPins:
    """Per-seed Monte Carlo outputs, with every chunk-scale normal drawn in
    its array's stack-last memory order and the Haar pilot built from
    reflectors.  Trial count 5000 ends in a partial chunk.  A kernel that
    sums in another order may move the NMSE figures only at rounding level,
    and no detected symbol may change."""

    TRIALS = 5000

    # (n_t, n_l, n_u), scheme, seed -> (nmse_l, nmse_l_se, nmse_u, nmse_u_se)
    NMSE = {
        ((4, 2, 2), RECIPROCAL, 3): (
            0.6613578473698372, 0.0037017503543983377, 0.7562493263009564, 0.004616546692865201),
        ((4, 2, 2), RECIPROCAL, 8): (
            0.6676981360110427, 0.003794896362488833, 0.7490918659595686, 0.00457008267775284),
        ((4, 2, 2), NONRECIPROCAL, 3): (
            0.5591971409841325, 0.003516458436485091, 0.5993773463278415, 0.0038190418369570787),
        ((4, 2, 2), NONRECIPROCAL, 8): (
            0.5601002652007488, 0.0034196625409788667, 0.5958764243900475, 0.00380407747336808),
        ((6, 3, 2), RECIPROCAL, 3): (
            0.8127047782640808, 0.0030312965825636403, 0.8586597515755957, 0.003992619963718532),
        ((6, 3, 2), RECIPROCAL, 8): (
            0.8108058402144669, 0.003017892007527567, 0.8528926295293039, 0.003982796763721235),
        ((6, 3, 2), NONRECIPROCAL, 3): (
            0.7247220513719043, 0.0029308515744804952, 0.7515706714854252, 0.0037446147858823564),
        ((6, 3, 2), NONRECIPROCAL, 8): (
            0.722567134431175, 0.002908702622449578, 0.7453774086265607, 0.003715260908523847),
    }

    # scheme, seed -> symbol errors (LR, LR perfect CSI, UR) at data power 1000
    SER = {
        (RECIPROCAL, 3): (901, 0, 4217),
        (RECIPROCAL, 8): (850, 0, 4263),
        (NONRECIPROCAL, 3): (1170, 0, 4219),
        (NONRECIPROCAL, 8): (1338, 0, 4189),
    }
    SER_ALLOC = {
        RECIPROCAL: PowerAllocation(scheme=RECIPROCAL, e_r=40.0, e_f=200.0, var_a=1.0),
        NONRECIPROCAL: PowerAllocation(
            scheme=NONRECIPROCAL, e_t0=40.0, e_l1=40.0, e_l2=20.0, e_t3=200.0, var_a=1.0
        ),
    }

    # The same runs over CHUNK + 150 trials, whose last chunk lies below
    # HOUSEHOLDER_MIN_BATCH: numpy's kernels, C-order draws.
    PARTIAL_TRIALS = CHUNK + 150
    PARTIAL_NMSE = {
        ((4, 2, 2), RECIPROCAL, 3): (
            0.6624752721922387, 0.004065757614916357, 0.7538480685749835, 0.004966077799749338),
        ((4, 2, 2), RECIPROCAL, 8): (
            0.6701208334381703, 0.004095491065459184, 0.7496947526812238, 0.004934324480551601),
        ((4, 2, 2), NONRECIPROCAL, 3): (
            0.5602078091083681, 0.0038225378632791964, 0.5998854372763938, 0.004176906302775189),
        ((4, 2, 2), NONRECIPROCAL, 8): (
            0.5612138872813859, 0.003711830466325061, 0.5950784865836032, 0.004092135253438584),
        ((6, 3, 2), RECIPROCAL, 3): (
            0.8140181370432327, 0.003301079422093966, 0.8556573628587627, 0.0043056338281787145),
        ((6, 3, 2), RECIPROCAL, 8): (
            0.8096770668855358, 0.0032517478764608238, 0.8540017833606788, 0.004306595806775359),
        ((6, 3, 2), NONRECIPROCAL, 3): (
            0.724406362859098, 0.003211190772405684, 0.7526838592645229, 0.004070883501375047),
        ((6, 3, 2), NONRECIPROCAL, 8): (
            0.7238934490622959, 0.0031552279519429754, 0.7443084124914244, 0.004001264756700734),
    }
    PARTIAL_SER = {
        (RECIPROCAL, 3): (751, 0, 3598),
        (RECIPROCAL, 8): (729, 0, 3646),
        (NONRECIPROCAL, 3): (996, 0, 3590),
        (NONRECIPROCAL, 8): (1144, 0, 3548),
    }

    def _check_nmse(self, dims, scheme, seed, trials, pins):
        cfg = SystemConfig(*dims)
        if scheme == RECIPROCAL:
            plan, alloc = reciprocal_plan(cfg), R_ALLOC
        else:
            plan, alloc = nonreciprocal_plan(cfg), N_ALLOC
        rep = mc_nmse(cfg, plan, alloc, trials, seed)
        got = (rep.nmse_l, rep.nmse_l_se, rep.nmse_u, rep.nmse_u_se)
        assert got == pytest.approx(pins[dims, scheme, seed], rel=1e-12, abs=0)

    def _check_ser(self, scheme, seed, trials, pins):
        plan = R_PLAN if scheme == RECIPROCAL else N_PLAN
        rep = mc_ser(CFG, plan, self.SER_ALLOC[scheme], 1000.0, trials, seed)
        n_sym = 3 * trials
        counts = (rep.ser_l * n_sym, rep.ser_l_perfect * n_sym, rep.ser_u * n_sym)
        assert tuple(round(c) for c in counts) == pins[scheme, seed]

    @pytest.mark.parametrize("dims, scheme, seed", list(NMSE), ids=str)
    def test_mc_nmse(self, dims, scheme, seed):
        self._check_nmse(dims, scheme, seed, self.TRIALS, self.NMSE)

    @pytest.mark.parametrize("scheme, seed", list(SER), ids=str)
    def test_mc_ser(self, scheme, seed):
        self._check_ser(scheme, seed, self.TRIALS, self.SER)

    @pytest.mark.parametrize("dims, scheme, seed", list(PARTIAL_NMSE), ids=str)
    def test_mc_nmse_small_last_chunk(self, dims, scheme, seed):
        self._check_nmse(dims, scheme, seed, self.PARTIAL_TRIALS, self.PARTIAL_NMSE)

    @pytest.mark.parametrize("scheme, seed", list(PARTIAL_SER), ids=str)
    def test_mc_ser_small_last_chunk(self, scheme, seed):
        self._check_ser(scheme, seed, self.PARTIAL_TRIALS, self.PARTIAL_SER)


class TestArenas:
    """Each running chunk borrows a scratch arena from simkit's pool
    (:class:`dcekit.numerics.Arena`), reused across chunks and calls."""

    ALLOC = TestPerSeedPins.SER_ALLOC
    SCHEMES = [(R_PLAN, ALLOC[RECIPROCAL]), (N_PLAN, ALLOC[NONRECIPROCAL])]

    # MiB a fresh arena holds after one 4096-trial chunk, and the most
    # tracemalloc sees one such chunk hold without an arena: the footprint
    # table in dcekit.numerics' docstring.
    FRESH_MIB = {
        (RECIPROCAL, "mc_nmse"): 4.40625, (RECIPROCAL, "mc_ser"): 4.40625,
        (NONRECIPROCAL, "mc_nmse"): 4.75, (NONRECIPROCAL, "mc_ser"): 4.75,
    }
    NO_ARENA_MIB = {RECIPROCAL: 5.0, NONRECIPROCAL: 6.0}

    @staticmethod
    def _call(run, plan, alloc, trials):
        if run == "mc_nmse":
            return mc_nmse(CFG, plan, alloc, trials=trials, seed=5)
        return mc_ser(CFG, plan, alloc, data_power=1000.0, trials=trials, seed=5)

    @pytest.mark.parametrize("run", ["mc_nmse", "mc_ser"])
    @pytest.mark.parametrize("plan, alloc", SCHEMES, ids=[RECIPROCAL, NONRECIPROCAL])
    def test_fresh_chunk_arena_size(self, plan, alloc, run, monkeypatch):
        """The arena is the chunk's high-water mark of live arrays, so an
        array kept past its last use grows it."""
        pool = simkit._ArenaPool(1)
        monkeypatch.setattr(simkit, "_ARENAS", pool)
        self._call(run, plan, alloc, CHUNK)
        assert pool.arenas[0].nbytes == self.FRESH_MIB[plan.scheme, run] * 2**20
        assert pool.arenas[0].nbytes <= (4.5 if plan.scheme == RECIPROCAL else 5.0) * 2**20

    @pytest.mark.parametrize("run", ["mc_nmse", "mc_ser"])
    @pytest.mark.parametrize("plan, alloc", SCHEMES, ids=[RECIPROCAL, NONRECIPROCAL])
    def test_chunk_without_arena_peak(self, plan, alloc, run, monkeypatch):
        """A chunk that finds no arena (a worker's first, or a full pool)
        holds each array only until its last use, so its live numpy memory
        peaks about where a fresh arena ends up."""
        monkeypatch.setattr(simkit, "_ARENAS", simkit._ArenaPool(0))
        self._call(run, plan, alloc, CHUNK)  # lazily built tables and caches
        tracemalloc.start()
        try:
            self._call(run, plan, alloc, CHUNK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert simkit._ARENAS.arenas == []
        assert peak <= self.NO_ARENA_MIB[plan.scheme] * 2**20

    @pytest.mark.parametrize("run", ["mc_nmse", "mc_ser"])
    @pytest.mark.parametrize("plan, alloc", SCHEMES, ids=[RECIPROCAL, NONRECIPROCAL])
    def test_steady_state_chunks_allocate_nothing(self, plan, alloc, run):
        """After one warm-up call the arena covers every chunk array: a
        2-chunk call peaks under 1 MB of traced memory (against the no-arena
        peaks of the footprint table in dcekit.numerics)."""
        warm = self._call(run, plan, alloc, 2 * CHUNK)
        sizes = [arena.nbytes for arena in simkit._ARENAS.arenas]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            again = self._call(run, plan, alloc, 2 * CHUNK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again == warm
        assert peak - base < 1 << 20
        # No request overflowed a block (tracemalloc misses an overflow's own
        # mapping): no arena's high-water mark passed the block it had.
        assert len(simkit._ARENAS.arenas) == len(sizes)
        assert all(arena._used <= size for arena, size in zip(simkit._ARENAS.arenas, sizes))

    def test_other_scheme_in_between_changes_nothing(self):
        trials = 2 * CHUNK + 300
        first = mc_nmse(CFG, *self.SCHEMES[0], trials=trials, seed=11)
        mc_nmse(CFG, *self.SCHEMES[1], trials=trials, seed=11)
        mc_ser(CFG, *self.SCHEMES[1], data_power=1000.0, trials=trials, seed=11)
        assert mc_nmse(CFG, *self.SCHEMES[0], trials=trials, seed=11) == first

    def test_scheme_switch_leaves_no_mapping(self, monkeypatch):
        """Reciprocal chunks leave a 2-worker pool's arenas too small for a
        non-reciprocal chunk: the switch overflows into mappings of its own,
        all unmapped by the time the call returns, and the grown arenas hold
        a third call whole.  No report differs from a fresh pool's."""
        trials, mapped = 4 * CHUNK + 300, []

        def recording(*args, **kwargs):
            pages = mmap.mmap(*args, **kwargs)
            mapped.append(weakref.ref(pages))
            return pages

        monkeypatch.setattr(numerics, "mmap", types.SimpleNamespace(mmap=recording))
        monkeypatch.setattr(simkit, "_ARENAS", simkit._ArenaPool(2))
        calls = [(self.SCHEMES[0], 7), (self.SCHEMES[1], 7), (self.SCHEMES[1], 8)]
        reports = []
        for (plan, alloc), seed in calls:
            mapped.clear()
            reports.append(mc_nmse(CFG, plan, alloc, trials=trials, seed=seed, workers=2))
            if len(reports) == 2:
                assert mapped and all(ref() is None for ref in mapped)
        assert mapped == []
        for ((plan, alloc), seed), report in zip(calls, reports):
            monkeypatch.setattr(simkit, "_ARENAS", simkit._ArenaPool(2))
            assert mc_nmse(CFG, plan, alloc, trials=trials, seed=seed, workers=2) == report

    @pytest.mark.parametrize("plan, alloc", SCHEMES, ids=[RECIPROCAL, NONRECIPROCAL])
    def test_workers_share_no_arena(self, plan, alloc):
        trials = 3 * CHUNK + 200
        assert (mc_nmse(CFG, plan, alloc, trials=trials, seed=4, workers=1)
                == mc_nmse(CFG, plan, alloc, trials=trials, seed=4, workers=3))
        assert (mc_ser(CFG, plan, alloc, 1000.0, trials=trials, seed=4, workers=1)
                == mc_ser(CFG, plan, alloc, 1000.0, trials=trials, seed=4, workers=3))

    @pytest.mark.parametrize("plan, alloc", SCHEMES, ids=[RECIPROCAL, NONRECIPROCAL])
    def test_direct_rounds_return_independent_arrays(self, plan, alloc):
        first = run_rounds(CFG, plan, alloc, RngStream(3).generator, batch=CHUNK)
        saved = {k: v.copy() for k, v in first.items() if isinstance(v, np.ndarray)}
        run_rounds(CFG, plan, alloc, RngStream(4).generator, batch=CHUNK)
        for name, value in saved.items():
            np.testing.assert_array_equal(first[name], value, err_msg=name)

    def test_pool_under_thread_stress(self):
        """More workers than cores, switching threads often: the pool never
        makes more than one arena per CPU, and no chunk sees another's."""
        serial = mc_nmse(CFG, *self.SCHEMES[1], trials=6 * CHUNK, seed=2, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = mc_nmse(CFG, *self.SCHEMES[1], trials=6 * CHUNK, seed=2, workers=6)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
        assert 1 <= len(simkit._ARENAS.arenas) <= (os.cpu_count() or 1)


class TestHelpers:
    """A call on ``workers`` runs chunks on the calling thread and on
    ``workers - 1`` helper threads that simkit keeps for the process."""

    TRIALS = 2 * CHUNK + 300  # three chunks, the last one partial

    @staticmethod
    def _helper_threads() -> int:
        return sum(t.name == "dcekit-chunks" for t in threading.enumerate())

    @pytest.mark.parametrize("workers", [2, 3])
    def test_caller_runs_chunks_beside_its_helpers(self, workers):
        """Each chunk waits until ``workers`` chunks are running (10 s at
        most, then it raises), so the call runs that many at once: on the
        calling thread and ``workers - 1`` others."""
        at_once, threads = threading.Barrier(workers, timeout=10), set()

        def chunk(gen, m):
            threads.add(threading.get_ident())
            at_once.wait()
            return (m,)

        trials = 3 * workers * CHUNK
        assert simkit._reduce_chunks(chunk, trials, 1, workers) == (trials, trials)
        assert threading.get_ident() in threads
        assert len(threads) == workers

    def test_helpers_are_kept_across_calls(self):
        serial = mc_nmse(CFG, R_PLAN, R_ALLOC, trials=self.TRIALS, seed=6, workers=1)
        assert mc_nmse(CFG, R_PLAN, R_ALLOC, trials=self.TRIALS, seed=6, workers=3) == serial
        idle, threads = len(simkit._HELPERS.idle), self._helper_threads()
        assert idle >= 2
        for _ in range(20):
            assert mc_nmse(CFG, R_PLAN, R_ALLOC, trials=self.TRIALS, seed=6, workers=3) == serial
        assert len(simkit._HELPERS.idle) == idle
        assert self._helper_threads() == threads

    @pytest.mark.parametrize("plan, alloc", [(R_PLAN, R_ALLOC), (N_PLAN, N_ALLOC)],
                             ids=[RECIPROCAL, NONRECIPROCAL])
    def test_more_workers_than_chunks(self, plan, alloc):
        assert (mc_nmse(CFG, plan, alloc, trials=self.TRIALS, seed=3, workers=5)
                == mc_nmse(CFG, plan, alloc, trials=self.TRIALS, seed=3, workers=1))
        assert (mc_ser(CFG, plan, alloc, 1000.0, trials=self.TRIALS, seed=3, workers=5)
                == mc_ser(CFG, plan, alloc, 1000.0, trials=self.TRIALS, seed=3, workers=1))

    def test_single_chunk_or_worker_starts_no_helper(self, monkeypatch):
        monkeypatch.setattr(simkit, "_HELPERS", simkit._Helpers())
        mc_nmse(CFG, R_PLAN, R_ALLOC, trials=CHUNK, seed=6, workers=4)
        mc_nmse(CFG, R_PLAN, R_ALLOC, trials=self.TRIALS, seed=6, workers=1)
        assert simkit._HELPERS.idle == []

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_raising_chunk_propagates_and_helpers_stay_usable(self, index, monkeypatch):
        serial = mc_nmse(CFG, N_PLAN, N_ALLOC, trials=self.TRIALS, seed=9, workers=1)
        mc_nmse(CFG, N_PLAN, N_ALLOC, trials=self.TRIALS, seed=9, workers=3)
        idle = len(simkit._HELPERS.idle)

        def failing(seed, stream_id=0):
            if stream_id == index:
                raise RuntimeError(f"chunk {stream_id}")
            return RngStream(seed, stream_id)

        monkeypatch.setattr(simkit, "RngStream", failing)
        with pytest.raises(RuntimeError, match=f"chunk {index}"):
            mc_nmse(CFG, N_PLAN, N_ALLOC, trials=self.TRIALS, seed=9, workers=3)
        assert len(simkit._HELPERS.idle) == idle
        monkeypatch.undo()
        assert mc_nmse(CFG, N_PLAN, N_ALLOC, trials=self.TRIALS, seed=9, workers=3) == serial
        assert len(simkit._HELPERS.idle) == idle

    def test_raising_chunk_stops_the_others(self, monkeypatch):
        """Chunks after the raising one are not started: at most the ones
        already running when it raised end."""
        taken = []

        def recording(seed, stream_id=0):
            taken.append(stream_id)
            if stream_id == 0:
                raise RuntimeError("chunk 0")
            time.sleep(0.01)
            return RngStream(seed, stream_id)

        monkeypatch.setattr(simkit, "RngStream", recording)
        with pytest.raises(RuntimeError, match="chunk 0"):
            simkit._reduce_chunks(lambda gen, m: (m,), 30 * CHUNK, 1, 3)
        assert len(taken) < 15

    def test_concurrent_callers(self):
        """Two user threads calling at once each get the serial report."""
        calls = [(R_PLAN, R_ALLOC, 4), (N_PLAN, N_ALLOC, 5)]
        serial = [mc_nmse(CFG, plan, alloc, trials=self.TRIALS, seed=seed) for plan, alloc, seed in calls]
        together, reports = threading.Barrier(len(calls), timeout=10), [None] * len(calls)

        def call(k, plan, alloc, seed):
            together.wait()
            reports[k] = mc_nmse(CFG, plan, alloc, trials=self.TRIALS, seed=seed, workers=2)

        users = [threading.Thread(target=call, args=(k, *c)) for k, c in enumerate(calls)]
        for user in users:
            user.start()
        for user in users:
            user.join(timeout=60)
            assert not user.is_alive()
        assert reports == serial

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_its_own_helpers(self):
        """A child forked after the parent's helpers exist starts helpers of
        its own; one that waited on the parent's would hang, hence the
        timeout."""
        serial = mc_nmse(CFG, R_PLAN, R_ALLOC, trials=self.TRIALS, seed=2, workers=1)
        assert mc_nmse(CFG, R_PLAN, R_ALLOC, trials=self.TRIALS, seed=2, workers=2) == serial
        assert simkit._HELPERS.idle
        with warnings.catch_warnings():
            # Python 3.12 on warns that a process with threads forks.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                report = mc_nmse(CFG, R_PLAN, R_ALLOC, trials=self.TRIALS, seed=2, workers=2)
                code = 0 if report == serial else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while (ended := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if ended[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's call did not return within 60 s")
        assert os.waitstatus_to_exitcode(ended[1]) == 0
