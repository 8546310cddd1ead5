"""Unit tests for the complex-matrix substrate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcekit.numerics import (
    RngStream,
    _householder_qr,
    complex_normal,
    haar_semiunitary,
    null_complement,
    random_gaussian,
)


class TestRngStream:
    def test_same_identifiers_replay(self):
        a = RngStream(1234, 7).generator.standard_normal(32)
        b = RngStream(1234, 7).generator.standard_normal(32)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(1234, 0).generator.standard_normal(32)
        b = RngStream(1234, 1).generator.standard_normal(32)
        assert not np.allclose(a, b)

    def test_generator_cached(self):
        s = RngStream(5)
        assert s.generator is s.generator

    @given(seed=st.integers(0, 2**31), sid=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_reproducible_for_any_identifiers(self, seed, sid):
        a = RngStream(seed, sid).generator.integers(0, 1 << 30, 8)
        b = RngStream(seed, sid).generator.integers(0, 1 << 30, 8)
        np.testing.assert_array_equal(a, b)


class TestRandomGaussian:
    def test_shape_and_dtype(self):
        z = random_gaussian(5, 3, 2.0, RngStream(0))
        assert z.shape == (5, 3)
        assert z.dtype == np.complex128

    def test_variance_and_mean(self):
        z = random_gaussian(400, 250, 3.0, RngStream(1))
        assert abs(np.mean(z)) < 0.02
        assert np.var(z) == pytest.approx(3.0, rel=0.02)
        # circular: real/imag each carry half the variance
        assert np.var(z.real) == pytest.approx(1.5, rel=0.03)

    def test_zero_variance_and_stream_advance(self):
        s = RngStream(2)
        z = random_gaussian(3, 3, 0.0, s)
        assert np.all(z == 0)
        # the stream advanced: next draw differs from a fresh stream's first
        follow = random_gaussian(3, 3, 1.0, s)
        fresh = random_gaussian(3, 3, 1.0, RngStream(2))
        assert not np.allclose(follow, fresh)

    @pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0), (-1, 2)])
    def test_bad_dimensions(self, rows, cols):
        with pytest.raises(ValueError):
            random_gaussian(rows, cols, 1.0, RngStream(0))

    def test_negative_variance(self):
        """Negative and non-finite variances are rejected, as validate() does."""
        for variance in (-0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="variance"):
                random_gaussian(2, 2, variance, RngStream(0))


class TestNullSpaceBasis:
    """The null complement is an orthonormal basis of the left null space."""

    def test_annihilates_and_orthonormal(self):
        mat = random_gaussian(6, 2, 1.0, RngStream(3))
        k = null_complement(mat)
        assert k.shape == (6, 4)
        assert np.max(np.abs(k.conj().T @ mat)) < 1e-12
        np.testing.assert_allclose(k.conj().T @ k, np.eye(4), atol=1e-12)

    def test_deterministic(self):
        mat = random_gaussian(5, 3, 1.0, RngStream(4))
        np.testing.assert_array_equal(null_complement(mat), null_complement(mat))

    @given(
        n=st.integers(2, 8),
        m=st.integers(1, 7),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_annihilation(self, n, m, seed):
        if m >= n:
            return
        mat = random_gaussian(n, m, 1.0, RngStream(seed))
        k = null_complement(mat)
        assert k.shape == (n, n - m)
        scale = max(1.0, float(np.max(np.abs(mat))))
        assert np.max(np.abs(k.conj().T @ mat)) < 1e-10 * scale
        np.testing.assert_allclose(k.conj().T @ k, np.eye(n - m), atol=1e-10)


class TestRandomSemiunitary:
    """Haar semi-unitaries, single and batched."""

    def test_columns_orthonormal(self):
        c = haar_semiunitary(RngStream(7).generator, (6, 4))
        assert c.shape == (6, 4)
        np.testing.assert_allclose(c.conj().T @ c, np.eye(4), atol=1e-12)

    def test_square_is_unitary(self):
        c = haar_semiunitary(RngStream(8).generator, (4, 4))
        np.testing.assert_allclose(c @ c.conj().T, np.eye(4), atol=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            haar_semiunitary(RngStream(0).generator, (2, 3))

    def test_deterministic_per_stream(self):
        a = haar_semiunitary(RngStream(9, 1).generator, (5, 2))
        b = haar_semiunitary(RngStream(9, 1).generator, (5, 2))
        np.testing.assert_array_equal(a, b)

    def test_batch_matches_single_draws(self):
        """A batch is the stack of the matrices drawn one by one."""
        batch = haar_semiunitary(RngStream(10).generator, (3, 4, 4))
        gen = RngStream(10).generator
        for c in batch:
            np.testing.assert_allclose(c, haar_semiunitary(gen, (4, 4)), rtol=0, atol=1e-14)
            np.testing.assert_allclose(c.conj().T @ c, np.eye(4), atol=1e-12)


class TestHouseholderQr:
    """The vectorized QR that stacks of HOUSEHOLDER_MIN_BATCH or more
    matrices take reproduces numpy's LAPACK QR (zgeqrf/zungqr conventions)."""

    @staticmethod
    def _tolerance(a: np.ndarray) -> np.ndarray:
        # Two backward-stable QRs differ by about eps * cond(A) per matrix:
        # 1e-13 for a well-conditioned one, more for the rare ill-conditioned
        # draw (cond 3805 and a 2.0e-13 difference in the 4x4 stack of RngStream(1)).
        return 1e-13 + 1e-15 * np.linalg.cond(a)

    @pytest.mark.parametrize("shape", [(4, 2), (6, 3), (5, 1)])
    def test_complete_q_matches_lapack(self, shape):
        n = shape[0]
        a = complex_normal(RngStream(40).generator, (4096,) + shape, 1.0)
        q, diag = _householder_qr(a, slice(0, n))
        q_ref, r_ref = np.linalg.qr(a, mode="complete")
        err = np.max(np.abs(q - q_ref), axis=(-2, -1))
        assert np.all(err <= self._tolerance(a))
        np.testing.assert_allclose(diag, np.diagonal(r_ref, axis1=-2, axis2=-1).real, rtol=1e-13)
        # The complement is the public null_complement on the same stack.
        np.testing.assert_array_equal(null_complement(a), q[..., shape[1]:])

    @pytest.mark.parametrize("shape", [(4, 4), (6, 4)])
    def test_haar_q_matches_lapack(self, shape):
        batch = haar_semiunitary(RngStream(41).generator, (4096,) + shape)
        a = complex_normal(RngStream(41).generator, (4096,) + shape, 1.0)
        q, r = np.linalg.qr(a)
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        ref = q * (diag / np.abs(diag)).conj()[..., None, :]
        err = np.max(np.abs(batch - ref), axis=(-2, -1))
        assert np.all(err <= self._tolerance(a))
        eye = np.eye(shape[1])
        assert np.max(np.abs(np.swapaxes(batch.conj(), -1, -2) @ batch - eye)) <= 1e-12

    def test_reduced_columns_are_left_alone(self):
        """Real pivots with nothing below them take tau = 0, as in LAPACK:
        Q is the identity and R's diagonal is the input's."""
        a = np.triu(complex_normal(RngStream(42).generator, (4096, 4, 2), 1.0).real).astype(complex)
        q, diag = _householder_qr(a, slice(0, 4))
        np.testing.assert_array_equal(q, np.broadcast_to(np.eye(4), q.shape))
        np.testing.assert_array_equal(diag, np.diagonal(a, axis1=-2, axis2=-1).real)
