"""Unit tests for the complex-matrix substrate."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcekit.numerics import (
    HOUSEHOLDER_MIN_BATCH,
    Arena,
    RngStream,
    _householder_qr,
    add_complex_normal,
    complex_normal,
    empty,
    empty_like,
    empty_stack,
    haar_semiunitary,
    hermitian_solve,
    keep,
    matmul,
    null_complement,
    random_gaussian,
    scratch,
    stacked_complex_normal,
)


def stack_last(x: np.ndarray) -> np.ndarray:
    """A copy of the stack ``x`` in :func:`empty_stack` memory: stack-last
    from ``HOUSEHOLDER_MIN_BATCH`` matrices on, C order below."""
    out = empty_stack(x.shape, x.dtype)
    np.copyto(out, x)
    return out


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
    matrices take gives the complement columns of numpy's complete LAPACK QR
    (zgeqrf/zungqr conventions)."""

    @staticmethod
    def _tolerance(a: np.ndarray) -> np.ndarray:
        # Two backward-stable QRs differ by about eps * cond(A) per matrix:
        # 1e-13 for a well-conditioned one, more for the rare ill-conditioned
        # draw (cond 3805 and a 2.0e-13 difference in the 4x4 stack of RngStream(1)).
        return 1e-13 + 1e-15 * np.linalg.cond(a)

    @pytest.mark.parametrize("shape", [(4, 2), (6, 3), (5, 1)])
    def test_complete_q_matches_lapack(self, shape):
        m = shape[1]
        a = complex_normal(RngStream(40).generator, (4096,) + shape, 1.0)
        q = _householder_qr(a)
        q_ref = np.linalg.qr(a, mode="complete")[0][..., m:]
        assert q.shape == q_ref.shape and q.strides[0] == q.itemsize
        err = np.max(np.abs(q - q_ref), axis=(-2, -1))
        assert np.all(err <= self._tolerance(a))
        # The complement is the public null_complement on the same stack.
        np.testing.assert_array_equal(null_complement(a), q)

    def test_reduced_columns_are_left_alone(self):
        """Real pivots with nothing below them take tau = 0, as in LAPACK:
        the complement is the trailing columns of the identity."""
        a = np.triu(complex_normal(RngStream(42).generator, (4096, 4, 2), 1.0).real).astype(complex)
        q = _householder_qr(a)
        np.testing.assert_array_equal(q, np.broadcast_to(np.eye(4)[:, 2:], q.shape))


class TestHaarReflectors:
    """From HOUSEHOLDER_MIN_BATCH matrices on, the Haar pilot is a product of
    reflectors of Gaussian vectors of lengths tau, tau - 1, ...; below, it is
    LAPACK's QR of a full Gaussian draw."""

    @pytest.mark.parametrize("shape", [(4, 4), (6, 4)])
    def test_unitary(self, shape):
        q = haar_semiunitary(RngStream(60).generator, (4096,) + shape)
        assert q.shape == (4096,) + shape and q.strides[0] == q.itemsize
        eye = np.eye(shape[1])
        assert np.max(np.abs(np.swapaxes(q.conj(), -1, -2) @ q - eye)) <= 1e-13

    @staticmethod
    def _within_4se(samples: np.ndarray, expected: float) -> None:
        """Every entry's mean over axis 0 lies within 4 standard errors of ``expected``."""
        se = samples.std(axis=0) / math.sqrt(samples.shape[0])
        assert np.all(np.abs(samples.mean(axis=0) - expected) <= 4.0 * se)

    @pytest.mark.parametrize("shape", [(4, 4), (6, 4)])
    def test_haar_moments(self, shape):
        """E|Q_ij|^2 = 1/tau, E|Q_ij|^4 = 2/(tau(tau+1)) and, for a square Q,
        E|tr Q|^2 = 1, over 2^17 matrices."""
        tau = shape[0]
        q = np.concatenate([haar_semiunitary(RngStream(61, i).generator, (4096,) + shape)
                            for i in range(32)])
        power = np.abs(q) ** 2
        self._within_4se(power, 1.0 / tau)
        self._within_4se(power**2, 2.0 / (tau * (tau + 1)))
        if shape[0] == shape[1]:
            self._within_4se(np.abs(np.trace(q, axis1=-2, axis2=-1)) ** 2, 1.0)

    def test_square_pilot_takes_ten_normals_per_matrix(self):
        gen = RngStream(62).generator
        haar_semiunitary(gen, (4096, 4, 4))
        fresh = RngStream(62).generator
        fresh.standard_normal(2 * 10 * 4096)

        def same(a, b):
            if isinstance(a, dict):
                return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
            return np.array_equal(a, b)

        assert same(gen.bit_generator.state, fresh.bit_generator.state)

    def test_below_crossover_is_lapack_qr_of_the_same_draws(self):
        shape = (HOUSEHOLDER_MIN_BATCH - 1, 4, 4)
        got = haar_semiunitary(RngStream(63).generator, shape)
        q, r = np.linalg.qr(complex_normal(RngStream(63).generator, shape, 1.0))
        r_diag = np.diagonal(r, axis1=-2, axis2=-1)
        np.testing.assert_array_equal(got, q * (r_diag / np.abs(r_diag)).conj()[..., None, :])


class TestDrawLayout:
    """Chunk-scale normals go straight into their destination's memory order;
    smaller stacks draw exactly ``complex_normal``'s values."""

    def test_below_crossover_matches_complex_normal(self):
        shape = (HOUSEHOLDER_MIN_BATCH - 1, 4, 2)
        ref = complex_normal(RngStream(70).generator, shape, 0.5)
        got = stacked_complex_normal(RngStream(70).generator, shape, 0.5)
        np.testing.assert_array_equal(got, ref)
        x = complex_normal(RngStream(71).generator, shape, 1.0)
        ref = x + complex_normal(RngStream(70).generator, shape, 0.5)
        assert add_complex_normal(x, RngStream(70).generator, 0.5) is x
        np.testing.assert_array_equal(x, ref)

    def test_from_crossover_draws_are_in_memory_order(self):
        batch, rows, cols = HOUSEHOLDER_MIN_BATCH, 4, 2
        z = stacked_complex_normal(RngStream(72).generator, (batch, rows, cols), 0.5)
        assert z.strides[0] == z.itemsize  # stack-last, rows outermost
        ref = complex_normal(RngStream(72).generator, (rows, cols, batch), 0.5)
        np.testing.assert_array_equal(z, ref.transpose(2, 0, 1))
        # Added noise follows the target's own layout, either axis outermost.
        for memory, axes in (((rows, cols, batch), (2, 0, 1)), ((cols, rows, batch), (2, 1, 0))):
            x = np.zeros(memory, complex).transpose(axes)
            assert add_complex_normal(x, RngStream(73).generator, 0.5) is x
            ref = complex_normal(RngStream(73).generator, memory, 0.5)
            np.testing.assert_array_equal(x, ref.transpose(axes))

    def test_warm_add_takes_no_buffer(self):
        """Noise and target share strides, so numpy adds them without an
        iterator buffer (a batch-first draw took 258 KiB here)."""
        arena, gen = Arena(), RngStream(74).generator

        def call():
            with arena.activate():
                add_complex_normal(empty_stack((4096, 4, 2)), gen, 1.0)

        call()
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024


class TestStackKernels:
    """The stack product and the stack Hermitian solve against numpy, on both
    sides of the crossover, for stack-last inputs and for batch-first ones
    (the strided case).  Below the crossover they are numpy's own calls."""

    BATCHES = (HOUSEHOLDER_MIN_BATCH - 1, HOUSEHOLDER_MIN_BATCH)

    @staticmethod
    def _check(got: np.ndarray, ref: np.ndarray, batch: int) -> None:
        assert got.shape == ref.shape
        if batch < HOUSEHOLDER_MIN_BATCH:
            np.testing.assert_array_equal(got, ref)
        else:
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-13)
            assert got.strides[0] == got.itemsize

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("layout", ["stack_last", "batch_first"])
    def test_matmul_matches_numpy(self, batch, layout):
        gen = RngStream(50).generator
        dims = (1, 2, 3, 4, 6)
        for p, q, r in itertools.product(dims, dims, dims):
            a = complex_normal(gen, (batch, p, q), 1.0)
            b = complex_normal(gen, (batch, q, r), 1.0)
            if layout == "stack_last":
                a, b = stack_last(a), stack_last(b)
            # Two stacks, and a left factor shared by the stack.
            for x, y in ((a, b), (a[0], b)):
                self._check(matmul(x, y), np.matmul(x, y), batch)

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("layout", ["stack_last", "batch_first"])
    def test_hermitian_solve_matches_numpy(self, batch, layout):
        gen = RngStream(51).generator
        for n, m in itertools.product((1, 2, 3, 4), (1, 2, 4, 6)):
            h = complex_normal(gen, (batch, n, 6), 1.0)
            s = h @ np.swapaxes(h.conj(), -1, -2) + 0.2 * np.eye(n)
            rhs = complex_normal(gen, (batch, n, m), 1.0)
            ref = np.linalg.solve(s, rhs)
            if layout == "stack_last":
                s, rhs = stack_last(s), stack_last(rhs)
            self._check(hermitian_solve(s, rhs), ref, batch)


class TestArena:
    def test_frames_reuse_scratch_and_keep_results(self):
        arena = Arena()
        sizes = []
        for rep in range(3):  # the first activation sizes the block, the others run in it
            with arena.activate():
                lasting = empty((1000,))
                with scratch():
                    first = empty((1000,))
                    with keep():
                        kept = empty((1000,))
                with scratch():
                    second = empty((1000,))
                    inner = empty_like(stack_last(np.zeros((200, 4, 2), dtype=complex)), np.float64)
                assert np.shares_memory(first, second) == (rep > 0)
                assert not any(np.shares_memory(x, y) for x, y in itertools.combinations(
                    (lasting, kept, second, inner), 2))
                assert inner.strides[0] == inner.itemsize  # stack-last, as numpy's K order
            sizes.append(arena.nbytes)
        assert sizes[0] > 0 and sizes[0] == sizes[1] == sizes[2]

    def test_without_arena_numpy_allocates(self):
        x = empty((3, 4))
        assert x.base is None and x.flags.owndata
        with scratch(), keep():
            y = empty((3,))
        assert y.flags.owndata

    def test_request_past_the_block_grows_it(self):
        arena = Arena()
        with arena.activate():
            empty((10,))
        small = arena.nbytes
        with arena.activate():
            big = empty((10_000,))
            assert big.flags.owndata  # past the block: numpy memory this time
        assert arena.nbytes >= big.nbytes > small
        with arena.activate():
            assert not empty((10_000,)).flags.owndata
