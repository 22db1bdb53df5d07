import io
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from eqreg import tensor
from eqreg.data import make_dataset
from eqreg.group import RotationGroup
from eqreg.model import build_network, init_weights
from eqreg.tensor import (
    ConvParams,
    EqtFormatError,
    as_tensor4,
    conv2d_backward,
    conv2d_forward,
    frobenius_sq,
    load_tensor,
    read_tensor,
    relu_backward,
    relu_forward,
    save_tensor,
    write_tensor,
)

from eqreg.trainer import measure_equivariance

from naive_ref import central_difference, conv2d_loops, rel_err


def rand_params(rng, cout, cin, p, dtype=np.float64):
    w = rng.standard_normal((cout, cin, p, p)).astype(dtype)
    b = rng.standard_normal(cout).astype(dtype)
    return ConvParams(w, b)


class TestConvForward:
    def test_identity_kernel_scales(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        params = ConvParams(np.full((1, 1, 1, 1), 2.0), np.zeros(1))
        np.testing.assert_array_equal(conv2d_forward(x, params), 2.0 * x)

    def test_ones_kernel_full_overlap(self):
        # 2x2 ones with a 3x3 ones kernel: every window covers all four pixels
        x = np.ones((1, 1, 2, 2))
        params = ConvParams(np.ones((1, 1, 3, 3)), np.zeros(1))
        np.testing.assert_array_equal(conv2d_forward(x, params), np.full((1, 1, 2, 2), 4.0))

    def test_bias_only(self):
        x = np.zeros((2, 3, 4, 4))
        params = ConvParams(np.zeros((5, 3, 3, 3)), np.arange(5.0))
        out = conv2d_forward(x, params)
        np.testing.assert_array_equal(out, np.broadcast_to(np.arange(5.0)[:, None, None], (2, 5, 4, 4)))

    @pytest.mark.parametrize(
        "shape,cout,p",
        [
            ((2, 3, 5, 5), 4, 3),
            ((1, 1, 4, 6), 2, 5),
            ((3, 2, 3, 3), 1, 1),
            ((3, 4, 5, 7), 6, 3),
            ((2, 5, 4, 6), 2, 5),  # fewer outputs than inputs: shifted-slice kernel
            ((2, 2, 2, 3), 3, 7),  # kernel wider than the image: some taps read only padding
        ],
    )
    def test_matches_loop_reference(self, shape, cout, p):
        rng = np.random.default_rng(hash((shape, cout, p)) % 2**32)
        x = rng.standard_normal(shape)
        params = rand_params(rng, cout, shape[1], p)
        got = conv2d_forward(x, params)
        want = conv2d_loops(x, params.weight, params.bias)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_channel_mismatch_rejected(self):
        x = np.zeros((1, 2, 4, 4))
        params = ConvParams(np.zeros((1, 3, 3, 3)), np.zeros(1))
        with pytest.raises(ValueError, match="channels"):
            conv2d_forward(x, params)

    def test_rank_validation(self):
        with pytest.raises(ValueError, match="rank-4"):
            as_tensor4(np.zeros((2, 3, 4)))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            ConvParams(np.zeros((1, 1, 2, 2)), np.zeros(1))

    def test_bias_shape_rejected(self):
        with pytest.raises(ValueError, match="bias"):
            ConvParams(np.zeros((2, 1, 3, 3)), np.zeros(3))

    def test_deterministic_bits(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 4, 8, 8)).astype(np.float32)
        params = rand_params(rng, 4, 4, 3, np.float32)
        a = conv2d_forward(x, params)
        b = conv2d_forward(x, params)
        assert a.tobytes() == b.tobytes()


class TestConvBackward:
    def test_zero_grad_out(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 4, 4))
        params = rand_params(rng, 2, 3, 3)
        gx, gw, gb = conv2d_backward(x, params, np.zeros((2, 2, 4, 4)))
        assert not gx.any() and not gw.any() and not gb.any()

    def test_one_by_one_grad_w_is_input_sum(self):
        # out = w * x elementwise, loss = sum(out): dL/dw = sum(x)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 1, 3, 3))
        params = ConvParams(np.ones((1, 1, 1, 1)), np.zeros(1))
        _, gw, gb = conv2d_backward(x, params, np.ones((2, 1, 3, 3)))
        assert math.isclose(gw[0, 0, 0, 0], x.sum(), rel_tol=1e-12)
        assert math.isclose(gb[0], 18.0, rel_tol=1e-12)

    @staticmethod
    def check_grad_x_adjoint(shape):
        # bias-free conv is linear in x: <conv(x), g> must equal <x, grad_x>
        rng = np.random.default_rng(3)
        b, c, h, w = shape
        x = rng.standard_normal(shape)
        params = ConvParams(rng.standard_normal((4, c, 3, 3)), np.zeros(4))
        g = rng.standard_normal((b, 4, h, w))
        gx, _, _ = conv2d_backward(x, params, g)
        lhs = np.vdot(conv2d_forward(x, params), g)
        rhs = np.vdot(x, gx)
        assert rel_err(lhs, rhs) < 1e-12

    def test_grad_x_adjoint_identity(self):
        self.check_grad_x_adjoint((2, 3, 6, 6))

    def test_grad_x_adjoint_identity_batched_non_square(self):
        self.check_grad_x_adjoint((3, 3, 5, 7))

    @staticmethod
    def check_finite_difference(p, shape, cout):
        rng = np.random.default_rng(10 + p)
        b, c, h, w = shape
        x = rng.standard_normal(shape)
        params = rand_params(rng, cout, c, p)
        g = rng.standard_normal((b, cout, h, w))
        gx, gw, gb = conv2d_backward(x, params, g)

        def loss_of_w(w):
            return np.vdot(conv2d_forward(x, ConvParams(w, params.bias)), g)

        def loss_of_x(xv):
            return np.vdot(conv2d_forward(xv, params), g)

        def loss_of_b(b):
            return np.vdot(conv2d_forward(x, ConvParams(params.weight, b)), g)

        for _ in range(12):
            idx = tuple(rng.integers(0, d) for d in params.weight.shape)
            assert rel_err(central_difference(loss_of_w, params.weight, idx), gw[idx]) < 1e-5
        for _ in range(8):
            idx = tuple(rng.integers(0, d) for d in x.shape)
            assert rel_err(central_difference(loss_of_x, x, idx), gx[idx]) < 1e-5
        for i in range(cout):
            assert rel_err(central_difference(loss_of_b, params.bias, (i,)), gb[i]) < 1e-5

    @pytest.mark.parametrize("p", [1, 3, 5])
    def test_finite_difference_all_parameter_kinds(self, p):
        self.check_finite_difference(p, (2, 2, 4, 4), 3)

    # (3, 4, 5, 7) with 2 outputs is narrower than its input: shifted-slice kernel
    @pytest.mark.parametrize("shape,cout", [((3, 2, 5, 7), 3), ((3, 4, 5, 7), 2)])
    @pytest.mark.parametrize("p", [1, 3, 5])
    def test_finite_difference_batched_non_square(self, p, shape, cout):
        self.check_finite_difference(p, shape, cout)

    def test_skipping_grad_x_leaves_weight_grads_bitwise(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 2, 5, 7)).astype(np.float32)
        params = rand_params(rng, 4, 2, 3, np.float32)
        g = rng.standard_normal((3, 4, 5, 7)).astype(np.float32)
        gx, gw, gb = conv2d_backward(x, params, g)
        none, gw_only, gb_only = conv2d_backward(x, params, g, need_grad_x=False)
        assert gx is not None and none is None
        assert gw_only.tobytes() == gw.tobytes() and gb_only.tobytes() == gb.tobytes()

    def test_grad_out_shape_rejected(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 2, 4, 4))
        params = rand_params(rng, 3, 2, 3)
        with pytest.raises(ValueError, match="grad_out"):
            conv2d_backward(x, params, np.zeros((1, 3, 5, 5)))


def in_fresh_thread(fn, *args):
    """fn(*args) on a new thread, whose conv workspaces start empty."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn, *args).result(timeout=120)


def kept_buffers():
    return list(tensor._kept().values())


def conv_pass(x, params, g):
    """Forward and backward of one conv: (out, grad_x, grad_w, grad_b)."""
    return (conv2d_forward(x, params), *conv2d_backward(x, params, g))


def layer_cases(dtype=np.float32, seed=40):
    """The default network's wide 32->32 and narrow 32->1 convs on two 12x12 images."""
    rng = np.random.default_rng(seed)
    cases = []
    for cout in (32, 1):
        x = rng.standard_normal((2, 32, 12, 12)).astype(dtype)
        g = rng.standard_normal((2, cout, 12, 12)).astype(dtype)
        cases.append((x, rand_params(rng, cout, 32, 3, dtype), g))
    return cases


def same_bits(a, b):
    return all(u.dtype == v.dtype and u.tobytes() == v.tobytes() for u, v in zip(a, b, strict=True))


class TestWorkspaces:
    @pytest.mark.parametrize("case", [0, 1], ids=["wide", "narrow"])
    def test_results_are_fresh(self, case):
        x, params, g = layer_cases()[case]

        def run():
            first = conv_pass(x, params, g)
            kept = kept_buffers()
            second = conv_pass(x, params, g)
            return first, second, kept

        first, second, kept = in_fresh_thread(run)
        assert kept, "the calls kept no workspace, so nothing was checked"
        for a in first + second:
            assert not any(np.shares_memory(a, buf) for buf in kept)
        for a in first:
            assert not any(np.shares_memory(a, b) for b in second)
        assert same_bits(first, second)

    def test_float64_call_between_float32_calls(self):
        cases32, cases64 = layer_cases(np.float32), layer_cases(np.float64)
        fresh32 = [in_fresh_thread(conv_pass, *c) for c in cases32]
        fresh64 = [in_fresh_thread(conv_pass, *c) for c in cases64]

        def run():
            before = [conv_pass(*c) for c in cases32]
            between = [conv_pass(*c) for c in cases64]
            after = [conv_pass(*c) for c in cases32]
            return before, between, after

        before, between, after = in_fresh_thread(run)
        for got, want in zip(before + after + between, fresh32 + fresh32 + fresh64):
            assert same_bits(got, want)

    def test_threads_at_once_match_serial_bits(self):
        cases = layer_cases(seed=41) + layer_cases(seed=42)
        serial = [in_fresh_thread(conv_pass, *c) for c in cases]
        start = threading.Barrier(len(cases))

        def worker(i):
            start.wait(timeout=60)
            return [conv_pass(*cases[i]) for _ in range(5)]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(cases)) as pool:
                runs = list(pool.map(worker, range(len(cases)), timeout=120))
        finally:
            sys.setswitchinterval(switch)
        for want, got in zip(serial, runs):
            assert all(same_bits(r, want) for r in got)

    def test_large_batch_stays_within_budget(self):
        rng = np.random.default_rng(43)
        params = rand_params(rng, 32, 32, 3, np.float32)
        small = rng.standard_normal((8, 32, 32, 32)).astype(np.float32)
        large = rng.standard_normal((64, 32, 32, 32)).astype(np.float32)

        def run():
            conv2d_forward(small, params)
            kept = sum(a.nbytes for a in kept_buffers())
            conv2d_forward(large, params)
            return kept, sum(a.nbytes for a in kept_buffers())

        after_small, after_large = in_fresh_thread(run)
        assert after_small > 0
        assert after_large == after_small <= tensor._HEAP_BLOCK

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_large_batch_matches_per_batch_calls(self, dtype):
        # 64 images run as column-bounded slices of 14 + ... + 8 (float32) or
        # 7 + ... + 1 (float64); the forward and grad_x must keep the bits
        # of 8-image calls
        rng = np.random.default_rng(48)
        params = rand_params(rng, 32, 32, 3, dtype)
        x = rng.standard_normal((64, 32, 32, 32)).astype(dtype)
        g = rng.standard_normal((64, 32, 32, 32)).astype(dtype)
        per_image = 32 * 3 * 3 * 32 * 32 * x.itemsize
        assert len(x) * per_image > tensor._HEAP_BLOCK and len(x) % (tensor._HEAP_BLOCK // per_image)

        def run():
            whole = conv2d_forward(x, params), conv2d_backward(x, params, g)[0]
            parts = [(conv2d_forward(x[i : i + 8], params), conv2d_backward(x[i : i + 8], params, g[i : i + 8])[0])
                     for i in range(0, len(x), 8)]
            return whole, [np.concatenate(arrays) for arrays in zip(*parts)]

        whole, parts = in_fresh_thread(run)
        assert same_bits(whole, parts)

    def test_large_batch_forward_peak_memory(self):
        # columns are built one slice of at most _HEAP_BLOCK bytes at a time,
        # never as the whole batch's 75.5 MB at once
        rng = np.random.default_rng(49)
        params = rand_params(rng, 32, 32, 3, np.float32)
        x = rng.standard_normal((64, 32, 32, 32)).astype(np.float32)

        def run():
            tracemalloc.start()
            try:
                out = conv2d_forward(x, params)
                return out.nbytes, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        out_bytes, peak = in_fresh_thread(run)
        assert peak <= tensor._HEAP_BLOCK + 3 * out_bytes

    def test_meter_columns_kept_after_step_chunks(self):
        # a thread runs 4-image step chunks of the default network's convs,
        # then 8-image forwards: each layer's 8-image columns replace its
        # 4-image ones, and all of them are kept
        rng = np.random.default_rng(44)
        layers = [rand_params(rng, cout, cin, 3, np.float32) for cin, cout in ((1, 32), (32, 32), (32, 1))]

        def images(b, c):
            return rng.standard_normal((b, c, 32, 32)).astype(np.float32)

        def run():
            for params in layers:
                conv_pass(images(4, params.in_channels), params, images(4, params.out_channels))
            for params in layers:
                conv2d_forward(images(8, params.in_channels), params)
            return [(buf.shape, buf.dtype, buf.nbytes) for buf in kept_buffers()]

        kept = in_fresh_thread(run)
        assert sorted(shape for shape, _, _ in kept) == [(1, 3, 3, 8, 32, 32), (32, 3, 3, 8, 32, 32)]
        assert all(nbytes <= tensor._HEAP_BLOCK for _, _, nbytes in kept)

    def test_order8_meter_reuses_step_chunk_columns(self):
        # a pool thread of an order-8 inpaint run: 4-image step chunks of its
        # three convs, then the meter on the same thread, which must find
        # every column buffer it needs already kept and keep no other
        net = init_weights(build_network(2, 1, RotationGroup(8), n_hidden=4), seed=45)
        ds = make_dataset("inpaint", 8, seed=46)
        rng = np.random.default_rng(47)

        def run():
            for params in net.conv_params:
                x = rng.standard_normal((4, params.in_channels, 32, 32)).astype(np.float32)
                g = rng.standard_normal((4, params.out_channels, 32, 32)).astype(np.float32)
                conv_pass(x, params, g)
            before = kept_buffers()
            measure_equivariance(net, ds)
            return before, kept_buffers()

        before, after = in_fresh_thread(run)
        assert [buf.shape[:2] for buf in before] == [(2, 3), (32, 3), (1, 3)]
        assert len(after) == len(before) and all(a is b for a, b in zip(after, before))


class TestRelu:
    def test_values(self):
        x = np.array([[[[-1.0, 0.0], [2.5, -0.1]]]])
        np.testing.assert_array_equal(relu_forward(x), [[[[0.0, 0.0], [2.5, 0.0]]]])

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 4, 4))
        y = relu_forward(x)
        np.testing.assert_array_equal(relu_forward(y), y)

    def test_backward_masks_nonpositive(self):
        x = np.array([[[[-1.0, 0.0], [2.0, 3.0]]]])
        g = np.ones_like(x)
        np.testing.assert_array_equal(relu_backward(x, g), [[[[0.0, 0.0], [1.0, 1.0]]]])
        # every pairing of specials in either argument, bit for bit against the
        # select: kept entries pass unchanged (NaN, -0 and infinities included),
        # all others become +0, and a NaN pre-activation passes nothing
        for dtype, bits in ((np.float32, np.uint32), (np.float64, np.uint64)):
            tiny = np.finfo(dtype).smallest_subnormal
            vals = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -1.5, tiny, -tiny], dtype=dtype)
            xs, gs = (v.reshape(1, 1, len(vals), len(vals)) for v in np.meshgrid(vals, vals))
            got = relu_backward(xs, gs)
            want = np.where(xs > 0, gs, dtype(0.0))
            assert got.dtype == dtype
            np.testing.assert_array_equal(got.view(bits), want.view(bits))
            assert not np.signbit(got[xs <= 0]).any() and not np.isnan(got[np.isnan(xs)]).any()

    def test_backward_reads_same_mask_from_output(self):
        # backprop masks with the post-relu value; relu(z) > 0 exactly where
        # z > 0, specials included, so the gradient keeps every bit
        for dtype in (np.float32, np.float64):
            tiny = np.finfo(dtype).smallest_subnormal
            vals = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -1.5, tiny, -tiny], dtype=dtype)
            zs, gs = (v.reshape(1, 1, len(vals), len(vals)) for v in np.meshgrid(vals, vals))
            assert relu_backward(relu_forward(zs), gs).tobytes() == relu_backward(zs, gs).tobytes()

    def test_backward_finite_difference(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 2, 5, 5)) + 0.3  # keep coordinates away from the kink
        g = rng.standard_normal(x.shape)
        gx = relu_backward(x, g)
        for _ in range(20):
            idx = tuple(rng.integers(0, d) for d in x.shape)
            if abs(x[idx]) < 1e-3:
                continue
            fd = central_difference(lambda xv: np.vdot(relu_forward(xv), g), x, idx)
            assert rel_err(fd, gx[idx], floor=1e-9) < 1e-5


class TestFrobenius:
    def test_zeros(self):
        assert frobenius_sq(np.zeros((2, 2))) == 0.0

    def test_three_four_five(self):
        assert frobenius_sq(np.array([3.0, 4.0])) == 25.0

    def test_homogeneity(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 4))
        assert math.isclose(frobenius_sq(2.0 * x), 4.0 * frobenius_sq(x), rel_tol=1e-15)

    def test_permutation_invariant_bitwise(self):
        # exact rounding makes the sum independent of element order
        rng = np.random.default_rng(8)
        x = rng.standard_normal(4096).astype(np.float32)
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(x.size)
            assert frobenius_sq(x[perm]) == frobenius_sq(x)

    def test_finite_on_finite_input(self):
        rng = np.random.default_rng(9)
        x = (rng.standard_normal((4, 4, 8, 8)) * 1e18).astype(np.float64)
        assert math.isfinite(frobenius_sq(x))


class TestEqt1:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(3,), (2, 5), (2, 3, 4, 5)])
    def test_roundtrip(self, tmp_path, dtype, shape):
        rng = np.random.default_rng(11)
        arr = rng.standard_normal(shape).astype(dtype)
        path = tmp_path / "t.eqt1"
        save_tensor(path, arr)
        back = load_tensor(path)
        assert back.dtype == arr.dtype and back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()

    def test_stream_of_records(self):
        buf = io.BytesIO()
        a = np.arange(6.0, dtype=np.float32).reshape(2, 3)
        b = np.ones((4,), dtype=np.float64)
        write_tensor(buf, a)
        write_tensor(buf, b)
        buf.seek(0)
        np.testing.assert_array_equal(read_tensor(buf), a)
        np.testing.assert_array_equal(read_tensor(buf), b)

    def test_bad_magic(self):
        with pytest.raises(EqtFormatError, match="magic"):
            read_tensor(io.BytesIO(b"NOPE" + b"\x00" * 16))

    def test_truncated_payload(self):
        buf = io.BytesIO()
        write_tensor(buf, np.ones((8, 8), dtype=np.float32))
        raw = buf.getvalue()[:-7]
        with pytest.raises(EqtFormatError, match="truncated"):
            read_tensor(io.BytesIO(raw))

    def test_truncated_header(self):
        with pytest.raises(EqtFormatError, match="truncated"):
            read_tensor(io.BytesIO(b"EQT"))

    def test_unknown_dtype_tag(self):
        buf = io.BytesIO()
        write_tensor(buf, np.ones(2, dtype=np.float32))
        raw = bytearray(buf.getvalue())
        raw[4] = 9
        with pytest.raises(EqtFormatError, match="dtype"):
            read_tensor(io.BytesIO(bytes(raw)))

    def test_integer_dtype_rejected_on_write(self):
        with pytest.raises(ValueError, match="float32/float64"):
            write_tensor(io.BytesIO(), np.arange(4))

    def test_huge_dims_rejected_before_reading(self):
        raw = b"EQT1" + bytes([0, 8]) + b"\xff\xff\xff\xff" * 8 + b"\x00" * 16
        with pytest.raises(EqtFormatError, match="truncated"):
            read_tensor(io.BytesIO(raw))

    def test_byte_layout_is_little_endian(self):
        buf = io.BytesIO()
        write_tensor(buf, np.array([1.0], dtype=np.float32))
        raw = buf.getvalue()
        assert raw[:4] == b"EQT1"
        assert raw[4] == 0 and raw[5] == 1
        assert raw[6:10] == (1).to_bytes(4, "little")
        assert raw[10:14] == np.float32(1.0).tobytes()
