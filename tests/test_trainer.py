import json
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from eqreg import trainer
from eqreg.data import Dataset, make_dataset
from eqreg.group import RotationGroup
from eqreg.losses import EqRegConfig, equi_loss, exact_mismatch, mismatch, total_loss
from eqreg.model import (
    Network,
    build_network,
    forward_with_tape,
    init_weights,
    lifted_conv,
    network_astype,
    network_copy,
)
from eqreg.tensor import ConvParams, conv2d_forward, relu_forward
from eqreg.trainer import (
    ADAM_EPS,
    AdamState,
    NumericsError,
    TrainConfig,
    adam_update,
    evaluate,
    init_state,
    measure_equivariance,
    objective,
    psnr,
    train,
    train_step,
)

from naive_ref import measure_equivariance_whole_shard

G4 = RotationGroup(4)


def tiny_net(seed=0, in_ch=1, out_ch=1, dtype=np.float32, group=G4):
    net = network_astype(build_network(in_ch, out_ch, group, n_hidden=2, depth=3), dtype)
    return init_weights(net, seed)


def lifted_network(weight):
    """Depth-2 residual C4 net whose hidden map is the lift of weight and whose output is its input.

    The first conv is lifted_conv(weight, G4); the last conv is zero.
    """
    first = lifted_conv(weight, G4)
    n, cin, p, _ = weight.shape
    last = ConvParams(np.zeros((cin, first.out_channels, p, p)), np.zeros(cin))
    return Network([first, last], G4, n)


def tiny_batch(seed, b=4, ch=1, size=8):
    rng = np.random.default_rng(seed)
    x = rng.random((b, ch, size, size), dtype=np.float32)
    clean = rng.random((b, 1, size, size), dtype=np.float32)
    return x, clean


class TestPsnr:
    def test_uniform_error_closed_forms(self):
        ref = np.zeros((1, 1, 8, 8))
        assert abs(psnr(ref + 0.1, ref) - 20.0) < 1e-9
        assert abs(psnr(ref + 0.01, ref) - 40.0) < 1e-9

    def test_identical_images_sentinel(self):
        x = np.random.default_rng(0).random((1, 1, 4, 4))
        assert psnr(x, x) == 99.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 5, 5)))

    def test_known_mse(self):
        # MSE of 0.25 -> 10 log10(4)
        ref = np.zeros((1, 1, 2, 2))
        assert math.isclose(psnr(ref + 0.5, ref), 10 * math.log10(4.0), rel_tol=1e-12)


class TestAdam:
    def test_first_step_closed_form(self):
        # from zero moments, one step moves each coordinate by
        # lr * g / (|g| + eps) regardless of g's magnitude
        net = tiny_net(seed=1, dtype=np.float64)
        before = network_copy(net)
        adam = AdamState.zeros(net)
        cfg = TrainConfig(steps=1, lr=1e-3)
        rng = np.random.default_rng(2)
        grads = [
            (rng.standard_normal(p.weight.shape), rng.standard_normal(p.bias.shape))
            for p in net.conv_params
        ]
        adam_update(net, grads, adam, cfg)
        assert adam.t == 1
        for p0, p1, (gw, gb) in zip(before.conv_params, net.conv_params, grads):
            want_w = p0.weight - cfg.lr * gw / (np.abs(gw) + ADAM_EPS)
            want_b = p0.bias - cfg.lr * gb / (np.abs(gb) + ADAM_EPS)
            np.testing.assert_allclose(p1.weight, want_w, rtol=0, atol=1e-12)
            np.testing.assert_allclose(p1.bias, want_b, rtol=0, atol=1e-12)

    def test_two_steps_closed_form(self):
        net = tiny_net(seed=3, dtype=np.float64)
        before = network_copy(net)
        adam = AdamState.zeros(net)
        cfg = TrainConfig(steps=1, lr=1e-2)
        g = [(np.ones_like(p.weight), np.ones_like(p.bias)) for p in net.conv_params]
        adam_update(net, g, adam, cfg)
        adam_update(net, g, adam, cfg)
        # constant unit gradient: mhat = 1, vhat = 1 at every step
        moved = 2 * cfg.lr * 1.0 / (1.0 + ADAM_EPS)
        for p0, p1 in zip(before.conv_params, net.conv_params):
            np.testing.assert_allclose(p0.weight - p1.weight, moved, rtol=0, atol=1e-12)

    def test_zero_gradient_keeps_weights(self):
        net = tiny_net(seed=4)
        before = network_copy(net)
        adam = AdamState.zeros(net)
        g = [(np.zeros_like(p.weight), np.zeros_like(p.bias)) for p in net.conv_params]
        adam_update(net, g, adam, TrainConfig(steps=1))
        for p0, p1 in zip(before.conv_params, net.conv_params):
            assert p0.weight.tobytes() == p1.weight.tobytes()


class TestTrainStep:
    def test_zero_lr_is_bitwise_noop(self):
        net = tiny_net(seed=5)
        before = network_copy(net)
        cfg = TrainConfig(steps=1, lr=0.0)
        state = init_state(net, cfg)
        train_step(state, tiny_batch(6), cfg)
        for p0, p1 in zip(before.conv_params, net.conv_params):
            assert p0.weight.tobytes() == p1.weight.tobytes()
            assert p0.bias.tobytes() == p1.bias.tobytes()

    def test_losses_reported_and_deterministic(self):
        def run():
            net = tiny_net(seed=7)
            cfg = TrainConfig(steps=1)
            state = init_state(net, cfg)
            return train_step(state, tiny_batch(8), cfg)

        a, b = run(), run()
        assert a == b
        assert set(a) == {"step", "k", "task", "equi", "total"}
        assert a["step"] == 1 and a["k"] in (1, 2, 3)
        assert math.isclose(a["total"], a["task"] + 0.1 * a["equi"], rel_tol=1e-12)

    def test_lambda_zero_leaves_equi_out_of_total(self):
        net = tiny_net(seed=9)
        cfg = TrainConfig(steps=1, eqreg=EqRegConfig(lam=0.0))
        state = init_state(net, cfg)
        losses = train_step(state, tiny_batch(10), cfg)
        assert losses["equi"] > 0.0
        assert losses["total"] == losses["task"]

    def test_lambda_zero_matches_plain_supervised_update(self):
        # the regularizer gradient path must be fully disabled at lam 0:
        # the weight update equals one computed with no rotated branch at all
        batch = tiny_batch(11)
        cfg = TrainConfig(steps=1, eqreg=EqRegConfig(lam=0.0))
        net_a = tiny_net(seed=12)
        state = init_state(net_a, cfg)
        train_step(state, batch, cfg)

        net_b = tiny_net(seed=12)
        x, clean = batch
        out, tape = forward_with_tape(net_b, x)
        from eqreg.model import backprop

        g = (2.0 / clean.size) * (out.astype(np.float64) - clean)
        grads = backprop(net_b, tape, grad_output=g)
        adam = AdamState.zeros(net_b)
        adam_update(net_b, grads, adam, cfg)
        for pa, pb in zip(net_a.conv_params, net_b.conv_params):
            np.testing.assert_allclose(pa.weight, pb.weight, rtol=0, atol=1e-7)

    def test_step_counter_advances(self):
        net = tiny_net(seed=13)
        cfg = TrainConfig(steps=3)
        state = init_state(net, cfg)
        for want in (1, 2, 3):
            assert train_step(state, tiny_batch(14), cfg)["step"] == want

    def test_nan_aborts(self):
        net = tiny_net(seed=15)
        cfg = TrainConfig(steps=1)
        state = init_state(net, cfg)
        x, clean = tiny_batch(16)
        x = x.copy()
        x[0, 0, 0, 0] = np.nan
        with pytest.raises(NumericsError, match="non-finite"):
            train_step(state, (x, clean), cfg)

    def test_non_finite_update_keeps_weights(self):
        net = tiny_net(seed=15)
        cfg = TrainConfig(steps=1, lr=1e39)
        state = init_state(net, cfg)
        before = [(p.weight.tobytes(), p.bias.tobytes()) for p in net.conv_params]
        with np.errstate(over="ignore"), pytest.raises(NumericsError, match="non-finite"):
            train_step(state, tiny_batch(16), cfg)
        assert [(p.weight.tobytes(), p.bias.tobytes()) for p in state.net.conv_params] == before

    @pytest.mark.parametrize("out_ch, clean_ch", [(3, 1), (1, 3)])
    def test_clean_channels_must_match_output(self, out_ch, clean_ch):
        # a 3-output net against 1-channel targets used to broadcast and train;
        # the reverse failed deep inside the conv backward
        net = tiny_net(seed=17, in_ch=3, out_ch=out_ch)
        cfg = TrainConfig(steps=1)
        state = init_state(net, cfg)
        x = np.random.default_rng(0).random((4, 3, 8, 8), dtype=np.float32)
        clean = np.zeros((4, clean_ch, 8, 8), dtype=np.float32)
        before = [p.weight.tobytes() for p in net.conv_params]
        with pytest.raises(ValueError, match="output channels"):
            train_step(state, (x, clean), cfg)
        assert [p.weight.tobytes() for p in state.net.conv_params] == before and state.adam.t == 0

    def test_empty_batch_rejected(self):
        net = tiny_net(seed=17)
        cfg = TrainConfig(steps=1)
        state = init_state(net, cfg)
        with pytest.raises(ValueError):
            train_step(state, (np.zeros((0, 1, 8, 8)), np.zeros((0, 1, 8, 8))), cfg)

    def test_loss_decreases_on_fixed_batch(self):
        net = tiny_net(seed=18)
        cfg = TrainConfig(steps=1, lr=5e-3)
        state = init_state(net, cfg)
        batch = tiny_batch(19)
        first = train_step(state, batch, cfg)["total"]
        for _ in range(60):
            last = train_step(state, batch, cfg)["total"]
        assert last < 0.5 * first

    def test_refused_update_keeps_adam_state(self):
        net = tiny_net(seed=15)
        cfg = TrainConfig(steps=1, lr=1e39)
        state = init_state(net, cfg)
        with np.errstate(over="ignore"), pytest.raises(NumericsError, match="non-finite"):
            train_step(state, tiny_batch(16), cfg)
        assert state.adam.t == 0
        for m in (*state.adam.m, *state.adam.v):
            assert not any(a.any() for a in m)

    @staticmethod
    def step_bits(threads, executor=None, b=6):
        net = tiny_net(seed=21)
        cfg = TrainConfig(steps=1, threads=threads)
        state = init_state(net, cfg)
        state.executor = executor
        losses = train_step(state, tiny_batch(20, b=b), cfg)
        params = [(p.weight.tobytes(), p.bias.tobytes()) for p in net.conv_params]
        return losses, params

    def test_threads_match_single_thread(self):
        batch = tiny_batch(20, b=6)
        results = {}
        for threads in (1, 2):
            net = tiny_net(seed=21)
            cfg = TrainConfig(steps=1, threads=threads)
            state = init_state(net, cfg)
            with ThreadPoolExecutor(max_workers=2) as pool:
                state.executor = pool if threads > 1 else None
                losses = train_step(state, batch, cfg)
            results[threads] = (losses, [p.weight.copy() for p in net.conv_params])
        a, b = results[1], results[2]
        assert math.isclose(a[0]["total"], b[0]["total"], rel_tol=1e-10)
        for wa, wb in zip(a[1], b[1]):
            np.testing.assert_allclose(wa, wb, rtol=1e-6, atol=1e-9)

    def test_pool_size_does_not_change_bits(self):
        # batch 10 runs as chunks of 4, 4 and 2 on any pool
        runs = []
        for workers in (2, 3, 4):
            with ThreadPoolExecutor(max_workers=workers) as pool:
                runs.append(self.step_bits(workers, pool, b=10))
        assert runs[0] == runs[1] == runs[2]

    def test_no_executor_runs_whole_batch(self):
        # without a pool, cfg.threads does not split the batch
        assert self.step_bits(2, None, b=10) == self.step_bits(1, None, b=10)


class TestObjectiveReuse:
    # C8 with output consistency is the one config whose objective reads the
    # plain output after the rotated forward has run, so a conv buffer reused
    # across calls that reached the output would show only here
    def test_c8_oc_bits_do_not_depend_on_earlier_calls(self):
        group = RotationGroup(8)
        net = init_weights(build_network(2, 1, group, n_hidden=4), 31)
        data = make_dataset("inpaint", 72, 32, sigma=0.05)
        x, clean = data.inputs()[:8], data.clean[:8]
        reg = EqRegConfig(lam=0.1, output_consistency=True)
        k = 3

        def bits(result):
            losses, grads = result
            return losses, [(gw.tobytes(), gb.tobytes()) for gw, gb in grads]

        def run():
            twice = [bits(objective(net, (x, clean), k, reg)) for _ in range(2)]
            forward_with_tape(net, data.inputs()[8:])
            after_large = bits(objective(net, (x, clean), k, reg))
            plain, tape = forward_with_tape(net, x)
            rotated, _ = forward_with_tape(net, group.rotate_image(x, k))
            return twice, after_large, plain, tape, rotated

        with ThreadPoolExecutor(max_workers=2) as pool:  # fresh threads: their conv workspaces start empty
            twice, after_large, plain, tape, rotated = pool.submit(run).result(timeout=300)
            pooled = [f.result(timeout=300) for f in
                      [pool.submit(objective, net, (x, clean), k, reg) for _ in range(2)]]
        runs = twice + [after_large] + [bits(r) for r in pooled]
        assert all(r == runs[0] for r in runs)

        # the plain branch's tape and output, recorded before the rotated forward, still hold
        for p, a, h in zip(net.conv_params, [x, *tape.hidden], tape.hidden):
            assert relu_forward(conv2d_forward(a, p)).tobytes() == h.tobytes()
        losses = runs[0][0]
        assert losses["task"] == float(np.sum(np.square(plain - clean, dtype=np.float64))) / clean.size
        oc_sq = mismatch(plain, rotated, k, group.rotate_image, group.rotate_image_adjoint, clean.size)[0]
        assert losses["output_consistency"] == oc_sq / clean.size


class TestReportedLossesMatchOracles:
    # report.csv's equi and output_consistency columns are objective's fast
    # float64 sums; over the same batch they must agree with the exact oracles
    @pytest.mark.parametrize("order, reg", [
        (4, EqRegConfig(lam=0.1)),
        (8, EqRegConfig(lam=0.1, output_consistency=True)),
    ], ids=["c4", "c8-oc"])
    def test_objective_matches_exact_oracles(self, order, reg):
        group = RotationGroup(order)
        net = tiny_net(seed=60, group=group)
        x, clean = tiny_batch(61, b=6)  # chunks of 4 and 2 on the pool
        out, tp = forward_with_tape(net, x)
        with ThreadPoolExecutor(max_workers=2) as pool:
            for k in range(1, order):
                out_r, tr = forward_with_tape(net, group.rotate_image(x, k))
                for executor in (None, pool):
                    losses = objective(net, (x, clean), k, reg, executor)[0]
                    assert math.isclose(losses["equi"], equi_loss(tp, tr, k, group), rel_tol=1e-12)
                    if reg.output_consistency:
                        oc = exact_mismatch(out, out_r, k, group.rotate_image)
                        assert math.isclose(losses["output_consistency"], oc, rel_tol=1e-12)


class TestFullObjectiveGradient:
    # the "sum" cases scale lam and the oc weight by their terms' element
    # counts (2 images x 8 or 16 channels x 64 pixels, and 2 x 1 x 64), so
    # each term weighs its squared sum, not its mean
    @pytest.mark.parametrize("order, reg", [
        (4, EqRegConfig(lam=0.1)),
        (4, EqRegConfig(lam=0.1 * 1024)),
        (8, EqRegConfig(lam=0.1 * 2048, output_consistency=True, output_consistency_weight=0.5 * 128)),
    ], ids=["c4-mean", "c4-sum", "c8-oc-sum"])
    def test_finite_difference(self, order, reg):
        # the grads objective returns, which train_step hands to adam_update,
        # against central differences of the exact loss oracles, float64 end to end
        group = RotationGroup(order)
        net = tiny_net(seed=22, dtype=np.float64, group=group)
        rng = np.random.default_rng(23)
        x = rng.random((2, 1, 8, 8))
        clean = rng.random((2, 1, 8, 8))
        k = 2 if order == 4 else 3  # a quarter turn on C4, an interpolated 135 degrees on C8

        def exact(n):
            out, tp = forward_with_tape(n, x)
            out_r, tr = forward_with_tape(n, group.rotate_image(x, k))
            task = float(np.mean(np.square(out - clean)))
            oc = exact_mismatch(out, out_r, k, group.rotate_image)
            return total_loss(task, equi_loss(tp, tr, k, group), reg, oc)

        _, grads = objective(net, (x, clean), k, reg)

        checked = 0
        for li in range(len(grads)):
            gw = grads[li][0]
            for _ in range(3):
                idx = tuple(int(rng.integers(0, s)) for s in gw.shape)
                dup = network_copy(net)
                dup.conv_params[li].weight[idx] += 1e-5
                up = exact(dup)
                dup = network_copy(net)
                dup.conv_params[li].weight[idx] -= 1e-5
                down = exact(dup)
                num = (up - down) / 2e-5
                rel = abs(num - gw[idx]) / max(abs(num), abs(gw[idx]), 1e-10)
                assert rel < 1e-4, (li, idx, num, gw[idx])
                checked += 1
        assert checked >= 9


class TestEvaluate:
    def test_identity_restoration_sentinel(self):
        # zero-weight residual net returns its input, so evaluating against
        # the input itself gives the sentinel
        net = build_network(1, 1, G4, n_hidden=2, depth=3)
        ds = make_dataset("denoise", 4, seed=24, sigma=0.0)
        assert evaluate(net, ds) == 99.0

    def test_known_noise_level(self):
        net = build_network(1, 1, G4, n_hidden=2, depth=3)
        ds = make_dataset("denoise", 30, seed=25, sigma=0.1)
        mean_psnr = evaluate(net, ds)
        # identity net leaves sigma^2 of error: 20 dB, loosely
        assert abs(mean_psnr - 20.0) < 0.5

    def test_empty_dataset_rejected(self):
        net = build_network(1, 1, G4, n_hidden=2, depth=3)
        ds = make_dataset("denoise", 1, seed=26)
        ds.degraded = ds.degraded[:0]
        ds.clean = ds.clean[:0]
        with pytest.raises(ValueError, match="empty"):
            evaluate(net, ds)


class TestMeasureEquivariance:
    def test_identity_net_output_error_zero(self):
        # residual identity commutes with rotation exactly
        net = build_network(1, 1, G4, n_hidden=2, depth=3)
        ds = make_dataset("denoise", 3, seed=27)
        rep = measure_equivariance(net, ds)
        assert rep.e_out_mean == 0.0
        assert set(rep.output_errors) == {1, 2, 3}

    def test_zero_feature_norm_counts_as_zero_error(self):
        net = build_network(1, 1, G4, n_hidden=2, depth=3)
        ds = make_dataset("denoise", 2, seed=28)
        rep = measure_equivariance(net, ds)
        assert rep.e_feat_mean == 0.0

    def test_lifting_oracle_feature_error_vanishes(self):
        rng = np.random.default_rng(29)
        net = lifted_network(rng.standard_normal((2, 1, 3, 3)))
        ds = make_dataset("denoise", 3, seed=30)
        rep = measure_equivariance(net, ds)
        for k, feats in rep.feature_errors.items():
            for e in feats:
                assert e < 1e-15, (k, e)
        assert rep.e_out_mean == 0.0

    def test_outputs_unlike_clean_stack_rejected(self):
        # four output channels against a one-channel clean stack have no PSNR
        net = build_network(1, 4, G4, residual=False)
        ds = make_dataset("denoise", 3, seed=30)
        with pytest.raises(ValueError, match="shape mismatch"):
            measure_equivariance(net, ds)

    def test_random_net_has_nonzero_errors(self):
        net = tiny_net(seed=31)
        ds = make_dataset("denoise", 3, seed=32)
        rep = measure_equivariance(net, ds)
        assert rep.e_feat_mean > 0.01
        assert rep.e_out_mean > 0.0

    def test_csv_rows_shape(self):
        net = tiny_net(seed=33)
        ds = make_dataset("denoise", 2, seed=34)
        rep = measure_equivariance(net, ds)
        header, rows = rep.csv_rows()
        assert header == ["k", "e_out", "e_feat_l0", "e_feat_l1"]
        assert [r[0] for r in rows] == [1, 2, 3]


def same_report(rep, psnr_value, output_errors, feature_errors):
    """Bit-for-bit equality of an EquivReport with the given fields."""
    return rep.psnr == psnr_value and rep.output_errors == output_errors and rep.feature_errors == feature_errors


def meter_case(name):
    if name == "oracle":
        weight = np.random.default_rng(50).standard_normal((2, 1, 3, 3))
        return lifted_network(weight), make_dataset("denoise", 37, seed=51)
    order, n_hidden, count = {"c4-37": (4, 2, 37), "c4-200": (4, 8, 200), "c8-37": (8, 4, 37)}[name]
    net = init_weights(build_network(1, 1, RotationGroup(order), n_hidden=n_hidden), seed=52)
    return net, make_dataset("denoise", count, seed=53)


class TestStreamedMeter:
    @pytest.mark.parametrize("name", ["c4-37", "c4-200", "c8-37", "oracle"])
    def test_batch_64_matches_whole_shard_meter(self, name, monkeypatch):
        net, ds = meter_case(name)
        monkeypatch.setattr(trainer, "STEP_CHUNK", 64)
        rep = measure_equivariance(net, ds)
        assert same_report(rep, *measure_equivariance_whole_shard(net, ds, batch_size=64))

    @pytest.mark.parametrize("name", ["c4-37", "c8-37", "oracle"])
    def test_two_threads_match_one(self, name):
        net, ds = meter_case(name)
        one = measure_equivariance(net, ds)
        with ThreadPoolExecutor(max_workers=2) as pool:
            two = measure_equivariance(net, ds, executor=pool)
        assert same_report(two, one.psnr, one.output_errors, one.feature_errors)

    @pytest.mark.parametrize("batch_size", [4, 8, 16, 32])
    def test_small_batches_stay_close_to_batch_64(self, batch_size, monkeypatch):
        # the 32->1 conv's shifted-GEMM sums depend on the GEMM width, so the
        # output and PSNR move in the last bits; the hidden-map errors held
        # still in every case tried, and share the bound
        for name in ("c4-37", "c8-37"):
            net, ds = meter_case(name)
            monkeypatch.setattr(trainer, "STEP_CHUNK", 64)
            ref = measure_equivariance(net, ds)
            monkeypatch.setattr(trainer, "STEP_CHUNK", batch_size)
            rep = measure_equivariance(net, ds)
            assert abs(rep.psnr - ref.psnr) <= 1e-8 * abs(ref.psnr)
            for k, e in ref.output_errors.items():
                assert abs(rep.output_errors[k] - e) <= 1e-8 * abs(e), (name, k)
                np.testing.assert_allclose(rep.feature_errors[k], ref.feature_errors[k], rtol=1e-8, atol=0)

    def test_evaluate_threads_and_batches(self, monkeypatch):
        net = tiny_net(seed=54)
        ds = make_dataset("denoise", 21, seed=55)
        one = evaluate(net, ds)
        with ThreadPoolExecutor(max_workers=2) as pool:
            two = evaluate(net, ds, executor=pool)
        assert two == one
        monkeypatch.setattr(trainer, "STEP_CHUNK", 64)
        assert evaluate(net, ds) == measure_equivariance_whole_shard(net, ds)[0]

    def test_peak_memory_does_not_grow_with_the_dataset(self):
        net = init_weights(build_network(1, 1, G4), seed=56)

        def peak(count):
            ds = make_dataset("denoise", count, seed=57)
            tracemalloc.start()
            try:
                measure_equivariance(net, ds)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(50), peak(200)
        assert large <= 1.1 * small, (small, large)

    def test_train_report_same_at_two_threads(self):
        net = tiny_net(seed=58)
        train_ds = make_dataset("denoise", 16, seed=59)
        eval_ds = make_dataset("denoise", 11, seed=60)
        cfg = TrainConfig(steps=3, batch_size=4, eval_period=3, threads=2)
        out, _, rep = train(net, train_ds, cfg, eval_data=eval_ds)
        one = measure_equivariance(out, eval_ds)
        assert same_report(rep, one.psnr, one.output_errors, one.feature_errors)


class TestTrainLoop:
    @pytest.mark.parametrize("lr", [math.nan, math.inf])
    def test_non_finite_lr_rejected(self, lr):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(steps=1, lr=lr)

    def test_artifacts_and_report(self, tmp_path):
        net = tiny_net(seed=35)
        train_ds = make_dataset("denoise", 16, seed=36)
        eval_ds = make_dataset("denoise", 4, seed=37)
        cfg = TrainConfig(steps=6, batch_size=4, eval_period=3, out_dir=str(tmp_path))
        out, rows, rep = train(net, train_ds, cfg, eval_data=eval_ds)
        assert (tmp_path / "config.json").exists()
        assert (tmp_path / "report.csv").exists()
        assert (tmp_path / "ckpt_000003.eqnet").exists()
        assert (tmp_path / "ckpt_final.eqnet").exists()
        assert [r["step"] for r in rows] == [3, 6]
        assert rows[-1]["step"] == 6
        conf = json.loads((tmp_path / "config.json").read_text())
        assert conf["steps"] == 6 and conf["eqreg"]["lam"] == 0.1
        assert conf["out_dir"] == str(tmp_path)

    def test_training_shard_clean_channels_refused_before_writing(self, tmp_path):
        net = init_weights(build_network(1, 2, G4, n_hidden=1, residual=False), 0)
        out = tmp_path / "o"
        with pytest.raises(ValueError, match="training shard has 1 clean channels"):
            train(net, make_dataset("denoise", 8, seed=1), TrainConfig(steps=2, eval_period=1, out_dir=str(out)))
        assert not out.exists()

    def test_eval_shard_clean_channels_refused_before_writing(self, tmp_path):
        ds = make_dataset("denoise", 8, seed=2)
        two_channel = Dataset(ds.degraded, np.concatenate([ds.clean, ds.clean], axis=1), None, ds.meta)
        out = tmp_path / "o"
        with pytest.raises(ValueError, match="eval shard has 2 clean channels"):
            train(tiny_net(seed=3), ds, TrainConfig(steps=2, eval_period=1, out_dir=str(out)), eval_data=two_channel)
        assert not out.exists()

    def test_in_memory_run_no_out_dir(self):
        net = tiny_net(seed=38)
        ds = make_dataset("denoise", 8, seed=39)
        cfg = TrainConfig(steps=2, batch_size=4, eval_period=2)
        _, rows, rep = train(net, ds, cfg)
        assert len(rows) == 1 and rep is not None

    def test_artifacts_same_at_any_pool_size(self, tmp_path):
        train_ds = make_dataset("denoise", 16, seed=61)
        eval_ds = make_dataset("denoise", 5, seed=62)
        for threads in (2, 3):
            cfg = TrainConfig(steps=4, batch_size=10, eval_period=2, threads=threads,
                              out_dir=str(tmp_path / f"t{threads}"))
            train(tiny_net(seed=63), train_ds, cfg, eval_data=eval_ds)
        for name in ("report.csv", "ckpt_000002.eqnet", "ckpt_000004.eqnet", "ckpt_final.eqnet"):
            assert (tmp_path / "t2" / name).read_bytes() == (tmp_path / "t3" / name).read_bytes(), name

    def test_same_seed_same_weights(self):
        def run():
            net = tiny_net(seed=40)
            ds = make_dataset("denoise", 8, seed=41)
            cfg = TrainConfig(steps=4, batch_size=4, eval_period=4)
            out, _, _ = train(net, ds, cfg)
            return [p.weight.tobytes() for p in out.conv_params]

        assert run() == run()
