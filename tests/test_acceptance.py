"""Acceptance gate: one test per release criterion, pinned tolerances.

Each test prints a single summary line with the measured values; the pytest
verdict for the test IS the pass/fail line for that criterion. The two
experiment tests at the bottom train real networks and dominate the runtime;
their four arms share one two-process pool, and each test's time is counted
from that pool's start.
"""

import math
import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from eqreg.data import make_dataset
from eqreg.group import RotationGroup
from eqreg.losses import EqRegConfig, equi_loss
from eqreg.model import (
    build_network,
    forward_with_tape,
    init_weights,
    lifted_conv,
    network_astype,
    network_copy,
)
from eqreg.tensor import conv2d_forward, frobenius_sq
from eqreg.trainer import TrainConfig, objective, psnr, train

G4 = RotationGroup(4)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _inner(a, b):
    return math.fsum((np.asarray(a, dtype=np.float64) * np.asarray(b, dtype=np.float64)).ravel().tolist())


def test_group_action_laws_exact():
    # identity, composition, inverse, and norm preservation must hold with
    # EXACT equality for t=4 over 1000 random features, in under 10 s
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    for trial in range(1000):
        b = int(rng.integers(1, 3))
        n = int(rng.integers(1, 5))
        s = int(rng.integers(2, 17))
        f = rng.standard_normal((b, 4 * n, s, s))
        a, k = int(rng.integers(0, 4)), int(rng.integers(0, 4))

        assert np.array_equal(G4.feature_transform(f, 0), f)
        lhs = G4.feature_transform(G4.feature_transform(f, k), a)
        rhs = G4.feature_transform(f, (a + k) % 4)
        assert np.array_equal(lhs, rhs)
        back = G4.feature_transform(G4.feature_transform(f, k), (4 - k) % 4)
        assert np.array_equal(back, f)
        assert frobenius_sq(G4.feature_transform(f, k)) == frobenius_sq(f)
    dt = time.monotonic() - t0
    print(f"group-action laws: 1000 trials exact in {dt:.2f}s")
    assert dt < 10.0


def test_adjoint_identity():
    # <FT x, y> == <x, FT^T y>: exact for the quarter-turn groups, 1e-10 for
    # the interpolated t=8 path
    rng = np.random.default_rng(77)
    for order in (2, 4):
        g = RotationGroup(order)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(1, 4))
            s = int(rng.integers(3, 13))
            x = rng.standard_normal((1, order * n, s, s))
            y = rng.standard_normal((1, order * n, s, s))
            k = int(rng.integers(0, order))
            lhs = _inner(g.feature_transform(x, k), y)
            rhs = _inner(x, g.feature_transform_adjoint(y, k))
            worst = max(worst, abs(lhs - rhs))
        print(f"adjoint t={order}: worst abs gap {worst:.3g}")
        assert worst == 0.0

    g8 = RotationGroup(8)
    worst = 0.0
    for _ in range(50):
        x = rng.standard_normal((1, 8, 9, 9))
        y = rng.standard_normal((1, 8, 9, 9))
        k = int(rng.integers(0, 8))
        lhs = _inner(g8.feature_transform(x, k), y)
        rhs = _inner(x, g8.feature_transform_adjoint(y, k))
        scale = max(abs(lhs), abs(rhs), 1.0)
        worst = max(worst, abs(lhs - rhs) / scale)
    print(f"adjoint t=8: worst rel gap {worst:.3g}")
    assert worst <= 1e-10


def test_lifting_layer_loss_vanishes():
    # a lifted convolution is equivariant by construction, so the squared
    # mismatch of its features sits at float64 rounding noise, far below 1e-18
    rng = np.random.default_rng(321)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        cin = int(rng.integers(1, 3))
        s = int(rng.integers(4, 13))
        lifted = lifted_conv(rng.standard_normal((n, cin, 3, 3)), G4)
        x = rng.standard_normal((1, cin, s, s))
        lift = conv2d_forward(x, lifted)
        for k in range(4):
            rot = conv2d_forward(G4.rotate_image(x, k), lifted)
            worst = max(worst, frobenius_sq(G4.feature_transform(lift, k) - rot))
    print(f"lifting squared mismatch: worst {worst:.3g} over 100 trials x 4 rotations")
    assert worst < 1e-18


def test_full_objective_gradient():
    # analytic gradient of MSE + 0.1 * equi versus central differences on the
    # default architecture, >= 100 weight coordinates, rel err < 1e-4
    t0 = time.monotonic()
    net = init_weights(network_astype(build_network(1, 1, G4, n_hidden=8, depth=3), np.float64), 5)
    rng = np.random.default_rng(6)
    x = rng.random((2, 1, 8, 8))
    clean = rng.random((2, 1, 8, 8))
    k = 1
    cfg = EqRegConfig(lam=0.1)

    def exact(n):
        out, tp = forward_with_tape(n, x)
        _, tr = forward_with_tape(n, G4.rotate_image(x, k))
        return float(np.mean(np.square(out - clean))) + cfg.lam * equi_loss(tp, tr, k, G4)

    # the gradient train_step hands to adam_update
    _, grads = objective(net, (x, clean), k, cfg)

    checked, worst = 0, 0.0
    for li, (gw, _) in enumerate(grads):
        for _ in range(34):
            idx = tuple(int(rng.integers(0, d)) for d in gw.shape)
            up, down = network_copy(net), network_copy(net)
            up.conv_params[li].weight[idx] += 1e-5
            down.conv_params[li].weight[idx] -= 1e-5
            num = (exact(up) - exact(down)) / 2e-5
            rel = abs(num - gw[idx]) / max(abs(num), abs(gw[idx]), 1e-10)
            worst = max(worst, rel)
            checked += 1
    dt = time.monotonic() - t0
    print(f"gradient check: {checked} coords, worst rel err {worst:.3g}, {dt:.1f}s")
    assert checked >= 100
    assert worst < 1e-4
    assert dt < 120.0


def test_train_determinism():
    # identical flags and seed must reproduce checkpoints and reports byte
    # for byte in single-thread mode
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shard = tmp / "shard"
        run = [sys.executable, "-m", "eqreg"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        subprocess.run(
            run + ["gen-data", "--out", str(shard), "--count", "24", "--seed", "4"],
            check=True, capture_output=True, env=env,
        )
        outs = []
        for name in ("a", "b"):
            d = tmp / name
            res = subprocess.run(
                run + ["train", "--data", str(shard), "--out", str(d),
                       "--steps", "25", "--batch", "4", "--seed", "11",
                       "--eval-period", "25"],
                capture_output=True, text=True, env=env,
            )
            assert res.returncode == 0, res.stderr
            outs.append(d)
        ck = [(d / "ckpt_final.eqnet").read_bytes() for d in outs]
        cs = [(d / "report.csv").read_bytes() for d in outs]
        print(f"determinism: checkpoints {len(ck[0])}B identical={ck[0] == ck[1]}, "
              f"reports identical={cs[0] == cs[1]}")
        assert ck[0] == ck[1]
        assert cs[0] == cs[1]


def test_psnr_unit_values():
    ref = np.zeros((1, 1, 16, 16))
    p20 = psnr(ref + 0.1, ref)
    p40 = psnr(ref + 0.01, ref)
    print(f"psnr closed forms: {p20!r}, {p40!r}")
    assert abs(p20 - 20.0) < 1e-9
    assert abs(p40 - 40.0) < 1e-9


def _train_arm(task, lam, train_ds, eval_ds):
    """One arm of an experiment; module-level so a spawned worker can import it."""
    net = build_network(train_ds.inputs().shape[1], train_ds.clean.shape[1], G4)
    net = init_weights(net, 0)
    cfg = TrainConfig(
        steps=2000, batch_size=8, lr=2e-3, seed=0, task=task,
        eval_period=2000, eqreg=EqRegConfig(lam=lam),
    )
    _, _, report = train(net, train_ds, cfg, eval_data=eval_ds)
    return report


# test name -> (task, sigma, mask_rate, (train data seed, eval data seed))
EXPERIMENTS = {
    "test_denoise_regularizer_effect": ("denoise", 0.1, None, (100, 101)),
    "test_inpaint_smoke": ("inpaint", 0.05, 0.3, (200, 201)),
}


@pytest.fixture(scope="module")
def experiments(request):
    """The lam=0 and lam=0.1 arms of every selected experiment, on one pool.

    Two spawned workers, which inherit the one-thread BLAS setting of the
    root conftest.py, take the lam=0.1 arms first and then the cheaper lam=0
    ones. Yields (start time, {test name: (eval_ds, {lam: future})}); the
    pool starts when the first experiment test runs.
    """
    selected = {item.name for item in request.session.items}
    start = time.monotonic()
    shards = {}
    for name, (task, sigma, mask_rate, seeds) in EXPERIMENTS.items():
        if name in selected:
            kwargs = {"sigma": sigma}
            if task == "inpaint":
                kwargs["mask_rate"] = mask_rate
            shards[name] = [make_dataset(task, count, seed=seed, **kwargs) for count, seed in zip((500, 100), seeds)]
    with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn")) as pool:
        arms = {name: {} for name in shards}
        for lam in (0.1, 0.0):
            for name, (train_ds, eval_ds) in shards.items():
                arms[name][lam] = pool.submit(_train_arm, EXPERIMENTS[name][0], lam, train_ds, eval_ds)
        yield start, {name: (shards[name][1], arms[name]) for name in shards}


def _pair_results(experiments, name):
    """(eval_ds, reports keyed by lam, seconds from the pool's start until both reports are in)."""
    start, pairs = experiments
    eval_ds, arms = pairs[name]
    reports = {lam: arm.result() for lam, arm in arms.items()}
    return eval_ds, reports, time.monotonic() - start


def test_denoise_regularizer_effect(experiments):
    # the regularized arm must at least halve the feature equivariance error
    # without giving up more than 0.5 dB of PSNR
    _, reports, dt = _pair_results(experiments, "test_denoise_regularizer_effect")
    e0, e1 = reports[0.0].e_feat_mean, reports[0.1].e_feat_mean
    p0, p1 = reports[0.0].psnr, reports[0.1].psnr
    ratio = e1 / e0
    print(
        f"denoise: e_feat {e1:.4f} vs {e0:.4f} (ratio {ratio:.3f}), "
        f"psnr {p1:.3f} vs {p0:.3f} dB, {dt/60:.1f} min"
    )
    assert ratio <= 0.5, f"feature error ratio {ratio:.3f} exceeds 0.5"
    assert p1 >= p0 - 0.5, f"psnr dropped by {p0 - p1:.3f} dB"
    assert dt < 15 * 60


def test_inpaint_smoke(experiments):
    # KNOWN LIMITATION, kept as an honest red: the masked-restoration gain
    # clears +3 dB with a wide margin, but at lam=0.1 the relative feature
    # error only drops to about 0.8x of the baseline, not the required 0.5x.
    # The penalty drives the absolute feature mismatch down by nearly two
    # orders of magnitude, yet it does so partly by shrinking feature norms,
    # which a relative error metric is blind to. See the calibration notes in
    # the run ledger; no in-protocol setting reached 0.5x.
    eval_ds, reports, dt = _pair_results(experiments, "test_inpaint_smoke")
    baseline = float(np.mean([psnr(d, c) for d, c in zip(eval_ds.degraded, eval_ds.clean)]))
    e0, e1 = reports[0.0].e_feat_mean, reports[0.1].e_feat_mean
    p0, p1 = reports[0.0].psnr, reports[0.1].psnr
    ratio = e1 / e0
    print(
        f"inpaint: masked input {baseline:.3f} dB, trained {p1:.3f}/{p0:.3f} dB "
        f"(gain {p1 - baseline:+.3f}), e_feat {e1:.4f} vs {e0:.4f} "
        f"(ratio {ratio:.3f}), {dt/60:.1f} min"
    )
    assert p1 >= baseline + 3.0, f"gain {p1 - baseline:.3f} dB below +3 dB"
    assert p0 >= baseline + 3.0, f"baseline arm gain {p0 - baseline:.3f} dB below +3 dB"
    assert ratio <= 0.5, (
        f"feature error ratio {ratio:.3f} exceeds 0.5; the +3 dB clause passed "
        f"({p1 - baseline:+.2f} dB). Norm shrinkage, not alignment, absorbs the "
        f"penalty on this task; every tried learning rate, batch size, and seed "
        f"stayed in the 0.65-1.0 range."
    )
