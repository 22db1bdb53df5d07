"""Correctness checks for the training benchmark.

Every check recomputes its answer apart from the code under test or rests on
a property of the method; none compares against a stored copy of earlier
output. Each returns (ok, detail).
"""

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from eqreg import trainer
from eqreg.model import describe_architecture, forward_with_tape, network_astype, network_copy
from eqreg.tensor import ConvParams

from spans import patched

FD_STEP = 1e-6
FD_RTOL = 1e-6  # float64 central differences along unit directions
THREAD_RTOL = 1e-4  # float32 partial sums added in another order
OUTPUT_ATOL = 1e-4  # float32 network against a float64 recomputation
METER_RTOL = 1e-4
PSNR_ATOL_DB = 1e-3


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def datasets_identical(a, b):
    arrays = [(a.degraded, b.degraded), (a.clean, b.clean)]
    if (a.mask is None) != (b.mask is None):
        return False
    if a.mask is not None:
        arrays.append((a.mask, b.mask))
    # the sidecar is JSON, so tuples in the in-memory meta come back as lists
    same_meta = json.dumps(a.meta, sort_keys=True) == json.dumps(b.meta, sort_keys=True)
    return same_meta and all(same_bits(x, y) for x, y in arrays)


def networks_identical(a, b):
    if describe_architecture(a) != describe_architecture(b):
        return False
    return all(
        same_bits(p.weight, q.weight) and same_bits(p.bias, q.bias)
        for p, q in zip(a.conv_params, b.conv_params)
    )


# --- an independent forward -------------------------------------------------------


def reference_forward(net, x, chunk=50):
    """Network output recomputed in float64 from the weights alone.

    Zero pad, sum the p*p shifted channel contractions, add the bias, relu
    between convs, then the residual add of the leading input channels.
    """
    convs = [(p.weight.astype(np.float64), p.bias.astype(np.float64)) for p in net.conv_params]
    outs = []
    for lo in range(0, x.shape[0], chunk):
        x64 = x[lo : lo + chunk].astype(np.float64)
        b, _, h, w = x64.shape
        act = x64
        for i, (weight, bias) in enumerate(convs):
            o, _, p, _ = weight.shape
            r = p // 2
            padded = np.pad(act, ((0, 0), (0, 0), (r, r), (r, r)))
            acc = np.zeros((o, b, h, w))
            for u in range(p):
                for v in range(p):
                    acc += np.tensordot(weight[:, :, u, v], padded[:, :, u : u + h, v : v + w], axes=([1], [1]))
            act = acc.transpose(1, 0, 2, 3) + bias[:, None, None]
            if i < len(convs) - 1:
                act = np.maximum(act, 0.0)
        outs.append(act + x64[:, : net.out_channels] if net.residual else act)
    return np.concatenate(outs)


def mean_psnr(out, clean):
    mse = np.mean(np.square(out.astype(np.float64) - clean.astype(np.float64)), axis=(1, 2, 3))
    return float(np.mean(-10.0 * np.log10(mse)))


def _image_norms(x):
    return np.sqrt(np.sum(np.square(x), axis=(1, 2, 3)))


def check_forward(net, inputs, reference):
    out, _ = forward_with_tape(net, inputs)
    err = float(np.max(np.abs(out - reference)))
    bound = OUTPUT_ATOL * max(1.0, float(np.max(np.abs(reference))))
    return err <= bound, f"max |out - ref| {err:.3g} (bound {bound:.3g})"


def check_psnr(report, reference, heldout):
    ours = mean_psnr(reference, heldout.clean)
    degraded = mean_psnr(heldout.degraded, heldout.clean)
    ok = abs(report.psnr - ours) <= PSNR_ATOL_DB and report.psnr > degraded
    return ok, f"meter {report.psnr:.4f} dB, recomputed {ours:.4f} dB, degraded input {degraded:.4f} dB"


def check_meter_outputs(net, report, inputs, reference):
    """output_errors[k] against np.rot90 rotations of the reference forward (quarter turns only)."""
    base_norm = _image_norms(reference)
    worst = 0.0
    for k, got in report.output_errors.items():
        rotated = reference_forward(net, np.rot90(inputs, k, axes=(2, 3)))
        want = float(np.mean(_image_norms(rotated - np.rot90(reference, k, axes=(2, 3))) / base_norm))
        worst = max(worst, abs(got - want) / want)
    return worst <= METER_RTOL, f"worst relative gap {worst:.3g} over k = {sorted(report.output_errors)}"


# --- gradients ----------------------------------------------------------------------


def captured_gradient(net, batch, cfg, executor=None):
    """One train_step from a fresh state; returns (losses, the grads it hands adam_update).

    adam_update is swapped out at the name train_step looks up, so the
    weights stay as they were.
    """
    grads = []

    def capture(_adam_update):
        return lambda _net, g, _adam, _cfg: grads.append(g)

    with patched([(trainer, "adam_update", capture)]):
        state = trainer.init_state(net, cfg)
        state.executor = executor
        losses = trainer.train_step(state, batch, cfg)
    return losses, grads[0]


def _shifted(net, direction, h):
    out = network_copy(net)
    out.set_conv_params(
        ConvParams(p.weight + h * dw, p.bias + h * db) for p, (dw, db) in zip(net.conv_params, direction)
    )
    return out


def _relu_pattern(net, x, k):
    """Signs of every pre-activation in the plain and the k-rotated branch."""
    branches = (x, net.group.rotate_image(x, k))
    return [z > 0 for xb in branches for z in forward_with_tape(net, xb)[1].pre_activations]


def gradient_mismatch(net64, batch, cfg, grads, n_directions=3, seed=0, max_draws=8):
    """Worst relative gap between <grads, v> and central differences of `total` along v.

    The directions are unit-norm Gaussian draws over every weight and bias. A
    draw along which some relu input changes sign between the two evaluation
    points is skipped: the loss has a kink there and central differences do
    not approximate the gradient. Returns inf if too few draws are smooth.
    """
    rng = np.random.default_rng(seed)
    losses, _ = captured_gradient(net64, batch, cfg)
    x, k = batch[0], losses["k"]
    worst, used = 0.0, 0
    for _ in range(max_draws):
        if used == n_directions:
            break
        direction = [(rng.standard_normal(p.weight.shape), rng.standard_normal(p.bias.shape)) for p in net64.conv_params]
        norm = np.sqrt(sum(np.sum(dw * dw) + np.sum(db * db) for dw, db in direction))
        direction = [(dw / norm, db / norm) for dw, db in direction]
        plus_net, minus_net = _shifted(net64, direction, FD_STEP), _shifted(net64, direction, -FD_STEP)
        if not all(np.array_equal(a, b) for a, b in zip(_relu_pattern(plus_net, x, k), _relu_pattern(minus_net, x, k))):
            continue
        used += 1
        analytic = sum(float(np.sum(gw * dw) + np.sum(gb * db)) for (gw, gb), (dw, db) in zip(grads, direction))
        plus, _ = captured_gradient(plus_net, batch, cfg)
        minus, _ = captured_gradient(minus_net, batch, cfg)
        numeric = (plus["total"] - minus["total"]) / (2 * FD_STEP)
        worst = max(worst, abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-12))
    return worst if used == n_directions else float("inf")


def float64_problem(net, batch, cfg):
    """A float64 copy of the network, the batch and a one-thread config."""
    x, clean = batch
    return network_astype(net, np.float64), (x.astype(np.float64), clean.astype(np.float64)), replace(cfg, threads=1)


def check_gradient(net, batches, cfg):
    """Analytic against numeric gradient on the first batch that has smooth directions.

    A batch with a relu input within rounding of zero has a kink along every
    direction, so the next batch is tried.
    """
    for i, batch in enumerate(batches):
        net64, batch64, cfg1 = float64_problem(net, batch, cfg)
        _, grads = captured_gradient(net64, batch64, cfg1)
        worst = gradient_mismatch(net64, batch64, cfg1, grads)
        if worst != float("inf"):
            return worst <= FD_RTOL, f"batch {i}: worst relative gap to central differences {worst:.3g} (bound {FD_RTOL:g})"
    return False, f"none of {len(batches)} batches has enough directions free of relu kinks"


def check_two_threads(net, batch, cfg):
    _, one = captured_gradient(net, batch, replace(cfg, threads=1))
    with ThreadPoolExecutor(max_workers=2) as pool:
        _, two = captured_gradient(net, batch, replace(cfg, threads=2), executor=pool)
    worst = 0.0
    for (w1, b1), (w2, b2) in zip(one, two):
        for a, b in ((w1, w2), (b1, b2)):
            worst = max(worst, float(np.linalg.norm(b - a) / max(np.linalg.norm(a), 1e-30)))
    return worst <= THREAD_RTOL, f"worst per-tensor relative gap {worst:.3g} (bound {THREAD_RTOL:g})"
