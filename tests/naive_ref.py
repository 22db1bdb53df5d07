"""Slow, independent reference implementations used to cross-check the library.

Everything here is written from the definitions with explicit loops; no code
is shared with the package internals. The one exception is the whole-shard
equivariance meter, which runs the package's forward pass and group actions
the way the meter did before it streamed, so the streamed meter can be held
to it bit for bit.
"""

import math

import numpy as np


def conv2d_loops(x, weight, bias):
    """Direct stride-1 same-padding correlation, quadruple loop."""
    b, cin, h, w = x.shape
    cout, _, p, _ = weight.shape
    r = (p - 1) // 2
    out = np.zeros((b, cout, h, w), dtype=np.float64)
    for bi in range(b):
        for oc in range(cout):
            for i in range(h):
                for j in range(w):
                    acc = 0.0
                    for ic in range(cin):
                        for u in range(p):
                            for v in range(p):
                                ii, jj = i + u - r, j + v - r
                                if 0 <= ii < h and 0 <= jj < w:
                                    acc += x[bi, ic, ii, jj] * weight[oc, ic, u, v]
                    out[bi, oc, i, j] = acc + bias[oc]
    return out


def rot90_indexed(img, quarters):
    """Counterclockwise quarter rotations via the index identity
    out[i][j] = in[j][W-1-i], applied `quarters` times."""
    out = np.array(img, copy=True)
    for _ in range(quarters % 4):
        h, w = out.shape[-2:]
        nxt = np.empty(out.shape[:-2] + (w, h), dtype=out.dtype)
        for i in range(w):
            for j in range(h):
                nxt[..., i, j] = out[..., j, w - 1 - i]
        out = nxt
    return out


def feature_transform_indexed(f, k, order):
    """Block relabel g <- (g - k) mod order, then spatial quarter rotations."""
    b, c, h, w = f.shape
    n = c // order
    assert c % order == 0 and order in (2, 4)
    quarters = k * (4 // order)
    out = np.empty_like(f)
    for g in range(order):
        src = (g - k) % order
        out[:, g * n : (g + 1) * n] = rot90_indexed(f[:, src * n : (src + 1) * n], quarters)
    return out


def central_difference(fn, theta, idx, h=1e-5):
    """Two-sided difference of a scalar function in one coordinate."""
    plus = np.array(theta, dtype=np.float64, copy=True)
    minus = np.array(theta, dtype=np.float64, copy=True)
    plus[idx] += h
    minus[idx] -= h
    return (fn(plus) - fn(minus)) / (2.0 * h)


def rel_err(a, b, floor=1e-12):
    return abs(a - b) / max(abs(a), abs(b), floor)


def frob_sq_pairs(a, b):
    """Plain double-loop squared Frobenius distance."""
    total = 0.0
    for x, y in zip(np.ravel(a), np.ravel(b)):
        total += (float(x) - float(y)) ** 2
    return total


def measure_equivariance_whole_shard(net, dataset, batch_size=64):
    """The meter before streaming: whole-shard outputs and hidden maps, then norms.

    Forwards run in batches of batch_size, their outputs and hidden maps are
    concatenated for the whole shard, once for the plain input and once per
    rotation k, and the per-image norms are taken over those stacks.
    Returns (psnr, output_errors, feature_errors).
    """
    from eqreg.model import forward_with_tape

    group = net.group

    def forward_stack(inputs):
        outs, hidden = [], []
        for lo in range(0, inputs.shape[0], batch_size):
            out, tape = forward_with_tape(net, inputs[lo : lo + batch_size])
            outs.append(out)
            hidden.append(tape.hidden)
        return np.concatenate(outs), [np.concatenate(maps) for maps in zip(*hidden)]

    def norms(x):
        return np.sqrt(np.sum(np.square(x, dtype=np.float64), axis=(1, 2, 3)))

    def mean_rel(num, den):
        safe = np.where(den > 0, den, 1.0)
        return float(np.mean(np.where(den > 0, num / safe, np.where(num == 0, 0.0, np.inf))))

    inputs = dataset.inputs()
    base_out, base_hidden = forward_stack(inputs)
    output_errors, feature_errors = {}, {}
    for k in range(1, group.order):
        rot_out, rot_hidden = forward_stack(group.rotate_image(inputs, k))
        output_errors[k] = mean_rel(norms(rot_out - group.rotate_image(base_out, k)), norms(base_out))
        feature_errors[k] = [
            mean_rel(norms(h_rot - group.feature_transform(h, k)), norms(h))
            for h, h_rot in zip(base_hidden, rot_hidden)
        ]

    psnrs = []
    for o, c in zip(base_out, dataset.clean):
        mse = float(np.mean(np.square(o - c, dtype=np.float64)))
        psnrs.append(99.0 if mse == 0.0 else -10.0 * math.log10(mse))
    return float(np.mean(psnrs)), output_errors, feature_errors
