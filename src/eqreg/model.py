"""Plain convolutional restoration networks with tape-recording forward passes.

A network is a list of convs with a relu after every conv but the last, so
the list alone fixes the conv/relu stack. Hidden activations (post-relu) are
the regularization points recorded on the tape; the final conv output
optionally gets a residual add of the leading input channels. lifted_conv
builds the one conv whose output is exactly equivariant for quarter-turn
groups; the tests and demos run it through the same conv2d_forward and
Network as a zero-loss oracle.
"""

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .group import RotationGroup
from .tensor import (
    ConvParams,
    EqtFormatError,
    as_tensor4,
    conv2d_backward,
    conv2d_forward,
    read_tensor,
    relu_backward,
    relu_forward,
    write_tensor,
)

CHECKPOINT_VERSION = "eqnet1"


@dataclass
class Network:
    """Conv stack with relus in between; weights are replaced between steps, never in place."""

    conv_params: list[ConvParams]
    group: RotationGroup
    n_hidden: int
    residual: bool = True

    def __post_init__(self):
        if not self.conv_params:
            raise ValueError("network needs at least one conv")
        if self.n_hidden < 1:
            raise ValueError(f"n_hidden must be >= 1, got {self.n_hidden}")
        convs = self.conv_params
        if any(p.in_channels < 1 or p.out_channels < 1 for p in convs):
            raise ValueError("every conv needs at least one input and one output channel")
        for a, b in zip(convs, convs[1:]):
            if b.in_channels != a.out_channels:
                raise ValueError(
                    f"channel mismatch between consecutive convs: {a.out_channels} -> {b.in_channels}"
                )
        width = self.n_hidden * self.group.order
        for p in convs[:-1]:
            if p.out_channels != width:
                raise ValueError(
                    f"hidden conv width {p.out_channels} != n_hidden * order = {width}"
                )
        if self.residual and self.in_channels < self.out_channels:
            raise ValueError(
                f"residual add needs in_channels >= out_channels, got {self.in_channels} < {self.out_channels}"
            )

    @property
    def in_channels(self):
        return self.conv_params[0].in_channels

    @property
    def out_channels(self):
        return self.conv_params[-1].out_channels

    @property
    def n_hidden_layers(self):
        return len(self.conv_params) - 1

    def set_conv_params(self, new_params):
        """Swap in one ConvParams per conv layer, preserving structure."""
        new_params = list(new_params)
        if len(new_params) != len(self.conv_params):
            raise ValueError(f"expected {len(self.conv_params)} param sets, got {len(new_params)}")
        for old, p in zip(self.conv_params, new_params):
            if p.weight.shape != old.weight.shape:
                raise ValueError(f"weight shape changed: {old.weight.shape} -> {p.weight.shape}")
        self.conv_params = new_params


@dataclass
class Tape:
    """Activations recorded by forward_with_tape, in layer order.

    hidden holds the post-relu regularization points, which are also the
    inputs of every conv after the first and the relu backward's masks, since
    relu(z) > 0 exactly where z > 0; input is the first conv's input.
    """

    input: np.ndarray
    hidden: list

    def __len__(self):
        return len(self.hidden)

    @property
    def pre_activations(self):  # kept for bench/checks.py::_relu_pattern until the next benchmark change
        return self.hidden


def forward_with_tape(net, x):
    """Run the network and record every regularization point; returns (output, Tape)."""
    x = as_tensor4(x)
    if x.shape[1] != net.in_channels:
        raise ValueError(f"input has {x.shape[1]} channels, network expects {net.in_channels}")
    hidden = []
    h = x
    for p in net.conv_params[:-1]:
        h = relu_forward(conv2d_forward(h, p))
        hidden.append(h)
    h = conv2d_forward(h, net.conv_params[-1])
    out = h + x[:, : net.out_channels] if net.residual else h
    return out, Tape(x, hidden)


def backprop(net, tape, grad_output=None, hidden_grads=None):
    """Reverse sweep given gradients at the output and/or regularization points.

    hidden_grads[i] adds to the gradient at tape.hidden[i]. Either source may
    be None; a conv whose incoming gradient is entirely absent gets zeros.
    Returns [(grad_w, grad_b), ...] per conv layer.
    """
    convs = net.conv_params
    if hidden_grads is not None and len(hidden_grads) != len(tape.hidden):
        raise ValueError(f"expected {len(tape.hidden)} hidden grads, got {len(hidden_grads)}")
    grads = [None] * len(convs)
    g = grad_output  # residual add passes output gradient through unchanged
    for i in range(len(convs) - 1, -1, -1):
        if i < len(convs) - 1:
            inject = hidden_grads[i] if hidden_grads is not None else None
            if inject is not None:
                g = inject if g is None else g + inject
            if g is not None:
                g = relu_backward(tape.hidden[i], g)
        if g is None:
            p = convs[i]
            grads[i] = (np.zeros_like(p.weight), np.zeros_like(p.bias))
            continue
        x = tape.hidden[i - 1] if i > 0 else tape.input
        gx, gw, gb = conv2d_backward(x, convs[i], g, need_grad_x=i > 0)
        grads[i] = (gw, gb)
        g = gx
    return grads


def add_grads(a, b):
    """Elementwise sum of two per-conv [(grad_w, grad_b), ...] lists."""
    return [(wa + wb, ba + bb) for (wa, ba), (wb, bb) in zip(a, b)]


def build_network(in_channels, out_channels, group, n_hidden=8, depth=3, kernel_size=3, residual=True):
    """Zero-initialized float32 stack of `depth` convs with relus in between; network_astype casts it."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    width = n_hidden * group.order
    sizes = [in_channels] + [width] * (depth - 1) + [out_channels]
    convs = [
        ConvParams(np.zeros((cout, cin, kernel_size, kernel_size), np.float32), np.zeros(cout, np.float32))
        for cin, cout in zip(sizes, sizes[1:])
    ]
    return Network(convs, group, n_hidden, residual)


def init_weights(net, seed):
    """Fresh uniform(-a, a) weights with a = sqrt(1 / (C_in * p^2)) in the net's dtype; zero bias.

    Draw order is fixed (layer order, row-major), so a seed pins every bit.
    """
    rng = np.random.default_rng(seed)
    new_params = []
    for p in net.conv_params:
        a = math.sqrt(1.0 / (p.in_channels * p.kernel_size**2))
        w = rng.uniform(-a, a, size=p.weight.shape).astype(p.weight.dtype)
        new_params.append(ConvParams(w, np.zeros_like(p.bias)))
    return replace(net, conv_params=new_params)


def network_copy(net):
    convs = [ConvParams(p.weight.copy(), p.bias.copy()) for p in net.conv_params]
    return replace(net, conv_params=convs)


def network_astype(net, dtype):
    convs = [ConvParams(p.weight.astype(dtype), p.bias.astype(dtype)) for p in net.conv_params]
    return replace(net, conv_params=convs)


def lifted_conv(weight, group):
    """The lifting layer as one conv: output block g correlates with the base kernel rotated by g.

    weight is the (n, C_in, p, p) base kernel; the result stacks its order
    rotations with a zero bias in its dtype. For exact groups (order 2 or 4)
    the lifted feature satisfies the equivariance identity to machine
    precision, which makes it the reference point for every zero-loss check.
    """
    stack = np.concatenate([group.rotate_image(weight, k) for k in range(group.order)])
    return ConvParams(stack, np.zeros(len(stack), stack.dtype))


# --- checkpoint format ----------------------------------------------------------
#
# u32 LE length-prefixed ASCII descriptor, then one EQT1 weight and one EQT1
# bias record per conv layer, in layer order.


def describe_architecture(net):
    layers = ",relu,".join(f"conv:{p.in_channels}:{p.out_channels}:{p.kernel_size}" for p in net.conv_params)
    return (
        f"{CHECKPOINT_VERSION} order={net.group.order} n_hidden={net.n_hidden} "
        f"residual={int(net.residual)} layers={layers}"
    )


def _parse_architecture(desc):
    """(group, n_hidden, residual, [(cout, cin, p, p) weight shape per conv]) from a descriptor."""
    fields = desc.split()
    if not fields or fields[0] != CHECKPOINT_VERSION:
        raise EqtFormatError(f"unsupported checkpoint descriptor {desc!r}")
    try:
        kv = dict(f.split("=", 1) for f in fields[1:])
        group = RotationGroup(int(kv["order"]))
        n_hidden = int(kv["n_hidden"])
        residual = bool(int(kv["residual"]))
        tokens = kv["layers"].split(",")
        if len(tokens) % 2 == 0 or any(t != "relu" for t in tokens[1::2]):
            raise ValueError("layers must alternate conv and relu, starting and ending with a conv")
        shapes = []
        for token in tokens[::2]:
            tag, cin, cout, p = token.split(":")
            if tag != "conv":
                raise ValueError(f"unknown layer token {token!r}")
            shapes.append((int(cout), int(cin), int(p), int(p)))
        return group, n_hidden, residual, shapes
    except (KeyError, ValueError) as exc:
        raise EqtFormatError(f"malformed checkpoint descriptor {desc!r}: {exc}") from exc


def save_checkpoint(path, net):
    desc = describe_architecture(net).encode("ascii")
    with open(path, "wb") as fp:
        fp.write(struct.pack("<I", len(desc)))
        fp.write(desc)
        for p in net.conv_params:
            write_tensor(fp, p.weight)
            write_tensor(fp, p.bias)


def load_checkpoint(path, expect=None):
    """Rebuild a network from disk; refuses mismatches, trailing bytes and non-canonical descriptors."""
    with open(path, "rb") as fp:
        raw_len = fp.read(4)
        if len(raw_len) < 4:
            raise EqtFormatError("truncated checkpoint: missing descriptor length")
        (n,) = struct.unpack("<I", raw_len)
        raw_desc = fp.read(n)
        if len(raw_desc) < n:
            raise EqtFormatError("truncated checkpoint: short descriptor")
        try:
            desc = raw_desc.decode("ascii")
        except UnicodeDecodeError as exc:
            raise EqtFormatError("checkpoint descriptor is not ASCII") from exc
        group, n_hidden, residual, shapes = _parse_architecture(desc)
        tensors = []
        for shape in shapes:
            w = read_tensor(fp)
            b = read_tensor(fp)
            if w.shape != shape or b.shape != shape[:1]:
                raise EqtFormatError(
                    f"checkpoint tensor shapes {w.shape}/{b.shape} do not match descriptor {desc!r}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise EqtFormatError("checkpoint holds a non-finite weight or bias")
            tensors.append((w, b))
        if fp.read(1):
            raise EqtFormatError("checkpoint holds bytes after its last tensor")
    try:
        net = Network([ConvParams(w, b) for w, b in tensors], group, n_hidden, residual)
    except ValueError as exc:
        raise EqtFormatError(f"checkpoint descriptor {desc!r} is not a valid network: {exc}") from exc
    if describe_architecture(net) != desc:
        raise EqtFormatError(f"checkpoint descriptor {desc!r} is not the one save_checkpoint writes for its network")
    if expect is not None and desc != (want := describe_architecture(expect)):
        raise EqtFormatError(f"checkpoint architecture {desc!r} does not match expected {want!r}")
    return net
