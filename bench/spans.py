"""Span recording for the benchmark's traced runs.

The benchmark never edits eqreg. It swaps a timing wrapper in at each name a
caller looks up and restores the original afterwards: ``train_step`` calls
``eqreg.trainer.forward_with_tape``, ``forward_with_tape`` calls
``eqreg.model.conv2d_forward``, and so on. ``eqreg.tensor.conv2d_forward``
itself is left alone, so the forward that ``conv2d_backward`` runs for
``grad_x`` stays inside the backward span instead of counting as a forward.

Each thread keeps its own stack of open spans, so a span's self time is its
duration minus its direct children on the same thread. With batch threads the
chunk work runs on pool threads; those spans have no parent and are charged to
the step through ``Tracer.phase``, while ``train_step`` keeps the main
thread's waiting as its own self time.
"""

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

GROUP_OPS = ("rotate_image", "rotate_image_adjoint", "feature_transform", "feature_transform_adjoint")


@dataclass
class Span:
    name: str
    tag: str | None  # conv layer, "l0" .. "l<depth-1>"
    macs: int  # multiply-adds computed from the call's shapes
    phase: str | None  # "step" or "meter": the public call the span ran under
    parent: str | None  # enclosing span on the same thread
    start: float
    end: float = 0.0
    child: float = 0.0  # time covered by direct children on the same thread

    @property
    def dur(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.dur - self.child


class Tracer:
    """Keeps finished spans in memory; wrappers record only while ``active``."""

    def __init__(self, layer_of):
        self.layer_of = layer_of  # (in_channels, out_channels) -> "l<i>"
        self.spans = []
        self.active = False
        self.phase = None
        self._local = threading.local()

    def enter(self, name, tag=None, macs=0):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1].name if stack else None
        span = Span(name, tag, macs, self.phase, parent, time.perf_counter())
        stack.append(span)
        return span

    def exit(self, span):
        span.end = time.perf_counter()
        stack = self._local.stack
        stack.pop()
        if stack:
            stack[-1].child += span.dur
        self.spans.append(span)  # list.append is atomic under the GIL

    def wrap(self, name, fn, shape_of=None):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            tag, macs = shape_of(self, args) if shape_of else (None, 0)
            span = self.enter(name, tag, macs)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(span)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        from eqreg import model, trainer
        from eqreg.group import RotationGroup

        targets = [
            (trainer, "forward_with_tape", "model.forward_with_tape", None),
            (trainer, "backprop", "model.backprop", None),
            (trainer, "equi_injections", "losses.equi_injections", None),
            (trainer, "adam_update", "trainer.adam_update", None),
            (model, "conv2d_forward", "tensor.conv2d_forward", _conv_forward_shape),
            (model, "conv2d_backward", "tensor.conv2d_backward", _conv_backward_shape),
        ] + [(RotationGroup, op, f"group.{op}", None) for op in GROUP_OPS]
        with patched((owner, attr, lambda fn, n=name, s=shape: self.wrap(n, fn, s))
                     for owner, attr, name, shape in targets):
            yield self


@contextmanager
def patched(targets):
    """Replace owner.attr with make(original) for each (owner, attr, make); restore on exit."""
    saved = []
    try:
        for owner, attr, make in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _conv_macs(x, params):
    b, c, h, w = x.shape
    o, _, p, _ = params.weight.shape
    return (c, o), b * h * w * o * c * p * p


def _conv_forward_shape(tracer, args):
    key, macs = _conv_macs(args[0], args[1])
    return tracer.layer_of.get(key), macs


def _conv_backward_shape(tracer, args):
    # grad_w and grad_x are each one forward's worth of multiply-adds
    key, macs = _conv_macs(args[0], args[1])
    return tracer.layer_of.get(key), 2 * macs


def per_layer_metrics(spans, n_steps, n_meters, depth):
    """Per-step (or per-meter-call) figures from the recorded spans.

    Group figures count every call, including the rotate_image calls that
    feature_transform makes, so group times nest and do not add up.
    """
    step = [s for s in spans if s.phase == "step"]
    meter = [s for s in spans if s.phase == "meter"]

    def per_step(pred, value=lambda s: s.dur):
        return sum(value(s) for s in step if pred(s)) / n_steps

    m = {}
    for kind in ("forward", "backward"):
        name = f"tensor.conv2d_{kind}"
        for layer in range(depth):
            m[f"{name}.l{layer}.ms"] = 1e3 * per_step(lambda s: s.name == name and s.tag == f"l{layer}")
        m[f"{name}.calls"] = per_step(lambda s: s.name == name, lambda s: 1)
    m["tensor.conv.gmac"] = per_step(lambda s: s.name.startswith("tensor.conv2d_"), lambda s: s.macs) / 1e9
    for name in ("model.forward_with_tape", "model.backprop"):
        m[f"{name}.self_ms"] = 1e3 * per_step(lambda s: s.name == name, lambda s: s.self_time)
    for op in GROUP_OPS:
        name = f"group.{op}"
        m[f"{name}.ms"] = 1e3 * per_step(lambda s: s.name == name)
        m[f"{name}.calls"] = per_step(lambda s: s.name == name, lambda s: 1)
    m["losses.equi_injections.self_ms"] = 1e3 * per_step(
        lambda s: s.name == "losses.equi_injections", lambda s: s.self_time)
    m["trainer.train_step.self_ms"] = 1e3 * per_step(
        lambda s: s.name == "trainer.train_step", lambda s: s.self_time)
    m["trainer.adam_update.ms"] = 1e3 * per_step(lambda s: s.name == "trainer.adam_update")
    wall = per_step(lambda s: s.name == "trainer.train_step")
    busy = per_step(lambda s: s.name != "trainer.train_step" and s.parent in (None, "trainer.train_step"))
    m["trainer.train_step.parallelism"] = busy / wall

    def per_meter(pred, value=lambda s: s.dur):
        return sum(value(s) for s in meter if pred(s)) / n_meters

    top = "trainer.measure_equivariance"
    m[f"{top}.forward_s"] = per_meter(lambda s: s.parent == top and s.name == "model.forward_with_tape")
    m[f"{top}.group_s"] = per_meter(lambda s: s.parent == top and s.name.startswith("group."))
    m[f"{top}.self_s"] = per_meter(lambda s: s.name == top, lambda s: s.self_time)
    return m
