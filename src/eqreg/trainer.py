"""Dual-branch training loop, Adam, evaluation and equivariance measurement.

Each step runs the network on a batch and on its k-rotated copy (one shared k
per step), applies the task loss to the plain branch and the equivariance
penalty across both, and takes an Adam step on the exact gradient, which
objective computes. Reported losses use fast float64 accumulation; the
exactly-rounded variants live in eqreg.losses. On a thread pool a step splits
its batch into STEP_CHUNK-image chunks, whatever the pool's size, and
combines their partial sums in chunk order; without a pool it runs the batch
whole. The meter and evaluate stream STEP_CHUNK-image batches through the
same helper, on the pool or inline, so their reports ignore the thread count
and a pool thread's convs see one batch size. cfg.threads only sizes the
pool."""

import functools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import TASKS
from .losses import EqRegConfig, equi_injections, mismatch, sample_k, total_loss
from .model import add_grads, forward_with_tape, backprop, save_checkpoint
from .tensor import ConvParams


STEP_CHUNK = 4  # images per train_step chunk on a pool, whatever its size, and per meter batch
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8  # added outside the sqrt


class NumericsError(RuntimeError):
    """A loss or an updated weight became non-finite; training aborts rather than continue."""


@dataclass(frozen=True)
class TrainConfig:
    steps: int
    batch_size: int = 8
    lr: float = 2e-3
    seed: int = 0
    task: str = "denoise"
    eval_period: int = 500
    threads: int = 1
    out_dir: str | None = None
    eqreg: EqRegConfig = field(default_factory=EqRegConfig)

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.eval_period < 1:
            raise ValueError(f"eval_period must be >= 1, got {self.eval_period}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")


def psnr(x, ref):
    """10 log10(MAX^2 / MSE) with MAX = 1; returns the 99.0 sentinel at MSE 0."""
    x = np.asarray(x)
    ref = np.asarray(ref)
    if x.shape != ref.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {ref.shape}")
    mse = float(np.mean(np.square(x - ref, dtype=np.float64)))
    if mse == 0.0:
        return 99.0
    return -10.0 * math.log10(mse)


# --- Adam -----------------------------------------------------------------------


@dataclass
class AdamState:
    """First/second moment buffers per conv layer, plus the step counter."""

    m: list
    v: list
    t: int = 0

    @classmethod
    def zeros(cls, net):
        m = [[np.zeros_like(p.weight), np.zeros_like(p.bias)] for p in net.conv_params]
        v = [[np.zeros_like(p.weight), np.zeros_like(p.bias)] for p in net.conv_params]
        return cls(m, v)


def adam_update(net, grads, adam, cfg):
    """One in-place Adam step at rate cfg.lr, with standard bias correction.

    Every new moment and weight is computed before any is stored. If a new
    weight is non-finite, NumericsError leaves the weights and the Adam state
    as they were, so a non-finite weight never reaches a checkpoint.
    """
    t = adam.t + 1
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    new_m, new_v, new_params = [], [], []
    for i, p in enumerate(net.conv_params):
        ms, vs, updated = [], [], []
        for j, theta in enumerate((p.weight, p.bias)):
            g = grads[i][j].astype(theta.dtype, copy=False)
            m = ADAM_BETA1 * adam.m[i][j] + (1.0 - ADAM_BETA1) * g
            v = ADAM_BETA2 * adam.v[i][j] + (1.0 - ADAM_BETA2) * np.square(g)
            step = cfg.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
            ms.append(m)
            vs.append(v)
            updated.append((theta - step).astype(theta.dtype, copy=False))
        if not all(np.isfinite(u).all() for u in updated):
            raise NumericsError(f"non-finite weights in conv {i} after Adam step {t}")
        new_m.append(ms)
        new_v.append(vs)
        new_params.append(ConvParams(*updated))
    net.set_conv_params(new_params)
    adam.m, adam.v, adam.t = new_m, new_v, t


@dataclass
class TrainState:
    """Everything that persists across steps; train_step mutates it."""

    net: object
    adam: AdamState
    rng: np.random.Generator
    executor: ThreadPoolExecutor | None = None


def batch_executor(threads):
    """Context yielding the batch workers: a thread pool, or None at one thread."""
    return ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext()


def init_state(net, cfg):
    return TrainState(net, AdamState.zeros(net), np.random.default_rng(cfg.seed))


def _map_slices(fn, n, size, executor):
    """fn over consecutive size-long slices of range(n), on executor or inline; results in slice order."""
    run = map if executor is None else executor.map
    return list(run(fn, [slice(lo, lo + size) for lo in range(0, n, size)]))


# --- one optimization step -------------------------------------------------------


def _objective_chunk(net, x, clean, k, reg, denoms_equi, denom_out):
    """Partial sums and gradients for one batch chunk of the full objective.

    Denominators refer to the whole batch, so chunk results are additive.
    Returns (task_sq, equi_sqs, oc_sq, grads per conv layer).
    """
    group = net.group

    out_p, tape_p = forward_with_tape(net, x)
    diff = out_p - clean
    task_sq = float(np.sum(np.square(diff, dtype=np.float64)))
    g_out_p = (2.0 / denom_out) * diff

    out_r, tape_r = forward_with_tape(net, group.rotate_image(x, k))
    inj_p, inj_r, equi_sqs = equi_injections(tape_p, tape_r, k, group, denoms_equi)

    oc_sq = 0.0
    g_out_r = None
    if reg.output_consistency:
        oc_sq, g_oc, g_out_r = mismatch(out_p, out_r, k, group.rotate_image, group.rotate_image_adjoint,
                                        denom_out, reg.output_consistency_weight)
        g_out_p = g_out_p + g_oc

    hidden_p = hidden_r = None
    if reg.lam > 0:
        hidden_p = [reg.lam * a for a in inj_p]
        hidden_r = [reg.lam * a for a in inj_r]

    grads = backprop(net, tape_p, g_out_p, hidden_p)
    if hidden_r is not None or g_out_r is not None:
        grads = add_grads(grads, backprop(net, tape_r, g_out_r, hidden_r))
    return task_sq, equi_sqs, oc_sq, grads


def objective(net, batch, k, reg, executor=None):
    """The full objective at group element k and its exact weight gradients.

    The task MSE on the plain branch plus reg's penalties across the plain
    and the k-rotated branch; the rotated branch always runs (the equi term
    is reported even at lam 0) but contributes gradients only when lam > 0
    or output consistency is on. On executor the batch runs in
    STEP_CHUNK-image chunks whose partial sums combine in chunk order;
    without one it runs as one chunk. Returns (losses, grads per conv layer).
    """
    x, clean = batch
    b, _, h, w = x.shape
    if b == 0 or clean.shape != (b, net.out_channels, h, w):
        raise ValueError(f"bad batch shapes {x.shape} vs {clean.shape} for {net.out_channels} output channels")
    denoms_equi = [b * p.out_channels * h * w for p in net.conv_params[:-1]]
    denom_out = clean.size

    def chunk(ix):
        return _objective_chunk(net, x[ix], clean[ix], k, reg, denoms_equi, denom_out)

    parts = _map_slices(chunk, b, b if executor is None else STEP_CHUNK, executor)

    task = sum(p[0] for p in parts) / denom_out
    equi_sqs = [sum(p[1][i] for p in parts) for i in range(net.n_hidden_layers)]
    equi = sum(s / d for s, d in zip(equi_sqs, denoms_equi))
    oc = sum(p[2] for p in parts) / denom_out
    losses = {"task": task, "equi": equi, "total": total_loss(task, equi, reg, oc)}
    if reg.output_consistency:
        losses["output_consistency"] = oc
    return losses, functools.reduce(add_grads, (p[3] for p in parts))


def train_step(state, batch, cfg):
    """One Adam step on objective at a freshly drawn k; returns the loss breakdown."""
    k = sample_k(state.net.group, state.rng)
    terms, grads = objective(state.net, batch, k, cfg.eqreg, state.executor)
    step = state.adam.t + 1
    losses = {"step": step, "k": k, **terms}
    if not all(math.isfinite(v) for v in terms.values()):
        raise NumericsError(f"non-finite loss at step {step}: {losses}")
    adam_update(state.net, grads, state.adam, cfg)
    return losses


# --- evaluation -------------------------------------------------------------------


def _per_image_norms(x):
    return np.sqrt(np.sum(np.square(x, dtype=np.float64), axis=(1, 2, 3)))


def _rel_errors(num, den):
    """Elementwise num/den with 0/0 -> 0 and x/0 -> inf."""
    safe = np.where(den > 0, den, 1.0)
    return np.where(den > 0, num / safe, np.where(num == 0, 0.0, np.inf))


@dataclass
class EquivReport:
    """Relative equivariance errors, averaged over a dataset.

    output_errors[k] compares N(rot_k(I)) with rot_k(N(I)); feature_errors[k]
    holds one entry per regularization point comparing the rotated-branch
    activation with the feature transform of the plain one.
    """

    psnr: float
    output_errors: dict
    feature_errors: dict

    @property
    def e_out_mean(self):
        return float(np.mean(list(self.output_errors.values())))

    @property
    def e_feat_mean(self):
        per_k = [np.mean(v) for v in self.feature_errors.values() if len(v)]
        return float(np.mean(per_k)) if per_k else 0.0

    def csv_rows(self):
        n_layers = max((len(v) for v in self.feature_errors.values()), default=0)
        header = ["k", "e_out"] + [f"e_feat_l{i}" for i in range(n_layers)]
        rows = [
            [k, self.output_errors[k], *self.feature_errors[k]]
            for k in sorted(self.output_errors)
        ]
        return header, rows


def _meter_columns(net, dataset, ks, executor):
    """Per-image columns over the dataset, computed in STEP_CHUNK-image batches, joined in batch order.

    Column 0 holds the PSNRs against the clean stack. Then come the norms of
    the output and of each hidden map, then for each k in ks the norms of
    their equivariance errors, in the same order. Only these vectors outlive
    a batch, so memory does not grow with the dataset. Batches run on
    executor when one is given; the columns do not depend on it.
    """
    inputs, clean, group = dataset.inputs(), dataset.clean, net.group

    def batch(s):
        x = inputs[s]
        out, tape = forward_with_tape(net, x)
        cols = [np.array([psnr(o, c) for o, c in zip(out, clean[s])])]
        cols += [_per_image_norms(a) for a in (out, *tape.hidden)]
        for k in ks:
            rot_out, rot_tape = forward_with_tape(net, group.rotate_image(x, k))
            cols.append(_per_image_norms(rot_out - group.rotate_image(out, k)))
            cols += [_per_image_norms(r - group.feature_transform(h, k))
                     for h, r in zip(tape.hidden, rot_tape.hidden)]
        return cols

    parts = _map_slices(batch, len(inputs), STEP_CHUNK, executor)
    return [np.concatenate(col) for col in zip(*parts)]


def evaluate(net, dataset, executor=None):
    """Mean PSNR of the restored stack against the clean stack."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    return float(_meter_columns(net, dataset, (), executor)[0].mean())


def measure_equivariance(net, dataset, executor=None):
    """Dataset-mean relative output and per-layer feature errors for every k >= 1."""
    if len(dataset) == 0:
        raise ValueError("cannot measure equivariance on an empty dataset")
    order = net.group.order
    psnrs, *cols = _meter_columns(net, dataset, range(1, order), executor)
    n_maps = len(cols) // order
    output_errors, feature_errors = {}, {}
    for k in range(1, order):
        rel = [float(np.mean(_rel_errors(e, n))) for e, n in zip(cols[k * n_maps :], cols[:n_maps])]
        output_errors[k], feature_errors[k] = rel[0], rel[1:]
    return EquivReport(float(np.mean(psnrs)), output_errors, feature_errors)


# --- full runs ---------------------------------------------------------------------


CSV_BASE_COLUMNS = ["step", "task_loss", "equi_loss", "total_loss", "psnr", "e_out_mean", "e_feat_mean"]


def csv_line(values):
    """One CSV record; floats as repr, so a value reads back to the same bits."""
    return ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in values) + "\n"


def train(net, train_data, cfg, eval_data=None):
    """Run cfg.steps of train_step with periodic evaluation and checkpoints.

    Writes report.csv, config.json and checkpoints under cfg.out_dir when set;
    an empty shard, or one whose input or clean channels do not match the
    network's, is refused first. Returns (net, rows, final EquivReport); rows
    carry one dict per eval point.
    """
    measured = eval_data if eval_data is not None else train_data
    for role, ds in (("training", train_data), ("eval", measured)):
        if len(ds) == 0:
            raise ValueError(f"{role} shard is empty")
        if ds.inputs().shape[1] != net.in_channels:
            raise ValueError(f"{role} shard has {ds.inputs().shape[1]} input channels, the network takes {net.in_channels}")
        if ds.clean.shape[1] != net.out_channels:
            raise ValueError(f"{role} shard has {ds.clean.shape[1]} clean channels, the network outputs {net.out_channels}")
    out_dir = cfg.out_dir
    state = init_state(net, cfg)
    inputs = train_data.inputs()
    clean = train_data.clean
    n = inputs.shape[0]

    group = net.group
    columns = CSV_BASE_COLUMNS + [f"e_out_k{k}" for k in range(1, group.order)]
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "config.json"), "w", encoding="ascii") as fp:
            json.dump(asdict(cfg), fp, sort_keys=True, indent=2)
            fp.write("\n")
        csv_path = os.path.join(out_dir, "report.csv")
        with open(csv_path, "w", encoding="ascii") as fp:
            fp.write(csv_line(columns))

    rows = []
    report = None
    with batch_executor(cfg.threads) as state.executor:
        for _ in range(cfg.steps):
            idx = state.rng.integers(0, n, size=cfg.batch_size)
            losses = train_step(state, (inputs[idx], clean[idx]), cfg)
            step = state.adam.t
            if step % cfg.eval_period == 0 or step == cfg.steps:
                report = measure_equivariance(state.net, measured, executor=state.executor)
                values = [step, losses["task"], losses["equi"], losses["total"],
                          report.psnr, report.e_out_mean, report.e_feat_mean, *report.output_errors.values()]
                rows.append(dict(zip(columns, values)))
                if out_dir:
                    with open(csv_path, "a", encoding="ascii") as fp:
                        fp.write(csv_line(values))
                    save_checkpoint(os.path.join(out_dir, f"ckpt_{step:06d}.eqnet"), state.net)
    if out_dir:
        save_checkpoint(os.path.join(out_dir, "ckpt_final.eqnet"), state.net)
    return state.net, rows, report
