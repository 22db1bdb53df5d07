"""Dual-branch training loop, Adam, evaluation and equivariance measurement.

Each step runs the network on a batch and on its k-rotated copy (one shared k
per step), applies the task loss to the plain branch and the equivariance
penalty across both, and takes an Adam step on the exact gradient. Reported
losses use fast float64 accumulation; the exactly-rounded variants live in
eqreg.losses. With cfg.threads > 1 the batch is split along the batch axis
into fixed chunks whose partial sums combine in a fixed order, so a given
thread setting is deterministic run to run. The meter and evaluate stream
fixed batches on the same workers, so their reports ignore the thread count.
"""

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field

import numpy as np

from .losses import EqRegConfig, equi_injections, sample_k, total_loss
from .model import forward_with_tape, backprop, save_checkpoint
from .tensor import ConvParams


class NumericsError(RuntimeError):
    """A loss became non-finite; training aborts rather than continue."""


@dataclass(frozen=True)
class TrainConfig:
    steps: int
    batch_size: int = 8
    lr: float = 2e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
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
        if self.lr < 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if self.task not in ("denoise", "inpaint"):
            raise ValueError(f"task must be 'denoise' or 'inpaint', got {self.task!r}")
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
    """One in-place Adam step (standard bias correction, eps outside the sqrt)."""
    adam.t += 1
    c1 = 1.0 - cfg.beta1**adam.t
    c2 = 1.0 - cfg.beta2**adam.t
    new_params = []
    for i, p in enumerate(net.conv_params):
        updated = []
        for j, (theta, g) in enumerate(((p.weight, grads[i][0]), (p.bias, grads[i][1]))):
            g = g.astype(theta.dtype, copy=False)
            m = cfg.beta1 * adam.m[i][j] + (1.0 - cfg.beta1) * g
            v = cfg.beta2 * adam.v[i][j] + (1.0 - cfg.beta2) * np.square(g)
            adam.m[i][j] = m
            adam.v[i][j] = v
            step = cfg.lr * (m / c1) / (np.sqrt(v / c2) + cfg.eps)
            updated.append((theta - step).astype(theta.dtype, copy=False))
        new_params.append(ConvParams(updated[0], updated[1]))
    net.set_conv_params(new_params)


@dataclass
class TrainState:
    """Everything that persists across steps; train_step mutates it."""

    net: object
    adam: AdamState
    rng: np.random.Generator
    step: int = 0
    executor: ThreadPoolExecutor | None = None


def batch_executor(threads):
    """Context yielding the batch workers: a thread pool, or None at one thread."""
    return ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext()


def init_state(net, cfg):
    return TrainState(net, AdamState.zeros(net), np.random.default_rng(cfg.seed))


# --- one optimization step -------------------------------------------------------


def _objective_chunk(net, x, clean, k, cfg, denom_task, denoms_equi, denom_out):
    """Partial sums and gradients for one batch chunk of the full objective.

    Denominators refer to the whole batch, so chunk results are additive.
    Returns (task_sq, equi_sqs, oc_sq, grads per conv layer).
    """
    reg = cfg.eqreg
    group = net.group
    mean = reg.reduction == "mean"

    out_p, tape_p = forward_with_tape(net, x)
    diff = out_p - clean
    task_sq = float(np.sum(np.square(diff, dtype=np.float64)))
    g_out_p = (2.0 / denom_task) * diff

    out_r, tape_r = forward_with_tape(net, group.rotate_image(x, k))
    inj_p, inj_r, equi_sqs = equi_injections(tape_p, tape_r, k, group, reg, denoms_equi)

    oc_sq = 0.0
    g_out_r = None
    if reg.output_consistency:
        e = group.rotate_image(out_p, k) - out_r
        oc_sq = float(np.sum(np.square(e, dtype=np.float64)))
        s = reg.output_consistency_weight * (2.0 / denom_out if mean else 2.0)
        g_out_p = g_out_p + group.rotate_image_adjoint(s * e, k)
        g_out_r = -s * e

    hidden_p = hidden_r = None
    if reg.lam > 0:
        hidden_p = [reg.lam * a for a in inj_p]
        hidden_r = [reg.lam * a for a in inj_r]

    grads = backprop(net, tape_p, g_out_p, hidden_p)
    if hidden_r is not None or g_out_r is not None:
        grads_r = backprop(net, tape_r, g_out_r, hidden_r)
        grads = [(wa + wb, ba + bb) for (wa, ba), (wb, bb) in zip(grads, grads_r)]
    return task_sq, equi_sqs, oc_sq, grads


def train_step(state, batch, cfg):
    """One dual-branch gradient step; returns the loss breakdown.

    The rotated branch always runs (the equi term is reported even at lam 0)
    but contributes gradients only when lam > 0 or output consistency is on.
    """
    x, clean = batch
    if x.shape[0] != clean.shape[0] or x.shape[0] == 0:
        raise ValueError(f"bad batch shapes {x.shape} vs {clean.shape}")
    net = state.net
    reg = cfg.eqreg
    k = sample_k(net.group, reg, state.rng)

    b, _, h, w = x.shape
    width = net.n_hidden * net.group.order
    denom_task = clean.size
    denoms_equi = [b * width * h * w] * net.n_hidden_layers
    denom_out = b * net.out_channels * h * w

    bounds = np.array_split(np.arange(b), min(cfg.threads, b))
    jobs = [(net, x[ix], clean[ix], k, cfg, denom_task, denoms_equi, denom_out) for ix in bounds]
    run = map if state.executor is None else state.executor.map
    parts = list(run(lambda a: _objective_chunk(*a), jobs))

    task_sq = sum(p[0] for p in parts)
    equi_sqs = [sum(p[1][i] for p in parts) for i in range(net.n_hidden_layers)]
    oc_sq = sum(p[2] for p in parts)
    grads = parts[0][3]
    for p in parts[1:]:
        grads = [(wa + wb, ba + bb) for (wa, ba), (wb, bb) in zip(grads, p[3])]

    mean = reg.reduction == "mean"
    task = task_sq / denom_task
    equi = sum(s / d if mean else s for s, d in zip(equi_sqs, denoms_equi))
    oc = oc_sq / denom_out if mean else oc_sq
    total = total_loss(task, equi, reg, oc)
    losses = {"step": state.step + 1, "k": k, "task": task, "equi": equi, "total": total}
    if reg.output_consistency:
        losses["output_consistency"] = oc
    if not all(math.isfinite(v) for v in (task, equi, total, oc)):
        raise NumericsError(f"non-finite loss at step {state.step + 1}: {losses}")

    adam_update(net, grads, state.adam, cfg)
    state.step += 1
    return losses


# --- evaluation -------------------------------------------------------------------

METER_BATCH = 8  # images per meter and eval batch; smaller batches ran faster and peak lower


@dataclass
class EvalResult:
    mean_psnr: float
    per_image: np.ndarray


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
    step: int = 0

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


def _meter_columns(net, dataset, clean, ks, batch_size, executor):
    """Per-image columns over the dataset, computed in batches, joined in batch order.

    Column 0 holds the PSNRs against clean (NaN without clean; feature
    extractors have no restoration PSNR). Then come the norms of the output
    and of each hidden map, then for each k in ks the norms of their
    equivariance errors, in the same order. Only these vectors outlive a
    batch, so memory does not grow with the dataset. Batches run on executor
    when one is given; the columns do not depend on it.
    """
    inputs, group = dataset.inputs(), net.group

    def batch(lo):
        x = inputs[lo : lo + batch_size]
        out, tape = forward_with_tape(net, x)
        ref = None if clean is None else clean[lo : lo + batch_size]
        cols = [np.full(len(x), np.nan) if ref is None else np.array([psnr(o, c) for o, c in zip(out, ref)])]
        cols += [_per_image_norms(a) for a in (out, *tape.hidden)]
        for k in ks:
            rot_out, rot_tape = forward_with_tape(net, group.rotate_image(x, k))
            cols.append(_per_image_norms(rot_out - group.rotate_image(out, k)))
            cols += [_per_image_norms(r - group.feature_transform(h, k))
                     for h, r in zip(tape.hidden, rot_tape.hidden)]
        return cols

    parts = (map if executor is None else executor.map)(batch, range(0, len(inputs), batch_size))
    return [np.concatenate(col) for col in zip(*parts)]


def evaluate(net, dataset, batch_size=METER_BATCH, executor=None):
    """Mean PSNR of the restored stack against the clean stack."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    per = _meter_columns(net, dataset, dataset.clean, (), batch_size, executor)[0]
    return EvalResult(float(per.mean()), per)


def measure_equivariance(net, dataset, batch_size=METER_BATCH, executor=None):
    """Dataset-mean relative output and per-layer feature errors for every k >= 1."""
    if len(dataset) == 0:
        raise ValueError("cannot measure equivariance on an empty dataset")
    order = net.group.order
    clean = dataset.clean if net.out_channels == dataset.clean.shape[1] else None
    psnrs, *cols = _meter_columns(net, dataset, clean, range(1, order), batch_size, executor)
    n_maps = len(cols) // order
    output_errors, feature_errors = {}, {}
    for k in range(1, order):
        rel = [float(np.mean(_rel_errors(e, n))) for e, n in zip(cols[k * n_maps :], cols[:n_maps])]
        output_errors[k], feature_errors[k] = rel[0], rel[1:]
    return EquivReport(float(np.mean(psnrs)), output_errors, feature_errors)


# --- full runs ---------------------------------------------------------------------


CSV_BASE_COLUMNS = ["step", "task_loss", "equi_loss", "total_loss", "psnr", "e_out_mean", "e_feat_mean"]


def _fmt(v):
    return repr(float(v)) if isinstance(v, float) else str(v)


def train(net, train_data, cfg, eval_data=None, out_dir=None):
    """Run cfg.steps of train_step with periodic evaluation and checkpoints.

    Writes report.csv, config.json and checkpoints under out_dir when given.
    Returns (net, rows, final EquivReport); rows carry one dict per eval point.
    """
    if len(train_data) == 0:
        raise ValueError("cannot train on an empty dataset")
    out_dir = out_dir or cfg.out_dir
    state = init_state(net, cfg)
    inputs = train_data.inputs()
    clean = train_data.clean
    n = inputs.shape[0]
    measured = eval_data if eval_data is not None else train_data

    group = net.group
    columns = CSV_BASE_COLUMNS + [f"e_out_k{k}" for k in range(1, group.order)]
    csv_path = None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "config.json"), "w", encoding="ascii") as fp:
            json.dump(asdict(cfg), fp, sort_keys=True, indent=2)
            fp.write("\n")
        csv_path = os.path.join(out_dir, "report.csv")
        with open(csv_path, "w", encoding="ascii") as fp:
            fp.write(",".join(columns) + "\n")

    rows = []
    report = None
    with batch_executor(cfg.threads) as state.executor:
        for _ in range(cfg.steps):
            idx = state.rng.integers(0, n, size=cfg.batch_size)
            losses = train_step(state, (inputs[idx], clean[idx]), cfg)
            if state.step % cfg.eval_period == 0 or state.step == cfg.steps:
                report = measure_equivariance(state.net, measured, executor=state.executor)
                report.step = state.step
                row = {
                    "step": state.step,
                    "task_loss": losses["task"],
                    "equi_loss": losses["equi"],
                    "total_loss": losses["total"],
                    "psnr": report.psnr,
                    "e_out_mean": report.e_out_mean,
                    "e_feat_mean": report.e_feat_mean,
                }
                for k, v in report.output_errors.items():
                    row[f"e_out_k{k}"] = v
                rows.append(row)
                if csv_path:
                    with open(csv_path, "a", encoding="ascii") as fp:
                        fp.write(",".join(_fmt(row[c]) for c in columns) + "\n")
                if out_dir:
                    save_checkpoint(os.path.join(out_dir, f"ckpt_{state.step:06d}.eqnet"), state.net)
    if out_dir:
        save_checkpoint(os.path.join(out_dir, "ckpt_final.eqnet"), state.net)
    return state.net, rows, report
