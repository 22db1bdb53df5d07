"""Closed-loop training benchmark for eqreg.

One run sets a workload up several times, then trains it through the public
``eqreg.train`` in rounds of ROUND_STEPS steps, each round from the same
initial weights and each ending in the trainer's own ``measure_equivariance``
on the held-out shard. Every step starts when the previous one returns.
``train_step`` and ``measure_equivariance`` are timed at the names ``train``
looks them up by. Rounds repeat while another one fits in the run's seconds;
there is always at least one.

With tracing on, every other step and every meter call also record per-module
spans (see spans.py); the untraced steps of the same run give the reference
for the tracing overhead.
"""

import os
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from eqreg import trainer
from eqreg.data import make_dataset, read_shard, write_shard
from eqreg.group import RotationGroup
from eqreg.losses import EqRegConfig
from eqreg.model import build_network, init_weights, load_checkpoint, network_copy, save_checkpoint

import checks
from spans import GROUP_OPS, Tracer, patched, per_layer_metrics

IMAGE_SIZE = 32
BATCH = 8
KERNEL = 3
DEPTH = 3
TRAIN_COUNT = 500
HELDOUT_COUNT = 200
LAM = 0.1
ROUND_STEPS = 100  # at least 100 step samples, so p90 has ten samples above it
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    task: str
    sigma: float
    order: int
    n_hidden: int
    threads: int = 1
    output_consistency: bool = False
    mask_rate: float = 0.3

    def config(self, steps, seed):
        return trainer.TrainConfig(
            steps=steps, batch_size=BATCH, seed=seed, task=self.task, eval_period=steps,
            threads=self.threads, eqreg=EqRegConfig(lam=LAM, output_consistency=self.output_consistency),
        )


WORKLOADS = {
    "denoise-c4": Workload("denoise", sigma=0.1, order=4, n_hidden=8),
    "denoise-c4-2thr": Workload("denoise", sigma=0.1, order=4, n_hidden=8, threads=2),
    "inpaint-c8-oc": Workload("inpaint", sigma=0.05, order=8, n_hidden=4, output_consistency=True),
}

# name -> (unit, better); the order is the order printed
END_TO_END = {
    "setup_s": ("s", "lower"),
    "step_ms_p50": ("ms", "lower"),
    "step_ms_p90": ("ms", "lower"),
    "equiv_images_per_s": ("images/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "final_psnr_db": ("dB", "higher"),
    "feat_equiv_err": ("rel", "lower"),
}


def _per_layer_units():
    units = {}
    for kind in ("forward", "backward"):
        for layer in range(DEPTH):
            units[f"tensor.conv2d_{kind}.l{layer}.ms"] = ("ms", "lower")
    for kind in ("forward", "backward"):
        units[f"tensor.conv2d_{kind}.calls"] = ("count", "lower")
    units["tensor.conv.gmac"] = ("GMAC", "lower")
    units["model.forward_with_tape.self_ms"] = ("ms", "lower")
    units["model.backprop.self_ms"] = ("ms", "lower")
    for op in GROUP_OPS:
        units[f"group.{op}.ms"] = ("ms", "lower")
        units[f"group.{op}.calls"] = ("count", "lower")
    units["losses.equi_injections.self_ms"] = ("ms", "lower")
    units["trainer.train_step.self_ms"] = ("ms", "lower")
    units["trainer.adam_update.ms"] = ("ms", "lower")
    units["trainer.train_step.parallelism"] = ("ratio", "higher")
    for part in ("forward_s", "group_s", "self_s"):
        units[f"trainer.measure_equivariance.{part}"] = ("s", "lower")
    for phase in ("make_dataset", "write_shard", "read_shard"):
        units[f"data.{phase}.s"] = ("s", "lower")
    for phase in ("save_checkpoint", "load_checkpoint"):
        units[f"model.{phase}.ms"] = ("ms", "lower")
    units["trace.overhead_ms"] = ("ms", "lower")
    return units


PER_LAYER = _per_layer_units()


@dataclass(frozen=True)
class Seeds:
    """The shards and the trainer's draws come from --seed.

    The initial weights use the CLI's default seed 0 in every run. With
    seeded weights, feat_equiv_err spread 0.11 (IQR over median, eight seeds)
    against 0.02 with fixed ones; a spread that wide would let a change to the
    training pass unnoticed.
    """

    train_data: int
    heldout_data: int
    train: int
    init: int = 0

    @classmethod
    def derive(cls, seed):
        return cls(*(int(s) for s in np.random.SeedSequence(seed).generate_state(3)))


@dataclass
class Setup:
    train: object
    heldout: object
    net: object
    seconds: float
    phases: dict  # call name -> seconds
    failures: list  # round-trip checks that did not hold


def _timed(phases, name, fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    phases[name] = phases.get(name, 0.0) + time.perf_counter() - start
    return out


def set_up(wl, seeds, workdir):
    """Render both shards, round-trip them and a checkpoint through disk, warm up.

    The returned datasets and network are the ones read back from disk.
    """
    start = time.perf_counter()
    phases = {}
    shards = {}
    for role, count, seed in (("train", TRAIN_COUNT, seeds.train_data), ("heldout", HELDOUT_COUNT, seeds.heldout_data)):
        ds = _timed(phases, "data.make_dataset", make_dataset, wl.task, count, seed,
                    sigma=wl.sigma, mask_rate=wl.mask_rate)
        path = os.path.join(workdir, role)
        _timed(phases, "data.write_shard", write_shard, path, ds)
        shards[role] = (ds, _timed(phases, "data.read_shard", read_shard, path))

    group = RotationGroup(wl.order)
    train = shards["train"][1]
    net = init_weights(build_network(train.inputs().shape[1], train.clean.shape[1], group,
                                     n_hidden=wl.n_hidden, depth=DEPTH, kernel_size=KERNEL), seeds.init)
    ckpt = os.path.join(workdir, "init.eqnet")
    _timed(phases, "model.save_checkpoint", save_checkpoint, ckpt, net)
    loaded = _timed(phases, "model.load_checkpoint", load_checkpoint, ckpt, expect=net)

    # Warm-up: every rotation plan of the group, two steps, one meter-sized forward.
    probe = np.zeros((1, 1, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32)
    for k in range(1, group.order):
        group.rotate_image(probe, k)
        group.rotate_image_adjoint(probe, k)
    cfg = wl.config(2, seeds.train)
    state = trainer.init_state(network_copy(loaded), cfg)
    for lo in (0, BATCH):
        trainer.train_step(state, (train.inputs()[lo : lo + BATCH], train.clean[lo : lo + BATCH]), cfg)
    trainer.forward_with_tape(loaded, shards["heldout"][1].inputs()[:64])
    seconds = time.perf_counter() - start

    failures = [f"{role} shard round trip" for role, (made, read) in shards.items()
                if not checks.datasets_identical(made, read)]
    if not checks.networks_identical(net, loaded):
        failures.append("checkpoint round trip")
    return Setup(train, shards["heldout"][1], loaded, seconds, phases, failures)


class Clock:
    """Times train_step and measure_equivariance at the names train() calls.

    With a tracer, odd-numbered steps and every meter call are traced.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.untraced = []  # step seconds
        self.traced = []
        self.meters = []
        self.attempted = 0
        self.failed = 0

    def _call(self, fn, name, phase, traced, args, kwargs):
        self.attempted += 1
        span = None
        if traced:
            self.tracer.active, self.tracer.phase = True, phase
            span = self.tracer.enter(name)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs), time.perf_counter() - start
        except Exception:
            self.failed += 1
            raise
        finally:
            if span is not None:
                self.tracer.exit(span)
                self.tracer.active, self.tracer.phase = False, None

    def installed(self):
        def step(fn):
            def timed_step(*args, **kwargs):
                traced = self.tracer is not None and (len(self.untraced) + len(self.traced)) % 2 == 1
                out, dt = self._call(fn, "trainer.train_step", "step", traced, args, kwargs)
                (self.traced if traced else self.untraced).append(dt)
                return out
            return timed_step

        def meter(fn):
            def timed_meter(*args, **kwargs):
                traced = self.tracer is not None
                out, dt = self._call(fn, "trainer.measure_equivariance", "meter", traced, args, kwargs)
                self.meters.append(dt)
                return out
            return timed_meter

        return patched([(trainer, "train_step", step), (trainer, "measure_equivariance", meter)])


def train_round(setup, wl, seeds):
    """ROUND_STEPS steps from the set-up weights; returns (trained net, final EquivReport)."""
    net = network_copy(setup.net)
    _, _, report = trainer.train(net, setup.train, wl.config(ROUND_STEPS, seeds.train), eval_data=setup.heldout)
    return net, report


def _layer_map(net):
    keys = [(p.in_channels, p.out_channels) for p in net.conv_params]
    if len(set(keys)) != len(keys):
        raise ValueError(f"conv layers share a shape, so spans cannot name them: {keys}")
    return {key: f"l{i}" for i, key in enumerate(keys)}


def run_checks(wl, seeds, setups, rounds, workdir):
    """Every correctness check on the last trained network; returns {name: (ok, detail)}."""
    setup = setups[-1]
    net, report = rounds[-1]
    results = {}
    ckpt = os.path.join(workdir, "final.eqnet")
    save_checkpoint(ckpt, net)
    failures = [f for s in setups for f in s.failures]
    if not checks.networks_identical(net, load_checkpoint(ckpt, expect=net)):
        failures.append("trained checkpoint round trip")
    results["round trips"] = (not failures, ", ".join(failures) or "shards and checkpoints bit-exact")
    same = all(checks.datasets_identical(s.train, setup.train) and checks.datasets_identical(s.heldout, setup.heldout)
               and checks.networks_identical(s.net, setup.net) for s in setups)
    results["setup repeats"] = (same, f"{len(setups)} set-ups bit-identical" if same else "set-ups differ")

    inputs = setup.heldout.inputs()
    reference = checks.reference_forward(net, inputs)
    results["forward"] = checks.check_forward(net, inputs, reference)
    results["psnr"] = checks.check_psnr(report, reference, setup.heldout)
    if wl.order == 4:
        results["meter outputs"] = checks.check_meter_outputs(net, report, inputs, reference)
    cfg = wl.config(ROUND_STEPS, seeds.train)
    batches = [(setup.train.inputs()[lo : lo + BATCH], setup.train.clean[lo : lo + BATCH])
               for lo in range(0, 4 * BATCH, BATCH)]
    batch = batches[0]
    results["gradient"] = checks.check_gradient(net, batches, cfg)
    results["two threads"] = checks.check_two_threads(net, batch, cfg)
    if wl.threads == 1 and len(rounds) > 1:
        finals = {(r.psnr, r.e_feat_mean, tuple(sorted(r.output_errors.items()))) for _, r in rounds}
        results["rerun"] = (len(finals) == 1, f"{len(rounds)} rounds, {len(finals)} distinct final reports")
    return results


def run(workload, seed, seconds, trace, import_s=0.0, root="."):
    """One benchmark run; returns (result dict for the JSON line, check results, notes)."""
    wl = WORKLOADS[workload]
    seeds = Seeds.derive(seed)
    runs_dir = os.path.join(root, ".bench_runs")
    os.makedirs(runs_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=runs_dir)
    try:
        setups = [set_up(wl, seeds, os.path.join(workdir, f"setup{i}")) for i in range(SETUP_REPEATS)]
        setup = setups[-1]
        tracer = Tracer(_layer_map(setup.net)) if trace else None
        clock = Clock(tracer)
        rounds = []
        peak_rss_mb = None
        start = time.perf_counter()
        with clock.installed():
            with tracer.installed() if tracer else nullcontext():
                while True:
                    round_start = time.perf_counter()
                    try:
                        rounds.append(train_round(setup, wl, seeds))
                    except Exception:
                        traceback.print_exc()
                    if peak_rss_mb is None:
                        # The allocator's peak grows on a second round, and a faster
                        # host fits more rounds, so the peak is read after the first.
                        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                    now = time.perf_counter()
                    if now - start + (now - round_start) > seconds:
                        break
        if not rounds:
            raise RuntimeError(f"no round of {workload} completed; {clock.failed} operations failed")
        results = run_checks(wl, seeds, setups, rounds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = np.array(clock.untraced) * 1e3
    if trace:
        values = per_layer_metrics(tracer.spans, len(clock.traced), len(clock.meters), DEPTH)
        for name in ("data.make_dataset", "data.write_shard", "data.read_shard"):
            values[f"{name}.s"] = statistics.median(s.phases[name] for s in setups)
        for name in ("model.save_checkpoint", "model.load_checkpoint"):
            values[f"{name}.ms"] = 1e3 * statistics.median(s.phases[name] for s in setups)
        values["trace.overhead_ms"] = float(np.median(clock.traced) * 1e3 - np.median(untraced))
        units = PER_LAYER
    else:
        values = {
            "setup_s": import_s + statistics.median(s.seconds for s in setups),
            "step_ms_p50": float(np.median(untraced)),
            "step_ms_p90": float(np.percentile(untraced, 90)),
            "equiv_images_per_s": HELDOUT_COUNT / statistics.median(clock.meters),
            "peak_rss_mb": peak_rss_mb,
            "final_psnr_db": rounds[-1][1].psnr,
            "feat_equiv_err": rounds[-1][1].e_feat_mean,
        }
        units = END_TO_END
    result = {
        "correct": all(ok for ok, _ in results.values()),
        "attempted": clock.attempted,
        "failed": clock.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name][0]} for name in units},
    }
    notes = (f"{len(rounds)} round(s) of {ROUND_STEPS} steps, {len(clock.untraced)} untraced and "
             f"{len(clock.traced)} traced step samples, {len(clock.meters)} meter call(s), "
             f"{SETUP_REPEATS} set-ups")
    return result, results, notes
