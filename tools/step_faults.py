"""Page faults and system time per training step, for each benchmark config.

    python3 tools/step_faults.py CHECKOUT [CONFIG]

Imports eqreg from CHECKOUT/src and the benchmark's workload table from
CHECKOUT/bench/harness.py. For each workload there (or just CONFIG) it builds
the benchmark's network and a 64-image training shard, runs WARMUP steps of
trainer.train_step and then STEPS timed ones, then times one
trainer.measure_equivariance on a HELDOUT-image shard on the same executor.
It prints one line per config: the step p50, the minor page faults and
system CPU time per timed step, both from getrusage deltas over the timed
steps, the meter's images per second, and the process's peak RSS (ru_maxrss)
at the end. Each config runs in its own process, so one config's heap and
peak RSS do not carry into the next. BLAS is pinned
to one thread, as the eqreg CLI and the benchmark pin it.
"""

import os
import subprocess
import sys

WARMUP = 20
STEPS = 130
COUNT = 64
HELDOUT = 200


def measure(harness, name):
    import resource
    import statistics
    import time

    from eqreg import trainer
    from eqreg.data import make_dataset
    from eqreg.group import RotationGroup
    from eqreg.losses import EqRegConfig
    from eqreg.model import build_network, init_weights

    wl, batch = harness.WORKLOADS[name], harness.BATCH
    data = make_dataset(wl.task, COUNT, seed=1, sigma=wl.sigma, mask_rate=wl.mask_rate)
    heldout = make_dataset(wl.task, HELDOUT, seed=3, sigma=wl.sigma, mask_rate=wl.mask_rate)
    inputs, clean = data.inputs(), data.clean
    net = init_weights(build_network(inputs.shape[1], clean.shape[1], RotationGroup(wl.order), n_hidden=wl.n_hidden,
                                     depth=harness.DEPTH, kernel_size=harness.KERNEL), 0)
    cfg = trainer.TrainConfig(steps=WARMUP + STEPS, batch_size=batch, seed=2, threads=wl.threads,
                              eqreg=EqRegConfig(lam=harness.LAM, output_consistency=wl.output_consistency))
    state = trainer.init_state(net, cfg)
    times = []
    with trainer.batch_executor(wl.threads) as state.executor:
        for i in range(WARMUP + STEPS):
            if i == WARMUP:
                before = resource.getrusage(resource.RUSAGE_SELF)
            lo = (i * batch) % COUNT
            start = time.perf_counter()
            trainer.train_step(state, (inputs[lo : lo + batch], clean[lo : lo + batch]), cfg)
            times.append(time.perf_counter() - start)
        after = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        trainer.measure_equivariance(state.net, heldout, executor=state.executor)
        meter_s = time.perf_counter() - start
    p50 = 1e3 * statistics.median(times[WARMUP:])
    faults = (after.ru_minflt - before.ru_minflt) / STEPS
    sys_ms = 1e3 * (after.ru_stime - before.ru_stime) / STEPS
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB
    print(f"{name:16s} step p50 {p50:6.1f} ms  minor faults/step {faults:7.1f}  sys/step {sys_ms:5.2f} ms"
          f"  meter {HELDOUT / meter_s:5.0f} images/s  peak RSS {peak_mb:6.1f} MB", flush=True)


def main(argv):
    if len(argv) not in (1, 2):
        print(f"usage: {sys.argv[0]} CHECKOUT [CONFIG]", file=sys.stderr)
        return 1
    checkout = os.path.abspath(argv[0])
    src, bench = os.path.join(checkout, "src"), os.path.join(checkout, "bench")
    if not (os.path.isfile(os.path.join(src, "eqreg", "__init__.py")) and os.path.isfile(os.path.join(bench, "harness.py"))):
        print(f"step_faults: no eqreg sources or bench/harness.py under {checkout}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, bench]
    from eqreg.cli import _BLAS_VARS  # loads no numpy

    for var in _BLAS_VARS:  # before harness loads numpy
        os.environ[var] = "1"
    import harness

    if len(argv) == 2:
        if argv[1] not in harness.WORKLOADS:
            print(f"usage: {sys.argv[0]} CHECKOUT [{'|'.join(harness.WORKLOADS)}]", file=sys.stderr)
            return 1
        measure(harness, argv[1])
        return 0
    for name in harness.WORKLOADS:
        status = subprocess.call([sys.executable, os.path.abspath(__file__), argv[0], name])
        if status:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
