"""Page faults and system time per training step, for each benchmark config.

    python3 tools/step_faults.py CHECKOUT [CONFIG]

Imports eqreg from CHECKOUT/src and, for each config (or just CONFIG), builds
the benchmark's network and a 64-image training shard, runs WARMUP steps of
trainer.train_step and then STEPS timed ones, then times one
trainer.measure_equivariance on a HELDOUT-image shard on the same executor.
It prints one line per config: the step p50, the minor page faults and
system CPU time per timed step, both from getrusage deltas over the timed
steps, and the meter's images per second. Each config runs in its own
process, so one config's heap does not carry into the next. BLAS is pinned
to one thread, as the eqreg CLI and the benchmark pin it.
"""

import os
import subprocess
import sys

# name -> (task, sigma, group order, n_hidden, threads, output consistency), as in bench/harness.py
CONFIGS = {
    "denoise-c4": ("denoise", 0.1, 4, 8, 1, False),
    "denoise-c4-2thr": ("denoise", 0.1, 4, 8, 2, False),
    "inpaint-c8-oc": ("inpaint", 0.05, 8, 4, 1, True),
}
WARMUP = 20
STEPS = 130
BATCH = 8
COUNT = 64
HELDOUT = 200


def measure(name):
    import resource
    import statistics
    import time

    from eqreg import trainer
    from eqreg.data import make_dataset
    from eqreg.group import RotationGroup
    from eqreg.losses import EqRegConfig
    from eqreg.model import build_network, init_weights

    task, sigma, order, n_hidden, threads, oc = CONFIGS[name]
    data = make_dataset(task, COUNT, seed=1, sigma=sigma)
    heldout = make_dataset(task, HELDOUT, seed=3, sigma=sigma)
    inputs, clean = data.inputs(), data.clean
    net = init_weights(build_network(inputs.shape[1], clean.shape[1], RotationGroup(order), n_hidden=n_hidden), 0)
    cfg = trainer.TrainConfig(steps=WARMUP + STEPS, batch_size=BATCH, seed=2, threads=threads,
                              eqreg=EqRegConfig(lam=0.1, output_consistency=oc))
    state = trainer.init_state(net, cfg)
    times = []
    with trainer.batch_executor(threads) as state.executor:
        for i in range(WARMUP + STEPS):
            if i == WARMUP:
                before = resource.getrusage(resource.RUSAGE_SELF)
            lo = (i * BATCH) % COUNT
            start = time.perf_counter()
            trainer.train_step(state, (inputs[lo : lo + BATCH], clean[lo : lo + BATCH]), cfg)
            times.append(time.perf_counter() - start)
        after = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        trainer.measure_equivariance(state.net, heldout, executor=state.executor)
        meter_s = time.perf_counter() - start
    p50 = 1e3 * statistics.median(times[WARMUP:])
    faults = (after.ru_minflt - before.ru_minflt) / STEPS
    sys_ms = 1e3 * (after.ru_stime - before.ru_stime) / STEPS
    print(f"{name:16s} step p50 {p50:6.1f} ms  minor faults/step {faults:7.1f}  sys/step {sys_ms:5.2f} ms"
          f"  meter {HELDOUT / meter_s:5.0f} images/s", flush=True)


def main(argv):
    if len(argv) not in (1, 2) or (len(argv) == 2 and argv[1] not in CONFIGS):
        print(f"usage: {sys.argv[0]} CHECKOUT [{'|'.join(CONFIGS)}]", file=sys.stderr)
        return 1
    src = os.path.join(os.path.abspath(argv[0]), "src")
    if not os.path.isfile(os.path.join(src, "eqreg", "__init__.py")):
        print(f"step_faults: no eqreg sources under {src}", file=sys.stderr)
        return 2
    if len(argv) == 2:
        sys.path.insert(0, src)
        from eqreg.cli import _BLAS_VARS  # loads no numpy

        for var in _BLAS_VARS:
            os.environ[var] = "1"
        measure(argv[1])
        return 0
    for name in CONFIGS:
        status = subprocess.call([sys.executable, os.path.abspath(__file__), argv[0], name])
        if status:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
