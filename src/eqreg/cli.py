"""Command line frontend: gen-data, train, eval, measure-equiv, dump-features.

Exit codes: 0 success, 1 usage error, 2 I/O or format error, 3 non-finite loss.

BLAS thread caps must be in the environment before numpy loads, so the heavy
imports live inside the handlers and main() touches os.environ first.
EQREG_THREADS sets the batch worker threads of train, eval and measure-equiv
(default 1); BLAS stays single-threaded unless the caller pinned it otherwise.
"""

import argparse
import os
import sys

_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for I/O.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    p = _Parser(prog="eqreg", description="Rotation-equivariance regularization for restoration CNNs.")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    g = sub.add_parser("gen-data", help="render and degrade a synthetic shard")
    g.add_argument("--out", required=True, help="output shard directory")
    g.add_argument("--count", required=True, type=int, help="number of samples")
    g.add_argument("--size", type=int, default=32)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--task", choices=("denoise", "inpaint"), default="denoise")
    g.add_argument("--sigma", type=float, default=0.1, help="noise std dev")
    g.add_argument("--mask-rate", type=float, default=0.3, help="inpaint drop probability")
    g.set_defaults(func=_cmd_gen_data)

    t = sub.add_parser("train", help="train a restoration network on a shard")
    t.add_argument("--data", required=True, help="training shard directory")
    t.add_argument("--out", required=True, help="run directory for reports and checkpoints")
    t.add_argument("--steps", type=int, default=2000)
    t.add_argument("--batch", type=int, default=8)
    t.add_argument("--lr", type=float, default=2e-3)
    t.add_argument("--lambda", dest="lam", type=float, default=0.1, help="equivariance penalty weight")
    t.add_argument("--group-order", type=int, default=4)
    t.add_argument("--n-hidden", type=int, default=8, help="hidden width per group element")
    t.add_argument("--depth", type=int, default=3, help="number of conv layers")
    t.add_argument("--kernel", type=int, default=3)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--reduction", choices=("mean", "sum"), default="mean")
    t.add_argument("--output-consistency", action="store_true", help="add the rotate-the-output penalty")
    t.add_argument("--oc-weight", type=float, default=1.0)
    t.add_argument("--no-residual", action="store_true")
    t.add_argument("--eval-data", default=None, help="held-out shard for reports (default: training shard)")
    t.add_argument("--eval-period", type=int, default=500)
    t.set_defaults(func=_cmd_train)

    e = sub.add_parser("eval", help="mean PSNR of a checkpoint on a shard")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", required=True)
    e.set_defaults(func=_cmd_eval)

    m = sub.add_parser("measure-equiv", help="equivariance error report for a checkpoint")
    m.add_argument("--ckpt", required=True)
    m.add_argument("--data", required=True)
    m.add_argument("--out", default="equiv.csv", help="report CSV path")
    m.set_defaults(func=_cmd_measure_equiv)

    d = sub.add_parser("dump-features", help="dump per-layer activations for one image")
    d.add_argument("--ckpt", required=True)
    d.add_argument("--image", required=True, help="input PGM/PPM")
    d.add_argument("--out", required=True, help="output directory")
    d.set_defaults(func=_cmd_dump_features)
    return p


def _threads():
    raw = os.environ.get("EQREG_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        raise ValueError(f"EQREG_THREADS must be an integer, got {raw!r}") from None
    if threads < 1:
        raise ValueError(f"EQREG_THREADS must be >= 1, got {threads}")
    return threads


def _cmd_gen_data(args):
    from .data import SceneSpec, make_dataset, write_shard

    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    spec = SceneSpec(size=args.size)
    ds = make_dataset(args.task, args.count, args.seed, spec, args.sigma, args.mask_rate)
    write_shard(args.out, ds)
    print(f"wrote {args.count} {args.task} samples to {args.out}")
    return 0


def _load_shard(path):
    from .data import read_shard

    return read_shard(path)


def _cmd_train(args):
    from .group import RotationGroup
    from .losses import EqRegConfig
    from .model import build_network, init_weights
    from .trainer import TrainConfig, train

    group = RotationGroup(args.group_order)
    if not group.exact:
        print(
            f"warning: group order {group.order} uses interpolated rotations; "
            "equivariance holds only approximately",
            file=sys.stderr,
        )
    data = _load_shard(args.data)
    eval_data = _load_shard(args.eval_data) if args.eval_data else None
    net = build_network(
        data.inputs().shape[1],
        data.clean.shape[1],
        group,
        n_hidden=args.n_hidden,
        depth=args.depth,
        kernel_size=args.kernel,
        residual=not args.no_residual,
    )
    net = init_weights(net, args.seed)
    cfg = TrainConfig(
        steps=args.steps,
        batch_size=args.batch,
        lr=args.lr,
        seed=args.seed,
        task=data.meta["task"],
        eval_period=args.eval_period,
        threads=_threads(),
        out_dir=args.out,
        eqreg=EqRegConfig(
            lam=args.lam,
            reduction=args.reduction,
            output_consistency=args.output_consistency,
            output_consistency_weight=args.oc_weight,
        ),
    )
    _, rows, report = train(net, data, cfg, eval_data=eval_data)
    last = rows[-1]
    print(
        f"step {last['step']}: total={last['total_loss']:.6g} psnr={last['psnr']:.3f} "
        f"e_out={last['e_out_mean']:.4g} e_feat={last['e_feat_mean']:.4g}"
    )
    print(f"run artifacts in {args.out}")
    return 0


def _cmd_eval(args):
    from .model import load_checkpoint
    from .trainer import batch_executor, evaluate

    net = load_checkpoint(args.ckpt)
    data = _load_shard(args.data)
    with batch_executor(_threads()) as executor:
        res = evaluate(net, data, executor=executor)
    print(f"mean_psnr={res.mean_psnr:.6f} over {len(data)} images")
    return 0


def _cmd_measure_equiv(args):
    from .model import load_checkpoint
    from .trainer import batch_executor, measure_equivariance

    net = load_checkpoint(args.ckpt)
    data = _load_shard(args.data)
    with batch_executor(_threads()) as executor:
        report = measure_equivariance(net, data, executor=executor)
    header, rows = report.csv_rows()
    with open(args.out, "w", encoding="ascii") as fp:
        fp.write(",".join(header) + "\n")
        for row in rows:
            fp.write(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) + "\n")
    print(
        f"psnr={report.psnr:.3f} e_out_mean={report.e_out_mean:.6g} "
        f"e_feat_mean={report.e_feat_mean:.6g} -> {args.out}"
    )
    return 0


def _tile_channels(h):
    """Channel grid normalized to [0, 1] for a quick visual check."""
    import numpy as np

    c, hh, ww = h.shape
    cols = int(np.ceil(np.sqrt(c)))
    rows = (c + cols - 1) // cols
    lo, hi = float(h.min()), float(h.max())
    scaled = (h - lo) / (hi - lo) if hi > lo else np.zeros_like(h)
    grid = np.zeros((rows * hh, cols * ww), dtype=h.dtype)
    for i in range(c):
        r, q = divmod(i, cols)
        grid[r * hh : (r + 1) * hh, q * ww : (q + 1) * ww] = scaled[i]
    return grid[None]


def _cmd_dump_features(args):
    import numpy as np

    from .data import load_image, save_image
    from .model import forward_with_tape, load_checkpoint
    from .tensor import save_tensor

    net = load_checkpoint(args.ckpt)
    x = load_image(args.image)
    out, tape = forward_with_tape(net, x)
    os.makedirs(args.out, exist_ok=True)
    for i, h in enumerate(tape.hidden):
        save_tensor(os.path.join(args.out, f"feature_l{i}.eqt1"), h[0])
        save_image(os.path.join(args.out, f"feature_l{i}.pgm"), _tile_channels(h[0]))
    save_tensor(os.path.join(args.out, "restored.eqt1"), out[0])
    save_image(os.path.join(args.out, "restored.pgm"), np.clip(out[0], 0.0, 1.0))
    print(f"wrote {len(tape.hidden)} feature layers and the restoration to {args.out}")
    return 0


def main(argv=None):
    for var in _BLAS_VARS:
        os.environ.setdefault(var, "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage or help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"eqreg: error: {exc}", file=sys.stderr)
        return 1
    except _io_errors() as exc:
        print(f"eqreg: {exc}", file=sys.stderr)
        return 2
    except _numerics_error() as exc:
        print(f"eqreg: {exc}", file=sys.stderr)
        return 3


def _io_errors():
    from .data import NetpbmError, ShardError
    from .tensor import EqtFormatError

    return (OSError, EqtFormatError, NetpbmError, ShardError)


def _numerics_error():
    from .trainer import NumericsError

    return NumericsError


if __name__ == "__main__":
    sys.exit(main())
