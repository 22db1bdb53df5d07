import json
import os
import subprocess
import sys

import numpy as np
import pytest

from eqreg.cli import main
from eqreg.data import read_shard, save_image
from eqreg.model import load_checkpoint, save_checkpoint
from eqreg.tensor import load_tensor

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args):
    return main(list(args))


def run_subprocess(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("EQREG_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "eqreg", *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture(scope="module")
def shard(tmp_path_factory):
    d = tmp_path_factory.mktemp("shard")
    assert run_cli("gen-data", "--out", str(d), "--count", "12", "--seed", "3") == 0
    return d


@pytest.fixture(scope="module")
def trained(tmp_path_factory, shard):
    d = tmp_path_factory.mktemp("run")
    code = run_cli(
        "train",
        "--data", str(shard),
        "--out", str(d),
        "--steps", "4",
        "--batch", "4",
        "--eval-period", "4",
        "--seed", "1",
    )
    assert code == 0
    return d


class TestGenData:
    def test_writes_shard(self, shard):
        ds = read_shard(shard)
        assert len(ds) == 12
        assert ds.meta["task"] == "denoise" and ds.meta["seed"] == 3

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert run_cli("gen-data", "--out", str(d), "--count", "5", "--seed", "9") == 0
        assert (a / "data.eqt1").read_bytes() == (b / "data.eqt1").read_bytes()
        assert (a / "meta.json").read_text() == (b / "meta.json").read_text()

    def test_inpaint_shard(self, tmp_path):
        d = tmp_path / "ip"
        code = run_cli(
            "gen-data", "--out", str(d), "--count", "4", "--task", "inpaint",
            "--sigma", "0.05", "--mask-rate", "0.3",
        )
        assert code == 0
        ds = read_shard(d)
        assert ds.mask is not None and ds.meta["mask_rate"] == 0.3

    def test_zero_count_writes_empty_shard(self, tmp_path):
        d = tmp_path / "z"
        assert run_cli("gen-data", "--out", str(d), "--count", "0") == 0
        assert (d / "data.eqt1").exists() and (d / "meta.json").exists()
        assert read_shard(d).meta["count"] == 0

    def test_bad_mask_rate_is_usage_error(self, tmp_path):
        code = run_cli(
            "gen-data", "--out", str(tmp_path / "m"), "--count", "2",
            "--task", "inpaint", "--mask-rate", "1.5",
        )
        assert code == 1

    def test_non_finite_sigma_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert run_cli("gen-data", "--out", str(out), "--count", "2", "--sigma", "nan") == 1
        assert "sigma" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_size_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert run_cli("gen-data", "--out", str(out), "--count", "2", "--size", "0") == 1
        err = capsys.readouterr().err
        assert "size must be >= 1" in err and "Traceback" not in err
        assert not out.exists()


class TestTrain:
    def test_artifacts(self, trained):
        assert (trained / "ckpt_final.eqnet").exists()
        assert (trained / "report.csv").exists()
        conf = json.loads((trained / "config.json").read_text())
        assert conf["steps"] == 4

    def test_missing_shard_is_io_error(self, tmp_path):
        code = run_cli(
            "train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o"),
            "--steps", "1",
        )
        assert code == 2

    def test_unknown_flag_is_usage_error(self):
        assert run_cli("train", "--frobnicate") == 1

    def test_malformed_sidecar_is_io_error(self, tmp_path, shard):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "data.eqt1").write_bytes((shard / "data.eqt1").read_bytes())
        meta = json.loads((shard / "meta.json").read_text())
        meta["count"] = "2"
        (bad / "meta.json").write_text(json.dumps(meta))
        res = run_subprocess("train", "--data", str(bad), "--out", str(tmp_path / "o"), "--steps", "1")
        assert res.returncode == 2
        assert "count" in res.stderr and "Traceback" not in res.stderr

    def test_short_sidecar_count_is_io_error(self, tmp_path, shard):
        # the 12-sample stream under a sidecar claiming 3 samples
        bad = tmp_path / "short"
        bad.mkdir()
        (bad / "data.eqt1").write_bytes((shard / "data.eqt1").read_bytes())
        meta = json.loads((shard / "meta.json").read_text())
        meta["count"] = 3
        (bad / "meta.json").write_text(json.dumps(meta))
        res = run_subprocess("train", "--data", str(bad), "--out", str(tmp_path / "o"), "--steps", "1")
        assert res.returncode == 2
        assert "more than" in res.stderr and "Traceback" not in res.stderr

    def test_sidecar_without_valid_task_is_io_error(self, tmp_path, shard):
        for name, task in (("no_task", None), ("bad_task", "foo")):
            bad = tmp_path / name
            bad.mkdir()
            (bad / "data.eqt1").write_bytes((shard / "data.eqt1").read_bytes())
            meta = json.loads((shard / "meta.json").read_text())
            meta.pop("task")
            if task is not None:
                meta["task"] = task
            (bad / "meta.json").write_text(json.dumps(meta))
            res = run_subprocess("train", "--data", str(bad), "--out", str(tmp_path / "o"), "--steps", "1")
            assert res.returncode == 2, res.stderr
            assert "task" in res.stderr and "Traceback" not in res.stderr

    def test_zero_width_is_usage_error(self, tmp_path, shard):
        res = run_subprocess("train", "--data", str(shard), "--out", str(tmp_path / "o"), "--steps", "1", "--n-hidden", "0")
        assert res.returncode == 1, res.stderr
        assert "n_hidden" in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.parametrize("flags", [
        ("--lambda", "nan"),
        ("--oc-weight", "nan", "--output-consistency"),
        ("--lr", "nan"),
    ], ids=["lambda", "oc-weight", "lr"])
    def test_non_finite_setting_is_usage_error(self, tmp_path, shard, capsys, flags):
        out = tmp_path / "o"
        code = run_cli("train", "--data", str(shard), "--out", str(out), "--steps", "2", "--batch", "4", *flags)
        assert code == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("task, count, message", [
        ("inpaint", "4", "eval shard has 2 input channels"),
        ("denoise", "0", "eval shard is empty"),
    ], ids=["channels", "empty"])
    def test_unusable_eval_shard_refused_before_training(self, tmp_path, shard, capsys, task, count, message):
        ev = tmp_path / "ev"
        assert run_cli("gen-data", "--out", str(ev), "--count", count, "--task", task) == 0
        out = tmp_path / "o"
        code = run_cli(
            "train", "--data", str(shard), "--eval-data", str(ev), "--out", str(out),
            "--steps", "6", "--batch", "4", "--eval-period", "5",
        )
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path, shard):
        outs = []
        for name in ("r1", "r2"):
            d = tmp_path / name
            res = run_subprocess(
                "train", "--data", str(shard), "--out", str(d),
                "--steps", "3", "--batch", "4", "--seed", "7", "--eval-period", "3",
            )
            assert res.returncode == 0, res.stderr
            outs.append(d)
        a, b = outs
        assert (a / "ckpt_final.eqnet").read_bytes() == (b / "ckpt_final.eqnet").read_bytes()
        assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()

    def test_group_order_3_warns_but_runs(self, tmp_path, shard):
        res = run_subprocess(
            "train", "--data", str(shard), "--out", str(tmp_path / "g3"),
            "--steps", "1", "--group-order", "3", "--n-hidden", "2",
        )
        assert res.returncode == 0, res.stderr
        assert "interpolat" in res.stderr.lower()

    def test_nan_is_numeric_failure(self, tmp_path, shard):
        res = run_subprocess(
            "train", "--data", str(shard), "--out", str(tmp_path / "nan"),
            "--steps", "20", "--lr", "1e8",
        )
        assert res.returncode == 3
        assert "non-finite" in res.stderr

    def test_out_of_memory_is_one_line_error(self, tmp_path, shard):
        # the batch's 8 PB index array exceeds any address space, whatever the overcommit policy
        res = run_subprocess("train", "--data", str(shard), "--out", str(tmp_path / "oom"), "--steps", "1",
                             "--batch", str(10**15))
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert res.stderr.startswith("eqreg: error: Unable to allocate") and res.stderr.count("\n") == 1

    def test_non_finite_update_writes_no_checkpoint(self, tmp_path, shard):
        out = tmp_path / "huge_lr"
        res = run_subprocess("train", "--data", str(shard), "--out", str(out), "--steps", "1", "--lr", "1e39")
        assert res.returncode == 3
        assert "non-finite" in res.stderr
        assert not (out / "ckpt_final.eqnet").exists()


class TestEval:
    def test_prints_mean_psnr(self, capsys, trained, shard):
        assert run_cli("eval", "--ckpt", str(trained / "ckpt_final.eqnet"), "--data", str(shard)) == 0
        out = capsys.readouterr().out
        assert out.startswith("mean_psnr=")
        val = float(out.split("=", 1)[1].split()[0])
        assert 5.0 < val < 99.0

    def test_missing_ckpt_is_io_error(self, tmp_path, shard):
        assert run_cli("eval", "--ckpt", str(tmp_path / "no.eqnet"), "--data", str(shard)) == 2

    def test_corrupt_ckpt_is_io_error(self, tmp_path, shard):
        p = tmp_path / "bad.eqnet"
        p.write_bytes(b"\x00\x01\x02")
        assert run_cli("eval", "--ckpt", str(p), "--data", str(shard)) == 2

    def test_huge_tensor_dims_are_io_error(self, tmp_path, trained, shard):
        # a valid descriptor followed by an EQT1 record claiming 8 dims of 2^32 - 1
        good = (trained / "ckpt_final.eqnet").read_bytes()
        desc_end = 4 + int.from_bytes(good[:4], "little")
        p = tmp_path / "huge.eqnet"
        p.write_bytes(good[:desc_end] + b"EQT1" + bytes([0, 8]) + b"\xff\xff\xff\xff" * 8)
        assert run_cli("eval", "--ckpt", str(p), "--data", str(shard)) == 2

    def test_huge_declared_conv_is_io_error(self, tmp_path, shard):
        # 60 bytes of descriptor declaring a 1.3 TiB weight, and no tensors
        desc = b"eqnet1 order=4 n_hidden=2 residual=1 layers=conv:200000:200000:3"
        p = tmp_path / "huge_desc.eqnet"
        p.write_bytes(len(desc).to_bytes(4, "little") + desc)
        res = run_subprocess("eval", "--ckpt", str(p), "--data", str(shard))
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr

    def test_trailing_bytes_are_io_error(self, tmp_path, trained, shard):
        p = tmp_path / "long.eqnet"
        p.write_bytes((trained / "ckpt_final.eqnet").read_bytes() + b"garbage")
        res = run_subprocess("eval", "--ckpt", str(p), "--data", str(shard))
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr

    def test_non_finite_weight_is_io_error(self, tmp_path, trained, shard):
        # one NaN weight used to load: eval printed mean_psnr=nan, measure-equiv e_out_mean=inf
        net = load_checkpoint(trained / "ckpt_final.eqnet")
        net.conv_params[0].weight[0, 0, 1, 1] = np.nan
        p = tmp_path / "nan.eqnet"
        save_checkpoint(p, net)
        for cmd in (["eval"], ["measure-equiv", "--out", str(tmp_path / "equiv.csv")]):
            res = run_subprocess(*cmd, "--ckpt", str(p), "--data", str(shard))
            assert res.returncode == 2, res.stderr
            assert "non-finite" in res.stderr and "Traceback" not in res.stderr


class TestMeasureEquiv:
    def test_writes_csv(self, tmp_path, trained, shard):
        out = tmp_path / "equiv.csv"
        code = run_cli(
            "measure-equiv", "--ckpt", str(trained / "ckpt_final.eqnet"),
            "--data", str(shard), "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("k,e_out,e_feat_l0")
        assert len(lines) == 4  # header + k in {1,2,3}


class TestDumpFeatures:
    def test_writes_tapes_and_renders(self, tmp_path, trained):
        img = np.random.default_rng(0).random((1, 1, 16, 16)).astype(np.float32)
        img_path = tmp_path / "in.pgm"
        save_image(img_path, img)
        out_dir = tmp_path / "feats"
        code = run_cli(
            "dump-features", "--ckpt", str(trained / "ckpt_final.eqnet"),
            "--image", str(img_path), "--out", str(out_dir),
        )
        assert code == 0
        # 3-layer net: two hidden tapes, each as EQT1 plus a PGM grid,
        # and the restored image alongside
        eqts = sorted(out_dir.glob("feature_*.eqt1"))
        pgms = sorted(out_dir.glob("feature_*.pgm"))
        assert len(eqts) == 2 and len(pgms) == 2
        assert (out_dir / "restored.eqt1").exists()
        assert (out_dir / "restored.pgm").exists()
        feat = load_tensor(eqts[0])
        assert feat.shape == (32, 16, 16)

    def test_missing_image_is_io_error(self, tmp_path, trained):
        code = run_cli(
            "dump-features", "--ckpt", str(trained / "ckpt_final.eqnet"),
            "--image", str(tmp_path / "no.pgm"), "--out", str(tmp_path / "f"),
        )
        assert code == 2


class TestThreadsEnv:
    def test_bad_value_is_usage_error(self, tmp_path, shard):
        res = run_subprocess(
            "train", "--data", str(shard), "--out", str(tmp_path / "t"),
            "--steps", "1", env_extra={"EQREG_THREADS": "zero"},
        )
        assert res.returncode == 1

    def test_threaded_run_completes(self, tmp_path, shard):
        res = run_subprocess(
            "train", "--data", str(shard), "--out", str(tmp_path / "t2"),
            "--steps", "2", env_extra={"EQREG_THREADS": "2"},
        )
        assert res.returncode == 0, res.stderr

    def test_measure_equiv_csv_same_at_two_threads(self, tmp_path, trained, shard):
        csvs = []
        for threads in ("1", "2"):
            out = tmp_path / f"equiv{threads}.csv"
            res = run_subprocess(
                "measure-equiv", "--ckpt", str(trained / "ckpt_final.eqnet"),
                "--data", str(shard), "--out", str(out), env_extra={"EQREG_THREADS": threads},
            )
            assert res.returncode == 0, res.stderr
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]

    def test_train_same_at_two_and_three_threads(self, tmp_path, shard):
        runs = []
        for threads in ("2", "3"):
            d = tmp_path / f"t{threads}"
            res = run_subprocess(
                "train", "--data", str(shard), "--out", str(d), "--steps", "4",
                "--batch", "8", "--seed", "5", "--eval-period", "2", env_extra={"EQREG_THREADS": threads},
            )
            assert res.returncode == 0, res.stderr
            runs.append(d)
        a, b = runs
        for name in ("ckpt_000002.eqnet", "ckpt_final.eqnet", "report.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_eval_same_at_two_threads(self, trained, shard):
        outs = [
            run_subprocess(
                "eval", "--ckpt", str(trained / "ckpt_final.eqnet"), "--data", str(shard),
                env_extra={"EQREG_THREADS": threads},
            )
            for threads in ("1", "2")
        ]
        assert all(r.returncode == 0 for r in outs), [r.stderr for r in outs]
        assert outs[0].stdout == outs[1].stdout


def test_every_export_resolves():
    import eqreg

    for name in eqreg.__all__:
        assert getattr(eqreg, name).__name__ == name
