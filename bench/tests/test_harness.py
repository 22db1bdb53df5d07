"""Tests for the training benchmark itself (bench/).

The short runs shrink a round to SHORT_STEPS steps; every correctness check
still runs on the result.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import harness  # noqa: E402
from eqreg.group import RotationGroup  # noqa: E402
from eqreg.model import build_network, init_weights  # noqa: E402

SHORT_STEPS = 30


@pytest.fixture
def short_rounds(monkeypatch):
    monkeypatch.setattr(harness, "ROUND_STEPS", SHORT_STEPS)
    monkeypatch.setattr(harness, "SETUP_REPEATS", 2)


def _run(tmp_path, workload, seconds=0.0, trace=False, seed=3):
    result, results, _ = harness.run(workload, seed, seconds, trace, root=str(tmp_path))
    failed = {name: detail for name, (ok, detail) in results.items() if not ok}
    assert not failed, failed
    assert result["correct"] and result["failed"] == 0
    json.dumps(result)  # the last output line must serialize
    assert not os.listdir(tmp_path / ".bench_runs"), "run files left behind"
    return result, results


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fp:
        spec = json.load(fp)
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    for key, table in (("end_to_end", harness.END_TO_END), ("per_layer", harness.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table


def test_denoise_c4_short_run_is_deterministic(tmp_path, short_rounds):
    # one thread: a second run with the same seed trains to the same bits
    result, results = _run(tmp_path, "denoise-c4")
    again, _ = _run(tmp_path, "denoise-c4")
    for name in ("final_psnr_db", "feat_equiv_err"):
        assert result["metrics"][name]["value"] == again["metrics"][name]["value"]
    assert result["attempted"] == SHORT_STEPS + 1
    assert set(result["metrics"]) == set(harness.END_TO_END)
    assert "meter outputs" in results


def test_denoise_c4_2thr_short_traced_run(tmp_path, short_rounds):
    result, _ = _run(tmp_path, "denoise-c4-2thr", trace=True)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(harness.PER_LAYER)
    # two chunks, two branches, three convs; the rotated branch's last conv gets no gradient
    assert metrics["tensor.conv2d_forward.calls"] == 12
    assert metrics["tensor.conv2d_backward.calls"] == 10


def test_inpaint_c8_oc_short_traced_run(tmp_path, short_rounds):
    result, results = _run(tmp_path, "inpaint-c8-oc", trace=True)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["tensor.conv2d_forward.calls"] == 6
    assert metrics["tensor.conv2d_backward.calls"] == 6  # output consistency feeds the rotated branch
    assert metrics["group.rotate_image_adjoint.calls"] == 3  # output gradient plus two feature adjoints
    assert "meter outputs" not in results  # np.rot90 covers quarter turns only


def test_gradient_check_rejects_sign_flipped_gradient(tmp_path):
    wl = harness.WORKLOADS["inpaint-c8-oc"]
    seeds = harness.Seeds.derive(5)
    setup = harness.set_up(wl, seeds, str(tmp_path))
    batch = (setup.train.inputs()[: harness.BATCH], setup.train.clean[: harness.BATCH])
    net64, batch64, cfg = checks.float64_problem(setup.net, batch, wl.config(1, seeds.train))
    _, grads = checks.captured_gradient(net64, batch64, cfg)
    assert checks.gradient_mismatch(net64, batch64, cfg, grads) <= checks.FD_RTOL
    flipped = [(-gw, -gb) for gw, gb in grads]
    assert checks.gradient_mismatch(net64, batch64, cfg, flipped) > checks.FD_RTOL


def test_reference_forward_matches_loops():
    rng = np.random.default_rng(0)
    net = init_weights(build_network(1, 1, RotationGroup(4), n_hidden=1, depth=2), 0)
    x = rng.random((2, 1, 5, 5)).astype(np.float32)
    w0, w1 = (p.weight.astype(np.float64) for p in net.conv_params)
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (1, 1), (1, 1)))
    hidden = np.zeros((2, 4, 5, 5))
    for b in range(2):
        for o in range(4):
            for i in range(5):
                for j in range(5):
                    hidden[b, o, i, j] = max(0.0, np.sum(xp[b, :, i : i + 3, j : j + 3] * w0[o]))
    hp = np.pad(hidden, ((0, 0), (0, 0), (1, 1), (1, 1)))
    want = np.zeros((2, 1, 5, 5))
    for b in range(2):
        for i in range(5):
            for j in range(5):
                want[b, 0, i, j] = np.sum(hp[b, :, i : i + 3, j : j + 3] * w1[0]) + x[b, 0, i, j]
    np.testing.assert_allclose(checks.reference_forward(net, x), want, rtol=1e-12, atol=1e-12)


def test_run_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "denoise-c4", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
