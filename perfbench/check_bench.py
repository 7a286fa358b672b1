"""The benchmark's own tests (kept out of the package's tier-1 suite).

    python3 -m pytest -q perfbench/check_bench.py

They run the benchmark for a handful of ops per workload (a few minutes in
all), so they are slow on purpose and never part of the package's tests.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from run import OUT, ROOT  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("specfun.elements", "sie.unknowns", "sie.lu_flops",
          "sie.matrix_bytes", "sie.shared_kernel_share", "cli.bytes_written")
SEED = 3


def _bench(cwd, workload, trace):
    """Run the benchmark for its minimum number of ops."""
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "0",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


_runs = {}


def _result(workload, trace, repeat=0):
    key = (workload, trace, repeat)
    if key not in _runs:
        proc = _bench(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        _runs[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _runs[key]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_metric_reported_with_its_unit(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _result(workload, trace)
        assert result["correct"] and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == expected


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_counts_repeat_exactly(workload):
    first = _result(workload, 1)["metrics"]
    second = _result(workload, 1, repeat=1)["metrics"]
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_sweep_shares_kernels_and_large_n_does_not():
    assert _result("sweep", 1)["metrics"]["sie.shared_kernel_share"][
        "value"] == 1.0
    assert _result("large_n", 1)["metrics"]["sie.shared_kernel_share"][
        "value"] == 0.0


def test_fails_without_the_program():
    bare = OUT / "tmp" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(bare, "sweep", 0)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_inputs_follow_the_seed(workload):
    def calls(seed):
        return [wl.make_op(workload, seed, i)["calls"] for i in range(30)]
    assert calls(SEED) == calls(SEED)
    assert calls(SEED) != calls(SEED + 1)


def test_checks_reject_wrong_outputs():
    sweep_ops = [{"0/sweep.csv": {"ell_over_a": [1.0 / p], "nu": [0.0],
                                  "K_I_ratio": [k], "J_ratio": [j]}}
                 for p, k, j in ((1.0, 0.9, 0.8), (2.0, 0.95, 0.85))]
    assert wl.check_sweep_pass(sweep_ops) == []
    sweep_ops[1]["0/sweep.csv"]["J_ratio"] = [1.01]
    assert wl.check_sweep_pass(sweep_ops)

    op = {"solves": [(0.3, 10.0, 4), (0.3, 10.0, 4)]}
    dens = {"s": [0.5, 0.1, -0.1, -0.5], "f": [1.0, 0.2, -0.2, -1.0],
            "g": [0.3, 0.1, 0.1, 0.3]}
    data = {f"{k}/densities.csv": dens for k in range(2)}
    data.update({f"{k}/summary.json": {"K_I_ratio": [1.2]} for k in range(2)})
    assert wl.check_op("large_n", op, data) == []
    data["1/densities.csv"] = dict(dens, g=[0.3, 0.1, 0.1, 0.31])
    assert wl.check_op("large_n", op, data)
    data["1/densities.csv"] = dens
    data["1/summary.json"] = {"K_I_ratio": [1.201]}
    assert wl.check_op("large_n", op, data)
    data["1/summary.json"] = {"K_I_ratio": [float("nan")]}
    assert wl.check_op("large_n", op, data)


def test_reference_comparison_detects_drift():
    ref = wl.load_reference("large_n")[0]
    op = wl.make_op("large_n", wl.DEFAULT_SEED, 0)
    data = json.loads(json.dumps(ref["outputs"]))
    assert wl.compare_reference(ref, op, data) == []
    col = data["0/summary.json"]["K_I_ratio"]
    col[0] *= 1.0 + 1e-8
    assert wl.compare_reference(ref, op, data)
    other = wl.make_op("large_n", wl.DEFAULT_SEED, 1)
    assert wl.compare_reference(ref, other, ref["outputs"])
