"""cscrack benchmark: the CLI driven in-process by one closed-loop client.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One op at a time is issued through ``cscrack.cli.main(argv)``, the console
entry point, for ``--seconds`` seconds and at least MIN_OPS ops, after one
untimed warm-up op.  Start-up is timed separately by launching fresh
interpreters.  Every op's outputs are checked after the loop.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` each op is also replayed through the public
layer functions under spans (see replay.py) and the line carries the
per-layer metrics.  ``--workload all`` runs every workload in both modes,
each in its own process, and prints every metric by name with its unit.

The machine's thread environment is used as found.  A record of the
machine, the libraries and the inputs goes to ``.perfbench/results/``,
spans next to it; op outputs are written under ``.perfbench/tmp/`` and
removed once checked.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MIN_OPS = 11        # the tail needs 10 samples beyond it; counts use these
HARD_STOP_S = 120   # start no op past this, whatever MIN_OPS says
LAUNCHES = 6        # timed fresh interpreters of each kind, before the
                    # ops and again after them
CALIBRATION_REPS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")

END_TO_END = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "ok_frac": "1", "peak_rss_mb": "MB"}
PER_LAYER = {
    "specfun.matrix_kernels_ms": "ms", "specfun.elements": "count",
    "specfun.scalar_call_us": "us",
    "sie.assemble_ms": "ms", "sie.solve_ms": "ms", "sie.factor_ms": "ms",
    "sie.unknowns": "count", "sie.lu_flops": "flop",
    "sie.matrix_bytes": "bytes", "sie.shared_kernel_share": "1",
    "post.tip_quantities_ms": "ms", "post.crack_profiles_ms": "ms",
    "post.stress_ahead_ms": "ms",
    "greens.full_field_b_us": "us", "greens.full_field_omega_us": "us",
    "greens.full_field_line_us": "us",
    "cli.interpreter_ms": "ms", "cli.import_ms": "ms",
    "cli.unattributed_ms": "ms", "cli.bytes_written": "bytes",
    "trace.op_p50_ms": "ms", "trace.replay_gap_ms": "ms",
}
NOTES = {
    "sie.assemble_ms": "contains the specfun matrix kernels",
    "sie.solve_ms": "contains sie.assemble_ms",
    "sie.factor_ms": "sie.solve_ms - sie.assemble_ms",
    "cli.import_ms": "import launch - cli.interpreter_ms",
    "cli.unattributed_ms": "CLI op wall - replayed top-level calls; "
                           "includes pool/BLAS contention on sweep",
    "trace.op_p50_ms": "CLI op p50 in this traced run",
    "trace.replay_gap_ms": "traced replay wall - the spans inside it",
}


# ------------------------------------------------------------ start-up

def _launch(code: str, env: dict) -> float:
    """Seconds from spawning a fresh interpreter to the end of ``code``,
    which prints time.monotonic() last (a clock shared by processes)."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout
    return float(out.split()[-1]) - t0


def measure_setup(setup: dict | None = None) -> dict:
    """Add LAUNCHES timed launches of each kind to ``setup`` (a new record
    when None, after one untimed launch).  A run calls it before its ops
    and again after them, so the median spans the host's state over the
    whole run rather than a few seconds of it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    bare = "import time; print(time.monotonic())"
    full = "import cscrack, time; print(time.monotonic())"
    if setup is None:
        _launch(full, env)      # compiles bytecode and warms the file cache
        setup = {"interpreter_s": [], "import_s": []}
    for _ in range(LAUNCHES):
        setup["interpreter_s"].append(_launch(bare, env))
        setup["import_s"].append(_launch(full, env))
    return setup


def calibrate() -> float:
    """Median ms of a fixed pure-Python loop.  It is timed before and
    after the ops and recorded, so that a host that sped up or slowed down
    between runs can be told apart from a change in the program."""
    times = []
    for _ in range(CALIBRATION_REPS):
        t0 = time.perf_counter()
        sum(i * i for i in range(200_000))
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


# ---------------------------------------------------------- environment

def environment(seed: int) -> dict:
    import numpy
    import scipy
    import cscrack
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    # With the thread variables unset, OpenBLAS starts one thread per CPU
    # (nproc), up to the MAX_THREADS it was built with.
    blas = {}
    for mod in (numpy, scipy):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        config = dep.get("openblas configuration") or ""
        m = re.search(r"MAX_THREADS=(\d+)", config)
        blas[mod.__name__] = {"name": dep.get("name"),
                              "version": dep.get("version"),
                              "max_threads": int(m.group(1)) if m else None,
                              "config": config}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cscrack": cscrack.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _git_commit():
    """HEAD of the checkout, read from .git directly (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ------------------------------------------------------------ one run

def _run_op(main, op, dirs):
    """The op's CLI calls in order; returns (wall s, problems)."""
    problems = []
    sink = io.StringIO()
    t0 = time.perf_counter()
    for argv, d in zip(op["calls"], dirs):
        try:
            with contextlib.redirect_stdout(sink):
                code = main(argv + ["--out", str(d)])
        except Exception as exc:    # an uncaught error is a failed op
            code = f"{type(exc).__name__}: {exc}"
        if code != 0:
            problems.append(f"{argv[0]} exit {code}")
    return time.perf_counter() - t0, problems


def _tail(walls):
    """Highest percentile with at least 10 samples beyond it, but not
    below the median (a run of fewer than 21 ops has no such tail)."""
    ordered = sorted(walls)
    n = len(ordered)
    k = max(n - 11, (n - 1) // 2)
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup = measure_setup()
    sys.path.insert(0, str(SRC))
    import cscrack
    from cscrack.cli import main
    if Path(cscrack.__file__).resolve().parent != SRC / "cscrack":
        raise RuntimeError(f"imported cscrack from {cscrack.__file__}")
    import replay
    env = environment(seed)

    work = OUT / "tmp" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = replay.Tracer() if trace else None
    calibration = {"before": calibrate()}
    try:
        first = wl.make_op(workload, seed, 0)
        _run_op(main, first, [work / "warmup" / str(k)
                              for k in range(len(first["calls"]))])
        ops, walls, problems = [], [], []
        t_start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t_start
            if (elapsed >= seconds and len(ops) >= MIN_OPS) \
                    or elapsed >= HARD_STOP_S:
                break
            i = len(ops)
            op = wl.make_op(workload, seed, i)
            op["dirs"] = [work / f"op{i}" / str(k)
                          for k in range(len(op["calls"]))]
            wall, errs = _run_op(main, op, op["dirs"])
            ops.append(op)
            walls.append(wall)
            problems.append(errs)
            if trace:
                replay.replay_op(tracer, workload, i, op)
        loop_s = time.perf_counter() - t_start
        calibration["after"] = calibrate()
        written = _check_outputs(workload, seed, ops, problems)
        measure_setup(setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for p in problems if p)
    props = [wl.op_properties(workload, op) for op in ops]
    n_mix = {}
    for pr in props:
        for n in pr["n"]:
            n_mix[str(n)] = n_mix.get(str(n), 0) + 1
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "environment": env,
        "properties": {
            "shared_kernel_share": statistics.fmean(
                pr["shared_kernel_share"] for pr in props),
            "n_mix": n_mix,
            **({"omega_share": props[0]["omega_share"],
                "line_share": props[0]["line_share"]}
               if workload == "field" else {})},
        "ops": len(ops), "failed": failed,
        "failures": {i: p for i, p in enumerate(problems) if p},
        "setup": setup, "calibration_ms": calibration, "op_wall_s": walls,
    }
    count_ops = range(min(MIN_OPS, len(ops)))
    interp_ms = 1e3 * statistics.median(setup["interpreter_s"])
    import_s = statistics.median(setup["import_s"])
    if trace:
        metrics, per_op = replay.layer_metrics(
            tracer.spans, dict(enumerate(walls)), MIN_OPS)
        metrics.update({
            "specfun.elements": statistics.median_low(
                props[i]["kernel_elements"] for i in count_ops),
            "sie.shared_kernel_share": statistics.median_low(
                props[i]["shared_kernel_share"] for i in count_ops),
            "cli.bytes_written": statistics.median_low(
                written[i] for i in count_ops),
            "cli.interpreter_ms": interp_ms,
            "cli.import_ms": 1e3 * import_s - interp_ms,
            "trace.op_p50_ms": 1e3 * statistics.median(walls),
        })
        record["per_op"] = per_op
        record["probed"] = list(replay.PROBED[workload])
        record["per_n"] = replay.per_n_table(tracer.spans)
        record["traced_op_p50_ms"] = 1e3 * statistics.median(
            s["end"] - s["start"] for s in tracer.spans
            if s["name"] == "replay")
        units = PER_LAYER
    else:
        tail, pct, beyond = _tail(walls)
        metrics = {
            "setup_s": import_s,
            "ops_per_s": len(ops) / loop_s,
            "op_p50_ms": 1e3 * statistics.median(walls),
            "op_tail_ms": 1e3 * tail,
            "ok_frac": (len(ops) - failed) / len(ops),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["tail"] = {"percentile": pct, "samples": len(ops),
                          "beyond": beyond}
        units = END_TO_END
    record["metrics"] = {k: {"value": metrics[k], "unit": u}
                         for k, u in units.items()}
    _save(record, tracer)
    return record


def _check_outputs(workload, seed, ops, problems):
    """Check every op's outputs; returns bytes written per op."""
    reference = wl.load_reference(workload) if seed == wl.DEFAULT_SEED \
        else None
    written, passes = [], {}
    for i, op in enumerate(ops):
        written.append(sum(f.stat().st_size for d in op["dirs"]
                           if d.is_dir() for f in d.iterdir()))
        try:
            data = wl.read_outputs(op["dirs"])
            problems[i] += wl.check_op(workload, op, data)
            if reference is not None and i < len(reference):
                problems[i] += wl.compare_reference(reference[i], op, data)
            if workload == "sweep":
                passes.setdefault(op["pass_index"], []).append((i, data))
        except (OSError, ValueError, IndexError, KeyError) as exc:
            problems[i].append(f"outputs not as expected: {exc!r}")
        for d in op["dirs"]:
            shutil.rmtree(d, ignore_errors=True)
    for members in passes.values():
        try:
            bad = wl.check_sweep_pass([data for _, data in members])
        except KeyError as exc:
            bad = [f"sweep.csv lacks column {exc}"]
        for i, _ in members:
            problems[i] += bad
    return written


def _save(record, tracer):
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = (f"{record['workload']}-seed{record['seed']}"
            f"-trace{record['trace']}-{os.getpid()}")
    if tracer is not None:
        spans = results / f"{stem}.spans.jsonl"
        with open(spans, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        record["spans_file"] = str(spans.relative_to(ROOT))
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))


def report(record) -> None:
    """Human-readable lines: properties, tail definition, metrics."""
    w = record["workload"]
    env = record["environment"]
    print(f"# {w}: seed {record['seed']}, {record['ops']} ops, "
          f"{record['failed']} failed, trace {record['trace']}")
    print(f"# machine: {env['nproc']} cpus ({env['cpu_model']}), python "
          f"{env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"commit {env['git_commit']}")
    for mod, lib in env["blas"].items():
        print(f"# blas ({mod}): {lib['name']} {lib['version']}, "
              f"MAX_THREADS={lib['max_threads']}")
    print(f"# thread env: {env['thread_env']}")
    print(f"# properties: {json.dumps(record['properties'])}")
    cal = record["calibration_ms"]
    print(f"# host calibration: a fixed Python loop took "
          f"{cal['before']:.4g} ms before the ops, {cal['after']:.4g} after")
    if "tail" in record:
        t = record["tail"]
        print(f"# op_tail_ms is the p{t['percentile']:.1f} of "
              f"{t['samples']} ops ({t['beyond']} beyond it)")
    for i, p in sorted(record["failures"].items())[:5]:
        print(f"# op {i} failed: {'; '.join(p)[:300]}")
    probed = record.get("probed", ())
    for name, m in record["metrics"].items():
        note = f"  ({NOTES[name]})" if name in NOTES else ""
        if name in probed:
            note += "  (probe: this workload's ops do not make the call)"
        print(f"{w} {name} = {m['value']:.6g} {m['unit']}{note}")
    if record["trace"]:
        print(f"{w} traced replay of an op, p50 = "
              f"{record['traced_op_p50_ms']:.6g} ms")
        for n, row in record["per_n"].items():
            cells = ", ".join(f"{k}={v:.3g}" for k, v in row.items())
            print(f"{w} n={n}: {cells}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload in both modes, each in its own process."""
    combined, overheads = {}, {}
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 1
            print("\n".join(lines[:-1]))
            combined[f"{workload}/trace{trace}"] = json.loads(lines[-1])
        # the CLI op carries no spans; this is what running the replay
        # between ops costs it
        overhead = (combined[f"{workload}/trace1"]["metrics"]
                    ["trace.op_p50_ms"]["value"]
                    - combined[f"{workload}/trace0"]["metrics"]
                    ["op_p50_ms"]["value"])
        overheads[workload] = overhead
        print(f"{workload} tracing overhead = {overhead:.6g} ms  "
              "(trace.op_p50_ms - op_p50_ms)")
    path = OUT / "results" / f"all-seed{seed}.json"
    path.write_text(json.dumps({"runs": combined,
                                "tracing_overhead_ms": overheads}, indent=1))
    print(f"# all workloads -> {path.relative_to(ROOT)}")
    return 0 if all(r["correct"] for r in combined.values()) else 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cscrack" / "__init__.py").is_file():
        print(f"error: no cscrack sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(record)
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["ops"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
