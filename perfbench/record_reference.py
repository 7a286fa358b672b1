"""Record the reference outputs the benchmark compares against.

    python3 perfbench/record_reference.py

Runs the first REFERENCE_OPS ops of every workload at DEFAULT_SEED through
the CLI and writes perfbench/reference/<workload>.json: each op's argv and
a strided view of every numeric output column.  Re-record only when a
change to the program is meant to change its outputs, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

import workloads as wl
from run import OUT, SRC, _run_op


def main() -> int:
    sys.path.insert(0, str(SRC))
    from cscrack.cli import main as cli_main

    work = OUT / "tmp" / "reference"
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in wl.WORKLOADS:
        ops = []
        for i in range(wl.REFERENCE_OPS[workload]):
            op = wl.make_op(workload, wl.DEFAULT_SEED, i)
            dirs = [work / f"op{i}" / str(k) for k in range(len(op["calls"]))]
            _, problems = _run_op(cli_main, op, dirs)
            if problems:
                raise SystemExit(f"{workload} op {i} failed: {problems}")
            data = wl.read_outputs(dirs)
            problems = wl.check_op(workload, op, data)
            if problems:
                raise SystemExit(f"{workload} op {i}: {problems}")
            ops.append({"calls": op["calls"],
                        "outputs": wl.reference_view(data)})
        shutil.rmtree(work, ignore_errors=True)
        path = wl.REFERENCE_DIR / f"{workload}.json"
        path.write_text("[\n" + ",\n".join(json.dumps(op) for op in ops)
                        + "\n]\n")
        print(f"{workload}: {len(ops)} ops -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
