"""Workload inputs and output checks for the cscrack benchmark.

An op is one unit of client work: one or more ``cscrack`` CLI invocations
whose argv is drawn from the seed.  Op ``i`` of a workload depends only on
(seed, workload, i), so a run is reproducible however many ops it reaches.

Workloads (closed loop, one client, one op at a time):

* ``sweep``: the README size-ratio sweep (25 p x 3 nu at n = 128) cut into
  one op per p.  Every solve in an op shares its (n, p) kernel matrices
  with the op's other two solves.
* ``large_n``: one (nu, p) pair solved by ``cscrack solve`` at n = 256 and
  n = 512.  Dominated by the O(n^3) condition estimate and LU plus the
  post-processing of 201 profile and 80 near-tip samples.
* ``field``: one grid of 20 x 11 points, y = 0 row included, evaluated by
  ``cscrack field`` once for a climb dislocation (closed forms) and once
  for a wedge disclination (adaptive quadrature off the line).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep", "large_n", "field")
DEFAULT_SEED = 1

SWEEP_PASS = 25                 # p values per pass (the README sweep)
SWEEP_P_RANGE = (0.1, 200.0)
SWEEP_NUS = "0,0.25,0.5"
SWEEP_N = 128
LARGE_NS = (256, 512)
LARGE_P_RANGE = (1.0, 100.0)
NEARTIP_SAMPLES = 80            # CLI defaults, replayed by the trace
PROFILE_SAMPLES = 201
FIELD_GRID = (20, 11)           # fixed, so per-op counts repeat exactly
FIELD_ELL_RANGE = (0.5, 2.0)

# Reference outputs: ops checked per workload and rows kept per column.
REFERENCE_OPS = {"sweep": SWEEP_PASS, "large_n": 3, "field": 3}
REFERENCE_ROWS = 40
REFERENCE_RTOL = 1e-9
REFERENCE_SKIP = ("condition",)   # to be redefined by a later solver change
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

SYMMETRY_TOL = 1e-10
CONVERGENCE_RTOL = 1e-4


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), index])


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _sweep_pass(seed: int, index: int) -> list[float]:
    """The pass's p values: the README's log-spaced grid, jittered by up
    to 30% of a step so neighbours stay apart, in seed-shuffled order so a
    run that ends mid-pass is not biased towards small p."""
    rng = _rng(seed, "sweep", index)
    lo, hi = (math.log(v) for v in SWEEP_P_RANGE)
    step = (hi - lo) / SWEEP_PASS
    jitter = rng.uniform(-0.3, 0.3, SWEEP_PASS)
    ps = [math.exp(lo + (k + 0.5 + jitter[k]) * step)
          for k in range(SWEEP_PASS)]
    return [ps[k] for k in rng.permutation(SWEEP_PASS)]


def make_op(workload: str, seed: int, index: int) -> dict:
    """Op ``index`` of ``workload``: its CLI calls (argv without --out)
    and the input properties the checks and the trace replay need."""
    if workload == "sweep":
        p = _sweep_pass(seed, index // SWEEP_PASS)[index % SWEEP_PASS]
        calls = [["sweep", "--p-min", repr(p), "--p-max", repr(p),
                  "--p-steps", "1", "--nu-list", SWEEP_NUS,
                  "--n", str(SWEEP_N)]]
        return dict(calls=calls, p=p, pass_index=index // SWEEP_PASS,
                    solves=[(float(nu), p, SWEEP_N)
                            for nu in SWEEP_NUS.split(",")])
    rng = _rng(seed, workload, index)
    if workload == "large_n":
        nu = float(rng.uniform(0.0, 0.5))
        p = _log_uniform(rng, *LARGE_P_RANGE)
        calls = [["solve", "--nu", repr(nu), "--p", repr(p), "--n", str(n)]
                 for n in LARGE_NS]
        return dict(calls=calls, p=p, nu=nu,
                    solves=[(nu, p, n) for n in LARGE_NS])
    if workload == "field":
        x_num, y_num = FIELD_GRID
        ell = _log_uniform(rng, *FIELD_ELL_RANGE)
        while True:
            x_min = -float(rng.uniform(2.0, 6.0))
            x_max = float(rng.uniform(2.0, 6.0))
            # (0, 0) is the defect core, which the CLI rejects
            if 0.0 not in np.linspace(x_min, x_max, x_num):
                break
        y_max = float(rng.uniform(2.0, 5.0))
        grid = ["--ell", repr(ell), "--x-min", repr(x_min),
                "--x-max", repr(x_max), "--x-num", str(x_num),
                "--y-min", "0", "--y-max", repr(y_max),
                "--y-num", str(y_num)]
        charges = [(1.0, 0.0), (0.0, 1.0)]
        calls = [["field", "--b", repr(b), "--omega", repr(om)] + grid
                 for b, om in charges]
        return dict(calls=calls, ell=ell, charges=charges, solves=[],
                    xs=np.linspace(x_min, x_max, x_num),
                    ys=np.linspace(0.0, y_max, y_num))
    raise ValueError(f"unknown workload {workload!r}")


def op_properties(workload: str, op: dict) -> dict:
    """Input properties a later change may depend on, for one op."""
    keys = [(n, p) for _, p, n in op["solves"]]
    ns = [n for n, _ in keys]
    shared = sum(1 for k in keys if keys.count(k) > 1)
    # kernel argument elements: one (n-1) x n matrix per assembly, an
    # 80 x n one per `solve` command's stress_ahead, one per field point
    elements = sum((n - 1) * n for n in ns)
    if workload == "large_n":
        elements += sum(NEARTIP_SAMPLES * n for n in ns)
    props = {"n": ns, "kernel_elements": elements,
             "shared_kernel_share": shared / len(keys) if keys else 0.0}
    if workload == "field":
        n_pts = op["xs"].size * op["ys"].size
        total = n_pts * len(op["charges"])
        props["kernel_elements"] = total
        omega_pts = sum(n_pts for _, om in op["charges"] if om != 0.0)
        props["omega_share"] = omega_pts / total
        props["line_share"] = op["xs"].size * len(op["charges"]) / total
    return props


# ---------------------------------------------------------------- outputs

def read_outputs(call_dirs: list[Path]) -> dict:
    """Numeric content of every file the op wrote, as
    {"<call>/<file>": {column: [values]}}.  CSV files give one list per
    column; JSON files give one single-value list per numeric leaf, keyed
    by its dotted path."""
    out = {}
    for k, d in enumerate(call_dirs):
        for path in sorted(d.iterdir()):
            key = f"{k}/{path.name}"
            text = path.read_text(encoding="utf-8")
            if path.suffix == ".csv":
                out[key] = _parse_csv(text)
            elif path.suffix == ".json":
                leaves = {}
                _flatten(json.loads(text), "", leaves)
                out[key] = leaves
    return out


def _parse_csv(text: str) -> dict:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    names = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return {name: [r[j] for r in rows] for j, name in enumerate(names)}


def _flatten(node, prefix: str, out: dict):
    if isinstance(node, dict):
        for key, val in node.items():
            _flatten(val, f"{prefix}{key}.", out)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        out[prefix[:-1]] = [float(node)]


def check_op(workload: str, op: dict, data: dict) -> list[str]:
    """Failed checks of one op's outputs (empty when every check holds)."""
    problems = [f"{f}:{c} not finite" for f, cols in data.items()
                for c, vals in cols.items()
                if not all(math.isfinite(v) for v in vals)]
    if problems:
        return problems
    if workload == "large_n":
        ratios = []
        for k, (_, _, n) in enumerate(op["solves"]):
            dens = data.get(f"{k}/densities.csv")
            summary = data.get(f"{k}/summary.json")
            if dens is None or summary is None:
                return [f"call {k}: missing densities.csv or summary.json"]
            f, g = np.array(dens["f"]), np.array(dens["g"])
            if f.size != n:
                return [f"call {k}: {f.size} density rows, expected {n}"]
            # nodes are mirror-symmetric: s[n-1-i] = -s[i]
            odd = np.max(np.abs(f + f[::-1])) / np.max(np.abs(f))
            even = np.max(np.abs(g - g[::-1])) / np.max(np.abs(g))
            if not (odd <= SYMMETRY_TOL and even <= SYMMETRY_TOL):
                problems.append(f"n={n}: parity defect f {odd:.1e}, "
                                f"g {even:.1e}")
            ratios.append(summary["K_I_ratio"][0])
        if not problems:
            rel = abs(ratios[1] - ratios[0]) / abs(ratios[1])
            if not rel <= CONVERGENCE_RTOL:
                problems.append(f"K_I_ratio n=256 vs n=512 differ by "
                                f"{rel:.1e} relative")
    elif workload == "sweep":
        rows = data.get("0/sweep.csv")
        if rows is None or len(rows["K_I_ratio"]) != 3:
            problems.append("sweep.csv missing or not 3 rows")
    elif workload == "field":
        x_num, y_num = FIELD_GRID
        for k in range(len(op["calls"])):
            rows = data.get(f"{k}/field.csv")
            if rows is None or len(rows["x"]) != x_num * y_num:
                problems.append(f"call {k}: field.csv missing or wrong size")
            elif min(rows["y"]) != 0.0:
                problems.append(f"call {k}: no y = 0 row")
    return problems


def sweep_pass_rows(data_by_op: list[dict]) -> dict:
    """Rows of one pass, {nu: [(ell_over_a, K_I_ratio, J_ratio), ...]}."""
    rows = {}
    for data in data_by_op:
        cols = data.get("0/sweep.csv")
        if cols is None:
            continue
        for ell_a, nu, kr, jr in zip(cols["ell_over_a"], cols["nu"],
                                     cols["K_I_ratio"], cols["J_ratio"]):
            rows.setdefault(nu, []).append((ell_a, kr, jr))
    return rows


def check_sweep_pass(data_by_op: list[dict]) -> list[str]:
    """K_I_ratio and J_ratio strictly decreasing in ell/a, J_ratio < 1,
    across the rows of one pass (or of the part of it a run reached)."""
    problems = []
    for nu, rows in sweep_pass_rows(data_by_op).items():
        rows.sort()
        kr = np.array([r[1] for r in rows])
        jr = np.array([r[2] for r in rows])
        if not np.all(np.diff(kr) < 0.0):
            problems.append(f"nu={nu:g}: K_I_ratio not decreasing in ell/a")
        if not np.all(np.diff(jr) < 0.0):
            problems.append(f"nu={nu:g}: J_ratio not decreasing in ell/a")
        if not np.all(jr < 1.0):
            problems.append(f"nu={nu:g}: J_ratio >= 1")
    return problems


# -------------------------------------------------------------- reference

def reference_view(data: dict) -> dict:
    """The part of an op's outputs kept as reference: every column, at
    most REFERENCE_ROWS evenly strided rows, without REFERENCE_SKIP."""
    view = {}
    for name, cols in data.items():
        view[name] = {}
        for col, vals in cols.items():
            if col.split(".")[-1] in REFERENCE_SKIP:
                continue
            stride = max(1, math.ceil(len(vals) / REFERENCE_ROWS))
            view[name][col] = vals[::stride]
    return view


def load_reference(workload: str):
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else None


def compare_reference(ref_op: dict, op: dict, data: dict) -> list[str]:
    """Differences between an op and its recorded reference, each value
    compared relative to the largest magnitude in its reference column."""
    if ref_op["calls"] != op["calls"]:
        return ["inputs differ from the reference op's inputs"]
    got = reference_view(data)
    problems = []
    for name, cols in ref_op["outputs"].items():
        for col, ref in cols.items():
            vals = got.get(name, {}).get(col)
            if vals is None or len(vals) != len(ref):
                problems.append(f"{name}:{col} missing or resized")
                continue
            scale = max(abs(v) for v in ref) or 1.0
            err = max(abs(a - b) for a, b in zip(vals, ref)) / scale
            if not err <= REFERENCE_RTOL:
                problems.append(f"{name}:{col} off reference by {err:.1e}")
    return problems
