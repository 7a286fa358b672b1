"""Traced replay of an op's inputs through cscrack's public functions.

The CLI op itself runs untraced.  Afterwards the same inputs are replayed
serially through the public calls the CLI makes (``solve``,
``tip_quantities``, ``crack_profiles``, ``stress_ahead``, ``full_field``),
each bracketed by a span recorded here, plus the calls nested inside
``solve`` (``assemble`` and the ``specfun`` matrix kernels), which are
replayed as separate calls because spans cannot be placed inside the
package.  Spans are kept in memory and written out when the run ends.

The result line carries every per-layer metric on every workload, and a
time that reads 0 on every run would not be a measurement, so a layer the
workload's ops do not exercise is timed on a small probe drawn from the
same op: ``sweep`` and ``large_n`` probe ``full_field`` and the scalar
``specfun`` path in their own ell, ``sweep`` probes ``crack_profiles``
and ``stress_ahead`` on its own solution, and ``field`` probes one
n = 128 solve in its own material.  The metrics so timed are listed in
PROBED and marked as probes in the report.  Probe spans carry
``probe=True``; they are left out of the counts and are not subtracted
from the CLI op time.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from cscrack import (CrackProblem, DefectCharge, Discretization,
                     MaterialParams, assemble, crack_profiles, full_field,
                     k0_log_reg, k2_reg, k3_reg, meijer_kernel, solve,
                     stress_ahead, tip_quantities)
from workloads import NEARTIP_SAMPLES, PROFILE_SAMPLES

# Spans of the calls the CLI op makes directly.  Their sum is what the
# replay attributes; the rest of the op's wall time is cli.unattributed_ms.
TOP_LEVEL = ("sie.solve", "post.tip_quantities", "post.crack_profiles",
             "post.stress_ahead", "greens.full_field")
COUNTS = ("sie.unknowns", "sie.lu_flops", "sie.matrix_bytes")
_GREENS = ("greens.full_field_b_us", "greens.full_field_omega_us",
           "greens.full_field_line_us")
PROBED = {
    "sweep": ("specfun.scalar_call_us", "post.crack_profiles_ms",
              "post.stress_ahead_ms") + _GREENS,
    "large_n": ("specfun.scalar_call_us",) + _GREENS,
    "field": ("specfun.matrix_kernels_ms", "sie.assemble_ms",
              "sie.solve_ms", "sie.factor_ms", "post.tip_quantities_ms",
              "post.crack_profiles_ms", "post.stress_ahead_ms"),
}
FIELD_NU = 0.3                  # the CLI's default for `cscrack field`
PROBE_N = 128                   # the CLI's default --n
GREENS_PROBE = ((-2.5, 1.0, 2.0), (0.0, 1.5, 3.0))   # x and y, in ell


class Tracer:
    """Spans in memory, one dict each: id, op, name, parent, start, end
    (perf_counter seconds) and attributes."""

    def __init__(self):
        self.spans = []

    def begin(self, name, op, parent=None, **attrs):
        span = dict(id=len(self.spans), op=op, name=name, parent=parent,
                    start=perf_counter(), end=None, **attrs)
        self.spans.append(span)
        return span

    def end(self, span):
        span["end"] = perf_counter()

    def call(self, name, op, parent, fn, *args, **attrs):
        """fn(*args) inside a span; returns (result, span)."""
        t0 = perf_counter()
        result = fn(*args)
        t1 = perf_counter()
        span = dict(id=len(self.spans), op=op, name=name, parent=parent,
                    start=t0, end=t1, **attrs)
        self.spans.append(span)
        return result, span


def _matrix_kernels(dt, p):
    """The specfun calls assemble makes on one kernel argument matrix."""
    w = p * np.abs(dt)
    return k2_reg(w, 1.0), k0_log_reg(w, 1.0), k3_reg(dt, 1.0 / p)


def _scalar_pair(r, x, ell):
    """One scalar k2_reg and one scalar meijer_kernel, as full_field makes
    them."""
    return k2_reg(r, ell), meijer_kernel(x, ell)


def _neartip_x(p):
    """Crack-line points ahead of the tip at which the CLI samples."""
    return 1.0 + (1.0 / p) * np.geomspace(1e-3, 20.0, NEARTIP_SAMPLES)


def _replay_solve(tr, op, root, nu, p, n, post, probe):
    """One solve with the post-processing calls named in ``post``, as the
    CLI makes them for a unit crack, plus the calls nested in the solve."""
    prob = CrackProblem(half_length=1.0, remote_tension=1.0,
                        material=MaterialParams(mu=1.0, nu=nu, ell=1.0 / p))
    disc = Discretization.build(n)
    sol, solve_span = tr.call("sie.solve", op, root, solve, prob, disc,
                              n=n, probe=probe)
    dt = disc.collocation[:, None] - disc.nodes[None, :]
    tr.call("specfun.matrix_kernels", op, solve_span["id"], _matrix_kernels,
            dt, p, n=n, probe=probe)
    (a_mat, _), asm = tr.call("sie.assemble", op, solve_span["id"], assemble,
                              prob, disc, n=n, probe=probe)
    asm["unknowns"] = a_mat.shape[0]
    calls = {"tip_quantities": (tip_quantities, sol),
             "crack_profiles": (crack_profiles, sol, PROFILE_SAMPLES),
             "stress_ahead": (stress_ahead, sol, _neartip_x(p))}
    for name in post:
        tr.call(f"post.{name}", op, root, *calls[name], n=n, probe=probe)
    return sol


def _replay_field(tr, op, root, xs, ys, charges, mat, probe):
    """full_field at every grid point, in the CLI's loop order."""
    for b, om in charges:
        charge = DefectCharge(b=b, omega=om)
        for y in ys:
            kind = "b" if om == 0.0 else ("line" if y == 0.0 else "omega")
            for x in xs:
                tr.call("greens.full_field", op, root, full_field, float(x),
                        float(y), charge, mat, kind=kind, probe=probe)


def _replay_scalar(tr, op, root, points, ell, probe):
    for x, y in points:
        if x != 0.0:
            tr.call("specfun.scalar_call", op, root, _scalar_pair,
                    float(np.hypot(x, y)), float(x), ell, probe=probe)


def replay_op(tr, workload, index, op):
    """Replay op ``index`` under one root span and return that span."""
    root_span = tr.begin("replay", index)
    root = root_span["id"]
    if workload == "field":
        ell = op["ell"]
        mat = MaterialParams(mu=1.0, nu=FIELD_NU, ell=ell)
        _replay_field(tr, index, root, op["xs"], op["ys"], op["charges"],
                      mat, probe=False)
        _replay_scalar(tr, index, root,
                       [(x, y) for y in op["ys"] for x in op["xs"]], ell,
                       probe=False)
        _replay_solve(tr, index, root, FIELD_NU, 1.0 / ell, PROBE_N,
                      ("tip_quantities", "crack_profiles", "stress_ahead"),
                      probe=True)
    else:
        post = ("tip_quantities",) if workload == "sweep" else \
            ("tip_quantities", "crack_profiles", "stress_ahead")
        sols = [_replay_solve(tr, index, root, nu, p, n, post, probe=False)
                for nu, p, n in op["solves"]]
        p = op["p"]
        ell = 1.0 / p
        if workload == "sweep":
            n = sols[0].disc.n
            tr.call("post.crack_profiles", index, root, crack_profiles,
                    sols[0], PROFILE_SAMPLES, n=n, probe=True)
            tr.call("post.stress_ahead", index, root, stress_ahead,
                    sols[0], _neartip_x(p), n=n, probe=True)
        xs, ys = (ell * np.array(v) for v in GREENS_PROBE)
        _replay_field(tr, index, root, xs, ys, ((1.0, 0.0), (0.0, 1.0)),
                      MaterialParams(mu=1.0, nu=op["solves"][0][0], ell=ell),
                      probe=True)
        _replay_scalar(tr, index, root,
                       [(x - 1.0, 0.0) for x in _neartip_x(p)], ell,
                       probe=True)
    tr.end(root_span)
    return root_span


def _dur(span):
    return span["end"] - span["start"]


def layer_metrics(spans, op_walls, count_ops):
    """Per-layer figures, each the median over ops of its per-op value.

    Times of a layer are summed over the op's calls (ms); ``*_us`` figures
    are means per point or per call pair within the op (us).  ``op_walls``
    maps op index to the untraced CLI wall time of that op (s).  Counts
    take the first ``count_ops`` ops only, so they repeat exactly.
    Returns (metrics, per-op table).
    """
    by_op = {}
    for s in spans:
        by_op.setdefault(s["op"], []).append(s)
    per_op = []
    for index, ops_spans in sorted(by_op.items()):
        def total(name, _spans=ops_spans):
            return sum(_dur(s) for s in _spans if s["name"] == name)

        def mean_us(name, kind=None, _spans=ops_spans):
            d = [_dur(s) for s in _spans if s["name"] == name
                 and (kind is None or s.get("kind") == kind)]
            return 1e6 * statistics.fmean(d) if d else float("nan")

        root = next(s for s in ops_spans if s["name"] == "replay")
        inner = [s for s in ops_spans if s is not root]
        attributed = sum(_dur(s) for s in inner
                         if s["name"] in TOP_LEVEL and not s["probe"])
        own_rows = [s["unknowns"] for s in inner
                    if s["name"] == "sie.assemble" and not s["probe"]]
        per_op.append({
            "op": index,
            "specfun.matrix_kernels_ms": 1e3 * total("specfun.matrix_kernels"),
            "specfun.scalar_call_us": mean_us("specfun.scalar_call"),
            "sie.assemble_ms": 1e3 * total("sie.assemble"),
            "sie.solve_ms": 1e3 * total("sie.solve"),
            "sie.factor_ms": 1e3 * (total("sie.solve")
                                    - total("sie.assemble")),
            "sie.unknowns": max(own_rows, default=0),
            "sie.lu_flops": sum(2.0 * u ** 3 / 3.0 for u in own_rows),
            "sie.matrix_bytes": 8 * max(own_rows, default=0) ** 2,
            "post.tip_quantities_ms": 1e3 * total("post.tip_quantities"),
            "post.crack_profiles_ms": 1e3 * total("post.crack_profiles"),
            "post.stress_ahead_ms": 1e3 * total("post.stress_ahead"),
            "greens.full_field_b_us": mean_us("greens.full_field", "b"),
            "greens.full_field_omega_us": mean_us("greens.full_field",
                                                  "omega"),
            "greens.full_field_line_us": mean_us("greens.full_field",
                                                 "line"),
            "cli.unattributed_ms": 1e3 * (op_walls[index] - attributed),
            "trace.replay_gap_ms": 1e3 * (_dur(root)
                                        - sum(_dur(s) for s in inner)),
        })
    metrics = {key: statistics.median(row[key] for row in per_op)
               for key in per_op[0] if key not in ("op",) + COUNTS}
    metrics.update({key: statistics.median_low(row[key]
                                               for row in per_op[:count_ops])
                    for key in COUNTS})
    return metrics, per_op


def per_n_table(spans):
    """Median per-call time (ms) of each solve-path call, by n."""
    solves = {s["id"]: s for s in spans if s["name"] == "sie.solve"}
    samples = {}
    for s in spans:
        if "n" not in s:
            continue
        samples.setdefault((s["n"], s["name"]), []).append(_dur(s))
        if s["name"] == "sie.assemble":
            factor = _dur(solves[s["parent"]]) - _dur(s)
            samples.setdefault((s["n"], "sie.factor"), []).append(factor)
    table = {}
    for (n, name), durs in sorted(samples.items()):
        table.setdefault(str(n), {})[f"{name}_ms"] = \
            1e3 * statistics.median(durs)
    return table
