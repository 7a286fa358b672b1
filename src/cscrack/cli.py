"""Command-line driver: solve single cracks, sweep size ratios, evaluate
defect fields, and emit the classical baselines.

Outputs are flat CSV files (comma-separated, '#'-prefixed header lines
echoing every option of the command except --out, 12 significant digits)
plus a JSON or CSV summary record that echoes the same options.  All
physical columns are emitted in raw and normalized form.  Exit status:
0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .greens import DefectCharge, MaterialParams, full_field
from .post import (_beyond_tip, classical_baseline, crack_profiles,
                   tip_quantities)
from .sie import (CrackProblem, Discretization, SolverError, _solve_shared,
                  solve)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with status 1 and which
    takes no abbreviated options (``--nu`` never means ``--nu-list``)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


# every computed number the CLI writes: CSV values, JSON summary values
# and the values it prints
_FMT = "%.12g"


def _fmt(value) -> str:
    return _FMT % float(value)


def _write_csv(path: Path, config: dict, columns: dict):
    """One CSV file: '#' config echo, '#' column header, data rows."""
    names = list(columns)
    # Python floats, converted once per column and formatted one row per
    # '%': cheaper than formatting numpy scalars, and the same digits
    lists = [np.asarray(columns[c], dtype=float).ravel().tolist()
             for c in names]
    row = ",".join([_FMT] * len(names))
    lines = [f"# {key}={config[key]}" for key in sorted(config)]
    lines.append("# columns: " + ",".join(names))
    lines.append(",".join(names))
    lines += [row % values for values in zip(*lists, strict=True)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, config: dict, record: dict):
    # computed floats at the CSVs' 12 significant digits, so that reruns
    # are byte-identical; the config echo stays exact
    payload = {"config": config, **{
        key: float(_fmt(v)) if isinstance(v, (float, np.floating)) else v
        for key, v in record.items()}}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_outputs(args, files: dict) -> list[Path]:
    """Write a command's files, or none.

    The files go to ``args.out`` and echo every other parsed option.
    ``files`` maps each file name to its columns, or, for a ``.json``
    name, to its record; a CSV value may be a scalar, which is one row.
    Returns the paths written, in the order of ``files``.  Every value is
    checked before the output directory is created, so a non-finite
    result (say, an overflow at extreme --mu or --sigma0) is a numerical
    failure that leaves no files.  Each file is written under a temporary
    name in ``out`` and renamed only once all of them are written; a
    failed write removes the temporaries and every directory this call
    created, so it leaves no partial file.
    """
    out = Path(args.out)
    config = {key: v for key, v in vars(args).items()
              if key not in ("func", "out")}
    for name, data in files.items():
        for key, vals in data.items():
            # sweep's summary nests its monotonicity flags, all bools
            if not isinstance(vals, dict) and not np.all(
                    np.isfinite(np.asarray(vals, dtype=float))):
                raise SolverError(f"non-finite {key} in {name}")
    # out and each of its missing ancestors, deepest first
    made = [d for d in (out, *out.parents) if not d.exists()]
    temps = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, data in files.items():
            temps.append(out / f".{name}.{os.getpid()}.tmp")
            write = _write_json if name.endswith(".json") else _write_csv
            write(temps[-1], config, data)
    except BaseException:
        for tmp in temps:
            tmp.unlink(missing_ok=True)
        for directory in made:
            if directory.is_dir():
                directory.rmdir()
        raise
    paths = [out / name for name in files]
    for tmp, path in zip(temps, paths):
        os.replace(tmp, path)
    return paths


def _problem(nu, p, a=1.0, sigma0=1.0, mu=1.0) -> CrackProblem:
    ell = a / p
    # ell = 0 is the classical material only at p = inf
    if ell in (0.0, np.inf) and p < np.inf:
        flow = "overflows" if ell else "underflows to 0"
        raise ValueError(f"a/ell = {p:g} is too {'small' if ell else 'large'}"
                         f" at a = {a:g}: ell = a/(a/ell) {flow}")
    mat = MaterialParams(mu=mu, nu=nu, ell=ell)
    return CrackProblem(half_length=a, remote_tension=sigma0, material=mat)


def _check_crack_args(args):
    """The checks solve and baseline share, made before solving."""
    if args.sigma0 == 0.0:
        raise ValueError("--sigma0 must be nonzero: outputs are "
                         "normalized by it")
    if args.profile_samples < 3:
        raise ValueError("--profile-samples must be at least 3")
    if not 0.0 < args.a < np.inf:
        raise ValueError("--a must be positive and finite")
    # a subnormal a leaves ell = a/p, or the profile's x, too few digits
    if args.a < np.finfo(float).tiny:
        raise ValueError(f"--a must be at least {np.finfo(float).tiny:g}, "
                         "the smallest normal float")


def _cmd_solve(args):
    if not 0.0 < args.p < np.inf:
        raise ValueError("--p must be positive and finite")
    _check_crack_args(args)
    if args.neartip_samples < 1:
        raise ValueError("--neartip-samples must be at least 1")
    prob = _problem(args.nu, args.p, a=args.a, sigma0=args.sigma0,
                    mu=args.mu)
    sol = solve(prob, Discretization.build(args.n))
    tip = tip_quantities(sol)
    prof = crack_profiles(sol, m_samples=args.profile_samples)
    scale_u = prob.material.mu / (args.sigma0 * args.a)
    ell = prob.material.ell
    # xbar/ell, passed on as xbar/a, which stays normal where xbar may not
    grid = np.geomspace(1e-3, 20.0, args.neartip_samples)
    syy, myz = _beyond_tip(sol, grid / args.p, 1.0)
    record = dict(f1=tip.f1, g1=tip.g1, K_I=tip.k_i, K_I_ratio=tip.k_ratio,
                  J=tip.j, J_ratio=tip.j_ratio, n=args.n,
                  condition=sol.condition, residual=sol.residual,
                  classical_degenerate=sol.classical_degenerate)
    *_, path = _write_outputs(args, {
        "densities.csv": {
            "s": sol.disc.nodes, "f": sol.f_vals, "g": sol.g_vals},
        "profiles.csv": {
            "x": prof.x_samples,
            "x_over_a": prof.x_samples / args.a,
            "delta_uy": prof.delta_uy,
            "delta_uy_norm": prof.delta_uy * scale_u,
            "delta_omega": prof.delta_omega,
            "delta_omega_norm":
                prof.delta_omega * prob.material.mu / args.sigma0},
        "neartip.csv": {
            "xbar": ell * grid,
            "xbar_over_ell": grid,
            "sigma_yy": syy,
            "sigma_yy_over_sigma0": syy / args.sigma0,
            "m_yz": myz,
            "m_yz_over_sigma0_ell": myz / (args.sigma0 * ell)},
        f"summary.{args.format}": record})
    print(f"solve: K_I_ratio={_fmt(tip.k_ratio)} J_ratio={_fmt(tip.j_ratio)} "
          f"-> {path}")


def _cmd_sweep(args):
    if args.p_steps < 1:
        raise ValueError("--p-steps must be at least 1")
    if not 0.0 < args.p_min <= args.p_max < np.inf:
        raise ValueError("need 0 < --p-min <= --p-max < inf")
    try:
        nus = sorted(float(v) for v in args.nu_list.split(",") if v.strip())
    except ValueError as exc:
        raise ValueError(f"bad --nu-list: {exc}") from None
    if not nus:
        raise ValueError("--nu-list is empty")
    # each nu is reported under this key in the summary's flags
    keys = [f"nu={nu:g}" for nu in nus]
    if len(set(keys)) < len(keys):
        raise ValueError(f"--nu-list repeats a value: {args.nu_list}")
    spaced = np.geomspace if args.log_spaced else np.linspace
    ps = spaced(args.p_min, args.p_max, args.p_steps)
    # as the CSV prints them: a repeat would write rows it cannot tell
    # apart and break every strict monotonicity flag
    if len({_fmt(p) for p in ps}) < ps.size:
        raise ValueError("--p-min, --p-max and --p-steps repeat a p value")

    # (K_I_ratio, J_ratio) on the (p, nu) grid, p descending and nu
    # ascending: its ravel is the CSV's rows, ell/a ascending then nu.
    # The ratios do not depend on a, sigma0 or mu at fixed p, so the unit
    # crack serves; the nus of one p share their (n, p) kernel matrices
    ps = ps[::-1]
    disc = Discretization.build(args.n)
    # every problem is built, and so checked, before the first solve
    problems = [[_problem(nu, p) for nu in nus] for p in ps]
    ratios = np.array([[(tip.k_ratio, tip.j_ratio) for tip in
                        map(tip_quantities, _solve_shared(shared, disc))]
                       for shared in problems])
    p_grid, nu_grid = np.meshgrid(ps, nus, indexing="ij")
    cols = {"ell_over_a": 1.0 / p_grid, "p": p_grid, "nu": nu_grid,
            "K_I_ratio": ratios[..., 0], "J_ratio": ratios[..., 1]}

    decreasing = np.all(np.diff(ratios, axis=0) < 0.0, axis=0)
    below = np.all(ratios[..., 1] < 1.0, axis=0)
    flags = {key: {"K_ratio_strictly_decreasing_in_ell_over_a": bool(k),
                   "J_ratio_strictly_decreasing_in_ell_over_a": bool(j),
                   "J_below_classical": bool(b)}
             for key, (k, j), b in zip(keys, decreasing, below)}
    csv, path = _write_outputs(args, {
        "sweep.csv": cols, "sweep_summary.json": {"monotonicity": flags}})
    print(f"sweep: {p_grid.size} rows -> {csv}, flags -> {path}")


def _cmd_field(args):
    if args.x_num < 1 or args.y_num < 1:
        raise ValueError("empty grid: --x-num and --y-num must be >= 1")
    mat = MaterialParams(mu=args.mu, nu=args.nu, ell=args.ell)
    charge = DefectCharge(b=args.b, omega=args.omega)
    xs = np.linspace(args.x_min, args.x_max, args.x_num)
    ys = np.linspace(args.y_min, args.y_max, args.y_num)
    # a non-finite bound, or a spacing that overflows
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("grid points must be finite")
    if np.any(ys < 0.0):
        raise ValueError("grid extends below the half-plane: y must be >= 0")
    # rows run over x within each y
    y, x = (g.ravel() for g in np.meshgrid(ys, xs, indexing="ij"))
    core = (x == 0.0) & (y == 0.0)
    if np.any(core):
        k = np.argmax(core)
        raise ValueError(
            f"grid contains the defect core point ({x[k]:g}, {y[k]:g})")
    # an extreme ell overflows the Bessel terms; _write_outputs reports the
    # non-finite result as one line, so numpy need not warn first
    with np.errstate(all="ignore"):
        st = full_field(x, y, charge, mat)
    [path] = _write_outputs(args, {"field.csv": {"x": x, "y": y, **vars(st)}})
    print(f"field: {x.size} points -> {path}")


def _cmd_baseline(args):
    _check_crack_args(args)
    # ell = a/inf = 0: the classical material
    prob = _problem(args.nu, np.inf, a=args.a, sigma0=args.sigma0,
                    mu=args.mu)
    base = classical_baseline(prob, n=args.n,
                              m_samples=args.profile_samples)
    record = dict(K_I=base.k_i, K_I_discrete=base.k_i_discrete,
                  K_I_discrete_rel_err=abs(base.k_i_discrete - base.k_i)
                  / base.k_i,
                  J=base.j, n=args.n)
    _, path = _write_outputs(args, {
        "baseline_cod.csv": {
            "x": base.x_samples,
            "x_over_a": base.x_samples / args.a,
            "cod_closed": base.cod,
            "cod_discrete": base.cod_discrete},
        f"baseline.{args.format}": record})
    print(f"baseline: K_I={_fmt(base.k_i)} J={_fmt(base.j)} -> {path}")


# every option's add_argument keywords, each declared once
_OPTIONS = {
    "nu": dict(type=float, default=0.3, help="Poisson ratio"),
    "p": dict(type=float, default=10.0, help="size ratio a/ell"),
    "n": dict(type=int, default=128, help="integration nodes"),
    "sigma0": dict(type=float, default=1.0, help="remote tension"),
    "a": dict(type=float, default=1.0, help="crack half-length"),
    "mu": dict(type=float, default=1.0, help="shear modulus"),
    "format": dict(choices=("csv", "json"), default="json",
                   help="summary format"),
    "profile-samples": dict(type=int, default=201),
    "neartip-samples": dict(type=int, default=80),
    "p-min": dict(type=float, required=True),
    "p-max": dict(type=float, required=True),
    "p-steps": dict(type=int, required=True),
    "log-spaced": dict(action="store_true"),
    "nu-list": dict(type=str, default="0.3"),
    "b": dict(type=float, default=1.0, help="climb Burgers component"),
    "omega": dict(type=float, default=0.0, help="Frank rotation angle"),
    "ell": dict(type=float, default=1.0),
    "x-min": dict(type=float, required=True),
    "x-max": dict(type=float, required=True),
    "x-num": dict(type=int, required=True),
    "y-min": dict(type=float, required=True),
    "y-max": dict(type=float, required=True),
    "y-num": dict(type=int, required=True),
    "out": dict(type=str, default=".", help="output directory"),
}

# (command, function, help, options besides --out).  sweep's ratios need
# no scale flags nor --format, and its nus come from --nu-list alone
_COMMANDS = (
    ("solve", _cmd_solve, "solve one crack configuration",
     "nu p n sigma0 a mu format profile-samples neartip-samples"),
    ("sweep", _cmd_sweep, "sweep the size ratio a/ell",
     "n p-min p-max p-steps log-spaced nu-list"),
    ("field", _cmd_field, "evaluate the defect field on a grid",
     "b omega mu nu ell x-min x-max x-num y-min y-max y-num"),
    ("baseline", _cmd_baseline, "classical-elasticity references",
     "nu n sigma0 a mu format profile-samples"),
)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cscrack",
                     description="couple-stress mode-I crack solver")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, text, options in _COMMANDS:
        sp = sub.add_parser(name, help=text)
        for option in (*options.split(), "out"):
            sp.add_argument("--" + option, **_OPTIONS[option])
        sp.set_defaults(func=func)
    return parser


# built once, at import: a build costs about a millisecond, mostly one
# HelpFormatter per option, and parse_args leaves the parser unchanged
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # a successful run reports each warning as one line; a failed one
        # reports only its error
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("numerical failure: out of memory", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write the outputs: {exc}", file=sys.stderr)
        return 1
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
