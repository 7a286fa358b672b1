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
from .post import (classical_baseline, crack_profiles, stress_ahead,
                   tip_quantities)
from .sie import (CrackProblem, Discretization, SolverError, _solve_shared,
                  solve)

__all__ = ["main"]


class ConfigError(ValueError):
    pass


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


def _write_outputs(args, tables: dict, summary=None) -> list[Path]:
    """Write a command's CSV tables and its summary record, or nothing.

    The files go to ``args.out`` and echo every other parsed option.
    ``tables`` maps file names to columns; ``summary`` is (path stem,
    record, format).  Returns the paths written, the tables' in order and
    the summary's last.  Every value is checked before the output directory
    is created, so a non-finite result (say, an overflow at extreme
    --mu or --sigma0) is a numerical failure that leaves no files.  Each
    file is written under a temporary name in ``out`` and renamed only
    once all of them are written; a failed write removes the temporaries
    (and ``out``, if this call created it), so it leaves no partial file.
    """
    out = Path(args.out)
    config = {key: v for key, v in vars(args).items()
              if key not in ("func", "out")}
    stem, record, fmt = summary if summary else (None, {}, None)
    numbers = {key: v for key, v in record.items()
               if isinstance(v, (int, float, np.floating))}
    for name, columns in [(stem, numbers), *tables.items()]:
        for col, vals in columns.items():
            if not np.all(np.isfinite(np.asarray(vals, dtype=float))):
                raise SolverError(f"non-finite {col} in {name}")
    files = [(name, _write_csv, columns) for name, columns in tables.items()]
    if summary is not None:
        name = f"{stem}.{fmt}"
        if fmt == "json":
            files.append((name, _write_json, record))
        else:
            files.append((name, _write_csv,
                          {k: [v] for k, v in numbers.items()}))
    created = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    temps = []
    try:
        for name, write, data in files:
            temps.append(out / f".{name}.{os.getpid()}.tmp")
            write(temps[-1], config, data)
    except BaseException:
        for tmp in temps:
            tmp.unlink(missing_ok=True)
        if created:
            out.rmdir()
        raise
    paths = [out / name for name, _, _ in files]
    for tmp, path in zip(temps, paths):
        os.replace(tmp, path)
    return paths


def _problem(nu, p, a=1.0, sigma0=1.0, mu=1.0) -> CrackProblem:
    mat = MaterialParams(mu=mu, nu=nu, ell=a / p)
    return CrackProblem(half_length=a, remote_tension=sigma0, material=mat)


def _check_crack_args(args):
    """The checks solve and baseline share, made before solving."""
    if args.sigma0 == 0.0:
        raise ConfigError("--sigma0 must be nonzero: outputs are "
                          "normalized by it")
    if args.profile_samples < 3:
        raise ConfigError("--profile-samples must be at least 3")


def _cmd_solve(args) -> int:
    if not 0.0 < args.p < np.inf:
        raise ConfigError("--p must be positive and finite")
    _check_crack_args(args)
    if args.neartip_samples < 1:
        raise ConfigError("--neartip-samples must be at least 1")
    prob = _problem(args.nu, args.p, a=args.a, sigma0=args.sigma0,
                    mu=args.mu)
    sol = solve(prob, Discretization.build(args.n))
    tip = tip_quantities(sol)
    prof = crack_profiles(sol, m_samples=args.profile_samples)
    scale_u = prob.material.mu / (args.sigma0 * args.a)
    ell = prob.material.ell
    xbar = ell * np.geomspace(1e-3, 20.0, args.neartip_samples)
    if not np.all((args.a + xbar) / args.a > 1.0):
        # ell is below the resolution of x near the tip, so the grid
        # would round onto x = a: sample the grid of a/ell = 1e12 instead
        xbar = 1e-12 * args.a * np.geomspace(1e-3, 20.0,
                                             args.neartip_samples)
    syy, myz = stress_ahead(sol, args.a + xbar)
    tables = {
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
            "xbar": xbar,
            "xbar_over_ell": xbar / ell,
            "sigma_yy": syy,
            "sigma_yy_over_sigma0": syy / args.sigma0,
            "m_yz": myz,
            "m_yz_over_sigma0_ell": myz / (args.sigma0 * ell)},
    }
    record = dict(f1=tip.f1, g1=tip.g1, K_I=tip.k_i, K_I_ratio=tip.k_ratio,
                  J=tip.j, J_ratio=tip.j_ratio, n=args.n,
                  condition=sol.condition, residual=sol.residual,
                  classical_degenerate=sol.classical_degenerate)
    *_, path = _write_outputs(args, tables, ("summary", record, args.format))
    print(f"solve: K_I_ratio={_fmt(tip.k_ratio)} J_ratio={_fmt(tip.j_ratio)} "
          f"-> {path}")
    return 0


def _cmd_sweep(args) -> int:
    if args.p_steps < 1:
        raise ConfigError("--p-steps must be at least 1")
    if not 0.0 < args.p_min <= args.p_max < np.inf:
        raise ConfigError("need 0 < --p-min <= --p-max < inf")
    try:
        nus = sorted(float(v) for v in args.nu_list.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"bad --nu-list: {exc}") from None
    if not nus:
        raise ConfigError("--nu-list is empty")
    # each nu is reported under this key in the summary's flags
    keys = [f"nu={nu:g}" for nu in nus]
    if len(set(keys)) < len(keys):
        raise ConfigError(f"--nu-list repeats a value: {args.nu_list}")
    if args.log_spaced:
        ps = np.geomspace(args.p_min, args.p_max, args.p_steps)
    else:
        ps = np.linspace(args.p_min, args.p_max, args.p_steps)
    # as the CSV prints them: a repeat would write rows it cannot tell
    # apart and break every strict monotonicity flag
    if len({_fmt(p) for p in ps}) < ps.size:
        raise ConfigError("--p-min, --p-max and --p-steps repeat a p value")

    # (K_I_ratio, J_ratio) on the (p, nu) grid, p descending and nu
    # ascending: its ravel is the CSV's rows, ell/a ascending then nu.
    # The ratios do not depend on a, sigma0 or mu at fixed p, so the unit
    # crack serves; the nus of one p share their (n, p) kernel matrices
    ps = ps[::-1]
    disc = Discretization.build(args.n)
    ratios = np.empty((ps.size, len(nus), 2))
    for i, p in enumerate(ps):
        sols = _solve_shared([_problem(nu, p) for nu in nus], disc)
        for j, tip in enumerate(map(tip_quantities, sols)):
            ratios[i, j] = tip.k_ratio, tip.j_ratio
    p_grid, nu_grid = np.meshgrid(ps, nus, indexing="ij")
    cols = {"ell_over_a": 1.0 / p_grid, "p": p_grid, "nu": nu_grid,
            "K_I_ratio": ratios[..., 0], "J_ratio": ratios[..., 1]}

    decreasing = np.all(np.diff(ratios, axis=0) < 0.0, axis=0)
    below = np.all(ratios[..., 1] < 1.0, axis=0)
    flags = {key: {"K_ratio_strictly_decreasing_in_ell_over_a": bool(k),
                   "J_ratio_strictly_decreasing_in_ell_over_a": bool(j),
                   "J_below_classical": bool(b)}
             for key, (k, j), b in zip(keys, decreasing, below)}
    csv, path = _write_outputs(args, {"sweep.csv": cols},
                               ("sweep_summary", {"monotonicity": flags},
                                "json"))
    print(f"sweep: {p_grid.size} rows -> {csv}, flags -> {path}")
    return 0


def _cmd_field(args) -> int:
    if args.x_num < 1 or args.y_num < 1:
        raise ConfigError("empty grid: --x-num and --y-num must be >= 1")
    mat = MaterialParams(mu=args.mu, nu=args.nu, ell=args.ell)
    charge = DefectCharge(b=args.b, omega=args.omega)
    xs = np.linspace(args.x_min, args.x_max, args.x_num)
    ys = np.linspace(args.y_min, args.y_max, args.y_num)
    # a non-finite bound, or a spacing that overflows
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ConfigError("grid points must be finite")
    if np.any(ys < 0.0):
        raise ConfigError("grid extends below the half-plane: y must be >= 0")
    # rows run over x within each y
    y, x = (g.ravel() for g in np.meshgrid(ys, xs, indexing="ij"))
    core = (x == 0.0) & (y == 0.0)
    if np.any(core):
        k = np.argmax(core)
        raise ConfigError(
            f"grid contains the defect core point ({x[k]:g}, {y[k]:g})")
    # an extreme ell overflows the Bessel terms; _write_outputs reports the
    # non-finite result as one line, so numpy need not warn first
    with np.errstate(all="ignore"):
        st = full_field(x, y, charge, mat)
    [path] = _write_outputs(args, {"field.csv": {"x": x, "y": y, **vars(st)}})
    print(f"field: {x.size} points -> {path}")
    return 0


def _cmd_baseline(args) -> int:
    _check_crack_args(args)
    mat = MaterialParams(mu=args.mu, nu=args.nu, ell=0.0)
    prob = CrackProblem(half_length=args.a, remote_tension=args.sigma0,
                        material=mat)
    base = classical_baseline(prob, n=args.n,
                              m_samples=args.profile_samples)
    cod = {
        "x": base.x_samples,
        "x_over_a": base.x_samples / args.a,
        "cod_closed": base.cod,
        "cod_discrete": base.cod_discrete,
    }
    record = dict(K_I=base.k_i, K_I_discrete=base.k_i_discrete,
                  K_I_discrete_rel_err=abs(base.k_i_discrete - base.k_i)
                  / base.k_i,
                  J=base.j, n=args.n)
    _, path = _write_outputs(args, {"baseline_cod.csv": cod},
                             ("baseline", record, args.format))
    print(f"baseline: K_I={_fmt(base.k_i)} J={_fmt(base.j)} -> {path}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="cscrack",
                     description="couple-stress mode-I crack solver")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_nu=True, with_p=True, scales=True):
        """Shared options; ``scales`` adds the crack and material scales
        and the summary format, which sweep's ratios do not depend on.
        sweep takes its Poisson ratios from --nu-list alone."""
        if with_nu:
            sp.add_argument("--nu", type=float, default=0.3,
                            help="Poisson ratio")
        if with_p:
            sp.add_argument("--p", type=float, default=10.0,
                            help="size ratio a/ell")
        sp.add_argument("--n", type=int, default=128,
                        help="integration nodes")
        if scales:
            sp.add_argument("--sigma0", type=float, default=1.0,
                            help="remote tension")
            sp.add_argument("--a", type=float, default=1.0,
                            help="crack half-length")
            sp.add_argument("--mu", type=float, default=1.0,
                            help="shear modulus")
            sp.add_argument("--format", choices=("csv", "json"),
                            default="json", help="summary format")
        sp.add_argument("--out", type=str, default=".",
                        help="output directory")

    sp = sub.add_parser("solve", help="solve one crack configuration")
    common(sp)
    sp.add_argument("--profile-samples", type=int, default=201)
    sp.add_argument("--neartip-samples", type=int, default=80)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("sweep", help="sweep the size ratio a/ell")
    common(sp, with_nu=False, with_p=False, scales=False)
    sp.add_argument("--p-min", type=float, required=True)
    sp.add_argument("--p-max", type=float, required=True)
    sp.add_argument("--p-steps", type=int, required=True)
    sp.add_argument("--log-spaced", action="store_true")
    sp.add_argument("--nu-list", type=str, default="0.3")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("field", help="evaluate the defect field on a grid")
    sp.add_argument("--b", type=float, default=1.0,
                    help="climb Burgers component")
    sp.add_argument("--omega", type=float, default=0.0,
                    help="Frank rotation angle")
    sp.add_argument("--mu", type=float, default=1.0)
    sp.add_argument("--nu", type=float, default=0.3)
    sp.add_argument("--ell", type=float, default=1.0)
    sp.add_argument("--x-min", type=float, required=True)
    sp.add_argument("--x-max", type=float, required=True)
    sp.add_argument("--x-num", type=int, required=True)
    sp.add_argument("--y-min", type=float, required=True)
    sp.add_argument("--y-max", type=float, required=True)
    sp.add_argument("--y-num", type=int, required=True)
    sp.add_argument("--out", type=str, default=".")
    sp.set_defaults(func=_cmd_field)

    sp = sub.add_parser("baseline", help="classical-elasticity references")
    common(sp, with_p=False)
    sp.add_argument("--profile-samples", type=int, default=201)
    sp.set_defaults(func=_cmd_baseline)
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
            rc = args.func(args)
    except (ConfigError, ValueError) as exc:
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
    return rc


if __name__ == "__main__":
    sys.exit(main())
