"""Print a bitwise fingerprint of the density solve over a fixed grid.

A numerical refactor of the solver should either leave f, g,
``condition`` and ``residual`` bitwise unchanged or say why they moved.
This script solves 240 cases through ``cscrack.sie._solve_shared``:
n in {8, 9, 16, 33, 128, 129, 256, 512}, a/ell = p in {1e-6, 1e-3, 0.3,
1, 10, 37, 2n - 1, 2n + 1, 1e4, inf} and nu in {0, 0.3, 0.5}, with the
three nus of one (n, p) solved together as ``cscrack sweep`` solves
them.  It prints one line per case, with the first 16 hex digits of the
SHA-256 of f followed by g (their float64 bytes) and the ``repr`` of
``condition`` and ``residual``, then one SHA-256 digest of all those
lines.  A case that raises prints its error in place of the numbers.

A second part covers the other consumers of the kernel evaluator, one
line per array: ``post._beyond_tip`` at both tips and ``crack_profiles``
for five solutions (the series, tail and far branches, odd n and the
classical degenerate system), ``full_field`` for a climb dislocation, a
disclination and both together on a 20 x 12 grid whose rows run from
y = 0 and y/l = 1e-9 to 50, and the four public wrappers at the
evaluator's branch edges and limits.  It ends in a second digest line,
so a change to the solve alone moves the first digest only.  Every NaN
is hashed as the one NaN ``np.nan``: the sign of a NaN that meets
another NaN in a sum or product depends on the operand order numpy's
loops pick, which moves with the layout of the arrays.

Run it against any checkout, and compare the last two lines:

    PYTHONPATH=<checkout>/src python tools/solve_fingerprint.py
"""

import hashlib
import warnings

import numpy as np

from cscrack import (CrackProblem, DefectCharge, Discretization,
                     MaterialParams, SolverError, crack_profiles, full_field,
                     k0_log_reg, k2_reg, k3_reg, meijer_kernel, solve)
from cscrack.post import _beyond_tip
from cscrack.sie import _solve_shared

NS = (8, 9, 16, 33, 128, 129, 256, 512)
NUS = (0.0, 0.3, 0.5)


def _ps(n: int):
    return (1e-6, 1e-3, 0.3, 1.0, 10.0, 37.0, 2.0 * n - 1.0, 2.0 * n + 1.0,
            1e4, np.inf)


def _lines():
    for n in NS:
        disc = Discretization.build(n)
        for p in _ps(n):
            problems = [CrackProblem(1.0, 1.0, MaterialParams(
                mu=1.0, nu=nu, ell=1.0 / p)) for nu in NUS]
            head = [f"n={n} p={p!r} nu={nu!r}" for nu in NUS]
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    sols = _solve_shared(problems, disc)
            except SolverError as exc:
                yield from (f"{h} error: {exc}" for h in head)
                continue
            for h, sol in zip(head, sols):
                fg = sol.f_vals.tobytes() + sol.g_vals.tobytes()
                yield (f"{h} fg={hashlib.sha256(fg).hexdigest()[:16]} "
                       f"condition={sol.condition!r} "
                       f"residual={sol.residual!r}")


# (n, a/ell) of the post-processed solutions, nu = 0.3
SOLUTIONS = ((128, 0.3), (128, 10.0), (129, 60.0), (64, 37.0), (33, 1e4))
# the evaluator's branch edges and limits, as arguments at ell = 1
EDGES = (0.0, 5e-324, 1e-300, 1.0 - 1e-9, 1.0, 40.0 - 1e-7, 40.0, 1e300,
         np.inf, np.nan)


def _consumer_arrays():
    """(label, array) for every consumer of the evaluator but the solve."""
    e = np.geomspace(1e-12, 10.0, 41)
    for n, p in SOLUTIONS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sol = solve(CrackProblem(1.0, 1.0, MaterialParams(
                mu=1.0, nu=0.3, ell=1.0 / p)), Discretization.build(n))
        head = f"n={n} p={p!r}"
        for side in (1.0, -1.0):
            syy, myz = _beyond_tip(sol, e, side)
            yield f"{head} beyond_tip side={side!r} syy", syy
            yield f"{head} beyond_tip side={side!r} myz", myz
        prof = crack_profiles(sol)
        yield f"{head} crack_profiles delta_uy", prof.delta_uy
        yield f"{head} crack_profiles delta_omega", prof.delta_omega
    mat = MaterialParams(mu=1.0, nu=0.3, ell=1.0)
    x, y = np.meshgrid(np.linspace(-5.0, 5.0, 20), np.array(
        [0.0, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 40.0, 50.0]))
    for b, omega in ((1.0, 0.0), (0.0, 1.0), (1.0, 0.5)):
        state = full_field(x, y, DefectCharge(b=b, omega=omega), mat)
        for name, values in vars(state).items():
            yield f"full_field b={b!r} omega={omega!r} {name}", values
    edges = np.array(EDGES)
    for func in (k2_reg, k0_log_reg, k3_reg):
        yield func.__name__, func(edges, 1.0)
        yield (f"{func.__name__} scalar",
               np.array([func(w, 1.0) for w in EDGES]))
    yield "k3_reg negative", k3_reg(-edges, 1.0)
    nonzero = np.concatenate([edges[1:], -edges[1:]])
    with np.errstate(over="ignore"):            # 4 l/x at x = 5e-324
        meijer = meijer_kernel(nonzero, 1.0)
    yield "meijer_kernel", meijer


def _digest(lines, what):
    digest = hashlib.sha256()
    count = 0
    for line in lines:
        print(line)
        digest.update(line.encode() + b"\n")
        count += 1
    return f"{count} {what}, digest {digest.hexdigest()}"


def _array_lines():
    for label, values in _consumer_arrays():
        values = np.where(np.isnan(values), np.nan, values)
        yield f"{label} {hashlib.sha256(values.tobytes()).hexdigest()[:16]}"


def main():
    cases = _digest(_lines(), "cases")
    arrays = _digest(_array_lines(), "arrays")
    print(cases)
    print(arrays)


if __name__ == "__main__":
    main()
