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

Run it against any checkout, and compare the last lines:

    PYTHONPATH=<checkout>/src python tools/solve_fingerprint.py
"""

import hashlib
import warnings

import numpy as np

from cscrack import CrackProblem, Discretization, MaterialParams, SolverError
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


def main():
    digest = hashlib.sha256()
    count = 0
    for line in _lines():
        print(line)
        digest.update(line.encode() + b"\n")
        count += 1
    print(f"{count} cases, digest {digest.hexdigest()}")


if __name__ == "__main__":
    main()
