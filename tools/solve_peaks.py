"""Print the tracemalloc memory peaks of the density solve.

For n in {64, 128, 256, 512, 1024} and a/ell = p in {0.3, 10, 100} (the
kernel evaluator's series, tail and mixed branches) this measures the
peak bytes that ``cscrack.sie._nu_free_system`` and ``cscrack.solve``
allocate, with tracemalloc, and prints them in n x n float64 matrices
(8 n^2 bytes), next to the memory guard ``_working_set_bytes(n)`` in the
same unit.  The grid is built before tracing starts, so only the solve
is counted.  The guard must stay at or above every peak.

Run it against any checkout:

    PYTHONPATH=<checkout>/src python tools/solve_peaks.py
"""

import tracemalloc

from cscrack import CrackProblem, Discretization, MaterialParams, solve
from cscrack.sie import _nu_free_system, _working_set_bytes

NS = (64, 128, 256, 512, 1024)
PS = (0.3, 10.0, 100.0)


def peak(call, *args):
    """Peak bytes allocated by call(*args), as traced by tracemalloc."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main():
    print("n     p      _nu_free_system  solve  guard")
    for n in NS:
        disc = Discretization.build(n)
        unit = 8.0 * n * n
        for p in PS:
            problem = CrackProblem(1.0, 1.0, MaterialParams(
                mu=1.0, nu=0.3, ell=1.0 / p))
            system = peak(_nu_free_system, disc, p) / unit
            whole = peak(solve, problem, disc) / unit
            print(f"{n:<5} {p:<6g} {system:15.2f}  {whole:5.2f}  "
                  f"{_working_set_bytes(n) / unit:5.2f}")


if __name__ == "__main__":
    main()
