"""Print how far the solver's tip densities f(1), g(1) sit from their limits.

A numerical change that moves f and g on purpose (a better quadrature
rule, a differently rounded t - s) should say how far they are from the
converged values before and after.  ``LIMITS`` holds those values for
the unit crack at nu = 0.3: (a/ell, f(1), g(1)), dimensionless.

Provenance.  They were computed with two refinements of the solver that
are not in the package, both prototyped for this table:

* t - s formed without cancellation: with theta_k = k pi/n for the rows
  and theta_j = (j - 1/2) pi/n for the nodes,
  t - s = -2 sin((theta_k + theta_j)/2) sin((theta_k - theta_j)/2);
* a windowed Kress correction of the regular kernels' node sums: each
  kernel's A ln|t - s| part (A a closed form in I0, I1, I2 and
  int_0^w I0, w = p|t - s|) takes the Kussmaul-Martensen product-rule
  weight in place of the node-sum weight, times exp(-(w/4)^4).

at n = 2048.  f(1) and g(1) agree with the same rule at n = 1536
(p <= 20) or n = 3072 (p >= 40) to the relative differences in the
comment of each row.  As an independent check, the package's own solver
with the cancellation-free t - s, Richardson-extrapolated from n = 1024
and 2048 (third order, divisor 7), gives f(1) = 0.618263074646127,
0.709217007492309 and 0.714938785892836 at p = 1, 10 and 20: within
1e-15, 8e-15 and 1.4e-13 of the table.

For each p and n in ``NS`` this script solves one crack through
``cscrack.sie._solve_shared``, reads f(1), g(1) with ``tip_quantities``
and prints the figure

    max(|f(1) - F|, |g(1) - G| / max(1, |G|)).

Where p > 2n the solver takes the classical degenerate system, whose g
is identically 0, so the figure would only restate |G|: the table prints
"degenerate" there.  Run it against any checkout:

    PYTHONPATH=<checkout>/src python tools/accuracy_table.py
"""

from cscrack import (CrackProblem, Discretization, MaterialParams,
                     tip_quantities)
from cscrack.sie import _solve_shared

NU = 0.3
NS = (32, 64, 128, 256, 512)

# (a/ell, f(1), g(1)); then f(1) and g(1) at n = 2048 against n = 1536
# (p <= 20) or 3072 (p >= 40), relative
LIMITS = (
    (1.0, 0.618263074646128, 0.134592753035502),      # 5.6e-16, 7.2e-15
    (2.0, 0.652000587572756, 0.469725357279103),      # 5.6e-16, 1.3e-14
    (5.0, 0.694767485458165, 1.898783447173883),      # 1.1e-16, 9.1e-15
    (10.0, 0.709217007492300, 4.446120619382954),     # 1.1e-16, 3.6e-15
    (20.0, 0.714938785892698, 9.517009924846652),     # 3.3e-16, 9.3e-15
    (40.0, 0.717476468074149, 19.639060225314907),    # 1.2e-15, 6.3e-15
    (60.0, 0.718281775454550, 29.757306218932296),    # 3.3e-16, 2.3e-15
    (100.0, 0.718912249464465, 49.991687464855232),   # 2.2e-14, 4.3e-14
    (200.0, 0.719377262813632, 100.575271304875059),  # 1.4e-12, 1.9e-12
)


def error(p: float, n: int):
    """The figure at (p, n) against ``LIMITS``, or None where p > 2n."""
    if p > 2 * n:
        return None
    f_lim, g_lim = next((f, g) for q, f, g in LIMITS if q == p)
    problem = CrackProblem(1.0, 1.0, MaterialParams(mu=1.0, nu=NU,
                                                    ell=1.0 / p))
    [sol] = _solve_shared([problem], Discretization.build(n))
    tip = tip_quantities(sol)
    return max(abs(tip.f1 - f_lim),
               abs(tip.g1 - g_lim) / max(1.0, abs(g_lim)))


def main():
    print("p," + ",".join(f"n={n}" for n in NS))
    for p, *_ in LIMITS:
        cells = [error(p, n) for n in NS]
        print(f"{p:g}," + ",".join(
            "degenerate" if e is None else f"{e:.1e}" for e in cells))


if __name__ == "__main__":
    main()
