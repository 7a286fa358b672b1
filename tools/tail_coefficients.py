"""Fit the tail table behind ``cscrack.specfun`` for 1 <= w < 40.

On that range the evaluator writes K0, K1 and the tail of int_0^w K0 as

    K0(w)              = e^{-w} w^{-1/2} P0(x),
    K1(w)              = e^{-w} w^{-1/2} P1(x),
    pi/2 - int_0^w K0  = e^{-w} w^{-1/2} P2(x),

with x = (2v - hi - lo)/(hi - lo) the Chebyshev variable of
v = 1/(w + 2) on [lo, hi] = [1/42, 1/3].  This script interpolates each
P at the same Chebyshev points from mpmath references at 50 digits
(``besselk``, and for the integral

    int_0^w K0 = (pi w/2) [K0(w) L_{-1}(w) + K1(w) L_0(w)]

of Abramowitz & Stegun 11.1.8, L the modified Struve functions), keeps
the leading Chebyshev terms and prints them in the power basis of x as
the Python literal that ``specfun.py`` commits: one row per power of x,
one column per function, so that the evaluator sums all three with one
Horner loop.

P2 needs fewer terms than P0 and P1.  Its column is padded with zero
rows at the top degrees, which Horner's rule passes through exactly, so
int_0^w K0 is the same double as from a table of P2 alone.

Measured against 30- and 40-digit references on [1, 40]:

* the shift 2 in v matters: 24 terms of P2 reach 1.9e-16 absolute, where
  a Chebyshev series in 1/w on [1/40, 1] needs 37 for 2.1e-16;
* 28 terms of P0 and P1 reach 4.1e-16 relative in K0 and K1 on 1,081
  points, where scipy.special's k0 and k1 reach 1.0e-15 and 6.0e-16;
* the power basis keeps Horner's rounding small: the coefficients of
  P0, P1 and P2 sum to 1.29, 1.64 and 1.30 in absolute value, and
  Horner's rule takes two array operations per term against three for
  Clenshaw's recurrence.

Run from the repository root:

    python tools/tail_coefficients.py

The output is deterministic; a test reruns the fit and compares it with
the committed literal bit for bit.
"""

from __future__ import annotations

import mpmath as mp

LOW = 1        # the series switch of specfun
CAP = 40       # past it K0, K1 and int_w^oo K0 are below half an ulp
SHIFT = 2
POINTS = 32    # interpolation points
TERMS = 28     # Chebyshev terms kept for K0 and K1: the rows of the table
INT_TERMS = 24  # and for the tail of int_0^w K0
DIGITS = 50


def int_k0_reference(w):
    """int_0^w K0 at mpmath's working precision."""
    w = mp.mpf(w)
    return mp.pi * w / 2 * (mp.besselk(0, w) * mp.struvel(-1, w)
                            + mp.besselk(1, w) * mp.struvel(0, w))


def _fit(func, terms):
    """Power-basis coefficients in x, lowest first, of the degree
    terms - 1 Chebyshev interpolant of e^w sqrt(w) func(w), as doubles."""
    with mp.workdps(DIGITS):
        lo, hi = mp.mpf(1) / (CAP + SHIFT), mp.mpf(1) / (LOW + SHIFT)
        theta = [mp.pi * (2 * j + 1) / (2 * POINTS) for j in range(POINTS)]
        vals = []
        for th in theta:
            w = 1 / ((hi - lo) / 2 * mp.cos(th) + (hi + lo) / 2) - SHIFT
            vals.append(func(w) * mp.exp(w) * mp.sqrt(w))
        cheb = [2 * mp.fsum(f * mp.cos(k * th) for f, th in zip(vals, theta))
                / POINTS for k in range(terms)]
        cheb[0] /= 2
        # T_k in the power basis: T_0 = 1, T_1 = x, T_k = 2x T_{k-1} - T_{k-2}
        t_prev, t_cur = [mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]
        power = [cheb[0]] + [mp.mpf(0)] * (terms - 1)
        for c in cheb[1:]:
            for i, t in enumerate(t_cur):
                power[i] += c * t
            t_next = [mp.mpf(0)] + [2 * t for t in t_cur]
            for i, t in enumerate(t_prev):
                t_next[i] -= t
            t_prev, t_cur = t_cur, t_next
        return [float(a) for a in power]


def coefficients() -> list[list[float]]:
    """Rows [P0, P1, P2] of the table, lowest power of x first."""
    k0 = _fit(lambda w: mp.besselk(0, w), TERMS)
    k1 = _fit(lambda w: mp.besselk(1, w), TERMS)
    tail = _fit(lambda w: mp.pi / 2 - int_k0_reference(w), INT_TERMS)
    tail += [0.0] * (TERMS - INT_TERMS)
    return [list(row) for row in zip(k0, k1, tail)]


def main():
    print("_TAIL_TABLE = np.array([")
    for row in coefficients():
        print(f"    [{', '.join(repr(a) for a in row)}],")
    print("])")


if __name__ == "__main__":
    main()
