"""Fit the polynomial behind ``cscrack.specfun.int_k0``.

For 1 <= w < 40 the evaluator writes the integral through its tail,

    int_0^w K0 = pi/2 - e^{-w} w^{-1/2} P(x),

with x = (2v - hi - lo)/(hi - lo) the Chebyshev variable of
v = 1/(w + 2) on [lo, hi] = [1/42, 1/3].  This script interpolates P at
Chebyshev points from the reference

    int_0^w K0 = (pi w/2) [K0(w) L_{-1}(w) + K1(w) L_0(w)]

(Abramowitz & Stegun 11.1.8, L the modified Struve functions), computed
by mpmath at 50 digits, keeps the leading Chebyshev terms and prints them
in the power basis of x as the Python literal that ``specfun.py``
commits, so that the evaluator sums them with the Horner loop of its
series table.

Measured against a 40-digit reference on 465 points of [1, 40]:

* the shift 2 in v matters: 24 terms reach 1.9e-16 absolute, where a
  Chebyshev series in 1/w on [1/40, 1] needs 37 for 2.1e-16;
* the power basis costs nothing in accuracy: its coefficients sum to 1.30
  in absolute value, against 1.27 for the Chebyshev ones, and Horner's
  sum is within 1.7e-16 of the reference, at two array operations per
  term against three for Clenshaw's recurrence.

Run from the repository root:

    python tools/int_k0_coefficients.py

The output is deterministic; a test reruns the fit and compares it with
the committed literal bit for bit.
"""

from __future__ import annotations

import mpmath as mp

LOW = 1        # the series switch of specfun
CAP = 40       # int_w^oo K0 < 8.4e-19 from here on: pi/2 to the ulp
SHIFT = 2
POINTS = 32    # interpolation points
TERMS = 24     # Chebyshev terms kept
DIGITS = 50


def int_k0_reference(w):
    """int_0^w K0 at mpmath's working precision."""
    w = mp.mpf(w)
    return mp.pi * w / 2 * (mp.besselk(0, w) * mp.struvel(-1, w)
                            + mp.besselk(1, w) * mp.struvel(0, w))


def coefficients() -> list[float]:
    """Power-basis coefficients of P in x, lowest first, as doubles."""
    with mp.workdps(DIGITS):
        lo, hi = mp.mpf(1) / (CAP + SHIFT), mp.mpf(1) / (LOW + SHIFT)
        theta = [mp.pi * (2 * j + 1) / (2 * POINTS) for j in range(POINTS)]
        vals = []
        for th in theta:
            w = 1 / ((hi - lo) / 2 * mp.cos(th) + (hi + lo) / 2) - SHIFT
            vals.append((mp.pi / 2 - int_k0_reference(w))
                        * mp.exp(w) * mp.sqrt(w))
        cheb = [2 * mp.fsum(f * mp.cos(k * th) for f, th in zip(vals, theta))
                / POINTS for k in range(TERMS)]
        cheb[0] /= 2
        # T_k in the power basis: T_0 = 1, T_1 = x, T_k = 2x T_{k-1} - T_{k-2}
        t_prev, t_cur = [mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]
        power = [cheb[0]] + [mp.mpf(0)] * (TERMS - 1)
        for c in cheb[1:]:
            for i, t in enumerate(t_cur):
                power[i] += c * t
            t_next = [mp.mpf(0)] + [2 * t for t in t_cur]
            for i, t in enumerate(t_prev):
                t_next[i] -= t
            t_prev, t_cur = t_cur, t_next
        return [float(a) for a in power]


def main():
    print("_INT_K0_TAIL = np.array([")
    for a in coefficients():
        print(f"    {a!r},")
    print("])[:, None]")


if __name__ == "__main__":
    main()
