"""Modified Bessel functions and the regularized kernel combinations.

The crack-line kernels of this solver are built from K0, K1, K2 (modified
Bessel functions of the second kind) and from one Meijer-G function,

    sgn(x) * G_{1,3}^{2,1}( x^2/(4 l^2) | 1 ; -1/2, 1/2, 0 ),

which carries the couple-stress response of a rotation-jump defect.  All of
these blow up at zero argument; what the kernels actually need are the
singularity-subtracted combinations

    k2_reg     = 2 l^2/x^2 - K2(|x|/l)          -> 1/2        as x -> 0
    k0_log_reg = K0(|x|/l) + ln(|x|/l)          -> ln 2 - g   as x -> 0
    k3_reg     = meijer_kernel(x, l) + 4 l/x    -> 0          as x -> 0

(g is Euler's constant).  All three come from one private evaluator that
returns K0 + ln w, K1 - 1/w and 2/w^2 - K2 - 1/2 together for an array
w >= 0.  Near zero the defining differences suffer catastrophic
cancellation, so below ``_SERIES_SWITCH`` the evaluator sums the ascending
series of K0, K1 and K2 at once, from coefficient tables built at import.
Above it, one K0 and one K1 evaluation give K2 through the upward
recurrence K2(w) = K0(w) + 2 K1(w)/w (Abramowitz & Stegun 9.6.26), which
is stable in that direction.  The two branches agree to ~1e-13 at the
switch point.  The solver's kernel matrices call the same evaluator.

The Meijer-G function itself reduces to elementary Bessel quantities,

    sgn(x) * G(x^2/4l^2) = -4 sgn(x) * [ K1(w) + int_0^w K0(v) dv ],
    w = |x|/l,

an identity obtained by splitting the defining sine-transform integrand
sqrt(1 + l^2 xi^2)/xi into 1/(xi*sqrt(1+l^2 xi^2)) + l^2 xi/sqrt(1+l^2 xi^2)
and using the standard cosine/sine transforms of (1+u^2)^(-1/2).  It fixes
the limits -4l/x (x -> 0) and -2pi*sgn(x) (|x| -> oo), and is validated in
the test suite against a finite-part quadrature oracle and an independent
residue-series expansion.

All functions are pure and accept scalars or numpy arrays.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

__all__ = [
    "k2_reg",
    "k0_log_reg",
    "meijer_kernel",
    "k3_reg",
    "int_k0",
]

# Series/direct crossover for the regularized combinations.  At w = 1 the
# direct evaluation loses < 1 digit to cancellation; the series terms fall
# below 1e-17 of the leading one after about a dozen terms, so 24 terms
# leave a wide margin.
_SERIES_SWITCH = 1.0
_SERIES_TERMS = 24


def _series_table():
    """Coefficients of the six power series in q = w^2/4, one per column.

    Row k holds, for n = 0, 1, 2 in turn, 1/(k! (n+k)!) and
    (1/2)[psi(k+1) + psi(n+k+1)] / (k! (n+k)!); the k = 0 entry of the
    first column is dropped so that it sums I0 - 1 without cancellation.
    """
    k = np.arange(_SERIES_TERMS)
    fact = _sp.factorial(np.arange(_SERIES_TERMS + 2))
    psi = _sp.digamma(np.arange(1, _SERIES_TERMS + 3))
    cols = []
    for n in (0, 1, 2):
        inv = 1.0 / (fact[k] * fact[k + n])
        cols.append(np.where(k > 0, inv, 0.0) if n == 0 else inv)
        cols.append(0.5 * (psi[k] + psi[k + n]) * inv)
    return np.stack(cols, axis=1)


_SERIES_TABLE = _series_table()


def _regularised_series(w):
    """Ascending series of (K0 + ln w, K1 - 1/w, 2/w^2 - K2 - 1/2).

    For a 1-D array w >= 0 of small values.  With h = w/2, q = h^2 and

        I_n = h^n sum_k q^k / (k! (n+k)!),
        S_n = h^n sum_k (1/2)[psi(k+1) + psi(n+k+1)] q^k / (k! (n+k)!),

    the ascending series of K0, K1, K2 give

        K0 + ln w        = ln 2 - ln(h) (I0 - 1) + S0,
        K1 - 1/w         = ln(h) I1 - S1,
        2/w^2 - K2 - 1/2 = ln(h) I2 - S2.

    At w = 0 ln(h) is replaced by 0, since I0 - 1, I1 and I2 vanish there.
    """
    w = np.asarray(w, dtype=float)
    q = 0.25 * w * w
    acc = np.zeros((_SERIES_TABLE.shape[1], w.size))
    for row in _SERIES_TABLE[::-1]:         # Horner in q, six at once
        acc *= q
        acc += row[:, None]
    i0m1, s0, i1, s1, i2, s2 = acc          # without the h^n factors
    h = 0.5 * w
    with np.errstate(divide="ignore"):
        logh = np.where(w > 0.0, np.log(h), 0.0)
    return (np.log(2.0) - logh * i0m1 + s0,
            h * (logh * i1 - s1),
            h * h * (logh * i2 - s2))


def _regularised(w):
    """(K0 + ln w, K1 - 1/w, 2/w^2 - K2 - 1/2) for an array w >= 0.

    The series covers w < _SERIES_SWITCH; above it one k0 and one k1 call
    give K2 by the upward recurrence K2 = K0 + 2 K1/w.  Returns an array
    of shape (3,) + w.shape.
    """
    w = np.asarray(w, dtype=float)
    out = np.empty((3,) + w.shape)
    small = w < _SERIES_SWITCH
    # skip an empty branch: a scalar call always leaves one of them empty
    if np.any(small):
        out[:, small] = _regularised_series(w[small])
    if not np.all(small):
        big = ~small
        wb = w[big]
        k0, k1 = _sp.k0(wb), _sp.k1(wb)
        out[0, big] = k0 + np.log(wb)
        out[1, big] = k1 - 1.0 / wb
        out[2, big] = 2.0 / (wb * wb) - (k0 + 2.0 * k1 / wb) - 0.5
    return out


def int_k0(w):
    """int_0^w K0(v) dv for w >= 0; tends to pi/2 as w -> oo.

    scipy's iti0k0 returns this integral finite (pi/2) up to w = inf; its
    I0 companion, unused here, overflows past w of about 710.
    """
    w = np.asarray(w, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("int_k0 requires w >= 0")
    out = _sp.iti0k0(w)[1]
    return out if out.ndim else float(out)


def k2_reg(x_abs, ell):
    """Regularized combination 2 l^2/x^2 - K2(|x|/l).

    Finite everywhere: equals 1/2 at x = 0 and decays to 2 l^2/x^2 once the
    Bessel term underflows, so solver kernels built on it degrade gracefully
    to their classical-elasticity limits at extreme a/l.
    """
    if ell <= 0.0:
        raise ValueError("k2_reg requires ell > 0")
    w = np.abs(np.asarray(x_abs, dtype=float)) / ell
    out = 0.5 + _regularised(w)[2]
    return out if out.ndim else float(out)


def k0_log_reg(x_abs, ell):
    """Regularized combination K0(|x|/l) + ln(|x|/l).

    Finite everywhere: equals ln 2 - EulerGamma at x = 0 and grows like
    ln(|x|/l) once K0 underflows.
    """
    if ell <= 0.0:
        raise ValueError("k0_log_reg requires ell > 0")
    w = np.abs(np.asarray(x_abs, dtype=float)) / ell
    out = _regularised(w)[0]
    return out if out.ndim else float(out)


def meijer_kernel(x, ell):
    """Odd kernel sgn(x) * G_{1,3}^{2,1}(x^2/(4 l^2) | 1; -1/2, 1/2, 0).

    By the elementary identity

        sgn(x) * G = -4 sgn(x) * [ K1(|x|/l) + int_0^{|x|/l} K0(v) dv ]

    it is :func:`k3_reg` minus the Cauchy part 4 l/x, giving
    -4 l/x + O(x ln|x|) near zero and -2 pi sgn(x) at infinity.

    Raises
    ------
    ValueError
        At x = 0 (Cauchy-singular point); use :func:`k3_reg` there.
    """
    if ell <= 0.0:
        raise ValueError("meijer_kernel requires ell > 0")
    x = np.asarray(x, dtype=float)
    if np.any(x == 0.0):
        raise ValueError("meijer_kernel is singular at x = 0; use k3_reg")
    out = k3_reg(x, ell) - 4.0 * ell / x
    return out if out.ndim else float(out)


def k3_reg(x, ell):
    """Regular part of the rotation-defect kernel: meijer_kernel + 4 l/x.

    The Cauchy part -4 l/x of the Meijer-G kernel cancels against K1's 1/w
    pole, leaving

        k3_reg = -4 sgn(x) * [ (K1(w) - 1/w) + int_0^w K0(v) dv ],

    which is odd, continuous on the whole line, zero at x = 0, and tends to
    -2 pi sgn(x) + 4 l/x at large |x|.
    """
    if ell <= 0.0:
        raise ValueError("k3_reg requires ell > 0")
    x = np.asarray(x, dtype=float)
    w = np.abs(x) / ell
    out = -4.0 * np.sign(x) * (_regularised(w)[1] + int_k0(w))
    return out if out.ndim else float(out)
