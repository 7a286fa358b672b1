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
forms, for an array w >= 0, the rows of K0 + ln w, K1 - 1/w,
2/w^2 - K2 - 1/2 and int_0^w K0 that its caller asks for, and no
others.  Near zero the defining differences suffer catastrophic
cancellation, so below ``_SERIES_SWITCH`` the evaluator sums the
ascending series of K0, K1 and K2 at once, from a coefficient table
built at import from exact factorials and harmonic sums.  Above it, up
to ``_TAIL_CAP``, K0 and K1 come from a committed table as
e^{-w} w^{-1/2} times polynomials in 1/(w + 2), and K2 from the upward
recurrence K2(w) = K0(w) + 2 K1(w)/w (Abramowitz & Stegun 9.6.26),
which is stable in that direction.  Beyond the cap K0 and K1
are below half an ulp of every combination, which take their limits
ln w, -1/w and 2/w^2 - 1/2.  The branches agree to a few ulps at the
switch points.  The solver's kernel matrices call the same evaluator.

The Meijer-G function itself reduces to elementary Bessel quantities,

    sgn(x) * G(x^2/4l^2) = -4 sgn(x) * [ K1(w) + int_0^w K0(v) dv ],
    w = |x|/l,

an identity obtained by splitting the defining sine-transform integrand
sqrt(1 + l^2 xi^2)/xi into 1/(xi*sqrt(1+l^2 xi^2)) + l^2 xi/sqrt(1+l^2 xi^2)
and using the standard cosine/sine transforms of (1+u^2)^(-1/2).  It fixes
the limits -4l/x (x -> 0) and -2pi*sgn(x) (|x| -> oo), and is validated in
the test suite against a finite-part quadrature oracle and an independent
residue-series expansion.

The integral int_0^w K0 comes from committed tables too, to about 2e-16
absolute: below ``_SERIES_SWITCH`` from the K0 series integrated term by
term (two more columns of the series table), up to ``_TAIL_CAP`` as
pi/2 minus its tail e^{-w} w^{-1/2} P, with P a third column of the tail
table, and beyond the cap as pi/2, which the tail no longer moves.
``tools/tail_coefficients.py`` fits the tail table against mpmath; K0
and K1 from it are within 4.1e-16 relative of 30-digit references on
[1, 40], where scipy.special's k0 and k1 reach 1.0e-15 and 6.0e-16.
One Horner loop sums the table columns that the requested rows read, so
a kernel pass costs one loop per branch, with one exp and one sqrt in
the tail and one log in the series.  The module needs numpy alone.

All functions are pure and accept scalars or numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "k2_reg",
    "k0_log_reg",
    "meijer_kernel",
    "k3_reg",
]

# Series/direct crossover for the regularized combinations.  At w = 1 the
# direct evaluation loses < 1 digit to cancellation.  There q = 1/4, and
# the first term left out (k = 12) is below 2e-24 of the leading one in
# every column: 12 terms give the same doubles as 24 did at a million
# points of [0, 1), with half the Horner steps.
_SERIES_SWITCH = 1.0
_SERIES_TERMS = 12

# K0, K1 and int_0^w K0 on [_SERIES_SWITCH, _TAIL_CAP) are
# e^{-w} w^{-1/2} P0, e^{-w} w^{-1/2} P1 and pi/2 - e^{-w} w^{-1/2} P2,
# the P polynomials in the Chebyshev variable x of v = 1/(w + _TAIL_SHIFT)
# on [1/42, 1/3], in the power basis below (lowest degree first; one
# column per P, for _horner), fitted by tools/tail_coefficients.py.  P0
# and P1 have degree 27, P2 degree 23 (zero rows pad it).  From the cap
# on, K0, K1 and int_w^oo K0 are below 8.5e-19, under half an ulp of
# every combination the evaluator returns.  The evaluator works through
# blocks of _BLOCK elements, so its temporaries stay small whatever the
# size of the argument.
_TAIL_CAP = 40.0
_TAIL_SHIFT = 2.0
_TAIL_TABLE = np.array([
    [1.215179753623971, 1.374567457993923, 1.09587278929053],
    [-0.04555950871547273, 0.15299862795744035, -0.15966296884568587],
    [-0.015473781334330253, 0.06170324887749061, -0.028860167974983496],
    [-0.005812366270052571, 0.026226314028291016, -0.010002096148763228],
    [-0.0022812386670302705, 0.011428394346029802, -0.003085010632367991],
    [-0.0009242353760683633, 0.0050648655893205, -0.001179495564495642],
    [-0.00038271729562863033, 0.0022711165729309307, -0.00042346823519290983],
    [-0.00016120806266227094, 0.0010274470278031818, -0.00017120003595220133],
    [-6.880964143497432e-05, 0.0004680092163333844, -6.607108638136591e-05],
    [-2.9691888098692166e-05, 0.00021435882190811738, -2.7698286421813538e-05],
    [-1.2927497616712964e-05, 9.862444158050888e-05, -1.1145372672736137e-05],
    [-5.671423560718544e-06, 4.55472106035484e-05, -4.7955598133602026e-06],
    [-2.5041431204863384e-06, 2.109992175822207e-05, -1.978573423878511e-06],
    [-1.1119304897569206e-06, 9.801691780244198e-06, -8.677295615218604e-07],
    [-4.966212367401265e-07, 4.571071017795947e-06, -3.708081036354526e-07],
    [-2.2267984958481835e-07, 2.1346088683955113e-06, -1.670875381746108e-07],
    [-9.91185281645389e-08, 9.81406532432267e-07, -6.130958434027194e-08],
    [-4.455754771698141e-08, 4.56622720901881e-07, -2.597159610412082e-08],
    [-2.202222556754669e-08, 2.4261506799116183e-07, -2.1315939836282317e-08],
    [-1.0248744211015926e-08, 1.1769003613688233e-07, -1.1186978196473505e-08],
    [-2.4357438335396283e-09, 2.084626140295552e-08, 2.045636637978291e-09],
    [-8.950001705384055e-10, 6.508884203330934e-09, 1.5554303958792461e-09],
    [-2.2634471349180453e-09, 3.172640810281329e-08, -1.9694212029690254e-09],
    [-1.1607389729381464e-09, 1.683939254593157e-08, -1.0553514548149542e-09],
    [4.746772888211059e-10, -7.629216302042525e-09, 0.0],
    [2.5947648698506263e-10, -4.229772952725037e-09, 0.0],
    [-2.0289774677312968e-10, 2.9852152671815417e-09, 0.0],
    [-9.970355313327766e-11, 1.5046488598003166e-09, 0.0],
])
_BLOCK = 1 << 14


def _series_table():
    """Coefficients of eight power series in q = w^2/4, one per column.

    Row k holds a_k = 1/((k!)^2 (2k+1)) and b_k = [1/(2k+1) + psi(k+1)]
    a_k, which integrate the K0 series term by term, then, for n = 1, 2, 0
    in turn, 1/(k! (n+k)!) and (1/2)[psi(k+1) + psi(n+k+1)] / (k! (n+k)!);
    the k = 0 entry of the n = 0 column is dropped so that it sums I0 - 1
    without cancellation.  So the column pairs serve the rows 3, 1, 2
    and 0 of :func:`_regularised` in turn (``_SERIES_PAIR``).  Built from
    exact factorials and harmonic sums; every entry is within 1.7 ulp of
    its 40-digit value.
    """
    k = np.arange(_SERIES_TERMS)
    fact = np.array([float(math.factorial(j))
                     for j in range(_SERIES_TERMS + 2)])
    # psi(j+1) = H_j - EulerGamma, H_j the harmonic sum 1 + ... + 1/j
    harmonic = np.cumsum(1.0 / np.arange(1, _SERIES_TERMS + 2))
    psi = np.concatenate([[0.0], harmonic]) - np.euler_gamma
    odd = 2.0 * k + 1.0
    cols = [1.0 / (fact[k] ** 2 * odd)]
    cols.append((1.0 / odd + psi[k]) * cols[-1])
    for n in (1, 2, 0):
        inv = 1.0 / (fact[k] * fact[k + n])
        cols.append(np.where(k > 0, inv, 0.0) if n == 0 else inv)
        cols.append(0.5 * (psi[k] + psi[k + n]) * inv)
    return np.stack(cols, axis=1)


_SERIES_TABLE = _series_table()

# The table columns that each row of _regularised reads: the pair
# 2 _SERIES_PAIR[r], 2 _SERIES_PAIR[r] + 1 of the series table, and
# _TAIL_COLUMNS[r] of the tail table (K0, K1 and the integral's tail).
# Every caller's rows, (1, 2, 3), (0, 1, 2), (0, 1, 2, 3), (1, 2),
# (1, 3) or one row, read one contiguous slice of each table, so a
# branch sums no column that it does not use.
_SERIES_PAIR = (3, 1, 2, 0)
_TAIL_COLUMNS = ((0,), (1,), (0, 1), (2,))


def _horner(table, q):
    """Horner's rule for the power series in q whose coefficients are the
    columns of ``table``, at a 1-D array q: one row of sums per column."""
    acc = np.zeros((table.shape[1], q.size))
    for row in table[::-1, :, None]:
        acc *= q
        acc += row
    return acc


def _regularised_series(w, rows):
    """Ascending series of the ``rows`` of (K0 + ln w, K1 - 1/w,
    2/w^2 - K2 - 1/2, int_0^w K0), as a list of arrays.

    For a 1-D array w >= 0 of small values.  With h = w/2, q = h^2 and

        I_n = h^n sum_k q^k / (k! (n+k)!),
        S_n = h^n sum_k (1/2)[psi(k+1) + psi(n+k+1)] q^k / (k! (n+k)!),

    the ascending series of K0, K1, K2 give

        K0 + ln w        = ln 2 - ln(h) (I0 - 1) + S0,
        K1 - 1/w         = ln(h) I1 - S1,
        2/w^2 - K2 - 1/2 = ln(h) I2 - S2,

    and K0(v) = sum_k [psi(k+1) - ln(v/2)] (v/2)^2k/(k!)^2 integrates term
    by term to int_0^w K0 = w sum_k (b_k - a_k ln h) q^k.  ln h is formed
    as ln w - ln 2, since w/2 underflows at the least subnormal, and
    replaced by 0 at w = 0, where every term it multiplies vanishes.
    Only the table columns of the requested rows are summed.
    """
    w = np.asarray(w, dtype=float)
    pairs = [_SERIES_PAIR[r] for r in rows]
    first = min(pairs)
    # without the h^n factors; row 3's pair is (a, b), the others' (I, S)
    acc = _horner(_SERIES_TABLE[:, 2 * first:2 * max(pairs) + 2],
                  0.25 * w * w)
    h = 0.5 * w
    with np.errstate(divide="ignore"):
        logh = np.where(w > 0.0, np.log(w) - np.log(2.0), 0.0)
    # each row in place in the first column of its pair
    out = []
    for r, pair in zip(rows, pairs):
        i, s = acc[2 * (pair - first):2 * (pair - first) + 2]
        i *= logh
        if r == 0:
            np.subtract(np.log(2.0), i, out=i)
            i += s
        elif r == 3:
            np.subtract(s, i, out=i)
            i *= w
        else:
            i -= s
            i *= h if r == 1 else h * h
        out.append(i)
    return out


def _regularised(w, rows):
    """The ``rows`` of (K0 + ln w, K1 - 1/w, 2/w^2 - K2 - 1/2, int_0^w K0)
    for an array w >= 0, numbered 0 to 3 in that order.

    Returns an array of shape (len(rows),) + w.shape whose i-th row is
    row rows[i].  Only the requested rows are formed, each entry by the
    same operations whichever rows are asked for, so a row is bitwise the
    same in every request.  The argument is worked through in blocks, so
    the temporaries do not grow with its size; NaN gives NaN in every
    row.
    """
    w = np.asarray(w, dtype=float)
    out = np.empty((len(rows),) + w.shape)
    flat_w, flat_out = w.reshape(-1), out.reshape(len(rows), -1)
    for lo in range(0, w.size, _BLOCK):
        _regularised_block(flat_w[lo:lo + _BLOCK],
                           flat_out[:, lo:lo + _BLOCK], rows)
    return out


def _regularised_block(w, out, rows):
    """The ``rows`` of :func:`_regularised` into ``out`` for a 1-D block w.

    The series covers w < _SERIES_SWITCH, the tail table w < _TAIL_CAP
    and the limits the rest.  Each branch forms its rows from its own
    arguments alone and writes them through its mask, one row at a time;
    an empty branch forms nothing.
    """
    small = w < _SERIES_SWITCH
    far = w >= _TAIL_CAP
    mid = ~(small | far)        # NaN included: it stays NaN
    for mask, branch in ((small, _regularised_series),
                         (mid, _regularised_tail), (far, _regularised_far)):
        if mask.any():
            values = branch(w[mask], rows)
            for i in range(len(rows)):
                out[i][mask] = values[i]
            del values          # before the next branch forms its own


def _regularised_tail(w, rows):
    """The ``rows`` at a 1-D array 1 <= w < _TAIL_CAP, as a list.

    One Horner pass over the tail-table columns the rows read, one exp
    and one sqrt give K0, K1 and the tail of the integral, and K2 follows
    by the upward recurrence K2 = K0 + 2 K1/w (Abramowitz & Stegun
    9.6.26), stable in that direction.  Rows 0, 1 and 3 are formed in
    place in the columns of K0, K1 and the tail, after row 2 reads them.
    """
    cols = [c for r in rows for c in _TAIL_COLUMNS[r]]
    first, stop = min(cols), max(cols) + 1
    tail = dict(zip(range(first, stop), _tail(w, stop, first)))
    formed = {}
    if 2 in rows:
        formed[2] = 2.0 / (w * w) - (tail[0] + 2.0 * tail[1] / w) - 0.5
    if 0 in rows:
        tail[0] += np.log(w)
        formed[0] = tail[0]
    if 1 in rows:
        tail[1] -= 1.0 / w
        formed[1] = tail[1]
    if 3 in rows:
        formed[3] = np.subtract(0.5 * np.pi, tail[2], out=tail[2])
    return [formed[r] for r in rows]


def _regularised_far(w, rows):
    """The ``rows`` at a 1-D array w >= _TAIL_CAP, as a list: there the
    Bessel terms are below half an ulp of each row, which takes its
    limit ln w, -1/w, 2/w^2 - 1/2 or pi/2."""
    limits = {0: np.log, 1: lambda w: -1.0 / w,
              2: lambda w: 2.0 / w / w - 0.5,       # no overflow at huge w
              3: lambda w: 0.5 * np.pi}
    return [limits[r](w) for r in rows]


def _over_ell(v, ell):
    """v/ell, held within the largest float where the quotient overflows:
    there K0 = (K0 + ln w) - ln w, K1 and w (K1 - 1/w) come out as their
    limits 0, 0 and -1, where w = inf gives inf - inf and inf * 0."""
    big = np.finfo(float).max
    with np.errstate(over="ignore"):
        return np.clip(v / ell, -big, big)


def _tail(w, columns, first=0):
    """K0, K1 and pi/2 - int_0^w K0, or their columns ``first`` to
    ``columns`` - 1, at a 1-D array 1 <= w < _TAIL_CAP: e^{-w} w^{-1/2}
    times the polynomials of the tail table, in one Horner pass."""
    lo = 1.0 / (_TAIL_CAP + _TAIL_SHIFT)
    hi = 1.0 / (_SERIES_SWITCH + _TAIL_SHIFT)
    x = (2.0 / (hi - lo)) / (w + _TAIL_SHIFT) - (hi + lo) / (hi - lo)
    acc = _horner(_TAIL_TABLE[:, first:columns], x)
    acc *= np.exp(-w) / np.sqrt(w)
    return acc


def k2_reg(x_abs, ell):
    """Regularized combination 2 l^2/x^2 - K2(|x|/l).

    Finite everywhere: equals 1/2 at x = 0 and decays to 2 l^2/x^2 once the
    Bessel term underflows, so solver kernels built on it degrade gracefully
    to their classical-elasticity limits at extreme a/l.
    """
    if ell <= 0.0:
        raise ValueError("k2_reg requires ell > 0")
    w = _over_ell(np.abs(np.asarray(x_abs, dtype=float)), ell)
    out = 0.5 + _regularised(w, (2,))[0]
    return out if out.ndim else float(out)


def k0_log_reg(x_abs, ell):
    """Regularized combination K0(|x|/l) + ln(|x|/l).

    Finite everywhere: equals ln 2 - EulerGamma at x = 0 and grows like
    ln(|x|/l) once K0 underflows, taken as ln|x| - ln l where |x|/l
    overflows.
    """
    if ell <= 0.0:
        raise ValueError("k0_log_reg requires ell > 0")
    x = np.abs(np.asarray(x_abs, dtype=float))
    w = _over_ell(x, ell)
    out = np.array(_regularised(w, (0,))[0])     # 0-d for a scalar x
    over = w == np.finfo(float).max
    out[over] = np.log(x[over]) - np.log(ell)
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
    k1_recip, integral = _regularised(_over_ell(np.abs(x), ell), (1, 3))
    out = -4.0 * np.sign(x) * (k1_recip + integral)
    return out if out.ndim else float(out)
