"""Special-function layer: oracles, limits, symmetry and branch continuity."""

import numpy as np
import pytest
from scipy import integrate, special

from cscrack.greens import _bessel
from cscrack.specfun import (int_k0, k0_log_reg, k2_reg, k3_reg,
                             meijer_kernel)
from cscrack.specfun import _SERIES_SWITCH, _regularised_series

EG = np.euler_gamma


# ---------------------------------------------------------------- oracles

def _kn_series(n, z, terms=60):
    """Ascending series of K_n with explicit Euler constant (via digamma).

    K_n(z) = (1/2)(2/z)^n sum_{k<n} (n-k-1)!/k! (-z^2/4)^k
             + (-1)^(n+1) ln(z/2) I_n(z)
             + (-1)^n (1/2)(z/2)^n sum_k [psi(k+1)+psi(n+k+1)]
                                          (z^2/4)^k / (k! (n+k)!)

    Evaluated in extended precision when mpmath is available: past z ~ 4
    the head/log/tail cancellation costs ~ e^(2z) in float64, so a plain
    double-precision sum cannot serve as a 1e-12 oracle at z = 10.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        z = mp.mpf(z)
        q = 0.25 * z * z
        head = mp.mpf(0)
        t = mp.mpf(1)
        for k in range(n):
            head += mp.factorial(n - k - 1) / mp.factorial(k) * t
            t *= -q
        head *= 0.5 * (2.0 / z) ** n
        i_n = mp.mpf(0)
        term = (0.5 * z) ** n / mp.factorial(n)
        for k in range(terms):
            i_n += term
            term *= q / ((k + 1) * (n + k + 1))
        log_term = (-1) ** (n + 1) * mp.log(0.5 * z) * i_n
        tail = mp.mpf(0)
        term = (0.5 * z) ** n / (2 * mp.factorial(n))
        for k in range(terms):
            tail += term * (mp.digamma(k + 1) + mp.digamma(n + k + 1))
            term *= q / ((k + 1) * (n + k + 1))
        tail *= (-1) ** n
        return float(head + log_term + tail)


def _kn_asymptotic(n, z):
    """Large-argument expansion, truncated at the smallest term."""
    mu4 = 4.0 * n * n
    total = 1.0
    term = 1.0
    prev = np.inf
    for k in range(1, 40):
        term *= (mu4 - (2 * k - 1) ** 2) / (8.0 * k * z)
        if abs(term) >= prev:
            break
        total += term
        prev = abs(term)
    return np.sqrt(0.5 * np.pi / z) * np.exp(-z) * total


def _meijer_fp_oracle(x, ell=1.0):
    """Finite-part value of int_0^inf sqrt(1+l^2 u^2)/u sin(u x) du (x > 0).

    The divergent large-u part l*sin(ux) is removed analytically (its Abel
    value is l*cos(x)/x); the remainder decays like 1/(2 l u^2) and is
    integrated by the oscillatory rule.
    """
    head, _ = integrate.quad(
        lambda u: np.sqrt(1.0 + (ell * u) ** 2) / u * np.sin(u * x),
        0.0, 1.0, limit=200)
    rest, _ = integrate.quad(
        lambda u: np.sqrt(1.0 + (ell * u) ** 2) / u - ell,
        1.0, np.inf, weight="sin", wvar=x, limit=400)
    return head + rest + ell * np.cos(x) / x


# ------------------------------------------------------- Bessel K0, K1, K2
# The field takes K0, K1 and K2 from the regularised evaluator (through
# greens._bessel); scipy.special supplies the reference values elsewhere.

def _k012(z):
    """(K0, K1, K2)(z) as the defect field forms them."""
    k0, k1, d = _bessel(np.asarray(z, dtype=float))
    return k0, k1, 2.0 / z ** 2 - d


def test_bessel_k_against_series_oracle():
    # K0, K1, K2 from the ascending series with explicit Euler constant,
    # on both branches of the evaluator
    for z in (0.5, 1.0, 2.0):
        for order, val in enumerate(_k012(z)):
            oracle = _kn_series(order, z)
            assert val == pytest.approx(oracle, rel=1e-12), (order, z)


def test_bessel_series_vs_asymptotic_cross_check():
    # series and large-argument expansion meet at z = 10
    for order in (0, 1, 2):
        s = _kn_series(order, 10.0, terms=80)
        a = _kn_asymptotic(order, 10.0)
        assert s == pytest.approx(a, rel=1e-9)
        assert special.kv(order, 10.0) == pytest.approx(s, rel=1e-12)


def test_bessel_k_wide_range_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for order in (0, 1, 2):
        for z in (1e-8, 1e-4, 0.1, 1.0, 5.0, 50.0, 300.0, 700.0):
            ref = float(mp.besselk(order, z) * mp.exp(z))
            assert special.kve(order, z) == pytest.approx(
                ref, rel=1e-12), (order, z)


def test_bessel_k_decay_and_small_argument():
    assert special.k0(700.0) < 1e-300
    # K2 ~ 2/z^2 leading behavior, also as the field forms it
    z = 1e-6
    assert special.kv(2, z) * z * z / 2.0 == pytest.approx(1.0, rel=1e-6)
    assert _k012(z)[2] * z * z / 2.0 == pytest.approx(1.0, rel=1e-6)


def test_bessel_k_scaled_variant():
    z = 600.0
    assert special.k1e(z) == pytest.approx(np.sqrt(0.5 * np.pi / z),
                                           rel=1e-2)


def test_bessel_recurrence():
    # K2(z) = K0(z) + (2/z) K1(z), scaled form for the huge arguments
    for z in np.geomspace(1e-6, 600.0, 40):
        k0, k1, k2 = (special.kve(i, z) for i in (0, 1, 2))
        assert k2 == pytest.approx(k0 + 2.0 / z * k1, rel=1e-11)


def test_bessel_k0_derivative_is_minus_k1():
    h = 1e-6
    for z in (0.5, 1.0, 5.0):
        fd = (_k012(z + h)[0] - _k012(z - h)[0]) / (2.0 * h)
        assert fd == pytest.approx(-_k012(z)[1], abs=1e-8)


# ---------------------------------------------------------------- k2_reg

def test_k2_reg_zero_limit_is_half():
    assert k2_reg(0.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert k2_reg(1e-12, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_k2_reg_bessel_dead_tail():
    # at x = 100 l only the 2 l^2/x^2 term survives
    assert k2_reg(100.0, 1.0) == pytest.approx(2e-4, abs=1e-6)


def test_k2_reg_direct_composition():
    assert k2_reg(1.0, 1.0) == pytest.approx(2.0 - _kn_series(2, 1.0),
                                             rel=1e-12)


def test_k2_reg_branch_continuity():
    w = _SERIES_SWITCH
    series = 0.5 + _regularised_series(np.array([w]))[2][0]
    direct = 2.0 / w ** 2 - special.kv(2, w)
    assert series == pytest.approx(direct, abs=1e-10)


def test_k2_reg_domain_error():
    with pytest.raises(ValueError):
        k2_reg(1.0, 0.0)


# ---------------------------------------------------------------- k0_log_reg

def test_k0_log_reg_zero_limit():
    assert k0_log_reg(0.0, 1.0) == pytest.approx(np.log(2.0) - EG, abs=1e-15)
    assert k0_log_reg(1e-10, 1.0) == pytest.approx(0.1159315156584124,
                                                   abs=1e-10)


def test_k0_log_reg_large_argument():
    assert k0_log_reg(50.0, 1.0) == pytest.approx(
        np.log(50.0) + special.k0(50.0), rel=1e-15)


def test_k0_log_reg_composition():
    assert k0_log_reg(1.0, 1.0) == pytest.approx(_kn_series(0, 1.0),
                                                 rel=1e-12)


def test_k0_log_reg_branch_continuity():
    w = _SERIES_SWITCH
    series = _regularised_series(np.array([w]))[0][0]
    direct = special.k0(w) + np.log(w)
    assert series == pytest.approx(direct, abs=1e-10)


def test_k0_log_reg_domain_error():
    with pytest.raises(ValueError):
        k0_log_reg(1.0, -1.0)


# ---------------------------------------------------------------- meijer

def test_meijer_kernel_small_argument_pole():
    # -4 l / x dominant behavior; the remainder is O(x ln x)
    for x in (1e-4, 1e-3):
        assert meijer_kernel(x, 1.0) * x == pytest.approx(-4.0, abs=1e-4)
    assert meijer_kernel(1e-6, 1.0) * 1e-6 == pytest.approx(-4.0, abs=1e-7)


def test_meijer_kernel_oddness():
    for x in (0.3, 1.7, 12.0):
        assert meijer_kernel(-x, 1.0) == -meijer_kernel(x, 1.0)


def test_meijer_kernel_far_field_limit():
    # tends to -2 pi sgn(x)
    assert meijer_kernel(50.0, 1.0) == pytest.approx(-2.0 * np.pi, abs=1e-12)
    assert meijer_kernel(-50.0, 1.0) == pytest.approx(2.0 * np.pi, abs=1e-12)


def test_meijer_kernel_against_finite_part_oracle():
    for x, ell in ((8.0, 1.0), (1.0, 1.0), (0.5, 2.0)):
        oracle = -4.0 * _meijer_fp_oracle(x, ell)
        assert meijer_kernel(x, ell) == pytest.approx(oracle, rel=1e-8)


def test_meijer_kernel_against_mpmath_meijerg():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for x, ell in ((0.2, 1.0), (2.0, 1.0), (3.0, 0.5)):
        z = x * x / (4.0 * ell * ell)
        ref = float(mp.meijerg([[1], []], [[-0.5, 0.5], [0]], z))
        assert meijer_kernel(x, ell) == pytest.approx(ref, rel=1e-12)


def test_meijer_kernel_zero_raises():
    with pytest.raises(ValueError):
        meijer_kernel(0.0, 1.0)


# ---------------------------------------------------------------- k3_reg

def test_k3_reg_zero_and_continuity():
    assert k3_reg(0.0, 1.0) == 0.0
    assert abs(k3_reg(1e-6, 1.0)) < 1e-4
    assert abs(k3_reg(-1e-6, 1.0)) < 1e-4


def test_k3_reg_oddness():
    for x in (1e-3, 0.4, 3.0, 80.0):
        assert k3_reg(-x, 1.0) == -k3_reg(x, 1.0)


def test_k3_reg_composition_with_meijer():
    x, ell = 0.1, 1.0
    oracle = -4.0 * _meijer_fp_oracle(x, ell) + 4.0 * ell / x
    assert k3_reg(x, ell) == pytest.approx(oracle, abs=1e-8)
    x2 = 2.5
    assert k3_reg(x2, ell) == pytest.approx(
        meijer_kernel(x2, ell) + 4.0 * ell / x2, rel=1e-12)


def test_k3_reg_near_zero_log_expansion():
    # k3_reg = (a1 + a2 ln|x|) x + O(x^3 ln x) with a2 = 2/l and
    # a1 = (2 EulerGamma - 3 - 2 ln(2 l))/l, from the kernel's ascending
    # expansion; checks the constants are produced, not guessed
    ell = 1.3
    a2 = 2.0 / ell
    a1 = (2.0 * EG - 3.0 - 2.0 * np.log(2.0 * ell)) / ell
    for x in (1e-4, 1e-3):
        expect = (a1 + a2 * np.log(x)) * x
        assert k3_reg(x, ell) == pytest.approx(expect, rel=1e-5)


def test_k1_minus_recip_branch_continuity():
    w = _SERIES_SWITCH
    series = _regularised_series(np.array([w]))[1][0]
    direct = special.k1(w) - 1.0 / w
    assert series == pytest.approx(direct, abs=1e-10)


def test_int_k0_limits():
    assert int_k0(0.0) == 0.0
    assert int_k0(100.0) == pytest.approx(0.5 * np.pi, abs=1e-14)
    # independent quadrature
    val, _ = integrate.quad(special.k0, 1e-300, 2.0)
    assert int_k0(2.0) == pytest.approx(val, rel=1e-10)


def test_int_k0_tail_against_mpmath():
    # int_0^w K0 = (pi w/2)[K0 L_{-1} + K1 L_0] (Abramowitz & Stegun
    # 11.1.8), at 30 digits; a cap at pi/2 from w = 30 on is off by 2.1e-14
    mp = pytest.importorskip("mpmath")
    ws = np.linspace(29.0, 40.0, 12)
    with mp.workdps(30):
        ref = [mp.pi * w / 2 * (mp.besselk(0, w) * mp.struvel(-1, w)
                                + mp.besselk(1, w) * mp.struvel(0, w))
               for w in ws]
        err = [abs(mp.mpf(got) - r) for got, r in zip(int_k0(ws), ref)]
    assert float(max(err)) <= 1e-15


def test_scalar_calls_return_python_floats():
    # a scalar argument gives a plain float, not a 0-d array or numpy scalar
    for val in (k2_reg(0.3, 1.0), k0_log_reg(0.3, 1.0), k3_reg(-0.3, 1.0),
                meijer_kernel(-0.3, 1.0), int_k0(0.3)):
        assert type(val) is float
