"""Special-function layer: oracles, limits, symmetry and branch continuity."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

from cscrack.greens import _bessel
from cscrack.specfun import k0_log_reg, k2_reg, k3_reg, meijer_kernel
from cscrack.specfun import (_BLOCK, _SERIES_SWITCH, _TAIL_CAP, _TAIL_SHIFT,
                             _TAIL_TABLE, _regularised, _regularised_series,
                             _tail)

TOOLS = Path(__file__).resolve().parents[1] / "tools"

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
# The field takes K0, K1 - 1/z and 2/z^2 - K2 from the regularised
# evaluator (through greens._bessel); scipy.special supplies the reference
# values elsewhere.

def _k012(z):
    """(K0, K1, K2)(z) as the defect field forms them."""
    k0, k1m, d = _bessel(np.asarray(z, dtype=float))
    return k0, k1m + 1.0 / z, 2.0 / z ** 2 - d


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
        assert _k012(10.0)[order] == pytest.approx(s, rel=1e-12)


def _err(mp, got, ref, unit):
    """|got - ref| in units of ``unit`` (a float)."""
    return float(abs(mp.mpf(float(got)) - ref)) / unit


def test_k0_k1_no_worse_than_scipy():
    # against 30-digit mpmath: K0 and K1 from the tail table on [1, 40),
    # and the three combinations the evaluator returns from w = 1 on,
    # across the cap and far beyond it, where the Bessel terms drop out.
    # The yardstick is scipy.special's k0 and k1, alone and in the same
    # combinations (the evaluator's formula before the table)
    mp = pytest.importorskip("mpmath")
    table = np.unique(np.concatenate([
        np.linspace(1.0, 40.0, 53)[:-1], np.geomspace(1.0, 40.0, 20)[:-1],
        [1.0 + 1e-6, 40.0 - 1e-9, np.nextafter(40.0, 0.0)]]))
    ours = _tail(table, 2)
    theirs = special.k0(table), special.k1(table)
    worst = np.zeros((2, 2))
    with mp.workdps(30):
        for i, w in enumerate(table):
            for order in (0, 1):
                ref = mp.besselk(order, mp.mpf(float(w)))
                worst[order] = np.maximum(worst[order], [
                    _err(mp, got[i], ref, float(ref))
                    for got in (ours[order], theirs[order])])
    assert np.all(worst[:, 0] <= worst[:, 1]), worst
    assert np.all(worst[:, 0] < 5e-16), worst

    ws = np.concatenate([table[::2], [
        1.0 - 1e-6, 40.0 + 1e-9, 40.5, 50.0, 100.0, 700.0, 1e3, 1e5, 1e300]])
    rows = _regularised(ws, (0, 1, 2))
    k0, k1 = special.k0(ws), special.k1(ws)
    with np.errstate(over="ignore"):        # w * w at w = 1e300
        yardstick = (k0 + np.log(ws), k1 - 1.0 / ws,
                     2.0 / (ws * ws) - (k0 + 2.0 * k1 / ws) - 0.5)
    worst = np.zeros((3, 2))                # in ulps of each combination
    with mp.workdps(30):
        for i, w in enumerate(ws):
            w = mp.mpf(float(w))
            refs = (mp.besselk(0, w) + mp.log(w), mp.besselk(1, w) - 1 / w,
                    2 / w ** 2 - mp.besselk(2, w) - mp.mpf(1) / 2)
            for r, ref in enumerate(refs):
                ulp = np.spacing(abs(float(ref)))
                worst[r] = np.maximum(worst[r], [
                    _err(mp, got[i], ref, ulp)
                    for got in (rows[r], yardstick[r])])
    # forming a combination rounds twice: two ulps are not a loss
    assert np.all(worst[:, 0] <= np.maximum(worst[:, 1], 2.0)), worst


def test_bessel_k_decay_and_small_argument():
    assert 0.0 <= _k012(700.0)[0] < 1e-300
    # K2 ~ 2/z^2 leading behavior, as the field forms it
    z = 1e-6
    assert _k012(z)[2] * z * z / 2.0 == pytest.approx(1.0, rel=1e-6)


def test_bessel_recurrence():
    # K2(z) = K0(z) + (2/z) K1(z) on the series branch (z < 1), where the
    # evaluator forms 2/z^2 - K2 from its own series, not from K0 and K1
    for z in np.geomspace(1e-6, 0.99, 40):
        k0, k1, k2 = _k012(z)
        assert k2 == pytest.approx(k0 + 2.0 / z * k1, rel=1e-13)


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
    series = 0.5 + _regularised_series(np.array([w]), (2,))[0][0]
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
    series = _regularised_series(np.array([w]), (0,))[0][0]
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
    series = _regularised_series(np.array([w]), (1,))[0][0]
    direct = special.k1(w) - 1.0 / w
    assert series == pytest.approx(direct, abs=1e-10)


def _int_k0(w):
    """int_0^w K0, the fourth row of the evaluator."""
    return _regularised(w, (3,))[0]


def test_int_k0_limits():
    assert _int_k0(0.0) == 0.0
    assert _int_k0(100.0) == pytest.approx(0.5 * np.pi, abs=1e-14)
    assert _int_k0(np.inf) == 0.5 * np.pi
    assert np.isnan(_int_k0(np.nan))
    # w (1 - EulerGamma - ln(w/2)) at the least subnormal: about 3.7e-321
    assert _int_k0(5e-324) == pytest.approx(3.7e-321, rel=0.01)
    # independent quadrature
    val, _ = integrate.quad(special.k0, 1e-300, 2.0)
    assert _int_k0(2.0) == pytest.approx(val, rel=1e-10)


def _int_k0_mpmath(mp, w):
    # int_0^w K0 = (pi w/2)[K0 L_{-1} + K1 L_0] (Abramowitz & Stegun 11.1.8)
    w = mp.mpf(float(w))
    if w == 0:
        return mp.mpf(0)
    return mp.pi * w / 2 * (mp.besselk(0, w) * mp.struvel(-1, w)
                            + mp.besselk(1, w) * mp.struvel(0, w))


def test_int_k0_against_mpmath():
    # 30 digits over [0, 45]: both sides of the series switch and of the
    # cap, and [9.5, 13], where scipy's iti0k0 was off by up to 2.8e-11
    mp = pytest.importorskip("mpmath")
    ws = np.unique(np.concatenate([
        np.linspace(0.0, 45.0, 91), np.linspace(9.5, 13.0, 36),
        [1e-300, 1e-6, 1.0 - 1e-6, 1.0 + 1e-6, 40.0 - 1e-6, 40.0 + 1e-6]]))
    with mp.workdps(30):
        err = [abs(mp.mpf(got) - _int_k0_mpmath(mp, w))
               for w, got in zip(ws, _int_k0(ws))]
    assert float(max(err)) <= 4e-16


@pytest.mark.parametrize("w0", [_SERIES_SWITCH, _TAIL_CAP])
def test_int_k0_branch_continuity(w0):
    # each branch switch is invisible: at most a few ulps across it
    below = np.nextafter(w0, 0.0)
    for f in (_int_k0, lambda w: k3_reg(w, 1.0)):
        jump = abs(f(below) - f(w0))
        assert jump <= 4 * np.spacing(abs(f(w0))), (f, jump)


def test_int_k0_blocks_and_shapes():
    # a strided 2-D argument across several blocks gives each element the
    # value of a scalar call
    rng = np.random.default_rng(3)
    w = rng.uniform(0.0, 50.0, (_BLOCK // 2 + 3, 9))[:, ::2]
    got = _int_k0(w)
    assert got.shape == w.shape
    picks = rng.integers(0, w.size, 40)
    flat_w, flat_got = w.reshape(-1), got.reshape(-1)
    for i in picks:
        assert flat_got[i] == _int_k0(float(flat_w[i]))


def test_rows_on_request_are_bitwise():
    # every caller's rows, and each row alone, are bitwise the rows of the
    # four-row call: at the branch edges and limits, and on an argument of
    # _BLOCK + 3 entries whose block edge falls inside a branch, flat and
    # as a 2-D array
    edges = np.array([0.0, 5e-324, 1e-300, 1.0 - 1e-9, 1.0, 40.0 - 1e-7,
                      40.0, 1e300, np.inf, np.nan])
    spread = 50.0 * np.sin(np.arange(_BLOCK + 3)) ** 2
    callers = [(1, 2, 3), (0, 1, 2, 3), (1, 2), (0, 1, 2), (1, 3),
               (0,), (1,), (2,), (3,)]
    for w in (edges, spread, spread.reshape(7, -1)):
        every = _regularised(w, (0, 1, 2, 3))
        for rows in callers:
            got = _regularised(w, rows)
            assert got.shape == (len(rows),) + w.shape
            for i, r in enumerate(rows):
                assert np.array_equal(got[i], every[r], equal_nan=True), (
                    rows, r)


def test_tail_coefficients_match_generator():
    # the committed K0, K1 and int_0^w K0 table is the generator's output,
    # bit for bit, on the intervals the evaluator uses
    pytest.importorskip("mpmath")
    spec = importlib.util.spec_from_file_location(
        "tail_coefficients", TOOLS / "tail_coefficients.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert (tool.LOW, tool.CAP, tool.SHIFT) == (
        _SERIES_SWITCH, _TAIL_CAP, _TAIL_SHIFT)
    table = np.array(tool.coefficients())
    assert table.shape == _TAIL_TABLE.shape == (tool.TERMS, 3)
    assert table.tobytes() == _TAIL_TABLE.tobytes()
    # the integral's column is zero-padded above its degree
    assert not np.any(_TAIL_TABLE[tool.INT_TERMS:, 2])


def test_least_subnormal_argument():
    # w/2 underflows to 0 at w = 5e-324; ln w - ln 2 keeps every
    # combination at its w -> 0 limit, without NaN or a warning
    w = 5e-324
    assert k0_log_reg(w, 1.0) == k0_log_reg(0.0, 1.0)
    assert k2_reg(w, 1.0) == 0.5
    assert k3_reg(w, 1.0) == -4.0 * _int_k0(w)      # K1 - 1/w rounds to 0
    assert np.all(np.isfinite(_regularised(np.array([w, 1e-323]),
                                           (0, 1, 2, 3))))


def test_quotient_overflow_takes_the_classical_limits():
    # |x|/ell overflows: K0 = 0, so k0_log_reg is ln|x| - ln ell, and the
    # Bessel part of k2_reg is 0 while 2 ell^2/x^2 underflows to 0; no
    # overflow warning (an error under the test suite's filter)
    assert k0_log_reg(1.0, 5e-324) == pytest.approx(
        1074.0 * np.log(2.0), rel=1e-15)               # 744.4400719213812
    assert k0_log_reg(1e300, 1e-10) == pytest.approx(
        713.8013788281542, rel=1e-15)                  # ln(1e310)
    assert k2_reg(1.0, 5e-324) == 0.0
    vals = k0_log_reg(np.array([0.0, 1.0, 1e300]), 1e-10)
    assert vals[0] == k0_log_reg(0.0, 1.0)
    assert vals[1:].tolist() == [k0_log_reg(1.0, 1e-10),
                                 k0_log_reg(1e300, 1e-10)]


def test_scalar_calls_return_python_floats():
    # a scalar argument gives a plain float, not a 0-d array or numpy scalar
    for val in (k2_reg(0.3, 1.0), k0_log_reg(0.3, 1.0), k3_reg(-0.3, 1.0),
                meijer_kernel(-0.3, 1.0)):
        assert type(val) is float
