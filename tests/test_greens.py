"""Defect Green's functions: line values, traces, field-equation residuals."""

import numpy as np
import pytest
from scipy import integrate, special

from cscrack import (DefectCharge, MaterialParams, full_field, line_m_yz,
                     line_sigma_yy)
from cscrack.greens import _disclination_integrals

from _fd import CachedField, equilibrium_residuals, partial

MAT = MaterialParams(mu=1.0, nu=0.3, ell=1.0)
DISLOC = DefectCharge(b=1.0, omega=0.0)
DISCLIN = DefectCharge(b=0.0, omega=1.0)
MIXED = DefectCharge(b=0.7, omega=0.9)


def test_material_params_reject_non_finite():
    for bad in (dict(mu=np.inf), dict(mu=np.nan), dict(ell=np.inf),
                dict(ell=np.nan), dict(nu=np.nan)):
        with pytest.raises(ValueError):
            MaterialParams(**{**dict(mu=1.0, nu=0.3, ell=1.0), **bad})


# ------------------------------------------------------------ line values

def test_line_sigma_yy_classical_limit():
    mat0 = MaterialParams(mu=1.0, nu=0.3, ell=0.0)
    for x in (0.5, -2.0):
        assert line_sigma_yy(x, DISLOC, mat0) == pytest.approx(
            1.0 / (2.0 * np.pi * 0.7 * x), rel=1e-15)
    # ell -> 0 through positive values converges to the same field
    mat_eps = MaterialParams(mu=1.0, nu=0.3, ell=1e-5)
    assert line_sigma_yy(1.0, DISLOC, mat_eps) == pytest.approx(
        1.0 / (2.0 * np.pi * 0.7), rel=1e-9)


def test_line_sigma_yy_dislocation_oddness():
    for x in (0.3, 1.0, 7.0):
        assert line_sigma_yy(-x, DISLOC, MAT) == pytest.approx(
            -line_sigma_yy(x, DISLOC, MAT), rel=1e-14)


def test_line_sigma_yy_disclination_pinned_value():
    # x = ell, b = 0, Omega = 1: -(1/pi)(2 - K2(1)) - (1/pi) K0(1)
    expect = -(2.0 - special.kn(2, 1.0)) / np.pi - special.k0(1.0) / np.pi
    assert line_sigma_yy(1.0, DISCLIN, MAT) == pytest.approx(expect,
                                                             rel=1e-14)
    assert expect == pytest.approx(-0.2534337284930165, abs=1e-15)


def test_line_m_yz_far_field_frank_limit():
    # m_yz -> -mu l Om for x -> +inf, +mu l Om for x -> -inf
    assert line_m_yz(50.0, DISCLIN, MAT) == pytest.approx(-1.0, abs=1e-6)
    assert line_m_yz(-50.0, DISCLIN, MAT) == pytest.approx(1.0, abs=1e-6)


def test_line_m_yz_vanishes_classically():
    mat0 = MaterialParams(mu=1.0, nu=0.3, ell=0.0)
    assert line_m_yz(0.7, MIXED, mat0) == 0.0
    mat_eps = MaterialParams(mu=1.0, nu=0.3, ell=1e-6)
    assert abs(line_m_yz(0.7, MIXED, mat_eps)) < 1e-4


def test_line_m_yz_dislocation_pinned_value():
    # x = 2 ell, b = 1: -(1/pi)[(1/2 - K2(2)) + K0(2)]
    expect = -((0.5 - special.kn(2, 2.0)) + special.k0(2.0)) / np.pi
    assert line_m_yz(2.0, DISLOC, MAT) == pytest.approx(expect, rel=1e-14)
    assert expect == pytest.approx(-0.11463425016988256, abs=1e-15)


def test_line_values_raise_at_origin():
    with pytest.raises(ValueError):
        line_sigma_yy(0.0, DISLOC, MAT)
    with pytest.raises(ValueError):
        line_m_yz(0.0, DISLOC, MAT)


# ------------------------------------------------- semi-infinite integrals

def _integrals(x, y):
    """(I10, I11) at one point (x/l, y/l) = (x, y), y > 0, from the field's
    evaluator."""
    i10, i11 = _disclination_integrals(np.array([x]), np.array([y]))
    return float(i10[0]), float(i11[0])


def _i10_oracle(x, y, ell, depth=12):
    """Zero-interval summation with iterated averaging of the partial sums,
    refined until the acceleration plateaus."""
    xs, ys = x / ell, y / ell

    def f(u):
        return np.exp(-ys * np.hypot(1.0, u)) * np.sin(u * xs) / u

    zeros = np.pi * np.arange(1, 4 * depth) / xs
    pieces = [integrate.quad(f, 1e-300, zeros[0], limit=200)[0]]
    for a, b in zip(zeros[:-1], zeros[1:]):
        pieces.append(integrate.quad(f, a, b, limit=200)[0])
    partial_sums = np.cumsum(pieces)
    # iterated averaging of the alternating tail
    acc = partial_sums
    for _ in range(depth):
        acc = 0.5 * (acc[:-1] + acc[1:])
    return acc[-1]


def _mp_integrals(x, y):
    """(I10, I11) at (x/l, y/l) = (x, y), y > 0, in 30 + log10(1/y)
    digits (30 for y >= 1).

    The finite-integral forms in s = asinh(x'/y), as in the module
    docstring but with K2 itself (no singularity subtraction):
    I10 = int Y K1(w) ds, I11 = int [Y K2(w)/cosh(s) - K1(w)] ds, w = Y
    cosh(s).  The parts of the I11 integrand reach about 1/y and cancel,
    hence the extra digits.  The range is cut where w > 80 (integrands below e^-80) and
    split where w passes 1.  This takes seconds per point, so the grid
    test below holds its values in ``_MP_GRID``.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30 + max(0, int(np.ceil(-np.log10(y))))):
        x, y = mp.mpf(x), mp.mpf(y)
        s_end = mp.asinh(abs(x) / y)
        if y * mp.cosh(s_end) > 80:
            s_end = mp.acosh(80 / y) if y < 80 else mp.mpf(0)
        cuts = [mp.mpf(0)]
        if y < 1:
            sc = mp.acosh(1 / y)
            cuts += [c for c in (sc - 2, sc, sc + 2) if 0 < c < s_end]
        cuts.append(s_end)
        memo = {}

        def bessel(s):
            if s not in memo:
                w = y * mp.cosh(s)
                memo[s] = (w, mp.besselk(0, w), mp.besselk(1, w))
            return memo[s]

        def f10(s):
            w, k0, k1 = bessel(s)
            return y * k1

        def f11(s):
            w, k0, k1 = bessel(s)
            return y * (k0 + 2 * k1 / w) / mp.cosh(s) - k1

        if s_end == 0:
            return 0.0, 0.0
        sgn = 1 if x > 0 else -1
        return (float(sgn * mp.quad(f10, cuts)),
                float(sgn * mp.quad(f11, cuts)))


# (x/l, y/l, I10, I11) from _mp_integrals
_MP_GRID = [
    (0.0001, 1e-08, 1.5706963267898169, 10000.000441297889),
    (0.01, 1e-08, 1.5707953264838403, 100.03110562404301),
    (1, 1e-08, 1.570796308350726, 1.8444170631130496),
    (6, 1e-08, 1.570796311085112, 1.5709784572791468),
    (1000.0, 1e-08, 1.5707963110869334, 1.5707963110869334),
    (0.0001, 1e-06, 1.5607966595677008, 9999.0006397403),
    (0.01, 1e-06, 1.5706962956903754, 100.03110306912967),
    (1, 1e-06, 1.5707944823786033, 1.844415508024796),
    (6, 1e-06, 1.570794755817209, 1.5709769021915685),
    (1000.0, 1e-06, 1.5707947559993551, 1.5707947559993551),
    (0.0001, 0.0001, 0.7853981149259476, 5000.0004454451),
    (0.01, 0.0001, 1.5607935573732243, 100.02095031021854),
    (1, 0.0001, 1.5706118929409596, 1.8442600002859626),
    (6, 0.0001, 1.5706392368013178, 1.570821401207651),
    (1000.0, 0.0001, 1.570639255015937, 1.570639255015937),
    (0.0001, 0.01, 0.009997056106826807, 1.00011107648833),
    (0.01, 0.01, 0.785143702054051, 50.02151981092229),
    (1, 0.01, 1.5524306598632287, 1.8287198416285544),
    (6, 0.01, 1.5551648207518105, 1.5553487833969286),
    (1000.0, 0.01, 1.5551666421970913, 1.5551666421970913),
    (0.0001, 0.5, 0.0001656441094836023, 0.00042373011547091325),
    (0.01, 0.5, 0.01656189509258264, 0.04235736687697173),
    (1, 0.5, 0.839711602778155, 1.0983248707008908),
    (6, 0.5, 0.9526471120837947, 0.9529060699944917),
    (1000.0, 0.5, 0.9527361323650899, 0.9527361323650899),
    (0.0001, 3, 4.015643109402171e-06, 4.812498137252904e-06),
    (0.01, 3, 0.00040156089406818485, 0.0004812441662032188),
    (1, 3, 0.037047877949241644, 0.043131117377841095),
    (6, 3, 0.07795314560846439, 0.07816675269879873),
    (1000.0, 3, 0.07820534411412706, 0.07820534411412706),
    (0.0001, 50, 3.444102226599417e-27, 3.479049794202075e-27),
    (0.01, 50, 3.444101044073982e-25, 3.479048575331526e-25),
    (1, 50, 3.432312971698434e-23, 3.466898972598447e-23),
    (6, 50, 1.8375268740249423e-22, 1.8519664501476122e-22),
    (1000.0, 50, 3.0296731764879176e-22, 3.029673176487925e-22),
    # far from the core, where the rule stops at rho = 40
    (1e6, 1e-10, 1.570796326637817, 1.570796326637817),
    (1e10, 0.001, 1.5692263156045312, 1.5692263156045312),
    (1e17, 1e-08, 1.5707963110869334, 1.5707963110869334),
    (1e17, 1, 0.5778636748954609, 0.5778636748954609),     # (pi/2) e^-1
    # the smallest y at which full_field still runs the rule at x = l
    (1, 1e-15, 1.5707963267948948, 1.8444170788210112),
]


def test_semi_infinite_integral_matches_acceleration_oracle():
    val = _integrals(1.0, 1.0)[0]
    assert val == pytest.approx(_i10_oracle(1.0, 1.0, 1.0), abs=1e-8)
    assert val == pytest.approx(0.4345132885961036, abs=1e-10)


def test_semi_infinite_integral_both_kinds_both_regimes():
    # the sine-transform definitions themselves, by oscillatory quadrature
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 25
    for k, power in ((0, 0), (1, 1)):
        for x, y in ((1.0, 1.0), (6.0, 0.4), (0.3, 2.0)):
            def f(xi):
                a = mp.sqrt(1 + xi * xi)
                return a ** power / xi * mp.exp(-y * a) * mp.sin(xi * x)

            ref = float(mp.quadosc(f, [0, mp.inf], period=2 * np.pi / x))
            assert _integrals(x, y)[k] == pytest.approx(ref, rel=1e-10), \
                (k, x, y)


def test_semi_infinite_integrals_match_mpmath_grid():
    grid = np.array(_MP_GRID)
    x, y, ref10, ref11 = grid.T
    # odd in x: the mirrored points carry the negated references
    i10, i11 = _disclination_integrals(np.concatenate([x, -x]),
                                       np.concatenate([y, y]))
    for got, ref in ((i10, ref10), (i11, ref11)):
        ref = np.concatenate([ref, -ref])
        err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
        assert err.max() < 1e-12, grid[np.argmax(err) % len(grid)]
    # the table is what _mp_integrals gives
    for row in (_MP_GRID[16], _MP_GRID[27]):
        assert _mp_integrals(*row[:2]) == pytest.approx(row[2:], rel=1e-15)


def test_semi_infinite_integral_symmetries_and_decay():
    v = _integrals(2.0, 1.5)[0]
    assert _integrals(-2.0, 1.5)[0] == -v
    assert _integrals(2.0, 60.0)[0] == pytest.approx(0.0, abs=1e-20)
    # the x = 0 column: both integrals vanish exactly
    ys = np.geomspace(1e-8, 50.0, 12)
    i10, i11 = _disclination_integrals(np.zeros_like(ys), ys)
    assert np.all(i10 == 0.0) and np.all(i11 == 0.0)


# ------------------------------------------------------------- traces at y=0

def test_dislocation_traces():
    for x in (0.4, 1.0, 3.0):
        st = full_field(x, 0.0, DISLOC, MAT)
        assert st.uy == 0.0
        assert st.omega == 0.0
        assert st.syx == 0.0
        st_neg = full_field(-x, 0.0, DISLOC, MAT)
        assert st_neg.uy == pytest.approx(0.5, abs=1e-15)   # b/2 behind core


def test_disclination_traces():
    for x in (0.4, 1.0, 3.0):
        st = full_field(x, 0.0, DISCLIN, MAT)
        # normal displacement is the added rigid rotation only
        assert st.uy + 0.25 * x == pytest.approx(0.0, abs=1e-12 * MAT.ell)
        assert st.omega == pytest.approx(0.0, abs=1e-14)
        assert st.syx == 0.0
        st_neg = full_field(-x, 0.0, DISCLIN, MAT)
        assert st_neg.omega == pytest.approx(-0.5, abs=1e-14)
        assert st_neg.uy - 0.25 * x == pytest.approx(0.0, abs=1e-12)


def test_trace_continuity_from_above():
    # approaching the line reproduces the y = 0 branch
    st0 = full_field(1.2, 0.0, MIXED, MAT)
    st = full_field(1.2, 1e-7, MIXED, MAT)
    assert st.uy == pytest.approx(st0.uy, abs=1e-6)
    assert st.omega == pytest.approx(st0.omega, abs=1e-6)
    assert st.syy == pytest.approx(st0.syy, rel=1e-5)
    assert st.myz == pytest.approx(st0.myz, rel=1e-5)


def test_full_field_line_values_match_line_functions():
    for x in (0.3, -1.7, 5.0):
        st = full_field(x, 0.0, MIXED, MAT)
        assert st.syy == pytest.approx(line_sigma_yy(x, MIXED, MAT),
                                       rel=1e-12)
        assert st.myz == pytest.approx(line_m_yz(x, MIXED, MAT), rel=1e-12)


def test_field_near_line_matches_line_branch():
    # near y = 0 the field approaches the y = 0 branch (the line limits of
    # I10, I11): at y/l = 1e-8 to about 1e-8, and below y = 1e-16 min(|x|,
    # l), where full_field takes the limits themselves, to the rule's
    # error floor (the rule alone loses digits there, 2.9e-7 in I10 at
    # x/l = 1, y/l = 1e-200, and gives NaN at subnormal y)
    mat = MaterialParams(mu=1.3, nu=0.3, ell=0.8)
    x = mat.ell * np.array([-30.0, -2.0, -1.0, -0.3, 0.3, 0.7, 1.0, 4.0,
                            6.0, 900.0, 1e6, 1e17])
    on = full_field(x, 0.0, MIXED, mat)
    for y, tol in ((1e-8, 1e-6), (1e-30, 1e-13), (1e-200, 1e-13),
                   (1e-310, 1e-13)):
        near = full_field(x, y * mat.ell, MIXED, mat)
        for name in ("sxx", "syy", "sxy", "syx", "mxz", "myz", "ux", "uy",
                     "omega"):
            a, b = getattr(near, name), getattr(on, name)
            assert np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))), \
                (name, y)
    # off that band, even at |x| >> l, the integrals apply, not the limits
    # (at x/l = 1e17, y/l = 1: I10 = (pi/2) e^-1, its limit pi/2)
    grid = np.array(_MP_GRID)
    st = full_field(grid[:, 0] * mat.ell, grid[:, 1] * mat.ell, DISCLIN, mat)
    i10 = 2.0 * np.pi * (st.omega + 0.25)
    i11 = -0.5 * np.pi * st.myz / (mat.mu * mat.ell)
    for got, ref in ((i10, grid[:, 2]), (i11, grid[:, 3])):
        err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
        assert err.max() < 1e-12, grid[np.argmax(err)]


def test_full_field_arrays_match_scalar_calls():
    # more points than one quadrature block, with the y = 0 row, the x = 0
    # column and y/l down to 1e-8
    mat = MaterialParams(mu=1.3, nu=0.3, ell=0.8)
    xs = np.concatenate([-np.geomspace(1e-3, 40.0, 20)[::-1], [0.0],
                         np.geomspace(1e-3, 40.0, 20)])
    ys = np.concatenate([[0.0], np.geomspace(1e-8, 30.0, 29)])
    y, x = (g.ravel() for g in np.meshgrid(ys, xs, indexing="ij"))
    keep = (x != 0.0) | (y != 0.0)
    x, y = x[keep], y[keep]
    for charge in (DISLOC, DISCLIN, MIXED):
        arr = full_field(x, y, charge, mat)
        pts = [full_field(float(a), float(b), charge, mat)
               for a, b in zip(x, y)]
        for name in ("sxx", "syy", "sxy", "syx", "mxz", "myz", "ux", "uy",
                     "omega"):
            col = getattr(arr, name)
            ref = np.array([getattr(st, name) for st in pts])
            assert col.shape == x.shape
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(col - ref)) <= 1e-14 * scale, name
    grid = full_field(xs[:, None] + 0.5, ys[None, :], MIXED, mat)
    assert grid.ux.shape == (xs.size, ys.size)


def test_full_field_domain_errors():
    with pytest.raises(ValueError):
        full_field(0.0, 0.0, DISLOC, MAT)
    with pytest.raises(ValueError):
        full_field(1.0, -0.5, DISLOC, MAT)
    with pytest.raises(ValueError):
        full_field(np.array([1.0, 0.0]), np.array([0.5, 0.0]), DISCLIN, MAT)
    with pytest.raises(ValueError):
        full_field(np.array([1.0, 2.0]), np.array([0.5, -1e-9]), DISCLIN,
                   MAT)
    with pytest.raises(ValueError):
        full_field(1.0, 1.0, DISLOC, MaterialParams(1.0, 0.3, 0.0))


# ----------------------------------------------------- field-equation checks

_GRID = [(0.9, 0.7), (1.5, 0.8), (-3.0, 1.2), (2.0, 2.0), (-1.0, 0.5)]


def _displacement_fields(charge, mat):
    ux = CachedField(lambda x, y: full_field(x, y, charge, mat).ux)
    uy = CachedField(lambda x, y: full_field(x, y, charge, mat).uy)
    return ux, uy


def test_equilibrium_pde_residuals():
    mat = MaterialParams(mu=1.3, nu=0.3, ell=0.8)
    ux, uy = _displacement_fields(MIXED, mat)
    h = 0.01 * mat.ell
    for xs, ys in _GRID:
        x, y = xs * mat.ell, ys * mat.ell
        rx, ry = equilibrium_residuals(ux, uy, x, y, mat.nu, mat.ell, h)
        assert rx < 1e-4 and ry < 1e-4, (xs, ys, rx, ry)


def test_couple_stress_constitutive_consistency():
    # m_xz = 2 mu l^2 (uy,xx - ux,xy); m_yz = 2 mu l^2 (uy,xy - ux,yy)
    mat = MaterialParams(mu=1.3, nu=0.3, ell=0.8)
    ux, uy = _displacement_fields(MIXED, mat)
    h = 0.01 * mat.ell
    for xs, ys in [(1.2, 0.9), (-2.0, 1.5)]:
        x, y = xs * mat.ell, ys * mat.ell
        st = full_field(x, y, MIXED, mat)
        c = 2.0 * mat.mu * mat.ell ** 2
        mxz_fd = c * (partial(uy, x, y, 2, 0, h) - partial(ux, x, y, 1, 1, h))
        myz_fd = c * (partial(uy, x, y, 1, 1, h) - partial(ux, x, y, 0, 2, h))
        assert st.mxz == pytest.approx(mxz_fd, rel=1e-5)
        assert st.myz == pytest.approx(myz_fd, rel=1e-5)


def test_stress_equilibrium():
    # d_x sxx + d_y syx = 0 and d_x sxy + d_y syy = 0 (no body force)
    mat = MaterialParams(mu=1.3, nu=0.3, ell=0.8)
    fields = {
        name: CachedField(
            lambda x, y, _n=name: getattr(full_field(x, y, MIXED, mat), _n))
        for name in ("sxx", "syx", "sxy", "syy")
    }
    h = 0.01 * mat.ell
    for xs, ys in [(1.2, 0.9), (-2.0, 1.5), (0.6, 0.8)]:
        x, y = xs * mat.ell, ys * mat.ell
        d1 = partial(fields["sxx"], x, y, 1, 0, h)
        d2 = partial(fields["syx"], x, y, 0, 1, h)
        assert abs(d1 + d2) / max(abs(d1), abs(d2)) < 1e-4
        d3 = partial(fields["sxy"], x, y, 1, 0, h)
        d4 = partial(fields["syy"], x, y, 0, 1, h)
        assert abs(d3 + d4) / max(abs(d3), abs(d4)) < 1e-4


def test_classical_dislocation_limit():
    # with ell = 1e-3 r the force-stresses collapse to the classical
    # dislocation terms
    for x, y in [(1.0, 0.8), (-0.7, 1.1)]:
        r2 = x * x + y * y
        mat = MaterialParams(mu=1.0, nu=0.3, ell=1e-3 * np.sqrt(r2))
        st = full_field(x, y, DISLOC, mat)
        c = 1.0 / (2.0 * np.pi * (1.0 - mat.nu))
        syy_cl = c * x * (3.0 * y * y + x * x) / r2 ** 2
        sxx_cl = c * x * (x * x - y * y) / r2 ** 2
        syx_cl = c * y * (x * x - y * y) / r2 ** 2
        assert st.syy == pytest.approx(syy_cl, rel=1e-4)
        assert st.sxx == pytest.approx(sxx_cl, rel=1e-4)
        assert st.syx == pytest.approx(syx_cl, rel=1e-4)


def _mp_dislocation_field(x, y, nu, ell):
    """The nine components of the climb dislocation (b = mu = 1) at (x, y),
    in 50-digit arithmetic, with the terms over powers of l in their direct
    form, (D + K0)/l^2, (K2 - K0)/l^2 and y K1/(l r), not in the
    cancellation-free one of ``full_field``."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        x, y, nu, ell = map(mp.mpf, (x, y, nu, ell))
        r2 = x * x + y * y
        r = mp.sqrt(r2)
        k0, k1, k2 = (mp.besselk(k, r / ell) for k in (0, 1, 2))
        d = 2 * ell * ell / r2 - k2
        c = 1 / (4 * mp.pi * (1 - nu))
        t = (k2 - k0) / (mp.pi * ell * ell * r2)
        syx = (2 * c * y * (x * x - y * y) / r2 ** 2
               - 2 * y / mp.pi * (3 * x * x - y * y) / r2 ** 2 * d
               + t * x * x * y)
        syy_cl = 2 * c * x * (3 * y * y + x * x) / r2 ** 2
        syy_d = 2 * x / mp.pi * (3 * y * y - x * x) / r2 ** 2 * d
        sxx_cl = 2 * c * x * (x * x - y * y) / r2 ** 2
        vals = dict(
            sxx=sxx_cl + syy_d - t * x * y * y,
            syy=syy_cl - syy_d + t * x * y * y,
            sxy=syx - 2 * y * k1 / (mp.pi * ell * r),
            syx=syx,
            mxz=2 / mp.pi * x * y / r2 * d,
            myz=-((x * x - y * y) / r2 * d + k0) / mp.pi,
            ux=((1 - 2 * nu) * c * mp.log(r) + c * (y * y - x * x) / (2 * r2)
                - (y * y - x * x) / (2 * mp.pi * r2) * d + k0 / (2 * mp.pi)),
            uy=(mp.atan2(y, x) / (2 * mp.pi) - c * x * y / r2
                + x * y / (mp.pi * r2) * d),
            omega=-y / (4 * mp.pi * ell * ell) * (d + k0))
        return {k: float(v) for k, v in vals.items()}


def test_dislocation_field_matches_mpmath_at_small_ell():
    # the Bessel terms over powers of ell keep their digits as ell/r -> 0,
    # where the field tends to the classical climb dislocation's
    for ell in (1.0, 0.1, 1e-3, 1e-9, 1e-200):
        mat = MaterialParams(mu=1.0, nu=0.3, ell=ell)
        for x, y in ((1.0, 1.0), (-2.5, 0.7), (0.3, 3.0), (4.0, 0.0)):
            st = full_field(x, y, DISLOC, mat)
            ref = _mp_dislocation_field(x, y, mat.nu, ell)
            scale = max(abs(v) for v in ref.values())
            for name, want in ref.items():
                assert abs(getattr(st, name) - want) <= 2e-15 * scale, \
                    (ell, x, y, name)


def test_disclination_normal_displacement_continuous():
    # modulo the rigid rotation, u_y of the pure disclination has no jump
    for x in (0.5, 2.0):
        up = full_field(x, 0.0, DISCLIN, MAT)
        assert abs(up.uy + 0.25 * x) < 1e-8 * abs(MAT.ell)


def test_classical_limits_where_r_over_ell_overflows():
    # r/ell past the float range: the Bessel terms take their classical
    # limits, the same as at ell = 1e-200 (where they are already below
    # an ulp), with no warning and no NaN
    for ell, xs in ((1e-300, (-1e9, 1e9)), (5e-324, (-1.0, 1.0))):
        mat = MaterialParams(mu=1.0, nu=0.3, ell=ell)
        x = np.array(xs)
        cauchy = 1.0 / (2.0 * np.pi * (1.0 - mat.nu) * x)
        assert line_sigma_yy(x, DISLOC, mat) == pytest.approx(cauchy,
                                                             rel=1e-15)
        assert np.all(line_sigma_yy(x, DISCLIN, mat) == 0.0)
        assert np.all(line_m_yz(x, DISLOC, mat) == 0.0)
        assert line_m_yz(x, DISCLIN, mat) == pytest.approx(
            -ell * np.sign(x), rel=1e-15)
        far = MaterialParams(mu=1.0, nu=0.3, ell=1e-200)
        px, py = np.meshgrid(x, [0.0, 1.0])
        for charge in (DISLOC, DISCLIN, MIXED):
            got = vars(full_field(px, py, charge, mat))
            want = vars(full_field(px, py, charge, far))
            scale = max(np.abs(v).max() for v in want.values())
            for name, val in got.items():
                assert np.all(np.isfinite(val)), (ell, charge, name)
                assert np.abs(val - want[name]).max() <= 2e-15 * scale, \
                    (ell, charge, name)
