"""Defect Green's functions: line values, traces, field-equation residuals."""

import numpy as np
import pytest
from scipy import integrate

from cscrack import (DefectCharge, MaterialParams, bessel_k, full_field,
                     line_m_yz, line_sigma_yy, semi_infinite_integral)

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
    expect = -(2.0 - bessel_k(2, 1.0)) / np.pi - bessel_k(0, 1.0) / np.pi
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
    expect = -((0.5 - bessel_k(2, 2.0)) + bessel_k(0, 2.0)) / np.pi
    assert line_m_yz(2.0, DISLOC, MAT) == pytest.approx(expect, rel=1e-14)
    assert expect == pytest.approx(-0.11463425016988256, abs=1e-15)


def test_line_values_raise_at_origin():
    with pytest.raises(ValueError):
        line_sigma_yy(0.0, DISLOC, MAT)
    with pytest.raises(ValueError):
        line_m_yz(0.0, DISLOC, MAT)


# ------------------------------------------------------- oscillatory integrals

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


def test_semi_infinite_integral_matches_acceleration_oracle():
    val = semi_infinite_integral("I10", 1.0, 1.0, 1.0)
    assert val == pytest.approx(_i10_oracle(1.0, 1.0, 1.0), abs=1e-8)
    assert val == pytest.approx(0.4345132885961036, abs=1e-10)


def test_semi_infinite_integral_both_kinds_both_regimes():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 25
    for which, power in (("I10", 0), ("I11", 1)):
        for x, y in ((1.0, 1.0), (6.0, 0.4), (0.3, 2.0)):
            def f(xi):
                a = mp.sqrt(1 + xi * xi)
                return a ** power / xi * mp.exp(-y * a) * mp.sin(xi * x)

            ref = float(mp.quadosc(f, [0, mp.inf], period=2 * np.pi / x))
            assert semi_infinite_integral(which, x, y, 1.0) == pytest.approx(
                ref, rel=1e-10), (which, x, y)


def test_semi_infinite_integral_symmetries_and_decay():
    v = semi_infinite_integral("I10", 2.0, 1.5, 1.0)
    assert semi_infinite_integral("I10", -2.0, 1.5, 1.0) == -v
    assert semi_infinite_integral("I10", 2.0, 60.0, 1.0) == pytest.approx(
        0.0, abs=1e-20)
    assert semi_infinite_integral("I10", 0.0, 1.0, 1.0) == 0.0


def test_semi_infinite_integral_domain_errors():
    with pytest.raises(ValueError):
        semi_infinite_integral("I10", 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        semi_infinite_integral("I10", 1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        semi_infinite_integral("I12", 1.0, 1.0, 1.0)


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


def test_full_field_domain_errors():
    with pytest.raises(ValueError):
        full_field(0.0, 0.0, DISLOC, MAT)
    with pytest.raises(ValueError):
        full_field(1.0, -0.5, DISLOC, MAT)
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


def test_disclination_normal_displacement_continuous():
    # modulo the rigid rotation, u_y of the pure disclination has no jump
    for x in (0.5, 2.0):
        up = full_field(x, 0.0, DISCLIN, MAT)
        assert abs(up.uy + 0.25 * x) < 1e-8 * abs(MAT.ell)
