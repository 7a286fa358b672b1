"""Property tests: the solver's scaling laws and the monotonicity of the
K and J ratios, on inputs drawn by hypothesis.

n stays at 16-32 and the draws are derandomized, so the module is fast
and gives the same examples on every run.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cscrack import (CrackProblem, Discretization, MaterialParams,
                     crack_profiles, solve, stress_ahead, tip_quantities)

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None,
                    database=None)

NS = st.integers(16, 32)
NUS = st.floats(0.0, 0.5)


def _log_uniform(lo, hi):
    return st.floats(np.log(lo), np.log(hi)).map(np.exp)


# a/ell stays well below the degenerate switch at 2n >= 32
PS = _log_uniform(0.05, 16.0)
SCALES = _log_uniform(1e-3, 1e3)


def _solve(n, nu, p, a=1.0, sigma0=1.0, mu=1.0):
    mat = MaterialParams(mu=mu, nu=nu, ell=a / p)
    prob = CrackProblem(half_length=a, remote_tension=sigma0, material=mat)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return solve(prob, Discretization.build(n))


def _ratios(sol):
    """K_I and J over their classical values for the same crack."""
    tip = tip_quantities(sol)
    prob = sol.problem
    a, sigma0 = prob.half_length, prob.remote_tension
    mu, nu = prob.material.mu, prob.material.nu
    j_classical = np.pi * (1.0 - nu) * sigma0 ** 2 * a / (2.0 * mu)
    return tip.k_i / (sigma0 * np.sqrt(np.pi * a)), tip.j / j_classical


@SETTINGS
@given(n=NS, nu=NUS, p=PS, sigma0=SCALES, sign=st.sampled_from([-1.0, 1.0]))
def test_linear_in_remote_tension(n, nu, p, sigma0, sign):
    sigma0 *= sign
    unit = _solve(n, nu, p)
    sol = _solve(n, nu, p, sigma0=sigma0)
    # the densities are stored per unit tension
    assert np.array_equal(sol.f_vals, unit.f_vals)
    assert np.array_equal(sol.g_vals, unit.g_vals)
    tip, tip1 = tip_quantities(sol), tip_quantities(unit)
    assert tip.k_i == pytest.approx(sigma0 * tip1.k_i, rel=1e-13)
    assert tip.j == pytest.approx(sigma0 ** 2 * tip1.j, rel=1e-13)
    # the ratios hold no sigma0 or mu: bitwise the unit crack's, also at
    # scales where (sigma0/mu)^2 would leave the float range
    for other in (tip, tip_quantities(_solve(n, nu, p, sigma0=1e-160)),
                  tip_quantities(_solve(n, nu, p, mu=1e-160))):
        assert (other.k_ratio, other.j_ratio) == (tip1.k_ratio, tip1.j_ratio)
    prof, prof1 = crack_profiles(sol, 9), crack_profiles(unit, 9)
    assert np.allclose(prof.delta_uy, sigma0 * prof1.delta_uy,
                       rtol=1e-13, atol=0.0)
    assert np.allclose(prof.delta_omega, sigma0 * prof1.delta_omega,
                       rtol=1e-13, atol=0.0)
    x = 1.0 + np.array([1e-2, 1.0, 10.0]) / p
    for got, want in zip(stress_ahead(sol, x), stress_ahead(unit, x)):
        assert np.allclose(got, sigma0 * want, rtol=1e-13, atol=0.0)


@SETTINGS
@given(n=NS, nu=NUS, p=PS, a=SCALES, mu=SCALES)
def test_invariant_under_crack_and_modulus_scale(n, nu, p, a, mu):
    # at fixed a/ell every normalized output is the unit crack's; a/ell is
    # recomputed from a and ell = a/p, so it may differ from p by an ulp
    unit = _solve(n, nu, p)
    sol = _solve(n, nu, p, a=a, mu=mu)
    assert sol.problem.p == pytest.approx(p, rel=1e-15)
    for got, want in ((sol.f_vals, unit.f_vals), (sol.g_vals, unit.g_vals)):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    assert _ratios(sol) == pytest.approx(_ratios(unit), rel=1e-10)
    prof, prof1 = crack_profiles(sol, 9), crack_profiles(unit, 9)
    assert np.allclose(prof.x_samples / a, prof1.x_samples, rtol=1e-14)
    assert np.allclose(prof.delta_uy * mu / a, prof1.delta_uy,
                       rtol=1e-10, atol=0.0)


@SETTINGS
@given(n=NS, nu=NUS, p=_log_uniform(0.05, 8.0),
       factor=_log_uniform(1.05, 2.0))
def test_ratios_decrease_in_ell_over_a(n, nu, p, factor):
    # ell/a = 1/p: the crack with the larger ell/a has the smaller K and J
    # ratios, and J stays below the classical value
    k_big_ell, j_big_ell = _ratios(_solve(n, nu, p))
    k_small_ell, j_small_ell = _ratios(_solve(n, nu, p * factor))
    assert k_big_ell < k_small_ell
    assert j_big_ell < j_small_ell < 1.0
