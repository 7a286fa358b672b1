"""Post-processing: profiles, endpoint extraction, tip fields, K and J."""

import tracemalloc
import warnings

import numpy as np
import pytest

from cscrack import greens
from cscrack import (CrackProblem, DensitySolution, Discretization,
                     MaterialParams, classical_baseline, crack_profiles,
                     solve, stress_ahead, tip_quantities)
from cscrack.post import _jump_series
from cscrack.sie import chebyshev_coefficients


def _fake_solution(fvals, gvals, nu=0.3, p=10.0, n=None):
    n = len(fvals) if n is None else n
    mat = MaterialParams(mu=1.0, nu=nu, ell=1.0 / p)
    prob = CrackProblem(half_length=1.0, remote_tension=1.0, material=mat)
    return DensitySolution(f_vals=np.asarray(fvals, float),
                           g_vals=np.asarray(gvals, float),
                           problem=prob, disc=Discretization.build(n),
                           condition=1.0, residual=0.0)


def _j_classical(prob):
    nu = prob.material.nu
    return np.pi * (1.0 - nu) * prob.remote_tension ** 2 \
        * prob.half_length / (2.0 * prob.material.mu)


# -------------------------------------------------------- series machinery

def test_chebyshev_coefficients_reproduce_polynomials():
    d = Discretization.build(16)
    s = d.nodes
    # T0 + 0.5 T1 - 0.25 T3, written in powers
    vals = 1.0 + 0.5 * s - 0.25 * (4 * s ** 3 - 3 * s)
    c = chebyshev_coefficients(vals)
    expect = np.zeros(16)
    expect[0], expect[1], expect[3] = 1.0, 0.5, -0.25
    assert np.allclose(c, expect, atol=1e-13)


def test_chebyshev_coefficients_match_cosine_sum():
    # the FFT form against the defining sum (2/n) sum_i v_i cos(j theta_i),
    # within the n eps max|v| rounding of the sum itself, odd n included
    rng = np.random.default_rng(5)
    for n in (8, 9, 128, 513):
        vals = rng.standard_normal((2, n))
        theta = (2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n)
        want = vals @ ((2.0 / n) * np.cos(np.outer(theta, np.arange(n))))
        want[:, 0] *= 0.5
        got = chebyshev_coefficients(vals)
        assert got.shape == want.shape
        bound = n * np.finfo(float).eps * np.max(np.abs(vals))
        assert np.max(np.abs(got - want)) <= bound, n


def test_chebyshev_coefficients_transform_rows_at_once(solve_case):
    # the (2, n) stack of f and g, as DensitySolution.coefficients builds
    # it, gives each row's own transform
    sol = solve_case(0.3, 10.0, 128)
    stacked = chebyshev_coefficients(np.stack([sol.f_vals, sol.g_vals]))
    assert stacked.shape == (2, 128)
    for got, vals in zip(stacked, (sol.f_vals, sol.g_vals)):
        want = chebyshev_coefficients(vals)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    assert np.array_equal(sol.coefficients, stacked)


def test_tip_endpoints_constant_and_linear_exactness():
    n = 32
    d = Discretization.build(n)
    sol = _fake_solution(np.full(n, 3.7), d.nodes.copy())
    tq = tip_quantities(sol)
    assert tq.f1 == pytest.approx(3.7, abs=1e-12)
    assert tq.g1 == pytest.approx(1.0, abs=1e-12)


def test_endpoint_convergence_on_solved_case(solve_case):
    vals = [tip_quantities(solve_case(0.3, 10.0, n)).f1 for n in (128, 256)]
    assert abs(vals[1] - vals[0]) / abs(vals[1]) < 1e-5


# ---------------------------------------------------------------- profiles

def test_profiles_vanish_at_tips(solve_case):
    sol = solve_case(0.3, 10.0, 128)
    cf = chebyshev_coefficients(sol.f_vals)
    # the series construction is exactly zero at theta = 0, pi
    assert _jump_series(cf, np.array([0.0, np.pi])) == pytest.approx(
        [0.0, 0.0], abs=1e-16)


def test_profiles_symmetry_and_sign(solve_case):
    sol = solve_case(0.3, 10.0, 128)
    prof = crack_profiles(sol, m_samples=101)
    du = prof.delta_uy
    dom = prof.delta_omega
    assert np.all(du >= 0.0)                      # tensile load opens
    assert np.allclose(du, du[::-1], atol=1e-8 * du.max())       # even
    assert np.allclose(dom, -dom[::-1], atol=1e-8 * np.abs(dom).max())


def test_classical_opening_recovered_at_huge_size_ratio(solve_case):
    # p surrogate for ell -> 0: center opening 2 (1-nu) sigma0 a / mu
    sol = solve_case(0.3, 1e4, 128)
    prof = crack_profiles(sol, m_samples=201)
    center = prof.delta_uy[prof.x_samples.searchsorted(0.0)]
    assert center == pytest.approx(2.0 * 0.7, rel=1e-10)
    # full elliptical shape
    expect = 2.0 * 0.7 * np.sqrt(1.0 - prof.x_samples ** 2)
    assert np.allclose(prof.delta_uy, expect, atol=1e-10)


def test_opening_ratio_lower_bound_at_tiny_size_ratio(solve_case):
    # ell/a -> inf: opening is 1/(3-2nu) of classical
    for nu in (0.0, 0.3):
        sol = solve_case(nu, 1e-2, 128)
        prof = crack_profiles(sol, m_samples=41)
        ratio = prof.delta_uy.max() / (2.0 * (1.0 - nu))
        assert ratio == pytest.approx(1.0 / (3.0 - 2.0 * nu), rel=2e-2)


def test_classical_profile_is_pointwise_upper_bound(solve_case):
    # openings at every sampled x stay below the classical ellipse, for
    # all size ratios including the degenerate surrogate (equality there)
    for p in (5.0, 10.0, 20.0, 1e4):
        prof = crack_profiles(solve_case(0.3, p, 128), m_samples=101)
        classical = 2.0 * 0.7 * np.sqrt(1.0 - prof.x_samples ** 2)
        assert np.all(prof.delta_uy <= classical + 1e-10), p


def test_crack_profiles_sample_validation(solve_case):
    with pytest.raises(ValueError):
        crack_profiles(solve_case(0.3, 10.0, 128), m_samples=2)


# ------------------------------------------------------------ stress ahead

def test_stress_ahead_rejects_interior():
    sol = _fake_solution(np.zeros(16), np.zeros(16))
    with pytest.raises(ValueError):
        stress_ahead(sol, 0.5)
    with pytest.raises(ValueError):
        stress_ahead(sol, -1.0)
    with pytest.raises(ValueError):
        stress_ahead(sol, [2.0, np.nan])


def test_stress_ahead_far_field(solve_case):
    sol = solve_case(0.3, 10.0, 128)
    syy, myz = stress_ahead(sol, 150.0)
    assert syy == pytest.approx(1.0, abs=1e-4)     # remote tension
    assert myz == pytest.approx(0.0, abs=1e-4)


def test_stress_ahead_singularity_exponents(solve_case):
    sol = solve_case(0.3, 10.0, 128)
    xbar = np.geomspace(1e-6, 1e-4, 9)
    syy, myz = stress_ahead(sol, 1.0 + xbar)
    slope_s = np.polyfit(np.log(xbar), np.log(syy - 1.0), 1)[0]
    slope_m = np.polyfit(np.log(xbar), np.log(np.abs(myz)), 1)[0]
    assert slope_s == pytest.approx(-0.5, abs=0.005)
    assert slope_m == pytest.approx(-0.5, abs=0.01)


def test_stress_ahead_couple_stress_zone(solve_case):
    # deviation from the classical distribution is large inside ~2 ell of
    # the tip and small beyond it
    sol = solve_case(0.3, 10.0, 128)   # ell = 0.1
    ell = 0.1
    xb_in, xb_out = 0.05 * ell, 5.0 * ell
    for xb, lo, hi in ((xb_in, 0.15, 1.0), (xb_out, 0.0, 0.05)):
        x = 1.0 + xb
        syy, _ = stress_ahead(sol, x)
        syy_cl = x / np.sqrt(x * x - 1.0)
        dev = abs(syy / syy_cl - 1.0)
        assert lo <= dev <= hi, (xb, dev)


def test_stress_ahead_left_tip_symmetry(solve_case):
    # geometry and loading are symmetric: sigma_yy even in x, m_yz odd
    sol = solve_case(0.3, 10.0, 128)
    x = np.array([1.0 + 1e-4, 1.5, 3.0])
    syy_r, myz_r = stress_ahead(sol, x)
    syy_l, myz_l = stress_ahead(sol, -x)
    assert np.allclose(syy_l, syy_r, rtol=1e-8)
    assert np.allclose(myz_l, -myz_r, rtol=1e-8)


def test_stress_ahead_degenerate_mode(solve_case):
    sol = solve_case(0.3, 1e4, 128)
    x = np.array([1.5, 4.0])
    syy, myz = stress_ahead(sol, x)
    assert np.allclose(syy, x / np.sqrt(x * x - 1.0), rtol=1e-10)
    assert np.all(myz == 0.0)


def test_hand_built_solution_takes_the_degenerate_switch():
    # the flag follows from (a/ell, n) alone, so a solution built by hand
    # past a/ell = 2n post-processes with the degenerate system's Cauchy
    # factor 1 and no couple-stress terms, as the solved one does
    d = Discretization.build(16)
    sol = _fake_solution(2.0 * (1.0 - 0.3) * d.nodes, np.zeros(16),
                         nu=0.3, p=1e4)
    assert sol.classical_degenerate
    x = np.array([1.5, 4.0])
    syy, myz = stress_ahead(sol, x)
    assert np.allclose(syy, x / np.sqrt(x * x - 1.0), rtol=1e-10)
    assert np.all(myz == 0.0)
    for p, n in ((32.0, 16), (32.000001, 16), (1e4, 5000), (1e4, 4999)):
        hand = _fake_solution(np.zeros(n), np.zeros(n), p=p)
        assert hand.classical_degenerate == (p > 2 * n), (p, n)


# ---------------------------------------------------- sampling in blocks

def _near_tip(m):
    return 1.0 + np.geomspace(1e-4, 2.0, m)


def test_sampled_quantities_memory_is_bounded(solve_case):
    # the m x n work arrays are built one block of samples at a time, so
    # 20,000 samples peak near one block's 1,024 (one-shot evaluation:
    # 20x for stress_ahead, 19x for crack_profiles at n = 128)
    sol = solve_case(0.3, 10.0, 128)
    sol.coefficients                   # cached before measuring

    def peak(fn, arg):
        tracemalloc.start()
        try:
            fn(sol, arg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(stress_ahead, _near_tip(20000)) <= \
        1.5 * peak(stress_ahead, _near_tip(1024))
    assert peak(crack_profiles, 20000) <= 1.5 * peak(crack_profiles, 1024)


@pytest.mark.parametrize("p", [10.0, 1e4])    # 1e4: classical-degenerate
def test_blocks_match_one_block(solve_case, monkeypatch, p):
    sol = solve_case(0.3, p, 128)
    x = np.concatenate([_near_tip(1500), -_near_tip(1500)])
    blocked = [*stress_ahead(sol, x), *vars(crack_profiles(sol, 3000))
               .values()]
    monkeypatch.setattr(greens, "_BLOCK", 10 ** 6)
    whole = [*stress_ahead(sol, x), *vars(crack_profiles(sol, 3000))
             .values()]
    for got, want in zip(blocked, whole):
        assert got.shape == want.shape == (3000,)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_classical_solution_post_processes_without_warnings():
    # ell = 0: p is inf and g is zero, so the couple-stress terms
    # (c_0 ln p among them) must not be evaluated at all
    mat = MaterialParams(mu=1.0, nu=0.3, ell=0.0)
    prob = CrackProblem(half_length=1.0, remote_tension=1.0, material=mat)
    sol = solve(prob, Discretization.build(64))
    assert sol.classical_degenerate
    x = np.array([1.0 + 1e-6, 1.5, -4.0])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        tq = tip_quantities(sol)
        prof = crack_profiles(sol, m_samples=51)
        syy, myz = stress_ahead(sol, x)
    assert (tq.k_ratio, tq.j_ratio) == pytest.approx((1.0, 1.0), rel=1e-12)
    assert np.all(prof.delta_omega == 0.0)
    assert np.allclose(syy, np.abs(x) / np.sqrt(x * x - 1.0), rtol=1e-10)
    assert np.all(myz == 0.0)


# --------------------------------------------------------------- K and J

def test_k_dual_extraction_consistency(solve_case):
    # closed-form K vs sqrt(2 pi (x-a)) sigma_yy fitted just off the tip
    sol = solve_case(0.3, 10.0, 128)
    k_end = tip_quantities(sol).k_i
    xbar = np.geomspace(1e-6, 1e-4, 9)
    syy, _ = stress_ahead(sol, 1.0 + xbar)
    k_fit = np.sqrt(2.0 * np.pi * xbar) * syy
    assert np.median(k_fit) == pytest.approx(k_end, rel=5e-3)


def test_k_ratio_classical_degeneration(solve_case):
    sol = solve_case(0.3, 1e4, 128)
    k = tip_quantities(sol).k_i
    assert k == pytest.approx(np.sqrt(np.pi), rel=1e-12)


@pytest.mark.parametrize("nu,p,expect", [
    (0.5, 20.0, 1.176466), (0.25, 20.0, 1.236802), (0.0, 20.0, 1.287489),
    (0.5, 50.0, 1.180310), (0.25, 50.0, 1.242425), (0.0, 50.0, 1.294827),
])
def test_k_ratio_pinned_regression_values(solve_case, nu, p, expect):
    # frozen converged amplification factors at reference size ratios
    ratio = tip_quantities(solve_case(nu, p, 128)).k_i / np.sqrt(np.pi)
    assert ratio == pytest.approx(expect, abs=5e-5)


def test_j_limits(solve_case):
    # J -> J_classical as ell/a -> 0 (evaluated just inside the
    # resolvability window) and J/J_classical -> 1/(3-2nu) as ell/a -> inf
    sol_small_ell = solve_case(0.3, 200.0, 128)
    j_ratio = (tip_quantities(sol_small_ell).j
               / _j_classical(sol_small_ell.problem))
    assert j_ratio == pytest.approx(1.0, abs=0.01)
    for nu in (0.0, 0.3, 0.5):
        sol = solve_case(nu, 1e-2, 128)
        ratio = tip_quantities(sol).j / _j_classical(sol.problem)
        assert ratio == pytest.approx(1.0 / (3.0 - 2.0 * nu), rel=2e-2)


def test_j_below_classical_in_sweep(solve_case):
    for p in (0.5, 2.0, 10.0, 50.0, 200.0):
        sol = solve_case(0.3, p, 96)
        assert tip_quantities(sol).j < _j_classical(sol.problem)


def test_tip_quantities_bundle(solve_case):
    sol = solve_case(0.3, 10.0, 128)
    tq = tip_quantities(sol)
    assert tq.k_i > 0.0 and tq.j > 0.0


# ------------------------------------------------------------- baselines

def test_classical_baseline_closed_forms():
    mat = MaterialParams(mu=1.0, nu=0.3, ell=0.0)
    prob = CrackProblem(half_length=1.0, remote_tension=1.0, material=mat)
    base = classical_baseline(prob, n=128)
    assert base.k_i == pytest.approx(np.sqrt(np.pi), rel=1e-15)
    # pi (1 - nu^2) sigma0^2 a / E with E = 2 mu (1 + nu) = 2.6
    assert base.j == pytest.approx(np.pi * (1.0 - 0.09) / 2.6, rel=1e-15)


def test_classical_baseline_discrete_agreement():
    mat = MaterialParams(mu=1.0, nu=0.3, ell=0.0)
    prob = CrackProblem(half_length=1.0, remote_tension=1.0, material=mat)
    base = classical_baseline(prob, n=128)
    assert base.k_i_discrete == pytest.approx(base.k_i, rel=1e-6)
    assert np.allclose(base.cod_discrete, base.cod,
                       atol=1e-10 * base.cod.max())


def test_classical_baseline_cod_is_ellipse():
    mat = MaterialParams(mu=2.0, nu=0.25, ell=0.0)
    prob = CrackProblem(half_length=1.5, remote_tension=3.0, material=mat)
    base = classical_baseline(prob, n=64, m_samples=51)
    expect = 2.0 * (1.0 - 0.25) * 3.0 / 2.0 * np.sqrt(1.5 ** 2
                                                      - base.x_samples ** 2)
    assert np.allclose(base.cod, expect, rtol=1e-14)
