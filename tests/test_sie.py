"""Quadrature identities, kernels, assembly and the density solve."""

import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from cscrack import (CrackProblem, DefectCharge, Discretization,
                     MaterialParams, SolverError, assemble, k3_reg,
                     line_m_yz, line_sigma_yy, log_quadrature_weight, solve,
                     tip_quantities)
from cscrack import sie
from cscrack.sie import (_block_solves, _normalized_kernels,
                         _nu_free_system, _solve_shared, _working_set_bytes)

EG = np.euler_gamma
TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _tool(name):
    """The script tools/<name>.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _problem(nu=0.3, p=10.0):
    mat = MaterialParams(mu=1.0, nu=nu, ell=1.0 / p)
    return CrackProblem(half_length=1.0, remote_tension=1.0, material=mat)


# ------------------------------------------------------------- discretization

def test_discretization_nodes_and_interlacing():
    d = Discretization.build(16)
    i = np.arange(1, 17)
    assert np.allclose(d.nodes, np.cos((2 * i - 1) * np.pi / 32), atol=1e-15)
    k = np.arange(1, 16)
    assert np.allclose(d.collocation, np.cos(k * np.pi / 16), atol=1e-15)
    # strict interlacing s_1 > t_1 > s_2 > t_2 > ...
    merged = np.empty(31)
    merged[0::2] = d.nodes
    merged[1::2] = d.collocation
    assert np.all(np.diff(merged) < 0.0)


def test_discretization_minimum_size():
    with pytest.raises(ValueError):
        Discretization.build(7)


@pytest.mark.parametrize("n", [64, 129, 256, 512, 1024])
def test_memory_guard_covers_solve_peak(n):
    # the estimate Discretization.build checks against physical memory
    # bounds what solve allocates, on every branch of the kernel
    # evaluator, at odd n and where one block covers the kernel pass
    disc, peak = Discretization.build(n), _tool("solve_peaks").peak
    for p in (0.3, 10.0, 100.0):
        used = peak(solve, _problem(p=p), disc)
        assert _working_set_bytes(n) >= used, (p, used / (8.0 * n * n))


@pytest.mark.parametrize("n", [512, 1024])
def test_solve_peak_in_matrices(n):
    # row blocks of the kernel pass and one column half of A^-1 at a
    # time: measured 3.50-3.51 n x n matrices for solve and 1.43-2.66
    # for the kernel pass, where whole n/2 x n tables peaked at 6.0
    disc, peak = Discretization.build(n), _tool("solve_peaks").peak
    unit = 8.0 * n * n
    for p in (0.3, 10.0, 100.0):
        assert peak(solve, _problem(p=p), disc) <= 3.6 * unit, p
        assert peak(_nu_free_system, disc, p) <= 3.2 * unit, p


def test_gauss_chebyshev_polynomial_exactness():
    # (pi/n) sum h(s_i) = int h(s)/sqrt(1-s^2) ds for deg h <= 2n-1
    n = 8
    d = Discretization.build(n)
    for m in range(2 * n):
        approx = np.pi / n * np.sum(d.nodes ** m)
        if m % 2 == 1:
            exact = 0.0
        else:
            exact = np.pi * np.prod(np.arange(1, m, 2)) \
                / np.prod(np.arange(2, m + 1, 2))
        assert approx == pytest.approx(exact, abs=1e-13), m


def test_principal_value_identity():
    # sum_i 1/(t_k - s_i) = 0 at every collocation point: exactly
    # T_n'(t_k)/T_n(t_k) with T_n' proportional to U_{n-1}
    for n in (32, 128):
        d = Discretization.build(n)
        dt = d.collocation[:, None] - d.nodes[None, :]
        sums = np.abs(np.sum(1.0 / dt, axis=1))
        scale = np.sum(np.abs(1.0 / dt), axis=1)
        assert np.max(sums / scale) < 1e-12


# ------------------------------------------------------------------- kernels

def _kernels(dt, p):
    """(k1, k2, k3) at t - s = dt through the solver's own kernel path.

    At dt = 0 the k1 quotient and logk are undefined; only these
    tests evaluate there.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        k1, k2, k3, _ = _normalized_kernels(np.asarray(dt, dtype=float), p)
    return k1, k2, k3


def test_kernel_k1_coincidence_and_antisymmetry():
    for x, xi in ((0.3, -0.2), (0.9, 0.85)):
        k1, _, _ = _kernels([x - xi, xi - x], 10.0)
        assert k1[0] == pytest.approx(-k1[1], rel=1e-14)


def test_kernel_k1_coincidence_limit_by_series():
    # approach along shrinking separations: k1 -> 0 like
    # (a dx / 8 l^2) ln(dx/2l), from the bracket's ascending series
    a, ell = 1.0, 0.1
    for dx in (1e-5, 1e-7):
        lead = a * dx / (8.0 * ell * ell) * (
            np.log(0.5 * dx / ell) + EG - 0.75)
        k1, _, _ = _kernels([(0.4 + dx) - 0.4], a / ell)
        assert k1[0] == pytest.approx(lead, rel=1e-3)
    k1, _, _ = _kernels([(0.4 + 1e-9) - 0.4], a / ell)
    assert abs(k1[0]) < 1e-6


def test_kernel_k1_bessel_dead_tail():
    a, ell = 1.0, 0.01
    x, xi = 0.6, -0.4   # |x-xi| = 100 ell
    expect = a / (x - xi) * (2 * ell ** 2 / (x - xi) ** 2 - 0.5)
    k1, _, _ = _kernels([x - xi], a / ell)
    assert k1[0] == pytest.approx(expect, abs=1e-10)


def test_kernel_k2_coincidence_value_and_evenness():
    _, k2, _ = _kernels([0.0, 0.7 - 0.2, 0.2 - 0.7], 10.0)
    assert k2[0] == pytest.approx(0.5 + np.log(2.0) - EG, rel=1e-14)
    assert k2[1] == pytest.approx(k2[2], rel=1e-15)


def test_kernel_k2_bessel_dead_tail():
    ell = 0.01
    r = 1.0
    expect = 2 * ell ** 2 / r ** 2 + np.log(r / ell)
    _, k2, _ = _kernels([0.5 - (-0.5)], 1.0 / ell)
    assert k2[0] == pytest.approx(expect, abs=1e-10)


def test_kernel_k3_delegates_to_regular_form():
    ell = 0.2
    p = 1.0 / ell
    dt = np.array([0.5 - 0.1, -0.2 - 0.6, 0.0, 0.1 - 0.6, 0.6 - 0.1])
    _, _, k3 = _kernels(dt, p)
    # k3_reg depends on x/ell only, so p*dt at ell = 1 is the same point
    assert np.array_equal(k3, k3_reg(p * dt, 1.0))
    assert k3 == pytest.approx(k3_reg(dt, ell), rel=1e-14)
    assert k3[2] == 0.0
    assert k3[3] == -k3[4]


def test_kernels_are_the_line_greens_functions():
    # at mu = 1 and x = t - s (p = 1/ell) the solver's kernels are the
    # PDE-checked line Green's functions: sigma_yy of a dislocation is its
    # Cauchy term plus 2 k1/pi, both cross terms are logk/pi, and
    # m_yz of a disclination is ell k3/(2 pi) plus its Cauchy term
    mag = np.geomspace(1e-3, 50.0, 400)
    dislocation = DefectCharge(b=1.0, omega=0.0)
    disclination = DefectCharge(b=0.0, omega=1.0)
    for ell in (0.3, 1.0, 4.0):
        x = ell * np.concatenate([-mag[::-1], mag])
        k1, _, k3, logk = _normalized_kernels(x, 1.0 / ell)
        for nu in (0.0, 0.3, 0.5):
            mat = MaterialParams(mu=1.0, nu=nu, ell=ell)
            pairs = (
                (line_sigma_yy(x, dislocation, mat),
                 (3.0 - 2.0 * nu) / (2.0 * np.pi * (1.0 - nu) * x)
                 + 2.0 * k1 / np.pi),
                (line_sigma_yy(x, disclination, mat), logk / np.pi),
                (line_m_yz(x, dislocation, mat), logk / np.pi),
                (line_m_yz(x, disclination, mat),
                 ell * k3 / (2.0 * np.pi) - 2.0 * ell ** 2 / (np.pi * x)))
            for k, (got, want) in enumerate(pairs):
                err = np.abs(got - want).max() / np.abs(want).max()
                assert err <= 1e-14, (ell, nu, k, err)


def test_named_kernels_are_bitwise():
    # the solve's (k1, k3, log) and post-processing's (k1, k2, k3), formed
    # from their evaluator rows alone, are the kernels of the full call
    dt = np.linspace(-1.9, 1.9, 40)[:, None] - np.linspace(-1.0, 1.0, 7)
    for p in (0.3, 10.0, 100.0):
        full = dict(zip(("k1", "k2", "k3", "log"), _normalized_kernels(dt, p)))
        for names in (("k1", "k3", "log"), ("k1", "k2", "k3"), ("log",)):
            for name, got in zip(names, _normalized_kernels(dt, p, names)):
                assert np.array_equal(got, full[name]), (p, name)


def test_log_kernel_matches_mpmath():
    # the log block's kernel ln w - k2 = (2/w)(K1 - 1/w) to 1e-15 relative
    # against 40 digits, across the series, tail and far branches; ln w
    # less k2 formed in double precision loses up to 2.5e-8 past w = 40
    mp = pytest.importorskip("mpmath")
    w = np.geomspace(1e-6, 1e4, 241)
    logk = _normalized_kernels(w, 1.0)[3]
    with mp.workdps(40):
        x = [mp.mpf(float(wi)) for wi in w]
        want = [2 / xi * (mp.besselk(1, xi) - 1 / xi) for xi in x]
        err = max(abs(got / ref - 1) for got, ref in zip(logk, want))
    assert float(err) <= 1e-15


# ------------------------------------------------------------ log quadrature

def test_log_rule_exact_for_constant_density():
    # (pi/n) sum ln(p|t-s_i|) + G_n(t) = pi ln(p/2) at any interior t
    for n, p, t in ((16, 2.0, 0.37), (64, 10.0, -0.81)):
        d = Discretization.build(n)
        gn = log_quadrature_weight(t, d, p)
        quad_sum = np.pi / n * np.sum(np.log(p * np.abs(t - d.nodes))) + gn
        assert quad_sum == pytest.approx(np.pi * np.log(0.5 * p), abs=1e-13)


@pytest.mark.parametrize("n", [16, 32, 128, 129])
def test_log_weight_collapses_at_collocation_points(n):
    # product of (t_k - s_i) equals T_n(t_k)/2^(n-1): G_n(t_k) = -pi ln2/n,
    # the constant assemble uses in place of G_n
    p = 7.0
    d = Discretization.build(n)
    for tk in d.collocation:
        assert log_quadrature_weight(tk, d, p) == pytest.approx(
            -np.pi * np.log(2.0) / n, abs=1e-12)


def test_log_weight_symmetry_and_node_error():
    d = Discretization.build(16)
    assert log_quadrature_weight(0.3, d, 5.0) == pytest.approx(
        log_quadrature_weight(-0.3, d, 5.0), abs=1e-13)
    with pytest.raises(ValueError):
        log_quadrature_weight(float(d.nodes[3]), d, 5.0)


def _log_rule_value(fvals, d, p, t):
    n = d.n
    theta = (2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n)
    tprime = n * (-1.0) ** np.arange(n) / np.sin(theta)
    interp = np.cos(n * np.arccos(t)) * np.sum(
        fvals / ((t - d.nodes) * tprime))
    return np.pi / n * np.sum(fvals * np.log(p * np.abs(t - d.nodes))) \
        + log_quadrature_weight(t, d, p) * interp


def test_log_rule_linear_density_against_adaptive_oracle():
    # the corrected rule vs adaptive integration of the weakly singular
    # integrand; the residual is the plain-rule error of the subtracted
    # regular part, ~2e-5 at n = 32 and shrinking with n
    p = 10.0
    for n, tol in ((32, 5e-5), (128, 1e-6)):
        d = Discretization.build(n)
        t = float(d.collocation[0])
        val = _log_rule_value(d.nodes.copy(), d, p, t)

        def integrand(th):
            return np.cos(th) * np.log(p * np.abs(t - np.cos(th)))

        tht = np.arccos(t)
        o1, _ = integrate.quad(integrand, 0.0, tht, limit=400, points=[tht])
        o2, _ = integrate.quad(integrand, tht, np.pi, limit=400, points=[tht])
        assert val == pytest.approx(o1 + o2, abs=tol)


# ------------------------------------------------------------------ assembly

def _full_system(prob, disc):
    """The unreduced 2n x 2n collocation system, the reference for the
    parity-reduced one the solver builds.

    Unknowns [f(s_1)..f(s_n), g(s_1)..g(s_n)]; rows: the normal-stress
    condition at every collocation point, the couple-stress condition at
    every collocation point, then the closures sum f = 0 and sum g = 0.
    """
    n, p, nu = disc.n, prob.p, prob.material.nu
    s, t = disc.nodes, disc.collocation
    dt = t[:, None] - s[None, :]
    k1n, k2n, k3n, logk = _normalized_kernels(dt, p)
    gn = np.array([log_quadrature_weight(tk, disc, p) for tk in t])
    theta = (2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n)
    tprime = n * (-1.0) ** np.arange(n) / np.sin(theta)
    lagrange = np.cos(n * np.arccos(t))[:, None] / (dt * tprime[None, :])
    m = n - 1
    a_mat = np.zeros((2 * n, 2 * n))
    rhs = np.zeros(2 * n)
    a_mat[:m, :n] = (2.0 / n) * k1n \
        + (3.0 - 2.0 * nu) / (2.0 * (1.0 - nu) * n) / dt
    a_mat[:m, n:] = logk / n + gn[:, None] * lagrange / np.pi
    rhs[:m] = -1.0
    a_mat[m:2 * m, :n] = a_mat[:m, n:]
    a_mat[m:2 * m, n:] = -2.0 / (p * p * n) / dt + k3n / (2.0 * p * n)
    a_mat[2 * m, :n] = 1.0
    a_mat[2 * m + 1, n:] = 1.0
    return a_mat, rhs


@pytest.mark.parametrize("n", [16, 17, 128, 129, 256])
def test_kernel_blocks_change_no_bit(monkeypatch, n):
    # one row per block, three rows per block (a ragged last block at
    # every n here) and one block for all rows; the last block of odd n
    # holds couple-stress rows to its end, that of even n one row fewer
    disc = Discretization.build(n)
    for p in (0.3, 10.0, 100.0, 2.0 * n + 1.0):
        built = {}
        for block in (1, 3 * n, n * n):
            monkeypatch.setattr(sie, "_BLOCK", block)
            built[block] = _nu_free_system(disc, p)
        for block in (3 * n, n * n):
            for got, want in zip(built[block], built[1]):
                assert np.array_equal(got, want), (p, block)


def test_assemble_shape_and_closure_rows():
    for n in (16, 17):
        a_mat, rhs = assemble(_problem(), Discretization.build(n))
        nf = n // 2
        # n unknowns: f at the n//2 nodes s > 0, g at the (n+1)//2 s >= 0
        assert a_mat.shape == (n, n) and rhs.shape == (n,)
        # closure sum g = 0 over all n nodes: weight 2 on s > 0, 1 on s = 0
        closure = np.r_[np.zeros(nf), np.full(nf, 2.0), np.ones(n - 2 * nf)]
        assert np.array_equal(a_mat[-1], closure)
        # normal-stress rows at t >= 0, then couple-stress rows at t > 0
        assert np.all(rhs[:nf] == -1.0) and np.all(rhs[nf:] == 0.0)


@pytest.mark.parametrize("n", [16, 17, 64, 129])
def test_solution_satisfies_full_system(n):
    # every row of the unreduced system, equilibrated as the solver does,
    # including the rows the fold drops (couple stress at t <= 0, normal
    # stress at t < 0, the sum-f closure)
    d = Discretization.build(n)
    for p in (0.05, 1.0, 25.0):
        for nu in (0.0, 0.3, 0.5):
            sol = solve(_problem(nu, p), d)
            full, rhs = _full_system(sol.problem, d)
            scale = np.max(np.abs(full), axis=1)
            x = np.concatenate([sol.f_vals, sol.g_vals])
            res = np.abs(full @ x - rhs) / scale / np.linalg.norm(rhs / scale)
            assert res.max() < 1e-10, (n, p, nu, res.max())


def test_assemble_rhs_scales_with_tension():
    mat = MaterialParams(mu=1.0, nu=0.3, ell=0.1)
    prob = CrackProblem(half_length=1.0, remote_tension=1.0, material=mat)
    d = Discretization.build(16)
    _, rhs = assemble(prob, d)
    assert rhs[0] == -1.0   # nondimensional: -sigma0/sigma0


def test_classical_solution_is_linear_in_s():
    # the classical material (ell = 0) takes solve's degenerate branch
    # without a warning; its exact discrete solution is f = 2 (1-nu) s
    mat = MaterialParams(mu=1.0, nu=0.25, ell=0.0)
    prob = CrackProblem(half_length=1.0, remote_tension=1.0, material=mat)
    d = Discretization.build(64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve(prob, d)
    assert sol.classical_degenerate
    assert np.all(sol.g_vals == 0.0)
    assert np.allclose(sol.f_vals, 2.0 * (1.0 - 0.25) * d.nodes,
                       rtol=0.0, atol=1e-12)
    # assemble returns the system solved: the f-Cauchy block alone
    a_mat, rhs = assemble(prob, d)
    assert a_mat.shape == (32, 32)
    assert np.abs(a_mat @ sol.f_vals[:32] - rhs).max() < 1e-12
    # closed form K = sigma0 sqrt(pi a) = sqrt(pi)
    assert tip_quantities(sol).k_i / np.sqrt(np.pi) == pytest.approx(
        1.0, rel=0.0, abs=1e-12)


# --------------------------------------------------------------------- solve

def test_solution_symmetries_and_closure(solve_case):
    for n, p in ((128, 10.0), (129, 10.0), (16, 0.3), (17, 0.3), (17, 1e4)):
        sol = solve_case(0.3, p, n)
        f, g = sol.f_vals, sol.g_vals
        assert f.shape == g.shape == (n,)
        # closure sums
        scale = max(np.abs(f).max(), np.abs(g).max())
        assert abs(np.pi / n * np.sum(f)) < 1e-10 * scale
        assert abs(np.pi / n * np.sum(g)) < 1e-10 * scale
        # f odd, g even under s -> -s: exact, since the solver's unknowns
        # are f at s > 0 and g at s >= 0
        assert np.array_equal(f, -f[::-1])
        assert np.array_equal(g, g[::-1])
        assert n % 2 == 0 or f[n // 2] == 0.0


def test_solution_linearity_in_tension():
    # linear system, linear right-hand side: doubling sigma0 doubles every
    # physical observable exactly (densities are stored nondimensionally)
    from cscrack import crack_profiles

    mat = MaterialParams(mu=1.0, nu=0.3, ell=0.1)
    d = Discretization.build(32)
    sol1 = solve(CrackProblem(1.0, 1.0, mat), d)
    sol2 = solve(CrackProblem(1.0, 2.0, mat), d)
    assert np.array_equal(sol2.f_vals, sol1.f_vals)
    assert np.array_equal(sol2.g_vals, sol1.g_vals)
    assert tip_quantities(sol2).k_i == 2.0 * tip_quantities(sol1).k_i
    p1 = crack_profiles(sol1, m_samples=11)
    p2 = crack_profiles(sol2, m_samples=11)
    assert np.allclose(p2.delta_uy, 2.0 * p1.delta_uy, rtol=0.0, atol=0.0)


def test_disclination_density_vanishes_at_huge_size_ratio(solve_case):
    # a/ell = 1e4 surrogate for ell -> 0: classical degeneration with
    # identically zero rotation density
    sol = solve_case(0.3, 1e4, 128)
    assert sol.classical_degenerate
    assert np.all(sol.g_vals == 0.0)
    assert np.abs(sol.g_vals).max() <= 1e-6 * np.abs(sol.f_vals).max()


def test_disclination_density_vanishes_at_tiny_size_ratio(solve_case):
    # multiplying the couple-stress rows by p^2 leaves only the Cauchy
    # operator as p -> 0, forcing g towards zero
    sol = solve_case(0.3, 1e-2, 128)
    assert not sol.classical_degenerate
    assert np.abs(sol.g_vals).max() < 1e-3 * np.abs(sol.f_vals).max()


def test_degenerate_switch_warns():
    prob = _problem(p=1e4)
    with pytest.warns(RuntimeWarning, match="resolvability"):
        sol = solve(prob, Discretization.build(64))
    assert sol.classical_degenerate


def test_tiny_p_warns():
    prob = _problem(p=5e-4)
    with pytest.warns(RuntimeWarning, match="strained"):
        solve(prob, Discretization.build(16))


def test_solve_residual_is_tiny(solve_case):
    sol = solve_case(0.3, 10.0, 128)
    a_mat, rhs = assemble(sol.problem, sol.disc)
    assert a_mat.shape == (128, 128)
    # the reduced unknowns: f at the 64 nodes s > 0, g at the 64 s >= 0
    x = np.concatenate([sol.f_vals[:64], sol.g_vals[:64]])
    res = np.linalg.norm(a_mat @ x - rhs) / np.linalg.norm(rhs)
    assert res < 1e-10
    assert 0.0 <= sol.residual < 1e-10


def _kappa_1(a_mat):
    return np.linalg.norm(a_mat, 1) * np.linalg.norm(np.linalg.inv(a_mat), 1)


def test_condition_indicator_reported(solve_case):
    sol = solve_case(0.3, 10.0, 128)
    assert 1.0 < sol.condition < 1e6
    # the exact kappa_1 of the equilibrated matrix, from the solve's own
    # inverse
    for nu, p, n in ((0.3, 10.0, 128), (0.0, 0.01, 64), (0.5, 100.0, 129),
                     (0.25, 1.0, 32), (0.3, 250.0, 128)):
        sol = solve_case(nu, p, n)
        a_mat, _ = assemble(sol.problem, sol.disc)   # the folded n x n
        assert a_mat.shape == (n, n)
        kappa = _kappa_1(a_mat / np.max(np.abs(a_mat), axis=1)[:, None])
        assert sol.condition == pytest.approx(kappa, rel=1e-12), (nu, p)
    # past the degenerate switch: the folded Cauchy equation of f alone,
    # 1/(2(1-nu)n) [1/(t - s) - 1/(t + s)] at t_k >= 0 and s_i > 0,
    # equilibrated by rows like every other system
    for p, n in ((1e4, 64), (np.inf, 33)):
        sol = solve_case(0.3, p, n)
        assert sol.classical_degenerate
        t, s = sol.disc.collocation[:n // 2], sol.disc.nodes[:n // 2]
        a_cl = (1.0 / (t[:, None] - s[None, :])
                - 1.0 / (t[:, None] + s[None, :])) / (2.0 * 0.7 * n)
        a_cl /= np.max(np.abs(a_cl), axis=1)[:, None]
        kappa = _kappa_1(a_cl)
        assert sol.condition == pytest.approx(kappa, rel=1e-12), p


def _block_solve(a_mat, where):
    """The block solve of a 2 x 2 system with one f row and no nu term:
    b is -1/D on the f row and 0 below."""
    return next(_block_solves(a_mat.copy(), [(np.zeros((1, 1)), where)],
                              where))


def test_singular_or_ill_conditioned_system_is_a_solver_error():
    # a singular matrix (numpy's LinAlgError, from H or from the Schur
    # complement) and one past the 1e12 condition limit of the
    # equilibrated system are both numerical failures naming where they
    # arose
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SolverError, match="singular crack system at here"):
        _block_solve(singular, "here")
    with pytest.raises(SolverError, match="singular crack system at here"):
        _block_solve(np.array([[1.0, 0.0], [1.0, 0.0]]), "here")
    with pytest.raises(SolverError, match="ill-conditioned"):
        _block_solve(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]]), "here")
    # the rows equilibrate to the identity
    x, cond, residual = _block_solve(np.diag([2.0, 4.0]), "")
    assert x.tolist() == [-0.5, 0.0]
    assert (cond, residual) == (1.0, 0.0)


def _dense_reference(prob, disc):
    """x, kappa_1 and the equilibrated (A, b) from one dense inverse of
    the row-equilibrated :func:`assemble` system."""
    a_mat, rhs = assemble(prob, disc)
    scale = np.max(np.abs(a_mat), axis=1)
    a_eq, b = a_mat / scale[:, None], rhs / scale
    inverse = np.linalg.inv(a_eq)
    kappa = np.linalg.norm(a_eq, 1) * np.linalg.norm(inverse, 1)
    return inverse @ b, kappa, a_eq, b


_BLOCK_GRID = [(n, p) for n in (8, 9, 33, 128, 256)
               for p in (1e-6, 1e-3, 1.0, 20.0, 2 * n - 1, 2 * n + 1,
                         np.inf)]


@pytest.mark.parametrize("n, p", _BLOCK_GRID)
def test_block_solve_matches_dense_inverse(n, p):
    # the g-block solve against one dense inverse of the same system:
    # f, g and condition to 1e-12 relative, and residual is the relative
    # residual of the returned x in the whole equilibrated system
    disc = Discretization.build(n)
    nf, ng = n // 2, (n + 1) // 2
    for nu in (0.0, 0.3, 0.5):
        prob = CrackProblem(1.0, 1.0, MaterialParams(
            mu=1.0, nu=nu, ell=1.0 / p if np.isfinite(p) else 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sol = solve(prob, disc)
        x_ref, kappa, a_eq, b = _dense_reference(prob, disc)
        degenerate = a_eq.shape[0] == nf
        assert sol.classical_degenerate == degenerate
        f, g = sol.f_vals[:nf], sol.g_vals[:ng]
        x = f if degenerate else np.concatenate([f, g])
        for got, want in ((f, x_ref[:nf]), (g, x_ref[nf:])):
            if want.size:
                assert (np.abs(got - want).max()
                        <= 1e-12 * np.abs(want).max()), (nu, p)
        if degenerate:
            assert not np.any(sol.g_vals)
        assert sol.condition == pytest.approx(kappa, rel=1e-12), (nu, p)
        res = np.linalg.norm(a_eq @ x - b) / np.linalg.norm(b)
        assert sol.residual == pytest.approx(res, rel=1e-12, abs=1e-300)
        assert sol.residual < 1e-10


@pytest.mark.parametrize("n", (8, 9, 33, 128, 256))
def test_block_solve_pivots_are_well_conditioned(n):
    # the stability argument of the block solve: it inverts the
    # equilibrated g-block H and the Schur complement S of H in the
    # equilibrated system, and both stay well conditioned on the grid
    # (largest kappa_1 of H: 2.8e2 at n = 128, 5.5e2 at n = 256; of S:
    # 24 and 32)
    disc = Discretization.build(n)
    nf = n // 2
    for p in (1e-6, 1e-3, 1.0, 20.0, 2 * n - 1):
        for nu in (0.0, 0.3, 0.5):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                _, _, a_eq, _ = _dense_reference(_problem(nu, p), disc)
            h = a_eq[nf:, nf:]
            s = a_eq[:nf, :nf] - a_eq[:nf, nf:] @ np.linalg.solve(
                h, a_eq[nf:, :nf])
            assert _kappa_1(h) < 1e4, (p, nu)
            assert _kappa_1(s) < 1e3, (p, nu)
    # past the switch there is no g-block: S is the whole system
    base, cauchy = _nu_free_system(disc, 2.0 * n + 1.0)
    assert base.shape == cauchy.shape == (nf, nf)


def test_repeated_solves_are_bitwise_identical():
    # the README's promise: repeated runs give byte-identical summaries
    disc = Discretization.build(256)
    first = solve(_problem(0.3, 37.0), disc)
    for _ in range(9):
        sol = solve(_problem(0.3, 37.0), disc)
        assert sol.f_vals.tobytes() == first.f_vals.tobytes()
        assert sol.g_vals.tobytes() == first.g_vals.tobytes()
        assert sol.condition == first.condition


def test_shared_solves_match_independent_solves(monkeypatch):
    # what `cscrack sweep` does: the nus of one p share their kernels and
    # their g-block, so one _solve_shared call inverts H once (0 x 0 past
    # the switch at p = 96) and one Schur complement per nu
    d = Discretization.build(48)
    nus = (0.0, 0.3, 0.5, 0.3)
    inverses = []
    inv = np.linalg.inv

    def counted(matrix):
        inverses.append(matrix.shape)
        return inv(matrix)

    for p in (0.05, 1.0, 30.0, 200.0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "inv", counted)
                shared = _solve_shared([_problem(nu, p) for nu in nus], d)
            assert len(inverses) == 1 + len(nus), p
            inverses.clear()
            refs = [solve(_problem(nu, p), d) for nu in nus]
        for nu, sol, ref in zip(nus, shared, refs):
            assert sol.problem.material.nu == nu
            assert sol.classical_degenerate == ref.classical_degenerate
            for got, want in ((sol.f_vals, ref.f_vals),
                              (sol.g_vals, ref.g_vals)):
                scale = max(np.abs(want).max(), 1e-300)
                assert np.abs(got - want).max() <= 1e-13 * scale, (nu, p)
            tip, tip_ref = tip_quantities(sol), tip_quantities(ref)
            assert (tip.f1, tip.g1) == pytest.approx(
                (tip_ref.f1, tip_ref.g1), rel=1e-13, abs=1e-300)
            assert sol.condition == pytest.approx(ref.condition, rel=1e-13)
            assert sol.residual <= 1e-10
    with pytest.raises(ValueError, match="share a/ell"):
        _solve_shared([_problem(0.3, 1.0), _problem(0.3, 2.0)], d)


@pytest.mark.parametrize("p, bound", [(1.0, 3e-8), (10.0, 8e-6),
                                      (20.0, 3e-5)])
def test_tip_densities_against_converged_limits(p, bound):
    # the accuracy oracle's figure, max(|df(1)|, |dg(1)|/max(1, |g(1)|)),
    # at n = 128 against its converged limits (measured: 2.1e-8, 5.6e-6
    # and 2.2e-5); a more accurate rule tightens these bounds
    tool = _tool("accuracy_table")
    assert tool.NU == 0.3
    assert tool.error(p, 128) <= bound


def test_endpoint_self_convergence(solve_case):
    f1 = {}
    for n in (64, 128, 256):
        f1[n] = tip_quantities(solve_case(0.3, 10.0, n)).f1
    coarse = abs(f1[128] - f1[64]) / abs(f1[128])
    fine = abs(f1[256] - f1[128]) / abs(f1[256])
    assert fine < coarse < 1e-4
    assert fine < 1e-5


def test_stiffening_trend(solve_case):
    # max opening decreases as a/ell decreases
    from cscrack import crack_profiles

    openings = []
    for p in (20.0, 10.0, 5.0, 2.0):
        prof = crack_profiles(solve_case(0.3, p, 96))
        openings.append(prof.delta_uy.max())
    assert np.all(np.diff(openings) < 0.0)

