"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every criterion is asserted at its stated tolerance.
"""

import numpy as np
import pytest

from cscrack import (DefectCharge, Discretization, MaterialParams,
                     classical_baseline, crack_profiles, full_field,
                     line_m_yz, log_quadrature_weight, stress_ahead,
                     tip_quantities)

from _fd import CachedField, equilibrium_residuals
from conftest import _solve_case


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number} [{status}] {detail}"
    print(line)
    assert ok, line


def _k_ratio(nu, p, n=128):
    sol = _solve_case(nu, p, n)
    return tip_quantities(sol).k_i / np.sqrt(np.pi)


def _j_ratio(nu, p, n=128):
    sol = _solve_case(nu, p, n)
    return tip_quantities(sol).j / (0.5 * np.pi * (1.0 - nu))


def test_criterion_1_sif_ratios_at_p20():
    targets = {0.5: 1.18, 0.25: 1.243, 0.0: 1.295}
    tol = 0.005
    values = {nu: _k_ratio(nu, 20.0) for nu in targets}
    ok = all(abs(values[nu] - targets[nu]) <= tol for nu in targets)
    detail = "; ".join(
        f"nu={nu}: K/Kcl={values[nu]:.4f} (target {targets[nu]} +/- {tol})"
        for nu in targets)
    _report(1, ok, detail)


def test_criterion_2_displacement_stiffening():
    sol = _solve_case(0.3, 5.0, 128)
    prof = crack_profiles(sol, m_samples=201)
    classical = 2.0 * 0.7 * np.sqrt(1.0 - prof.x_samples ** 2)
    reduction = 1.0 - prof.delta_uy.max() / classical.max()
    bound_ok = bool(np.all(prof.delta_uy <= classical + 1e-12))
    ok = abs(reduction - 0.30) <= 0.05 and bound_ok
    _report(2, ok, f"max-opening reduction at a/l=5: {100 * reduction:.1f}% "
                   f"(target 30 +/- 5); classical pointwise upper bound: "
                   f"{bound_ok}")


def test_criterion_3_lower_bound_ratios():
    oks, parts = [], []
    for nu in (0.0, 0.3, 0.5):
        target = 1.0 / (3.0 - 2.0 * nu)
        sol = _solve_case(nu, 1e-2, 128)
        prof = crack_profiles(sol, m_samples=101)
        cod_ratio = prof.delta_uy.max() / (2.0 * (1.0 - nu))
        j_ratio = _j_ratio(nu, 1e-2)
        oks.append(abs(cod_ratio / target - 1.0) <= 0.02
                   and abs(j_ratio / target - 1.0) <= 0.02)
        parts.append(f"nu={nu}: COD {cod_ratio:.5f}, J {j_ratio:.5f} "
                     f"(target {target:.5f} +/- 2%)")
    _report(3, all(oks), "; ".join(parts))


def test_criterion_4_classical_degeneration():
    k_ratio = _k_ratio(0.3, 1e4)
    j_ratio = _j_ratio(0.3, 1e4)
    mat = MaterialParams(mu=1.0, nu=0.3, ell=0.0)
    from cscrack import CrackProblem

    base = classical_baseline(
        CrackProblem(half_length=1.0, remote_tension=1.0, material=mat),
        n=128)
    disc_err = abs(base.k_i_discrete - base.k_i) / base.k_i
    ok = (abs(k_ratio - 1.0) <= 0.01 and abs(j_ratio - 1.0) <= 0.01
          and disc_err <= 1e-6)
    _report(4, ok, f"a/l=1e4: K/Kcl={k_ratio:.6f}, J/Jcl={j_ratio:.6f} "
                   f"(1 +/- 0.01); discrete classical K rel err "
                   f"{disc_err:.2e} (<= 1e-6)")


def test_criterion_5_singularity_exponents():
    sol = _solve_case(0.3, 10.0, 128)
    xbar = np.geomspace(1e-6, 1e-4, 13)
    syy, myz = stress_ahead(sol, 1.0 + xbar)
    exp_s = np.polyfit(np.log(xbar), np.log(syy - 1.0), 1)[0]
    exp_m = np.polyfit(np.log(xbar), np.log(np.abs(myz)), 1)[0]
    ok = abs(exp_s + 0.5) <= 0.01 and abs(exp_m + 0.5) <= 0.01
    _report(5, ok, f"fitted exponents: sigma_yy-sigma0 {exp_s:.4f}, "
                   f"m_yz {exp_m:.4f} (target -0.5 +/- 0.01)")


def test_criterion_6_monotonicity():
    ell_over_a = np.geomspace(0.005, 10.0, 12)
    oks, parts = [], []
    for nu in (0.0, 0.25, 0.5):
        ks = np.array([_k_ratio(nu, 1.0 / la) for la in ell_over_a])
        js = np.array([_j_ratio(nu, 1.0 / la) for la in ell_over_a])
        k_mono = bool(np.all(np.diff(ks) < 0.0))
        j_mono = bool(np.all(np.diff(js) < 0.0))
        j_below = bool(np.all(js < 1.0))
        oks.append(k_mono and j_mono and j_below)
        parts.append(f"nu={nu}: K decr {k_mono}, J decr {j_mono}, "
                     f"J<Jcl {j_below}")
    _report(6, all(oks), "; ".join(parts))


def test_criterion_7_greens_function_suite():
    mat = MaterialParams(mu=1.0, nu=0.3, ell=1.0)
    charge = DefectCharge(b=0.7, omega=0.9)
    ux = CachedField(lambda x, y: full_field(x, y, charge, mat).ux)
    uy = CachedField(lambda x, y: full_field(x, y, charge, mat).uy)
    grid = [(0.9, 0.7), (1.5, 0.8), (-3.0, 1.2), (2.0, 2.0), (5.0, 3.0),
            (-6.0, 4.0), (0.5, 8.5)]
    worst = 0.0
    for x, y in grid:
        h = max(0.01, 0.005 * np.hypot(x, y))
        rx, ry = equilibrium_residuals(ux, uy, x, y, mat.nu, mat.ell, h)
        worst = max(worst, rx, ry)
    pde_ok = worst < 1e-4

    # boundary traces on y = 0+ in the zero-at-positive-axis gauge:
    # dislocation jump conditions and disclination rotation jump; the
    # disclination's normal displacement is the rigid rotation -Om x/4
    trace_err = 0.0
    disl, disc = DefectCharge(b=1.0), DefectCharge(omega=1.0)
    for x in (0.5, 2.0, 10.0):
        st = full_field(x, 0.0, disl, mat)
        stn = full_field(-x, 0.0, disl, mat)
        trace_err = max(trace_err, abs(st.uy), abs(stn.uy - 0.5),
                        abs(st.omega), abs(st.syx))
        sd = full_field(x, 0.0, disc, mat)
        sdn = full_field(-x, 0.0, disc, mat)
        trace_err = max(trace_err, abs(sd.uy + 0.25 * x),
                        abs(sd.omega), abs(sdn.omega + 0.5), abs(sd.syx))
    trace_ok = trace_err < 1e-6

    far = max(abs(line_m_yz(50.0, disc, mat) + 1.0),
              abs(line_m_yz(-50.0, disc, mat) - 1.0))
    far_ok = far < 1e-6
    ok = pde_ok and trace_ok and far_ok
    _report(7, ok, f"max PDE residual {worst:.2e} (<1e-4); trace error "
                   f"{trace_err:.2e} (<1e-6); m_yz far-field error "
                   f"{far:.2e} (<1e-6)")


def test_criterion_8_quadrature_suite():
    n = 16
    d = Discretization.build(n)
    exact_err = 0.0
    for m in range(2 * n):
        approx = np.pi / n * np.sum(d.nodes ** m)
        exact = 0.0 if m % 2 else np.pi * np.prod(np.arange(1, m, 2)) \
            / np.prod(np.arange(2, m + 1, 2))
        exact_err = max(exact_err, abs(approx - exact))
    gc_ok = exact_err < 1e-12

    d128 = Discretization.build(128)
    dt = d128.collocation[:, None] - d128.nodes[None, :]
    pv = np.max(np.abs(np.sum(1.0 / dt, axis=1))
                / np.sum(np.abs(1.0 / dt), axis=1))
    pv_ok = pv < 1e-12

    p = 10.0
    log_err = 0.0
    for t in (0.3, -0.62):
        rule = np.pi / n * np.sum(np.log(p * np.abs(t - d.nodes))) \
            + log_quadrature_weight(t, d, p)
        log_err = max(log_err, abs(rule - np.pi * np.log(0.5 * p)))
    log_ok = log_err < 1e-12
    ok = gc_ok and pv_ok and log_ok
    _report(8, ok, f"GC exactness err {exact_err:.2e}; PV identity "
                   f"{pv:.2e} (<1e-12); log-rule constant err "
                   f"{log_err:.2e}")


def test_criterion_9_self_convergence():
    vals = {}
    for n in (128, 256):
        tip = tip_quantities(_solve_case(0.3, 10.0, n))
        vals[n] = np.array([tip.f1, tip.g1, tip.k_i, tip.j])
    rel = np.abs(vals[256] - vals[128]) / np.abs(vals[256])
    ok = bool(np.all(rel < 1e-5))
    _report(9, ok, "rel changes n=128->256 at a/l=10: "
                   f"f1 {rel[0]:.2e}, g1 {rel[1]:.2e}, K {rel[2]:.2e}, "
                   f"J {rel[3]:.2e} (< 1e-5)")
