"""Physical observables from a solved density field.

The solver returns nodal values of the regular density parts f, g at the
Chebyshev nodes.  Everything here expands them, as the rows f, g of one
array, in Chebyshev series by one cosine transform (exact for the
interpolating polynomial) and evaluates each basis table once for both:

* crack-face opening and rotation profiles, by term-wise weighted
  integration of the series;
* normal stress and couple-stress ahead of the tip, using closed forms for
  the weighted Cauchy and logarithmic integrals outside the crack so the
  inverse-square-root blow-up is produced analytically;
* the tip quantities: f(1), g(1) by summing the series at s = 1, and the
  stress intensity factor and energy release rate, as their classical
  closed forms times ratios read from f(1), g(1);
* the classical-elasticity baseline: the same post-processing applied to
  the solution of the classical (ell = 0) crack, beside its closed forms.

Tip quantities: since int w(s) f(s)/(t-s) ds -> pi f(1)/sqrt(2(t-1)) as
t -> 1+ and x - a = a (t-1), the definition K_I = lim sqrt(2 pi (x-a))
sigma_yy(x, 0) and the energy release rate J give, against the classical
K_cl = sigma0 sqrt(pi a) and J_cl = pi (1-nu) sigma0^2 a / (2 mu),

    K_I / K_cl = c f(1) / (2 (1-nu)),
    J / J_cl = (K_I / K_cl)^2 / c + (g(1)/p)^2 / (1-nu).

These ratios hold no a, sigma0 or mu, so they keep their digits at any
scale.  The Cauchy factor c is that of the system solved
(``sie._cauchy_factor``): 3 - 2nu, or 1 for a solution marked
classical-degenerate, whose g is identically zero; the classical crack's
f(1) = 2(1-nu) gives both ratios 1.  Sampled quantities run in blocks of
samples through ``greens._in_blocks``, which bounds their work arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .greens import _in_blocks
from .sie import (CrackProblem, DensitySolution, Discretization,
                  _cauchy_factor, _normalized_kernels, solve)

__all__ = [
    "CrackProfiles",
    "TipQuantities",
    "ClassicalBaseline",
    "crack_profiles",
    "tip_quantities",
    "stress_ahead",
    "classical_baseline",
]


@dataclass(frozen=True)
class CrackProfiles:
    """Sampled opening displacement and rotation jumps along the crack."""

    x_samples: np.ndarray
    delta_uy: np.ndarray
    delta_omega: np.ndarray


@dataclass(frozen=True)
class TipQuantities:
    """Endpoint density values with the derived tip observables: K_I and
    J, and their ratios to the classical crack's (same a, sigma0, mu, nu).
    """

    f1: float
    g1: float
    k_i: float
    j: float
    k_ratio: float
    j_ratio: float


@dataclass(frozen=True)
class ClassicalBaseline:
    """Closed-form classical references and their discrete counterparts."""

    k_i: float
    j: float
    x_samples: np.ndarray
    cod: np.ndarray
    k_i_discrete: float
    cod_discrete: np.ndarray


def _jump_series(coeffs: np.ndarray, theta):
    """sum_{j>=1} (c_j / j) sin(j theta) for each row of ``coeffs``, from
    one sine table per block: the weighted antiderivative of the density
    interpolant, vanishing identically at theta = 0, pi."""
    j = np.arange(1, coeffs.shape[-1])
    weights = coeffs[..., 1:] / j
    return _in_blocks(lambda th: weights @ np.sin(np.outer(j, th)), theta)


def crack_profiles(sol: DensitySolution, m_samples: int = 201) -> CrackProfiles:
    """Opening displacement and rotation jumps sampled inside the crack.

    The closure rows force the j = 0 coefficients to vanish, so both
    profiles are pure sine series in theta = arccos(x/a) and are exactly
    zero at the crack tips.
    """
    if m_samples < 3:
        raise ValueError("need at least 3 profile samples")
    prob = sol.problem
    a = prob.half_length
    scale = prob.remote_tension / prob.material.mu
    theta = np.linspace(np.pi, 0.0, m_samples + 2)[1:-1]   # x increasing
    jump_f, jump_g = _jump_series(sol.coefficients, theta)
    return CrackProfiles(x_samples=a * np.cos(theta),
                         delta_uy=a * scale * jump_f,
                         delta_omega=-scale * jump_g)


def _classical_closed_forms(problem: CrackProblem):
    """(K, J) of the classical crack with the same a, sigma0, mu and nu:
    K = sigma0 sqrt(pi a) and J = pi (1-nu) sigma0^2 a / (2 mu), which is
    pi (1-nu^2) sigma0^2 a / E with E = 2 mu (1+nu).  J is formed with
    sigma0/mu first, so it keeps its digits whenever it is a normal float
    (sigma0^2 alone may overflow or underflow), and K with sqrt(pi) apart
    from sqrt(a) (pi a overflows for a > 5.7e307)."""
    a, sigma0 = problem.half_length, problem.remote_tension
    mat = problem.material
    return (sigma0 * (np.sqrt(np.pi) * np.sqrt(a)),
            0.5 * np.pi * (1.0 - mat.nu) * a * (sigma0 / mat.mu) * sigma0)


def tip_quantities(sol: DensitySolution) -> TipQuantities:
    """f(1), g(1), K_I, J and the ratios K_I/K_cl, J/J_cl: the only place
    where the endpoint values become tip quantities.

    f(1) and g(1) are the sums of the Chebyshev coefficients: the
    interpolation polynomial evaluated at s = 1 (T_j(1) = 1 for every j),
    i.e. the standard endpoint extraction; it reproduces polynomial data
    exactly.
    """
    prob = sol.problem
    nu = prob.material.nu
    f1, g1 = map(float, np.sum(sol.coefficients, axis=-1))
    c = _cauchy_factor(prob, sol.disc.n)
    k_ratio = c * f1 / (2.0 * (1.0 - nu))
    lg = g1 / prob.p                  # (ell/a) g(1); 0 at ell = 0
    j_ratio = k_ratio * k_ratio / c + lg * lg / (1.0 - nu)
    k_cl, j_cl = _classical_closed_forms(prob)
    return TipQuantities(f1=f1, g1=g1, k_i=k_cl * k_ratio, j=j_cl * j_ratio,
                         k_ratio=k_ratio, j_ratio=j_ratio)


def _exterior(coeffs: np.ndarray, e: np.ndarray, side, p):
    """(cauchy, log): int_-1^1 w fhat/(t-s) ds and int_-1^1 w fhat
    ln(p|t-s|) ds at t = side (1+e), e > 0 past the tip at side = +-1, one
    row per row of ``coeffs``, exactly for the interpolants.  With
    rt = sqrt(t^2-1) = sqrt(e(2+e)) and u = |t| + rt, neither of which
    cancels at any e, and one power table of q = t - side rt = side/u, they are

        pi sum_j c_j q^j / (side rt)  and
        c_0 pi ln(p u/2) - pi sum_{j>=1} c_j q^j / j.

    log is None for p None (a classical-degenerate solution: p may be inf).
    """
    rt = np.sqrt(e * (2.0 + e))
    u = 1.0 + e + rt
    j = np.arange(coeffs.shape[-1])
    powers = (side / u) ** j[:, None]
    cauchy = np.pi * (coeffs @ powers) / (side * rt)
    if p is None:
        return cauchy, None
    log = (coeffs[:, :1] * np.pi * np.log(0.5 * p * u)
           - np.pi * ((coeffs[:, 1:] / j[1:]) @ powers[1:]))
    return cauchy, log


def _beyond_tip(sol: DensitySolution, e: np.ndarray, side):
    """(sigma_yy, m_yz) on the crack line at x = side a (1+e), e > 0 past
    the tip at side = +-1 (or one side per e).  Every term is formed from
    e, never from x, so no sample near the tip loses digits: one grid serves
    every a/ell.  The Cauchy and log integrals are closed forms
    (:func:`_exterior`), so the inverse-square-root singularity is exact;
    the regular kernels use the plain node sums."""
    prob, n, s = sol.problem, sol.disc.n, sol.disc.nodes
    a, sigma0, nu = prob.half_length, prob.remote_tension, prob.material.nu
    f, g = sol.f_vals, sol.g_vals
    cauchy_f = _cauchy_factor(prob, n) / (2.0 * np.pi * (1.0 - nu))
    # couple-stress and regular-kernel terms only where resolved, p <= 2n
    p = None if sol.classical_degenerate else prob.p

    def rows(e, side):
        cauchy, log = _exterior(sol.coefficients, e, side, p)
        syy = 1.0 + cauchy_f * cauchy[0]
        if p is None:
            return sigma0 * syy, np.zeros_like(syy)
        k1n, k2n, k3n, _ = _normalized_kernels(
            (side * (1.0 + e))[:, None] - s[None, :], p)
        syy = (syy + log[1] / np.pi
               + (2.0 / n) * (k1n @ f) - (1.0 / n) * (k2n @ g))
        myz = sigma0 * a * (
            -2.0 / (np.pi * p * p) * cauchy[1]
            + log[0] / np.pi
            - (1.0 / n) * (k2n @ f)
            + 1.0 / (2.0 * p * n) * (k3n @ g))
        return sigma0 * syy, myz

    return _in_blocks(rows, e, np.broadcast_to(side, e.shape))


def stress_ahead(sol: DensitySolution, x):
    """(sigma_yy, m_yz) on the crack line outside the crack, |x| > a: those
    of :func:`_beyond_tip` at e = (|x| - a)/a, whose difference is exact
    for |x| <= 2a.  A scalar x gives floats."""
    x = np.asarray(x, dtype=float)
    a, xs = sol.problem.half_length, np.atleast_1d(x)
    if not np.all(np.abs(xs) > a):      # NaN included
        raise ValueError("stress_ahead requires |x| > a")
    syy, myz = _beyond_tip(sol, (np.abs(xs) - a) / a, np.sign(xs))
    return (float(syy[0]), float(myz[0])) if x.ndim == 0 else (syy, myz)


def classical_baseline(problem: CrackProblem, n: int = 128,
                       m_samples: int = 201) -> ClassicalBaseline:
    """Closed-form classical crack quantities plus their discrete twins.

    The closed forms are K and J of :func:`_classical_closed_forms` and
    the elliptical opening delta u = 2 (1-nu) sigma0 sqrt(a^2 - x^2)/mu.
    The discrete values post-process :func:`solve`'s solution of the same
    crack at ell = 0 (the pure-Cauchy collocation system) with
    :func:`tip_quantities` and :func:`crack_profiles`; agreement
    validates the Cauchy quadrature and the post-processing in isolation.
    """
    mat = problem.material
    k_closed, j_closed = _classical_closed_forms(problem)
    sol = solve(replace(problem, material=replace(mat, ell=0.0)),
                Discretization.build(n))
    prof = crack_profiles(sol, m_samples)
    x, a = prof.x_samples, problem.half_length
    # sqrt(a - x) sqrt(a + x): a^2 overflows for a > 1.34e154, and
    # a^2 - x^2 cancels near the tips
    cod = (2.0 * (1.0 - mat.nu) * problem.remote_tension / mat.mu
           * np.sqrt(a - x) * np.sqrt(a + x))
    return ClassicalBaseline(k_i=float(k_closed), j=float(j_closed),
                             x_samples=x, cod=cod,
                             k_i_discrete=tip_quantities(sol).k_i,
                             cod_discrete=prof.delta_uy)
