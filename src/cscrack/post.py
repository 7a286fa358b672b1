"""Physical observables from a solved density field.

The solver returns nodal values of the regular density parts f, g at the
Chebyshev nodes.  Everything here expands them in Chebyshev series (the
discrete cosine transform of the nodal values reproduces exactly the
interpolating polynomial) and evaluates:

* crack-face opening and rotation profiles, by term-wise weighted
  integration of the series;
* the endpoint values f(+-1), g(+-1), by summing the series at the ends
  (the same number the classic endpoint-interpolation recipe yields);
* normal stress and couple-stress ahead of the tip, using closed forms for
  the weighted Cauchy and logarithmic integrals outside the crack so the
  inverse-square-root blow-up is produced analytically;
* the stress intensity factor and the energy release rate, as their
  classical closed forms times ratios read from f(1), g(1);
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
f(1) = 2(1-nu) gives both ratios 1.  Sampled quantities are evaluated in
row blocks of ``greens._BLOCK`` samples, which bounds their work arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .greens import _BLOCK
from .sie import (CrackProblem, DensitySolution, Discretization,
                  _cauchy_factor, _normalized_kernels,
                  chebyshev_coefficients, solve)

__all__ = [
    "CrackProfiles",
    "TipQuantities",
    "ClassicalBaseline",
    "chebyshev_coefficients",
    "crack_profiles",
    "endpoint_values",
    "tip_quantities",
    "stress_ahead",
    "stress_intensity_factor",
    "j_integral",
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


def _in_blocks(rows, t):
    """``rows`` (an array, or a tuple of them) on blocks of ``_BLOCK``
    samples of the 1-D array t, joined along the samples: the m x n work
    arrays of ``rows`` stay bounded in m."""
    return np.concatenate([rows(t[lo:lo + _BLOCK])
                           for lo in range(0, t.size or 1, _BLOCK)], axis=-1)


def _jump_series(coeffs: np.ndarray, theta):
    """sum_{j>=1} (c_j / j) sin(j theta): the weighted antiderivative of
    the density interpolant, vanishing identically at theta = 0, pi."""
    j = np.arange(1, coeffs.size)
    return _in_blocks(lambda th: np.sin(np.outer(th, j)) @ (coeffs[1:] / j),
                      theta)


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
    cf, cg = sol.coefficients
    theta = np.linspace(np.pi, 0.0, m_samples + 2)[1:-1]   # x increasing
    x = a * np.cos(theta)
    delta_uy = a * scale * _jump_series(cf, theta)
    delta_omega = -scale * _jump_series(cg, theta)
    return CrackProfiles(x_samples=x, delta_uy=delta_uy,
                         delta_omega=delta_omega)


def endpoint_values(sol: DensitySolution):
    """(f(1), g(1)) of the density interpolants, by series summation.

    Summing the Chebyshev coefficients is the interpolation polynomial
    evaluated at s = 1 (T_j(1) = 1 for every j), i.e. the standard
    endpoint extraction; it reproduces polynomial data exactly.
    """
    cf, cg = sol.coefficients
    return float(np.sum(cf)), float(np.sum(cg))


def _classical_closed_forms(problem: CrackProblem):
    """(K, J) of the classical crack with the same a, sigma0, mu and nu:
    K = sigma0 sqrt(pi a) and J = pi (1-nu) sigma0^2 a / (2 mu), which is
    pi (1-nu^2) sigma0^2 a / E with E = 2 mu (1+nu)."""
    a, sigma0 = problem.half_length, problem.remote_tension
    mat = problem.material
    return (sigma0 * np.sqrt(np.pi * a),
            np.pi * (1.0 - mat.nu) * sigma0 * sigma0 * a / (2.0 * mat.mu))


def tip_quantities(sol: DensitySolution) -> TipQuantities:
    """f(1), g(1), K_I, J and the ratios K_I/K_cl, J/J_cl: the only place
    where the endpoint values become tip quantities."""
    prob = sol.problem
    nu = prob.material.nu
    f1, g1 = endpoint_values(sol)
    c = _cauchy_factor(prob, sol.disc.n)
    k_ratio = c * f1 / (2.0 * (1.0 - nu))
    lg = g1 / prob.p                  # (ell/a) g(1); 0 at ell = 0
    j_ratio = k_ratio * k_ratio / c + lg * lg / (1.0 - nu)
    k_cl, j_cl = _classical_closed_forms(prob)
    return TipQuantities(f1=f1, g1=g1, k_i=k_cl * k_ratio, j=j_cl * j_ratio,
                         k_ratio=k_ratio, j_ratio=j_ratio)


def stress_intensity_factor(sol: DensitySolution) -> float:
    """Mode-I stress intensity factor (see :func:`tip_quantities`)."""
    return tip_quantities(sol).k_i


def j_integral(sol: DensitySolution) -> float:
    """Energy release rate (see :func:`tip_quantities`)."""
    return tip_quantities(sol).j


def _exterior_cauchy(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """int_-1^1 w(s) fhat(s)/(t-s) ds for |t| > 1, exactly for the
    interpolant: pi * sum_j c_j q^j / (sgn(t) sqrt(t^2-1)),
    q = t - sgn(t) sqrt(t^2-1)."""
    rt = np.sqrt(t * t - 1.0)
    sg = np.sign(t)
    q = t - sg * rt
    powers = q[:, None] ** np.arange(coeffs.size)[None, :]
    return np.pi * (powers @ coeffs) / (sg * rt)


def _exterior_log(coeffs: np.ndarray, t: np.ndarray, p: float) -> np.ndarray:
    """int_-1^1 w(s) fhat(s) ln(p|t-s|) ds for |t| > 1, exactly for the
    interpolant: c_0 pi ln(p(|t|+rt)/2) - pi sum_{j>=1} c_j q^j / j."""
    rt = np.sqrt(t * t - 1.0)
    sg = np.sign(t)
    q = t - sg * rt
    j = np.arange(1, coeffs.size)
    powers = q[:, None] ** j[None, :]
    out = coeffs[0] * np.pi * np.log(0.5 * p * (np.abs(t) + rt))
    out = out - np.pi * (powers @ (coeffs[1:] / j))
    return out


def stress_ahead(sol: DensitySolution, x):
    """(sigma_yy, m_yz) on the crack line outside the crack, |x| > a.

    The weighted Cauchy and logarithmic integrals of the density
    interpolants are evaluated in closed form, so the inverse-square-root
    tip singularity is exact; the regular kernels use the plain node sums.
    """
    prob = sol.problem
    a = prob.half_length
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    t = np.atleast_1d(x / a)
    if np.any(np.abs(t) <= 1.0):
        raise ValueError("stress_ahead requires |x| > a")

    nu = prob.material.nu
    sigma0 = prob.remote_tension
    n = sol.disc.n
    s = sol.disc.nodes
    f, g = sol.f_vals, sol.g_vals
    cf, cg = sol.coefficients

    def rows(t):
        syy = (1.0 + _cauchy_factor(prob, n) / (2.0 * np.pi * (1.0 - nu))
               * _exterior_cauchy(cf, t))
        myz = np.zeros_like(syy)
        if not sol.classical_degenerate:
            # the couple-stress and regular-kernel terms, resolved for p <= 2n
            p = prob.p
            k1n, k2n, k3n, _ = _normalized_kernels(t[:, None] - s[None, :], p)
            syy = (syy + _exterior_log(cg, t, p) / np.pi
                   + (2.0 / n) * (k1n @ f) - (1.0 / n) * (k2n @ g))
            myz = sigma0 * a * (
                -2.0 / (np.pi * p * p) * _exterior_cauchy(cg, t)
                + _exterior_log(cf, t, p) / np.pi
                - (1.0 / n) * (k2n @ f)
                + 1.0 / (2.0 * p * n) * (k3n @ g))
        return sigma0 * syy, myz

    syy, myz = _in_blocks(rows, t)
    if scalar:
        return float(syy[0]), float(myz[0])
    return syy, myz


def classical_baseline(problem: CrackProblem, n: int = 128,
                       m_samples: int = 201) -> ClassicalBaseline:
    """Closed-form classical crack quantities plus their discrete twins.

    The closed forms are K and J of :func:`_classical_closed_forms` and
    the elliptical opening delta u = 2 (1-nu) sigma0 sqrt(a^2 - x^2)/mu.
    The discrete values post-process :func:`solve`'s solution of the same
    crack at ell = 0 (the pure-Cauchy collocation system) with
    :func:`stress_intensity_factor` and :func:`crack_profiles`; agreement
    validates the Cauchy quadrature and the post-processing in isolation.
    """
    mat = problem.material
    k_closed, j_closed = _classical_closed_forms(problem)
    sol = solve(replace(problem, material=replace(mat, ell=0.0)),
                Discretization.build(n))
    prof = crack_profiles(sol, m_samples)
    x, a = prof.x_samples, problem.half_length
    cod = (2.0 * (1.0 - mat.nu) * problem.remote_tension / mat.mu
           * np.sqrt(a * a - x * x))
    return ClassicalBaseline(k_i=float(k_closed), j=float(j_closed),
                             x_samples=x, cod=cod,
                             k_i_discrete=stress_intensity_factor(sol),
                             cod_discrete=prof.delta_uy)
