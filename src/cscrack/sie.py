"""Assembly and solution of the coupled crack integral equations.

A traction-free mode-I crack of half-length ``a`` under remote tension
``sigma0`` is represented by continuous distributions of climb dislocations
(density B) and constrained wedge disclinations (density W) along the crack
line.  Requiring zero normal stress and zero couple-stress on the faces
gives two coupled singular integral equations with a Cauchy kernel, a
logarithmic kernel and three regular kernels k1, k2, k3, closed by the
single-valuedness conditions int B = int W = 0.

Both densities carry the inverse-square-root endpoint factor, so with
B = f(s)/sqrt(1-s^2), W = g(s)/sqrt(1-s^2) (s = xi/a) the system is
discretized by Gauss-Chebyshev quadrature: integration nodes at the zeros
of T_n, collocation at the zeros of U_{n-1}, and a quadrature correction
G_n(t) for the logarithmic kernel that makes the log rule exact for
constant densities (see :func:`log_quadrature_weight`).

Mode-I symmetry makes f exactly odd and g exactly even, so half of the
2n collocation equations repeat the other half.  The system solved is the
parity-reduced one, square n x n and built directly: unknowns f at the
nodes s > 0 and g at s >= 0, normal-stress rows at t >= 0, couple-stress
rows at t > 0 (the one at t = 0 vanishes identically) and the sum-g
closure (the sum-f closure holds by oddness).  Each kernel is evaluated
once, at t - s and t + s for the kept t and s.  The full nodal f and g
follow by odd and even extension.

Everything is assembled in nondimensional form (mu = a = sigma0 = 1); the
only material inputs are nu and p = a/ell.  Post-processing rescales.

Extreme size ratios: for p above roughly 2n the couple-stress kernels act
below quadrature resolution and the log-rule correction no longer matches
the (by then logarithmic) k2 sums, which visibly pollutes the solution.
For p > 2n the system is therefore the classical degenerate one: the
f-Cauchy block of the same fold, with Cauchy factor 1 in place of 3 - 2nu
(see :func:`_cauchy_factor`), no g unknowns and g identically zero.  It is
equilibrated, factored and checked like every other system, and the
solution is marked so that post-processing takes the same factor.  The
classical material (ell = 0, p = inf) takes this branch without a
warning, so the classical crack is solved and post-processed like any
other.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import linalg as _linalg

from .greens import MaterialParams
from .specfun import _regularised, int_k0

__all__ = [
    "CrackProblem",
    "Discretization",
    "DensitySolution",
    "SolverError",
    "chebyshev_coefficients",
    "log_quadrature_weight",
    "assemble",
    "solve",
]

# Condition-number ceiling past which solve() refuses the system.
_COND_LIMIT = 1e12
# Below this a/ell the continuum premise a >> ell is strained.
_P_WARN = 1e-3


class SolverError(RuntimeError):
    """Numerical failure of the density solve, carrying (n, p, nu)."""


@dataclass(frozen=True)
class CrackProblem:
    """One crack configuration: half-length, remote tension, material."""

    half_length: float
    remote_tension: float
    material: MaterialParams

    def __post_init__(self):
        if not 0.0 < self.half_length < np.inf:
            raise ValueError("half_length must be positive and finite")
        if not np.isfinite(self.remote_tension):
            raise ValueError("remote_tension must be finite")

    @property
    def p(self) -> float:
        """Governing size ratio a/ell (inf for the classical material)."""
        if self.material.ell == 0.0:
            return np.inf
        return self.half_length / self.material.ell


@dataclass(frozen=True)
class Discretization:
    """Gauss-Chebyshev integration nodes and collocation points."""

    n: int
    nodes: np.ndarray = field(repr=False)        # zeros of T_n, size n
    collocation: np.ndarray = field(repr=False)  # zeros of U_{n-1}, size n-1

    @classmethod
    def build(cls, n: int) -> "Discretization":
        if n < 8:
            raise ValueError("need at least n = 8 integration nodes")
        # checked before anything is allocated: an operating system that
        # overcommits grants the memory and fails only when it is touched
        need = _working_set_bytes(n)
        if need > _physical_memory():
            raise ValueError(
                f"n = {n} is too large: solving needs about "
                f"{need / 2 ** 30:.3g} GiB, more than this machine's memory")
        i = np.arange(1, n + 1)
        s = np.cos((2 * i - 1) * np.pi / (2 * n))
        k = np.arange(1, n)
        t = np.cos(k * np.pi / n)
        return cls(n=n, nodes=s, collocation=t)


@dataclass(frozen=True)
class DensitySolution:
    """Nodal values of the regular density parts plus solve metadata.

    f_vals and g_vals are dimensionless (computed at mu = a = sigma0 = 1);
    the physical densities at xi = a*s_i are (sigma0/mu) * f_vals /
    sqrt(1 - s_i^2) and likewise for g.  Both hold all n nodes, extended
    from the parity-reduced unknowns, so f is exactly odd and g exactly
    even.  ``condition`` is LAPACK's 1-norm condition estimate and
    ``residual`` the relative residual of the folded, equilibrated system
    actually solved (see :func:`solve`).
    """

    f_vals: np.ndarray
    g_vals: np.ndarray
    problem: CrackProblem
    disc: Discretization
    condition: float
    residual: float
    classical_degenerate: bool = False

    @cached_property
    def coefficients(self) -> np.ndarray:
        """Chebyshev coefficients of the f and g interpolants, as the rows
        of one (2, n) array (``cf, cg = sol.coefficients`` unpacks them).

        Computed on first use by one transform of both densities and kept
        with the solution, so every post-processing call on it shares it.
        """
        return chebyshev_coefficients(np.stack([self.f_vals, self.g_vals]))


def _working_set_bytes(n: int) -> float:
    """Peak bytes a solve at n allocates, as twelve n x n float64 matrices.

    The kernel pass holds about twenty n/2 x n arrays at once: dt, w, the
    evaluator's three outputs and its six series accumulators, the four
    kernels, lagrange and recip.  tracemalloc peaks of :func:`solve`
    measured 9.6 matrices at p = 0.3 (the series branch) and 6.0 at
    p = 10, for n = 512 and 1024, and 10.2 at n = 64.
    """
    return 12 * 8.0 * float(n) ** 2


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where the platform does not say."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return np.inf


def chebyshev_coefficients(vals: np.ndarray) -> np.ndarray:
    """Coefficients c_j of the degree n-1 interpolant sum c_j T_j through
    the nodal values at the zeros of T_n (plain cosine transform), along
    the last axis of ``vals``."""
    vals = np.asarray(vals, dtype=float)
    n = vals.shape[-1]
    theta = (2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n)
    c = vals @ ((2.0 / n) * np.cos(np.outer(theta, np.arange(n))))
    c[..., 0] *= 0.5
    return c


def log_quadrature_weight(t, disc: Discretization, p):
    """Quadrature correction G_n(t) for the logarithmic kernel.

    G_n(t) = -(pi/n) sum_i ln(p|t - s_i|) + pi ln(p/2).

    Adding f(t)*G_n(t) to the plain Gauss-Chebyshev sum of
    f(s) ln(p|t-s|) makes the rule exact for constant f, because the
    weighted integral of the log kernel over (-1, 1) is pi ln(p/2)
    at any interior t.  The p-dependence cancels identically; at the
    U_{n-1} zeros the value collapses to -pi ln(2)/n.
    """
    if p <= 0.0:
        raise ValueError("log_quadrature_weight requires p > 0")
    t = float(t)
    diff = t - disc.nodes
    if np.any(diff == 0.0):
        raise ValueError("G_n is undefined at an integration node")
    n = disc.n
    return -(np.pi / n) * np.sum(np.log(p * np.abs(diff))) \
        + np.pi * np.log(0.5 * p)


def _normalized_kernels(dt, p):
    """Regular kernels k1, k2, k3 and ln(p|t - s|) in crack coordinates.

    With w = p|t - s| (a/ell = p, so w = |x - xi|/ell):

        k1 = [2/w^2 - K2(w) - 1/2] / (t - s)
        k2 = [2/w^2 - K2(w)] + [K0(w) + ln w]
        k3 = -4 sgn(t - s) [ (K1(w) - 1/w) + int_0^w K0 ]   (= k3_reg)

    k1 is odd and vanishes like (t-s) ln|t-s| at coincidence, k2 is even
    with coincidence value 1/2 + ln 2 - EulerGamma, and k3 is odd and zero
    there.  The collocation grid never evaluates t = s.
    """
    w = p * np.abs(dt)
    k0_log, k1_recip, k2c = _regularised(w)
    k1n = k2c / dt
    k2n = (0.5 + k2c) + k0_log
    k3n = -4.0 * np.sign(dt) * (k1_recip + int_k0(w))
    lnp = np.log(w)
    return k1n, k2n, k3n, lnp


def _unfold(x: np.ndarray, n: int):
    """(f, g) at all n nodes from the reduced unknowns
    x = [f at s_i > 0, g at s_i >= 0]: f odd and g even, bitwise.  The
    degenerate system has no g unknowns: there g = 0."""
    nf = n // 2
    f, g = x[:nf], np.concatenate([x[nf:], np.zeros(n - x.size)])
    return (np.concatenate([f, np.zeros(n - 2 * nf), -f[::-1]]),
            np.concatenate([g, g[:nf][::-1]]))


def _degenerate(p: float, n: int) -> bool:
    """The resolvability switch: past a/ell = 2n (ell = 0 included) the
    couple-stress kernels act below the resolution of the n-point grid,
    and the system solved is the classical degenerate one."""
    return bool(p > 2.0 * n)


def _cauchy_factor(problem: CrackProblem, n: int) -> float:
    """Factor c of the Cauchy term c/(2(1-nu)) int B/(x - xi) dxi of the
    normal-stress equation: 3 - 2nu, or 1 in the classical degenerate
    system.  The solve, K_I, J and the stress ahead all take it from here.
    """
    if _degenerate(problem.p, n):
        return 1.0
    return 3.0 - 2.0 * problem.material.nu


def _nu_free_system(disc: Discretization, p: float):
    """The parity-reduced system without its one nu-dependent term.

    Every block but the Cauchy term c/(2(1-nu)n)/(t - s) of the
    normal-stress rows depends on (n, p) alone, so problems that differ
    only in nu share this part.  Returns (matrix, rhs, cauchy) with
    cauchy = 1/(t - s) - 1/(t + s), the folded Cauchy kernel that
    :func:`_add_cauchy` scales for one nu.  Past the resolvability switch
    the system is the n//2 x n//2 f-Cauchy block alone, with no kernel
    pass and no g unknowns.
    """
    n = disc.n
    # nf unknowns f at s_i > 0 (f(0) = 0 for odd n) and ng unknowns g at
    # s_i >= 0; nf normal-stress rows at t_k >= 0, mc couple-stress rows
    # at t_k > 0 and the closure row: nf + mc + 1 = nf + ng = n
    nf, ng, mc = n // 2, (n + 1) // 2, (n - 1) // 2
    s, t = disc.nodes[:ng], disc.collocation[:nf]
    # one kernel pass: t - s over s >= 0, then t + s = t - (-s) over s > 0
    dt = t[:, None] - np.concatenate([s, -s[:nf]])[None, :]

    def odd(block):
        # f(-s) = -f(s): the column at -s enters with the opposite sign
        return block[:, :nf] - block[:, ng:]

    def even(block):
        # g(-s) = g(s); the s = 0 column of odd n has no mirror
        out = block[:, :ng].copy()
        out[:, :nf] += block[:, ng:]
        return out

    rhs = np.zeros(n)
    rhs[:nf] = -1.0
    if _degenerate(p, n):
        return np.zeros((nf, nf)), rhs[:nf], odd(1.0 / dt)

    k1n, k2n, k3n, lnp = _normalized_kernels(dt, p)
    # log_quadrature_weight at every U_{n-1} zero: a constant
    gn = -np.pi * np.log(2.0) / n
    tn_t = (-1.0) ** np.arange(1, nf + 1)       # T_n at the kept t_k
    theta = (2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n)
    tprime = n * (-1.0) ** np.arange(n) / np.sin(theta)   # T_n'(s_i)
    # T_n' at the kept nodes, then at their mirrors -s_i = s_{n+1-i}
    tprime = np.concatenate([tprime[:ng], tprime[::-1][:nf]])
    lagrange = tn_t[:, None] / (dt * tprime[None, :])
    recip = 1.0 / dt

    a_mat = np.zeros((n, n))

    # normal-stress rows at t_k >= 0
    log_block = (lnp - k2n) / n + gn * lagrange / np.pi
    a_mat[:nf, :nf] = (2.0 / n) * odd(k1n)
    a_mat[:nf, nf:] = even(log_block)

    # couple-stress rows at t_k > 0 (the row at t = 0 is odd in t and
    # vanishes); the log/k2 coupling block is shared.  2/p/p rather than
    # 2/p^2: inf, not ZeroDivisionError, if p^2 underflows; solve()
    # rejects the non-finite system
    a_mat[nf:n - 1, :nf] = odd(log_block[:mc])
    with np.errstate(over="ignore", invalid="ignore"):
        a_mat[nf:n - 1, nf:] = even(-2.0 / p / p / n * recip[:mc]
                                    + k3n[:mc] / (2.0 * p * n))

    # closure sum g = 0 over all n nodes; sum f = 0 holds by oddness
    a_mat[n - 1, nf:] = 2.0
    a_mat[n - 1, 2 * nf:] = 1.0   # the s = 0 node of odd n
    return a_mat, rhs, odd(recip)


def _add_cauchy(a_mat: np.ndarray, cauchy: np.ndarray,
                problem: CrackProblem, n: int) -> np.ndarray:
    """Add the nu-dependent Cauchy term of ``problem`` on the n-point grid
    to a :func:`_nu_free_system` matrix, in place; returns the matrix."""
    nf, nu = cauchy.shape[0], problem.material.nu
    a_mat[:nf, :nf] += (_cauchy_factor(problem, n)
                        / (2.0 * (1.0 - nu) * n) * cauchy)
    return a_mat


def assemble(problem: CrackProblem, disc: Discretization):
    """Build the dense n x n parity-reduced collocation system
    (nondimensional).

    The mode-I densities are exactly f odd and g even, so the unknowns
    are [f(s_i) for s_i > 0, g(s_i) for s_i >= 0], n//2 and (n+1)//2 of
    them, nodes in descending order.  The column of a node s_i > 0
    gathers the kernels at t - s_i and t + s_i.  Rows 0..n//2-1 impose
    the normal-stress condition at the collocation points t_k >= 0, the
    next (n-1)//2 rows the couple-stress condition at t_k > 0, and the
    last row the closure sum g = 0 (weight 2 on s > 0, 1 on s = 0); the
    sum f = 0 closure holds by oddness.  Past the resolvability switch
    (a/ell > 2n, ell = 0 included) it is the n//2 x n//2 classical
    degenerate system of the f unknowns and normal-stress rows alone.
    Returns (matrix, rhs) without row scaling.
    """
    a_mat, rhs, cauchy = _nu_free_system(disc, problem.p)
    return _add_cauchy(a_mat, cauchy, problem, disc.n), rhs


def _factor_solve(a_mat: np.ndarray, rhs: np.ndarray, where: str):
    """Solve a_mat x = rhs from one LU factorization and check it.

    The same factors give LAPACK's 1-norm condition estimate (gecon;
    Hager 1984, Higham 1988), which does not exceed kappa_1 and is rarely
    below a third of it.  Returns (x, condition, relative residual).
    """
    lu_piv = _linalg.lu_factor(a_mat, check_finite=False)
    rcond, _ = _linalg.lapack.dgecon(lu_piv[0], np.linalg.norm(a_mat, 1),
                                     norm="1")
    cond = 1.0 / rcond if rcond > 0.0 else np.inf
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SolverError(
            f"ill-conditioned crack system (cond ~ {cond:.2e}) at {where}")
    x = _linalg.lu_solve(lu_piv, rhs, check_finite=False)
    residual = np.linalg.norm(a_mat @ x - rhs) / np.linalg.norm(rhs)
    if not residual < 1e-10:
        raise SolverError(
            f"density solve residual {residual:.2e} exceeds 1e-10 "
            f"at {where}")
    return x, float(cond), float(residual)


def _solve_shared(problems, disc: Discretization):
    """Solve problems that share the size ratio p = a/ell on one grid.

    The nu-free part of their systems is built once, each problem is
    factored once, and the shared kernels are freed on return.  Returns
    one :class:`DensitySolution` per problem, in order; :func:`solve`
    documents the rest.
    """
    p = problems[0].p
    if any(prob.p != p for prob in problems):
        raise ValueError("problems solved together must share a/ell")
    n = disc.n
    degenerate = _degenerate(p, n)
    if degenerate and np.isfinite(p):
        warnings.warn(
            f"a/ell = {p:g} exceeds the kernel resolvability limit "
            f"{2 * n} at n = {n}; solving the classical "
            "degenerate system instead", RuntimeWarning, stacklevel=3)
    base, rhs, cauchy = _nu_free_system(disc, p)
    if not np.all(np.isfinite(base)):
        raise SolverError(
            f"crack system has non-finite coefficients at n = {n}, "
            f"p = {p:g}: a/ell is too small for 2/(a/ell)^2")
    if p < _P_WARN:
        warnings.warn(
            f"a/ell = {p:g} is far below 1; the continuum premise "
            "a >> ell is strained but the system is still solved",
            RuntimeWarning, stacklevel=3)

    sols = []
    for prob in problems:
        a_eq = _add_cauchy(base.copy(), cauchy, prob, n)
        # row equilibration keeps the condition number flat across the
        # many orders of magnitude spanned by the 2/p^2 couple-stress
        # prefactor
        scale = np.max(np.abs(a_eq), axis=1)
        a_eq /= scale[:, None]
        x, cond, residual = _factor_solve(
            a_eq, rhs / scale,
            f"n = {n}, p = {p:g}, nu = {prob.material.nu:g}")
        f, g = _unfold(x, n)
        sols.append(DensitySolution(
            f_vals=f, g_vals=g, problem=prob, disc=disc,
            condition=cond, residual=residual,
            classical_degenerate=degenerate))
    return sols


def solve(problem: CrackProblem, disc: Discretization) -> DensitySolution:
    """Solve the discrete system by dense LU with partial pivoting.

    The parity-reduced system of :func:`assemble` is equilibrated by rows
    and factored once.  The factors give both the solution and
    ``condition``, LAPACK's 1-norm condition estimate (gecon) of the
    folded, equilibrated matrix; ``residual`` is the relative residual of
    that system.  The returned f and g hold all n nodes, f odd and g even.

    For a/ell above 2n, the resolvability limit of the couple-stress
    kernels on this grid, the system is the classical degenerate one, with
    a warning; for the classical material (ell = 0) it is the same system
    without one.  Its exact solution is f(s) = 2 (1-nu) s and g = 0, and
    the returned solution is marked ``classical_degenerate``.

    Raises
    ------
    SolverError
        If the system has non-finite coefficients (a/ell so small that
        2/(a/ell)^2 overflows), the condition estimate exceeds 1e12 or
        the solution fails the 1e-10 relative-residual check.
    """
    return _solve_shared([problem], disc)[0]
