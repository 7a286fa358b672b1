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

Each system is equilibrated by rows and solved through its blocks.  Only
the normal-stress rows carry nu, so the couple-stress and closure rows
[G2 H] (H on the g unknowns) are factored once per (n, p): one n/2
inverse of H.  Each nu then inverts one n/2 Schur complement.  The two
inverses give the solution and the whole system's inverse, formed one
column half at a time, hence the exact 1-norm condition number that is
reported and checked.  The Chebyshev coefficients of the solution come
from one real FFT.  So the solver needs numpy alone.

Extreme size ratios: for p above roughly 2n the couple-stress kernels act
below quadrature resolution and the log-rule correction no longer matches
the (by then logarithmic) k2 sums, which visibly pollutes the solution.
For p > 2n the system is therefore the classical degenerate one: the
f-Cauchy block of the same fold, with Cauchy factor 1 in place of 3 - 2nu
(see :func:`_cauchy_factor`), no g unknowns and g identically zero.  It is
equilibrated, factored and checked like every other system (its H is
0 x 0, so the Schur complement is the whole system), and
post-processing takes the same switch from the solution's (p, n).  The
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

from .greens import MaterialParams
from .specfun import _BLOCK, _regularised

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
    """Numerical failure of the density solve.  Its message names the
    (n, p, nu) where it arose; it carries no fields."""


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
    even.  ``condition`` is the exact 1-norm condition number kappa_1 and
    ``residual`` the relative residual of the folded, equilibrated system
    actually solved (see :func:`solve`).
    """

    f_vals: np.ndarray
    g_vals: np.ndarray
    problem: CrackProblem
    disc: Discretization
    condition: float
    residual: float

    @property
    def classical_degenerate(self) -> bool:
        """Whether this (a/ell, n) takes the resolvability switch."""
        return _degenerate(self.problem.p, self.disc.n)

    @cached_property
    def coefficients(self) -> np.ndarray:
        """Chebyshev coefficients of the f and g interpolants, as the rows
        of one (2, n) array (``cf, cg = sol.coefficients`` unpacks them).

        Computed on first use by one transform of both densities and kept
        with the solution, so every post-processing call on it shares it.
        """
        return chebyshev_coefficients(np.stack([self.f_vals, self.g_vals]))


def _working_set_bytes(n: int) -> float:
    """Peak bytes a solve at n allocates: four n x n float64 matrices
    plus 32 arrays of one kernel block (``_BLOCK`` entries).

    The block solve sets the peak at large n: the assembled matrix, the
    shared g-block inverses (H^-1, X, Y and S0, one matrix together) and
    one column half of A^-1 with the normal-stress rows, 3.5 matrices.
    The kernel pass holds the matrix, the folded Cauchy block and the
    temporaries of one row block, about 19 arrays of its size at p = 0.3
    (the evaluator's series branch).  tracemalloc peaks of :func:`solve`
    (``tools/solve_peaks.py``) measured 3.50-3.51 matrices at n = 512 and
    1024 for p in {0.3, 10, 100}, 5.4 at n = 256 and 10.6 at n = 64,
    p = 0.3, where one block covers the whole kernel pass.
    """
    return 4 * 8.0 * float(n) ** 2 + 32 * 8.0 * _BLOCK


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where the platform does not say."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return np.inf


def chebyshev_coefficients(vals: np.ndarray) -> np.ndarray:
    """Coefficients c_j of the degree n-1 interpolant sum c_j T_j through
    the nodal values v_i at the zeros of T_n, along the last axis of
    ``vals``: c_j = (2/n) sum_i v_i cos(j theta_i), c_0 halved.

    That sum is a DCT-II, computed by one real FFT of the even extension
    [v, v reversed] of length 2n: its term j times e^{-i pi j/(2n)} is
    2 sum_i v_i cos(j theta_i) (Makhoul 1980).
    """
    vals = np.asarray(vals, dtype=float)
    n = vals.shape[-1]
    spectrum = np.fft.rfft(np.concatenate([vals, vals[..., ::-1]], axis=-1),
                           axis=-1)[..., :n]
    c = (np.exp(-0.5j * np.pi / n * np.arange(n)) * spectrum).real / n
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


# the rows of specfun._regularised that each kernel reads
_KERNEL_ROWS = {"k1": (2,), "k2": (0, 2), "k3": (1, 3), "log": (1,)}


def _normalized_kernels(dt, p, names=("k1", "k2", "k3", "log")):
    """The regular kernels k1, k2, k3 and the log kernel in crack
    coordinates that ``names`` lists, in its order.

    With w = p|t - s| (a/ell = p, so w = |x - xi|/ell):

        k1   = [2/w^2 - K2(w) - 1/2] / (t - s)
        k2   = [2/w^2 - K2(w)] + [K0(w) + ln w]
        k3   = -4 sgn(t - s) [ (K1(w) - 1/w) + int_0^w K0 ]   (= k3_reg)
        log  = (2/w) [K1(w) - 1/w]

    k1 is odd and vanishes like (t-s) ln|t-s| at coincidence, k2 is even
    with coincidence value 1/2 + ln 2 - EulerGamma, and k3 is odd and zero
    there.  log = ln w - k2 by K2 - K0 = 2 K1/w (Abramowitz & Stegun
    9.6.26), so no ln w is formed to cancel.  The collocation grid never
    evaluates t = s.  Only the evaluator rows that the named kernels read
    are formed (the solve's k1, k3 and log need no K0 + ln w), and the
    kernels are formed in place in them.
    """
    w = p * np.abs(dt)
    rows = sorted({r for name in names for r in _KERNEL_ROWS[name]})
    reg = dict(zip(rows, _regularised(w, rows)))
    # each kernel in place in its row, once no other kernel reads it
    kernels = {}
    if "k2" in names:
        kernels["k2"] = (0.5 + reg[2]) + reg[0]
    if "k3" in names:
        reg[3] += reg[1]
        reg[3] *= -4.0 * np.sign(dt)
        kernels["k3"] = reg[3]
    if "log" in names:
        reg[1] *= 2.0
        reg[1] /= w
        kernels["log"] = reg[1]
    if "k1" in names:
        reg[2] /= dt
        kernels["k1"] = reg[2]
    return tuple(kernels[name] for name in names)


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
    only in nu share this part and :func:`_block_solves` factors it
    once.  Returns (matrix, cauchy) with
    cauchy = 1/(t - s) - 1/(t + s), the folded Cauchy kernel that
    :func:`_cauchy_term` scales for one nu.  The log block, shared by
    both row sets, is logk/n plus the G_n correction.  Past the
    resolvability switch the system is the n//2 x n//2 f-Cauchy block
    alone, with no kernel pass and no g unknowns.

    The kernel pass runs on blocks of max(1, _BLOCK // n) rows, about
    ``specfun._BLOCK`` entries.  Each block forms 1/(t - s) once, for the
    Cauchy block and the couple-stress term, asks for k1, k3 and the log
    kernel alone (three evaluator rows, no K0 + ln w), forms the log
    block in place and folds every block straight into the outputs: no
    n/2 x n kernel table is held, and as every entry is formed alone by
    the same operations the blocks change no bit.
    """
    n = disc.n
    # nf unknowns f at s_i > 0 (f(0) = 0 for odd n) and ng unknowns g at
    # s_i >= 0; nf normal-stress rows at t_k >= 0, mc couple-stress rows
    # at t_k > 0 and the closure row: nf + mc + 1 = nf + ng = n
    nf, ng, mc = n // 2, (n + 1) // 2, (n - 1) // 2
    t = disc.collocation[:nf]
    # t - s over s >= 0, then t + s = t - (-s) over s > 0
    s = np.concatenate([disc.nodes[:ng], -disc.nodes[:nf]])
    degenerate = _degenerate(p, n)
    a_mat = np.zeros((nf, nf) if degenerate else (n, n))
    cauchy = np.empty((nf, nf))

    def odd(block, out):
        # f(-s) = -f(s): the column at -s enters with the opposite sign
        np.subtract(block[:, :nf], block[:, ng:], out=out)

    def even(block, out):
        # g(-s) = g(s); the s = 0 column of odd n has no mirror
        np.add(block[:, :nf], block[:, ng:], out=out[:, :nf])
        out[:, nf:] = block[:, nf:ng]

    # log_quadrature_weight at every U_{n-1} zero: a constant
    gn = -np.pi * np.log(2.0) / n
    tn_t = (-1.0) ** np.arange(1, nf + 1)       # T_n at the kept t_k
    theta = (2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n)
    tprime = n * (-1.0) ** np.arange(n) / np.sin(theta)   # T_n'(s_i)
    # T_n' at the kept nodes, then at their mirrors -s_i = s_{n+1-i}
    tprime = np.concatenate([tprime[:ng], tprime[::-1][:nf]])

    # the kernel pass, one block of rows k0:k1 at a time
    step = max(1, _BLOCK // n)
    for k0 in range(0, nf, step):
        k1, m = min(k0 + step, nf), min(k0 + step, mc) - k0
        dt = t[k0:k1, None] - s[None, :]
        inv = 1.0 / dt
        odd(inv, cauchy[k0:k1])
        if degenerate:
            continue
        k1n, k3n, logk = _normalized_kernels(dt, p, ("k1", "k3", "log"))

        # normal-stress rows at t_k >= 0.  The log block, shared by both
        # row sets, is logk/n plus gn/pi times the Lagrange factor
        # T_n(t)/((t - s) T_n'(s)); it is formed in place in logk
        top = a_mat[k0:k1]
        odd(k1n, top[:, :nf])
        top[:, :nf] *= 2.0 / n
        lagrange = dt * tprime[None, :]
        np.divide(tn_t[k0:k1, None], lagrange, out=lagrange)
        lagrange *= gn
        lagrange /= np.pi
        logk /= n
        logk += lagrange
        even(logk, top[:, nf:])

        # couple-stress rows at t_k > 0, the first m of the block (the
        # row at t = 0 is odd in t and vanishes); the log/k2 coupling
        # block is shared.  2/p/p rather than 2/p^2: inf, not
        # ZeroDivisionError, if p^2 underflows; solve() rejects the
        # non-finite system.  c * (1/dt), not c/dt, which rounds apart
        odd(logk[:m], a_mat[nf + k0:nf + k0 + m, :nf])
        couple, k3n = inv[:m], k3n[:m]
        with np.errstate(over="ignore", invalid="ignore"):
            couple *= -2.0 / p / p / n
            k3n /= 2.0 * p * n
            couple += k3n
        even(couple, a_mat[nf + k0:nf + k0 + m, nf:])
        del inv, k1n, k3n, logk, lagrange, couple   # before the next block

    if not degenerate:
        # closure sum g = 0 over all n nodes; sum f = 0 holds by oddness
        a_mat[n - 1, nf:] = 2.0
        a_mat[n - 1, 2 * nf:] = 1.0   # the s = 0 node of odd n
    return a_mat, cauchy


def _cauchy_term(cauchy: np.ndarray, problem: CrackProblem,
                 n: int) -> np.ndarray:
    """The nu-dependent Cauchy term of ``problem`` on the n-point grid, to
    be added to the f-columns of the normal-stress rows of a
    :func:`_nu_free_system` matrix."""
    nu = problem.material.nu
    return _cauchy_factor(problem, n) / (2.0 * (1.0 - nu) * n) * cauchy


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
    Returns (matrix, rhs) without row scaling: the right-hand side is -1
    on the normal-stress rows and 0 on the others.
    """
    a_mat, cauchy = _nu_free_system(disc, problem.p)
    nf = cauchy.shape[0]
    a_mat[:nf, :nf] += _cauchy_term(cauchy, problem, disc.n)
    rhs = np.zeros(a_mat.shape[0])
    rhs[:nf] = -1.0
    return a_mat, rhs


def _inverse(matrix: np.ndarray, where: str) -> np.ndarray:
    try:
        return np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        raise SolverError(f"singular crack system at {where}") from None


def _block_solves(base: np.ndarray, terms, where: str):
    """Solve and check, through their blocks, the equilibrated systems of
    problems that share (n, p).

    The first nf rows of ``base`` (a :func:`_nu_free_system` matrix) are
    the normal-stress rows [F G1], F on the nf f-columns; they lack the
    Cauchy term, the system's one nu-dependent block.  The other rows,
    couple-stress and closure, hold no nu: they are scaled by their
    max-abs, in place in ``base``, to [G2 H], and H is inverted once
    (at ``where``) to form X = H^-1 G2, Y = G1 H^-1 and S0 = F - G1 X.
    The degenerate system has no such rows: H is 0 x 0 and S0 = F.

    ``terms`` lists one (nu term cC, label) pair per problem.  With cC
    added, the normal-stress rows are scaled by their max-abs D, so the
    equilibrated matrix is A = [[D^-1 (F + cC), D^-1 G1], [G2, H]] and
    the Schur complement of H in it is D^-1 (S0 + cC), inverted as T.
    Then A^-1 = [I; -X] T [I, -D^-1 Y] + [[0, 0], [0, H^-1]] gives both
    x = A^-1 b, with b = -D^-1 1 on the normal-stress rows and 0 below,
    and the exact 1-norm condition number kappa_1 = ||A||_1 ||A^-1||_1.
    A^-1 is formed one column half at a time: [T; -X T] first, which
    alone gives x and the residual, then [U; -X U - H^-1] with
    U = -(T/D) Y.  The column sums of both halves give ||A^-1||_1.
    Yields (x, condition, relative residual of the whole equilibrated
    system) per term; errors name its label.
    """
    nf = terms[0][0].shape[0]
    base[nf:] /= np.max(np.abs(base[nf:]), axis=1)[:, None]
    bottom, g1 = base[nf:], base[:nf, nf:]
    bottom_sums = np.abs(bottom).sum(axis=0)
    h_inv = _inverse(bottom[:, nf:], where)
    x_mat = h_inv @ bottom[:, :nf]
    y_mat, s0 = g1 @ h_inv, base[:nf, :nf] - g1 @ x_mat
    for term, label in terms:
        top = base[:nf].copy()
        top[:, :nf] += term
        scale = np.max(np.abs(top), axis=1)
        top /= scale[:, None]
        a_norm = np.max(np.abs(top).sum(axis=0) + bottom_sums)
        t_mat = _inverse((s0 + term) / scale[:, None], label)
        lower = x_mat @ t_mat        # the rows of A^-1 below, negated
        col_sums = [np.abs(t_mat).sum(axis=0) + np.abs(lower).sum(axis=0)]
        # b is zero below the normal-stress rows: the first half gives x
        b = np.concatenate([-1.0 / scale, np.zeros(bottom.shape[0])])
        x = np.concatenate([t_mat @ b[:nf], -(lower @ b[:nf])])
        residual = np.linalg.norm(np.concatenate(
            [top @ x, bottom @ x]) - b) / np.linalg.norm(b)
        del top, lower
        upper = -(t_mat / scale) @ y_mat
        lower = x_mat @ upper
        lower -= h_inv
        col_sums.append(np.abs(upper).sum(axis=0) + np.abs(lower).sum(axis=0))
        cond = a_norm * np.max(np.concatenate(col_sums))
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise SolverError(f"ill-conditioned crack system "
                              f"(cond ~ {cond:.2e}) at {label}")
        if not residual < 1e-10:
            raise SolverError(f"density solve residual {residual:.2e} "
                              f"exceeds 1e-10 at {label}")
        yield x, float(cond), float(residual)


def _solve_shared(problems, disc: Discretization):
    """Solve problems that share the size ratio p = a/ell on one grid.

    The nu-free part of their systems is built and factored once (one n/2
    inverse in :func:`_block_solves`), and each problem inverts its own
    n/2 Schur complement.  Returns one :class:`DensitySolution` per
    problem, in order; :func:`solve` documents the rest.
    """
    p = problems[0].p
    if any(prob.p != p for prob in problems):
        raise ValueError("problems solved together must share a/ell")
    n = disc.n
    if _degenerate(p, n) and np.isfinite(p):
        warnings.warn(
            f"a/ell = {p:g} exceeds the kernel resolvability limit "
            f"{2 * n} at n = {n}; solving the classical "
            "degenerate system instead", RuntimeWarning, stacklevel=3)
    base, cauchy = _nu_free_system(disc, p)
    if not np.all(np.isfinite(base)):
        raise SolverError(
            f"crack system has non-finite coefficients at n = {n}, "
            f"p = {p:g}: a/ell is too small for 2/(a/ell)^2")
    if p < _P_WARN:
        warnings.warn(
            f"a/ell = {p:g} is far below 1; the continuum premise "
            "a >> ell is strained but the system is still solved",
            RuntimeWarning, stacklevel=3)

    # row equilibration keeps the condition number flat across the many
    # orders of magnitude spanned by the 2/p^2 couple-stress prefactor
    where = f"n = {n}, p = {p:g}"
    terms = [(_cauchy_term(cauchy, prob, n),
              f"{where}, nu = {prob.material.nu:g}") for prob in problems]
    del cauchy      # every problem's term is formed
    return [DensitySolution(*_unfold(x, n), prob, disc, cond, residual)
            for prob, (x, cond, residual)
            in zip(problems, _block_solves(base, terms, where))]


def solve(problem: CrackProblem, disc: Discretization) -> DensitySolution:
    """Solve the discrete system through the inverses of its two blocks.

    The parity-reduced system of :func:`assemble` is equilibrated by rows
    to A.  Its nu-free g-block H and the Schur complement of H are each
    inverted (numpy.linalg, LU with partial pivoting), and together they
    give the solution and ``condition``, the exact 1-norm condition
    number kappa_1 = ||A||_1 ||A^-1||_1 of the folded, equilibrated
    matrix A; ``residual`` is the relative residual of that whole system.
    The returned f and g hold all n nodes, f odd and g even.

    For a/ell above 2n, the resolvability limit of the couple-stress
    kernels on this grid, the system is the classical degenerate one, with
    a warning; for the classical material (ell = 0) it is the same system
    without one.  Its exact solution is f(s) = 2 (1-nu) s and g = 0, and
    the returned solution's ``classical_degenerate`` is true.

    Raises
    ------
    SolverError
        If the system has non-finite coefficients (a/ell so small that
        2/(a/ell)^2 overflows), H or its Schur complement is singular,
        the system has a condition number above 1e12 or its solution
        fails the 1e-10 relative-residual check.
    """
    return _solve_shared([problem], disc)[0]
