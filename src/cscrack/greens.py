"""Defect Green's functions for plane-strain couple-stress elasticity.

Two point defects sit at the origin of the upper half-plane (y >= 0):

* a climb dislocation with Burgers vector (0, b, 0), carrying a jump of the
  normal displacement, and
* a constrained wedge disclination with Frank vector (0, 0, Omega), carrying
  a jump of the rotation while leaving the normal displacement continuous.

:func:`line_sigma_yy` and :func:`line_m_yz` give the normal stress and
couple-stress on the defect line y = 0; these are the kernels of the crack
integral equations.  :func:`full_field` evaluates displacements, rotation,
force-stresses and couple-stresses at any points of the half-plane, given
as scalars or arrays.  All three take K0, K1 and 2/w^2 - K2 from one pass
of the regularised Bessel evaluator of :mod:`cscrack.specfun`.

The disclination field also needs two semi-infinite sine transforms (X =
x/l, Y = y/l, R = sqrt(X^2 + Y^2), rho = sqrt(X'^2 + Y^2)),

    I10 = int_0^inf (1/u) exp(-Y sqrt(1+u^2)) sin(uX) du,
    I11 = int_0^inf (sqrt(1+u^2)/u) exp(-Y sqrt(1+u^2)) sin(uX) du
        = -dI10/dY.

Their X-derivative dI10/dX = Y K1(R)/R is a closed form (Gradshteyn &
Ryzhik 3.961.2), so both are finite integrals of Bessel functions:

    I10 = int_0^X Y K1(rho)/rho dX',
    I11 = X/R^2 - int_0^X [Y^2 (2/rho^2 - K2)/rho^2 + (K1 - 1/rho)/rho] dX'.

The singular part of the I11 integrand is integrated exactly, as X/R^2, so
what is left stays free of cancellation as y -> 0.  After X' = Y sinh(s)
(so dX'/rho = ds) one fixed Gauss-Legendre rule on [0, asinh(|X|/Y)]
serves every point, block by block (:func:`_in_blocks`, shared with
post); on y = 0 the limits (pi/2) sgn(x) and -meijer_kernel(x, l)/4 apply.

Gauge: rigid-body terms are fixed so that, on y = 0+ and x > 0, the
dislocation's normal displacement and the disclination's rotation vanish.
The disclination part of the displacement then contains the rigid rotation
(u_x, u_y) = (Omega y/4, -Omega x/4); its normal displacement is continuous
across the defect line once that rigid rotation is discounted.  The
boundary traces in this gauge are

    dislocation:   u_y(x>0, 0+) = 0,  u_y(x<0, 0+) = b/2,   omega(x, 0+) = 0
    disclination:  u_y(x, 0+) = -Omega x/4 (rigid),
                   omega(x>0, 0+) = 0,  omega(x<0, 0+) = -Omega/2

so the jumps across the defect line are the defining discontinuities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .specfun import _regularised, meijer_kernel

__all__ = [
    "MaterialParams",
    "DefectCharge",
    "FieldState",
    "line_sigma_yy",
    "line_m_yz",
    "full_field",
]

# Gauss-Legendre rule for I10 and I11 in s = asinh(X'/Y), one panel.  On a
# grid of y/l in [1e-8, 50] and |x|/l in [1e-4, 1e3], against 30-digit
# references, the worst error (relative to max(1, |I|)) is 2.7e-14 at 96
# nodes, 9.6e-13 at 80 and 2.6e-10 at 64, worst at y/l ~ 1e-8.  Two panels
# split where w = Y cosh(s) passes 1 need as many nodes in all.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(96)

# points per block: bounds the (points x nodes) temporaries, here and in post
_BLOCK = 1024


def _in_blocks(rows, *arrays):
    """``rows`` (an array, or a tuple of them) on blocks of ``_BLOCK``
    points of the 1-D ``arrays``, joined along the points: the (points x
    nodes) work arrays of ``rows`` stay bounded in the number of points."""
    return np.concatenate(
        [rows(*(arr[lo:lo + _BLOCK] for arr in arrays))
         for lo in range(0, arrays[0].size or 1, _BLOCK)], axis=-1)


@dataclass(frozen=True)
class MaterialParams:
    """Isotropic couple-stress material: shear modulus, Poisson ratio and
    characteristic length ell = sqrt(bending modulus / shear modulus)."""

    mu: float
    nu: float
    ell: float

    def __post_init__(self):
        if not 0.0 < self.mu < np.inf:
            raise ValueError("shear modulus mu must be positive and finite")
        if not (-1.0 < self.nu <= 0.5):
            raise ValueError("Poisson ratio nu must lie in (-1, 0.5]")
        if not 0.0 <= self.ell < np.inf:
            raise ValueError(
                "characteristic length ell must be >= 0 and finite")


@dataclass(frozen=True)
class DefectCharge:
    """Climb component b of the Burgers vector and Frank angle omega."""

    b: float = 0.0
    omega: float = 0.0


@dataclass(frozen=True)
class FieldState:
    """The nine plane-strain field components, at one point (floats) or
    at an array of points (arrays of the broadcast input shape)."""

    sxx: float | np.ndarray
    syy: float | np.ndarray
    sxy: float | np.ndarray
    syx: float | np.ndarray
    mxz: float | np.ndarray
    myz: float | np.ndarray
    ux: float | np.ndarray
    uy: float | np.ndarray
    omega: float | np.ndarray


def _bessel(w):
    """(K0, K1, 2/w^2 - K2) at w > 0 from one regularised-evaluator pass."""
    r0, r1, r2 = _regularised(w)
    return r0 - np.log(w), r1 + 1.0 / w, r2 + 0.5


def line_sigma_yy(x, charge: DefectCharge, mat: MaterialParams):
    """Normal stress sigma_yy(x, y=0) of the combined defect.

    Cauchy-singular (~ 1/x) through the dislocation, log-singular through
    the disclination.  With ell = 0 only the classical dislocation term
    mu b / (2 pi (1-nu) x) survives.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x == 0.0):
        raise ValueError("line_sigma_yy is singular at x = 0")
    mu, nu, ell = mat.mu, mat.nu, mat.ell
    b, om = charge.b, charge.omega
    out = mu * b / (2.0 * np.pi * (1.0 - nu) * x)
    if ell > 0.0:
        k0, _, d = _bessel(np.abs(x) / ell)
        out = out + 2.0 * mu * b / (np.pi * x) * d \
            - mu * om / np.pi * d - mu * om / np.pi * k0
    return out if out.ndim else float(out)


def line_m_yz(x, charge: DefectCharge, mat: MaterialParams):
    """Couple-stress m_yz(x, y=0) of the combined defect.

    Cauchy-singular through the disclination, log-singular through the
    dislocation; tends to -mu*ell*omega*sgn(x) at |x| -> oo and vanishes
    identically for ell = 0.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x == 0.0):
        raise ValueError("line_m_yz is singular at x = 0")
    mu, ell = mat.mu, mat.ell
    b, om = charge.b, charge.omega
    if ell == 0.0:
        out = np.zeros_like(x)
        return out if out.ndim else 0.0
    k0, _, d = _bessel(np.abs(x) / ell)
    out = -mu * b / np.pi * (d + k0) \
        + mu * ell * om / (2.0 * np.pi) * meijer_kernel(x, ell)
    return out if out.ndim else float(out)


def _disclination_integrals(x, y):
    """(I10, I11) at 1-D arrays x = X, y = Y > 0, in units of l.

    One Gauss-Legendre rule in s on [0, asinh(|X|/Y)], applied to blocks
    of ``_BLOCK`` points; both integrals are odd in X and vanish at X = 0.
    Returns them as the rows of one (2, size) array.
    """
    def rows(x, y):
        ax = np.abs(x)
        half = 0.5 * np.arcsinh(ax / y)             # half the range of s
        cosh = np.cosh(half[:, None] * (_GL_NODES + 1.0))
        w = y[:, None] * cosh                       # rho at the nodes
        _, r1, r2 = _regularised(w)
        # dX'/rho = ds: Y K1/rho dX' = Y K1 ds, and the regular rest of
        # the I11 integrand is [Y (r2 + 1/2)/cosh(s) + r1] ds
        i10 = half * ((y[:, None] * (r1 + 1.0 / w)) @ _GL_WEIGHTS)
        rest = half * ((y[:, None] * (r2 + 0.5) / cosh + r1) @ _GL_WEIGHTS)
        big_r = np.hypot(ax, y)
        return i10, ax / big_r / big_r - rest

    return np.sign(x) * _in_blocks(rows, x, y)


def full_field(x, y, charge: DefectCharge, mat: MaterialParams) -> FieldState:
    """All nine field components of the combined defect at (x, y), y >= 0.

    ``x`` and ``y`` are scalars or arrays, broadcast against each other;
    scalar input gives a :class:`FieldState` of floats, array input one
    of arrays.  Displacements and rotation follow the closed forms with
    the gauge stated in the module docstring.  The disclination parts of
    the force-stresses come from those displacements through the
    plane-strain constitutive relations; the disclination is equivoluminal
    (u_x,x + u_y,y = 0), which makes its normal-stress parts independent
    of the Poisson ratio:

        syy_disc = -(mu Om/pi) [ (x^2-y^2)/r^2 * D + K0 ] = -sxx_disc,
        syx_disc = (2 mu Om x y)/(pi r^2) * D,       D = 2 l^2/r^2 - K2(r/l)

    and the skew part uses nabla^2 omega = b y K1/(2 pi l^3 r)
    + Om I10/(2 pi l^2) (the I10 integrand is an eigenfunction of the
    Laplacian with eigenvalue 1/l^2).  I10 and I11 come from their closed
    form on the fixed Gauss-Legendre rule of the module docstring for
    y > 0, and from their line limits on y = 0; no quadrature runs for a
    pure dislocation (Omega = 0).
    """
    if mat.ell <= 0.0:
        raise ValueError("full_field requires ell > 0")
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))
    if (y < 0.0).any():
        raise ValueError("full_field is defined on the upper half-plane")
    if ((x == 0.0) & (y == 0.0)).any():
        raise ValueError("full_field is singular at the defect core")

    mu, nu, ell = mat.mu, mat.nu, mat.ell
    b, om = charge.b, charge.omega
    i10 = np.zeros(x.shape)     # enter only through the rotation defect
    i11 = np.zeros(x.shape)
    if om != 0.0:
        line = y == 0.0
        i10[line] = 0.5 * np.pi * np.sign(x[line])
        i11[line] = -0.25 * meijer_kernel(x[line], ell)
        i10[~line], i11[~line] = _disclination_integrals(x[~line] / ell,
                                                         y[~line] / ell)
    if x.ndim == 0:
        x, y = float(x), float(y)   # Python floats: cheaper arithmetic
    r2 = x * x + y * y
    r = np.sqrt(r2)
    k0, k1, d = _bessel(r / ell)            # d = 2 l^2/r^2 - K2
    k2 = 2.0 * ell * ell / r2 - d           # K2 itself, underflow-safe
    theta = np.arctan2(y, x)                # in [0, pi] on the half-plane

    c_nu = 1.0 / (4.0 * np.pi * (1.0 - nu))

    ux = (b * (1.0 - 2.0 * nu) * c_nu * np.log(r)
          + 0.5 * b * c_nu * (y * y - x * x) / r2
          - b * (y * y - x * x) / (2.0 * np.pi * r2) * d
          + b / (2.0 * np.pi) * k0
          - om * ell * ell * x / (np.pi * r2)
          + om * ell / np.pi * i11
          + 0.25 * om * y)

    uy = (b / (2.0 * np.pi) * theta
          - b * x * y * c_nu / r2
          + b * x * y / (np.pi * r2) * d
          - om * y / (2.0 * np.pi) * (d + k0)
          - 0.25 * om * x)

    omega = (-b * y / (4.0 * np.pi * ell * ell) * (d + k0)
             + om / (2.0 * np.pi) * i10
             - 0.25 * om)

    myz = (-mu * b / np.pi * ((x * x - y * y) / r2 * d + k0)
           - 2.0 * mu * ell * om / np.pi * i11)
    mxz = (2.0 * mu * b / np.pi * x * y / r2 * d
           + 2.0 * mu * ell * om / np.pi * y / r * k1)

    disc_norm = mu * om / np.pi * ((x * x - y * y) / r2 * d + k0)
    syy = (mu * b * x * (3.0 * y * y + x * x) * 2.0 * c_nu / (r2 * r2)
           - 2.0 * mu * b * x / np.pi * (3.0 * y * y - x * x) / (r2 * r2) * d
           + mu * b / (np.pi * ell * ell) * x * y * y / r2 * (k2 - k0)
           - disc_norm)
    sxx = (mu * b * x * (x * x - y * y) * 2.0 * c_nu / (r2 * r2)
           + 2.0 * mu * b * x / np.pi * (3.0 * y * y - x * x) / (r2 * r2) * d
           - mu * b / (np.pi * ell * ell) * x * y * y / r2 * (k2 - k0)
           + disc_norm)
    syx = (mu * b * y * (x * x - y * y) * 2.0 * c_nu / (r2 * r2)
           - 2.0 * mu * b * y / np.pi * (3.0 * x * x - y * y) / (r2 * r2) * d
           + mu * b / (np.pi * ell * ell) * x * x * y / r2 * (k2 - k0)
           + 2.0 * mu * om * x * y / (np.pi * r2) * d)

    lap_omega = (b * y * k1 / (2.0 * np.pi * ell ** 3 * r)
                 + om * i10 / (2.0 * np.pi * ell * ell))
    sxy = syx - 4.0 * mu * ell * ell * lap_omega

    values = dict(sxx=sxx, syy=syy, sxy=sxy, syx=syx, mxz=mxz, myz=myz,
                  ux=ux, uy=uy, omega=omega)
    if np.ndim(r) == 0:
        return FieldState(**{k: float(v) for k, v in values.items()})
    return FieldState(**values)
