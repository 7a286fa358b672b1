"""Defect Green's functions for plane-strain couple-stress elasticity.

Two point defects sit at the origin of the upper half-plane (y >= 0):

* a climb dislocation with Burgers vector (0, b, 0), carrying a jump of the
  normal displacement, and
* a constrained wedge disclination with Frank vector (0, 0, Omega), carrying
  a jump of the rotation while leaving the normal displacement continuous.

:func:`line_sigma_yy` and :func:`line_m_yz` give the normal stress and
couple-stress on the defect line y = 0; these are the kernels of the crack
integral equations.  :func:`full_field` evaluates displacements, rotation,
force-stresses and couple-stresses at any point of the half-plane; two of
its ingredients are semi-infinite oscillatory integrals handled by
:func:`semi_infinite_integral`.

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

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate as _integrate
from scipy import special as _sp

from .specfun import k2_reg, meijer_kernel

__all__ = [
    "MaterialParams",
    "DefectCharge",
    "FieldState",
    "line_sigma_yy",
    "line_m_yz",
    "semi_infinite_integral",
    "full_field",
]


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
    """The nine plane-strain field components at one point."""

    sxx: float
    syy: float
    sxy: float
    syx: float
    mxz: float
    myz: float
    ux: float
    uy: float
    omega: float


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
        d = k2_reg(np.abs(x), ell)
        k0 = _sp.k0(np.abs(x) / ell)
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
    d = k2_reg(np.abs(x), ell)
    k0 = _sp.k0(np.abs(x) / ell)
    out = -mu * b / np.pi * (d + k0) \
        + mu * ell * om / (2.0 * np.pi) * meijer_kernel(x, ell)
    return out if out.ndim else float(out)


def semi_infinite_integral(which, x, y, ell):
    """Semi-infinite sine-transform integrals of the disclination field.

    I10 = int_0^inf (1/xi) exp(-y sqrt(1+l^2 xi^2)/l) sin(xi x) dxi
    I11 = int_0^inf (sqrt(1+l^2 xi^2)/xi) exp(-...) sin(xi x) dxi

    Both are dimensionless and reduce, after u = xi*l, to functions of
    x/l and y/l alone.  The range splits at u = 1: the head is regular
    and handled by adaptive quadrature, the tail is a decaying Fourier
    sine integral handled by the dedicated oscillatory rule, so no manual
    truncation enters.  Accuracy ~1e-10 relative.

    ``y`` must be strictly positive; the y -> 0+ limits are
    (pi/2) sgn(x) for I10 and the finite-part value
    -meijer_kernel(x, l)/4 for I11, which :func:`full_field` applies
    directly on the line.
    """
    if which not in ("I10", "I11"):
        raise ValueError(f"unknown integral {which!r}; use 'I10' or 'I11'")
    if ell <= 0.0:
        raise ValueError("semi_infinite_integral requires ell > 0")
    if not y > 0.0:
        raise ValueError("semi_infinite_integral requires y > 0")
    if x == 0.0:
        return 0.0
    xs = abs(x) / ell
    ys = y / ell
    sgn = 1.0 if x > 0.0 else -1.0

    if which == "I10":
        def head(u):
            return np.exp(-ys * np.hypot(1.0, u)) * np.sin(u * xs) / u

        def tail(u):
            return np.exp(-ys * np.hypot(1.0, u)) / u
    else:
        def head(u):
            a = np.hypot(1.0, u)
            return a * np.exp(-ys * a) * np.sin(u * xs) / u

        def tail(u):
            a = np.hypot(1.0, u)
            return a * np.exp(-ys * a) / u

    i_head, _ = _integrate.quad(head, 0.0, 1.0, limit=200,
                                epsabs=1e-13, epsrel=1e-11)
    if xs > 3.0 * ys:
        # oscillation sets the tail scale: dedicated Fourier rule.  For
        # y << l the I11 tail decays only through the oscillation and the
        # rule grumbles about its cycles while still extrapolating the
        # Abel value correctly (checked against the y = 0 finite-part
        # closed form), so that warning is silenced here.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", _integrate.IntegrationWarning)
            i_tail, _ = _integrate.quad(tail, 1.0, np.inf, weight="sin",
                                        wvar=xs, limit=400,
                                        epsabs=1e-13, epsrel=1e-11)
    else:
        # decay kills the integrand within one oscillation period
        i_tail, _ = _integrate.quad(lambda u: tail(u) * np.sin(u * xs),
                                    1.0, np.inf, limit=400,
                                    epsabs=1e-13, epsrel=1e-11)
    return sgn * (i_head + i_tail)


def full_field(x, y, charge: DefectCharge, mat: MaterialParams) -> FieldState:
    """All nine field components of the combined defect at (x, y), y >= 0.

    Displacements and rotation follow the closed forms with the gauge
    stated in the module docstring.  The disclination parts of the
    force-stresses come from those displacements through the plane-strain
    constitutive relations; the disclination is equivoluminal
    (u_x,x + u_y,y = 0), which makes its normal-stress parts independent
    of the Poisson ratio:

        syy_disc = -(mu Om/pi) [ (x^2-y^2)/r^2 * D + K0 ] = -sxx_disc,
        syx_disc = (2 mu Om x y)/(pi r^2) * D,       D = 2 l^2/r^2 - K2(r/l)

    and the skew part uses nabla^2 omega = b y K1/(2 pi l^3 r)
    + Om I10/(2 pi l^2) (the I10 integrand is an eigenfunction of the
    Laplacian with eigenvalue 1/l^2).
    """
    if mat.ell <= 0.0:
        raise ValueError("full_field requires ell > 0")
    if y < 0.0:
        raise ValueError("full_field is defined on the upper half-plane")
    if x == 0.0 and y == 0.0:
        raise ValueError("full_field is singular at the defect core")

    mu, nu, ell = mat.mu, mat.nu, mat.ell
    b, om = charge.b, charge.omega
    r2 = x * x + y * y
    r = np.sqrt(r2)
    z = r / ell
    d = k2_reg(r, ell)                      # 2 l^2/r^2 - K2
    k0 = _sp.k0(z)
    k1 = _sp.k1(z)
    k2 = 2.0 * ell * ell / r2 - d           # K2 itself, underflow-safe
    theta = np.arctan2(y, x)                # in [0, pi] on the half-plane

    if om == 0.0:
        i10 = i11 = 0.0          # enter only through the rotation defect
    elif y > 0.0:
        i10 = semi_infinite_integral("I10", x, y, ell)
        i11 = semi_infinite_integral("I11", x, y, ell)
    else:
        i10 = 0.5 * np.pi * np.sign(x)
        i11 = -0.25 * meijer_kernel(x, ell)

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

    return FieldState(sxx=float(sxx), syy=float(syy), sxy=float(sxy),
                      syx=float(syx), mxz=float(mxz), myz=float(myz),
                      ux=float(ux), uy=float(uy), omega=float(omega))
