"""Mode-I crack solver for couple-stress elasticity.

A finite straight crack under remote tension is modeled by continuous
distributions of climb dislocations and constrained wedge disclinations;
the coupled Cauchy/logarithmic singular integral equations are solved by
Gauss-Chebyshev collocation and post-processed into crack profiles, the
stress intensity factor, near-tip fields, and the energy release rate.
"""

from .greens import (DefectCharge, FieldState, MaterialParams, full_field,
                     line_m_yz, line_sigma_yy)
from .post import (ClassicalBaseline, CrackProfiles, TipQuantities,
                   classical_baseline, crack_profiles, stress_ahead,
                   tip_quantities)
from .sie import (CrackProblem, DensitySolution, Discretization, SolverError,
                  assemble, log_quadrature_weight, solve)
from .specfun import k0_log_reg, k2_reg, k3_reg, meijer_kernel

__version__ = "0.1.0"

__all__ = [
    "MaterialParams", "DefectCharge", "FieldState",
    "line_sigma_yy", "line_m_yz", "full_field",
    "CrackProblem", "Discretization", "DensitySolution", "SolverError",
    "log_quadrature_weight",
    "assemble", "solve",
    "CrackProfiles", "TipQuantities", "ClassicalBaseline",
    "crack_profiles", "tip_quantities", "stress_ahead", "classical_baseline",
    "k2_reg", "k0_log_reg", "meijer_kernel", "k3_reg",
    "__version__",
]
