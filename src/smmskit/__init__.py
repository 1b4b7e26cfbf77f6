"""Numerical verification of weighted comparison geometry on rotationally
symmetric smooth metric measure spaces: curvature/measure quantities,
comparison inequality checkers, diameter bounds and Dirichlet eigenvalues.
"""

__version__ = "0.1.0"

from .numkit import (Tolerance, DEFAULT_TOL, quad_adaptive, find_root_bracketed,
                     sphere_area)
from .model import (ModelSpace, sn, sn_prime, conjugate_radius,
                    mean_curvature_model, area_model, volume_model, c_const)
from .smms import (RadialProfile, WarpedSMMS, PotentialBounds, CATALOG, make_space,
                   profile_from_spec, ricci_radial, mean_curvature_f, rho,
                   integral_rho, potential_bounds, weighted_area)
from .comparison import (ComparisonReport, DoublingCertificate, check_mc_rough,
                         check_mc_bounded_f_inner, check_mc_bounded_f_pi2,
                         check_mc_drift, check_area_comparison,
                         check_volume_comparison, check_volume_absolute,
                         check_vol_r1, doubling_epsilon, check_doubling,
                         check_absolute_volume_negH, volume_ratio_profile)
from .diameter import (DiameterReport, myers_bound_bounded_f,
                       myers_bound_gradient, myers_bound_indexform,
                       actual_diameter, index_form_total, check_myers)
from .eigen import (EigenResult, ChengReport, model_eigenvalue,
                    smms_radial_eigenvalue, rayleigh_quotient_transplant,
                    cheng_constants, check_cheng_estimate)
