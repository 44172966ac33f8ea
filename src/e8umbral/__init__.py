"""Exact q-series engine and numeric verifier for the umbral
McKay-Thompson series attached to the E8^3 Niemeier root system.

The package constructs the vector-valued series H_g for the three
conjugacy classes of the S3 symmetry from cone-lattice trace formulas,
cross-checks them against independent computational routes (coset-sum
enumeration, fifth-order mock theta functions, Hecke-type double sums,
indefinite theta functions), reproduces the published coefficient tables,
and validates the mock modular transformation and shadow structure
numerically.
"""

from .qseries import (DEN, DivergenceError, GradingError, QSeries,
                      SeriesError, TruncationError, dedekind_eta,
                      euler_product, pochhammer)
from .lattice import ConePoint, enumerate_coset_cone
from .characters import (CLASS_1A, CLASS_2A, CLASS_3A, CLASSES, GroupClass,
                         MockFormVector, TraceId, all_trace_ids, assemble_H,
                         fermion_trace, h_component, heisenberg_trace,
                         trace_closed, trace_direct, trace_series)
from .mocktheta import (IdentityReport, compare_series, hecke_double_sum,
                        identity_suite, ramanujan_series, zwegers_triple_sum)
from .theta import (NullwerteReport, S_unary, eta_J_coefficients,
                    g_scaled_series, shadow_component, shadow_vector,
                    thetanullwerte_class_check)
from .maass import (ConvergenceError, IndefThetaData, NumericsError,
                    beta_incomplete, completion_value, e_function,
                    indefinite_theta, multiplier_matrix, nu_S, nu_T,
                    r_function, rho_3_3, series_value, tau1_identity_check,
                    theta_split_check, transform_check)

__version__ = "0.1.0"
