"""Exact q-series engine and numeric verifier for the umbral
McKay-Thompson series attached to the E8^3 Niemeier root system.

The package constructs the vector-valued series H_g for the three
conjugacy classes of the S3 symmetry from cone-lattice trace formulas,
cross-checks them against independent computational routes (coset-sum
enumeration, fifth-order mock theta functions, Hecke-type double sums,
indefinite theta functions), reproduces the published coefficient tables,
and evaluates the completions (H_g plus the Eichler integral of its
shadow) and their weight-1/2 transformation law numerically.  Everything
exported here is used by the CLI (table, verify, eval), the demos or
another module of the package; checks that only the tests need live in
the tests.
"""

from .qseries import (DEN, DivergenceError, GradingError, QSeries,
                      SeriesError, TruncationError, dedekind_eta)
from .characters import (CLASS_1A, CLASS_2A, CLASS_3A, CLASSES, GroupClass,
                         TraceId, all_trace_ids, h_component,
                         heisenberg_trace, trace_closed, trace_direct)
from .mocktheta import (IdentityReport, compare_series, identity_suite,
                        octant_series, ramanujan_series)
from .theta import thetanullwerte_class_check
from .maass import (ConvergenceError, IndefThetaData, NumericsError,
                    beta_incomplete, completion_value, h_value,
                    indefinite_theta, multiplier_matrix, nu_S, nu_T,
                    r_function, tau1_identity_check, transform_check)

__version__ = "0.1.0"
