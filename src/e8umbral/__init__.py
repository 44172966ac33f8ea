"""Exact q-series engine and numeric verifier for the umbral
McKay-Thompson series attached to the E8^3 Niemeier root system.

The package constructs the vector-valued series H_g for the three
conjugacy classes of the S3 symmetry from cone-lattice trace formulas,
cross-checks them against independent computational routes (coset-sum
enumeration, fifth-order mock theta functions, Hecke-type double sums,
indefinite theta functions), reproduces the published coefficient tables,
and evaluates the completions (H_g plus the Eichler integral of its
shadow) and their weight-1/2 transformation law numerically.  Exported
here is the user API, the names that the demos and the README's library
sketch import from `e8umbral`; every other name comes from its module.
"""

from .qseries import QSeries
from .characters import CLASSES, TraceId, h_component, trace_closed
from .mocktheta import compare_series, identity_suite, ramanujan_series
from .maass import (h_value, indefinite_theta, multiplier_matrix,
                    tau1_identity_check, transform_check)

__version__ = "0.1.0"
