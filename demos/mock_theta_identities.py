"""Walk through the exact q-series identities.

Each identity is verified coefficient-by-coefficient with exact integer
arithmetic; a failure would name the first discrepant exponent.  The
catalogue ties Ramanujan's fifth-order mock theta functions to the trace
functions through triple sums, Hecke-type double sums, and the splitting
into F0/F1 and phi0/phi1.
"""

from e8umbral import identity_suite, ramanujan_series

ORDER = 30

print("fifth-order series heads:")
for name in ("chi0", "chi1", "F0", "F1", "phi0", "phi1"):
    s = ramanujan_series(name, 8)
    head = ", ".join(f"{s.coefficient(n)} q^{n}" for n in range(5)
                     if s.coefficient(n))
    print(f"  {name:>4} = {head} + ...")

print()
print(f"identity suite at order {ORDER}:")
for report in identity_suite(ORDER):
    print(" ", report)

print()
print("A deliberately corrupted comparison, to show the failure mode:")
from e8umbral import QSeries, compare_series

chi0 = ramanujan_series("chi0", 12)
bumped = dict(chi0.coeffs)
bumped[5 * 120] += 1
print(" ", compare_series("chi0 vs chi0 + q^5", chi0,
                          QSeries(bumped, 12), 12))
