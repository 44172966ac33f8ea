"""Build the two coefficient tables from the trace formulas.

The component H_{g,1} is twice the coset-1 trace; H_{g,7} is twice the
coset-3 trace with a class-dependent sign.  Every coefficient is an exact
integer (in fact an even one), so the printed rows can be compared
against the published tables digit for digit.
"""

from fractions import Fraction

from e8umbral import CLASSES, h_component, ramanujan_series
from e8umbral.characters import FAMILIES

ROWS = 12

for f in FAMILIES.values():
    print(f"component {f.r} (exponents ({f.lead} + 120 n)/120)")
    series = {n: h_component(c, f.r, ROWS + 1) for n, c in CLASSES.items()}
    print(f"{'row':>6}  " + "".join(f"{n:>6}" for n in CLASSES))
    for k in range(ROWS):
        num = f.lead + 120 * k
        vals = [series[n].coefficient(Fraction(num, 120)) for n in CLASSES]
        print(f"{num:>6}  " + "".join(f"{str(v):>6}" for v in vals))
    print()

print("The 1A column of component 1 is 2(chi0 - 2) shifted by q^(-1/120):")
chi0 = ramanujan_series("chi0", ROWS + 1)
head = [2 * (chi0.coefficient(n) - (2 if n == 0 else 0))
        for n in range(6)]
print("  2(chi0 - 2) coefficients:", head)
