"""Build the two coefficient tables from the trace formulas.

The component H_{g,1} is twice the coset-1 trace; H_{g,7} is twice the
coset-3 trace with a class-dependent sign.  Every coefficient is an exact
integer (in fact an even one), so the printed rows can be compared
against the published tables digit for digit.
"""

from fractions import Fraction

from e8umbral import CLASSES, h_component

NAMES = ("1A", "2A", "3A")
ROWS = 12

print("component 1 (exponents (-1 + 120 n)/120)")
series = {n: h_component(CLASSES[n], 1, ROWS + 1) for n in NAMES}
print(f"{'row':>6}  " + "".join(f"{n:>6}" for n in NAMES))
for k in range(ROWS):
    num = -1 + 120 * k
    vals = [series[n].coefficient(Fraction(num, 120)) for n in NAMES]
    print(f"{num:>6}  " + "".join(f"{str(v):>6}" for v in vals))

print()
print("component 7 (exponents (71 + 120 n)/120)")
series = {n: h_component(CLASSES[n], 7, ROWS + 1) for n in NAMES}
print(f"{'row':>6}  " + "".join(f"{n:>6}" for n in NAMES))
for k in range(ROWS):
    num = 71 + 120 * k
    vals = [series[n].coefficient(Fraction(num, 120)) for n in NAMES]
    print(f"{num:>6}  " + "".join(f"{str(v):>6}" for v in vals))

print()
print("The 1A column of component 1 is 2(chi0 - 2) shifted by q^(-1/120):")
from e8umbral import ramanujan_series

chi0 = ramanujan_series("chi0", ROWS + 1)
head = [2 * (chi0.coefficient(n) - (2 if n == 0 else 0))
        for n in range(6)]
print("  2(chi0 - 2) coefficients:", head)
