"""Numeric side: completions, the indefinite-theta route, and the
weight-1/2 transformation law.

The holomorphic components transform modularly only after adding the
Eichler integral of the shadow (scaled by 1/sqrt(60)), which is a sum of
four Zwegers R-functions R_{s/60,0}(60 tau), each with a certified tail.
For the order-2 class the same completion also arises as a quotient of an
indefinite theta function by eta(2 tau), giving a genuinely independent
route.
"""

from e8umbral import (CLASSES, h_value, indefinite_theta, multiplier_matrix,
                      tau1_identity_check, transform_check)
from e8umbral.characters import FAMILIES
from e8umbral.maass import order2_theta_data

tau = 0.1 + 0.8j

print("completed components at tau =", tau)
for name, cls in CLASSES.items():
    for r in FAMILIES:
        v, _ = h_value(cls, r, tau, 1e-9, completion=True)
        print(f"  H^hat[{name}, r={r}] = {v:.10f}")

print()
print("indefinite-theta route (order-2 class):")
for r in FAMILIES:
    data = order2_theta_data(r)
    th = indefinite_theta(data, tau, 1e-10)
    res = tau1_identity_check(tau, r, 1e-8)
    print(f"  r={r}: theta = {th:.8f},  completion-identity residual "
          f"= {res:.2e}")

print()
print("transformation residuals of the completed 2-vector:")
for name, cls in CLASSES.items():
    for gamma in cls.check_gammas:
        res = transform_check(cls, gamma, 0.2 + 1.1j, 1e-8)
        print(f"  {name} under {gamma}: {res:.2e}")

print()
print("multiplier matrix of S (printed sine matrix, unitary):")
for row in multiplier_matrix(((0, -1), (1, 0))):
    print("  " + "  ".join(f"{z:.6f}" for z in row))
