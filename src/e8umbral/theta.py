"""The thetanullwerte exponent-class scan: does any theta constant of
index dividing a base share an exponent class mod 1 with a polar term of
the E8^3 components?  Squares are compared mod 4n in integers, so no
Fraction is built per term."""

from __future__ import annotations

from fractions import Fraction

# the polar exponent classes mod 1 of the two nonzero component families
NULLWERTE_TARGETS = (Fraction(119, 120), Fraction(71, 120))


def thetanullwerte_class_check(max_divisor_base: int = 30) -> tuple:
    """Scan theta constants theta0_{n,r} for n dividing the base.

    theta0_{n,r}(tau) = sum_k q^((2kn+r)^2/4n) has all its exponents in a
    single class mod 1; the scan runs k over a full period mod 2n and
    records any (n, r) whose class hits a class t of NULLWERTE_TARGETS.
    In integers: v^2/4n = t mod 1 iff v^2 = 4nt mod 4n, which needs 4nt
    integral.  Returns (hits, pairs_checked), hits the (n, r, class)
    triples that land on a target; an empty hit list is the computational
    content of the uniqueness argument.
    """
    hits = []
    checked = 0
    for n in range(1, max_divisor_base + 1):
        if max_divisor_base % n:
            continue
        residues = [(t, x.numerator) for t in NULLWERTE_TARGETS
                    if (x := 4 * n * t).denominator == 1]
        for r in range(2 * n):
            checked += 1
            classes = {(2 * k * n + r) ** 2 % (4 * n) for k in range(2 * n)}
            hits.extend((n, r, t) for t, res in residues if res in classes)
    return tuple(hits), checked
