"""The thetanullwerte exponent-class scan: does any theta constant of
index dividing a base share an exponent class mod 1 with a polar term of
the E8^3 components?  Classes are compared as integers: a target is a
numerator over ``qseries.DEN`` = 120, and a square mod 120 n."""

from .characters import FAMILIES
from .qseries import DEN

# the families' leading exponents mod 1, as numerators over 120: 119, 71
NULLWERTE_TARGETS = tuple(f.lead % DEN for f in FAMILIES.values())


def thetanullwerte_class_check(max_divisor_base: int) -> tuple:
    """Scan theta constants theta0_{n,r} for n dividing the base.

    theta0_{n,r}(tau) = sum_k q^((2kn+r)^2/4n) has all its exponents in
    the single class r^2/4n mod 1, since (2kn+r)^2 = r^2 mod 4n.  The scan
    records each (n, r), 0 <= r < 2n, whose class is a class t/120 of
    NULLWERTE_TARGETS: r^2/4n = t/120 mod 1 iff 30 r^2 = n t mod 120 n.
    Returns (hits, pairs_checked), hits the (n, r, t) triples that land
    on a target; an empty hit list is the computational content of the
    uniqueness argument.
    """
    divisors = [n for n in range(1, max_divisor_base + 1)
                if max_divisor_base % n == 0]
    hits = tuple((n, r, t) for n in divisors for r in range(2 * n)
                 for t in NULLWERTE_TARGETS
                 if (30 * r * r - n * t) % (120 * n) == 0)
    return hits, sum(2 * n for n in divisors)
