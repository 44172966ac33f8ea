"""The signature-(1,2) rank-3 lattice, its double cone, and coset enumeration.

The lattice L has Gram matrix <e_i, e_j> = 2 - delta_ij and distinguished
dual vector rho = (e_1 + e_2 + e_3)/5.  The cone D is the union of the
closed non-negative octant P and the open negative octant N in basis
coordinates.  For odd 0 < a < 10 the shifted cone points D cap (L + a*rho/2)
are parametrized by integer triples (k, l, m): branch P iff all >= 0,
branch N iff all < 0, because the coordinates of mu = k e_1 + l e_2 + m e_3
+ (a/2) rho are (k + a/10, l + a/10, m + a/10).

Q(mu) = <mu,mu>/2 is strictly positive on nonzero cone vectors, and on
either branch Q(mu) >= sum(coords^2)/2 since all cross terms have equal
signs; that certified bound drives the enumeration boxes.  A cone point is
the integer tuple (120 Q(mu), coords, branch): Q(mu) lies on the grid
1/120 of ``qseries.DEN``, so the energy is carried as its numerator.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import itemgetter

from .qseries import DEN


class LatticeError(ValueError):
    pass


def _q_of(coords: tuple[int, int, int], a: int) -> int:
    """DEN * Q(mu) = 120 Q(mu), an integer."""
    k, l, m = coords
    return 60 * (k * k + l * l + m * m) + 240 * (k * l + l * m + m * k) + \
        60 * a * (k + l + m) + 9 * a * a


def _positive_branch(a: int, cycles,
                     bound: Fraction) -> list[tuple[int, tuple]]:
    """(120 Q(mu), coords) for the branch-P points of L + a*rho/2 that are
    constant on each cycle, with Q(mu) <= bound.  On branch P every
    coordinate of mu is >= a/10 > 0 and the cross terms of Q are
    non-negative, so Q >= (k^2+l^2+m^2)/2 and the scanned box is
    complete.  One unit of slack on top of the certified bound."""
    box = range(math.isqrt(max(math.ceil(2 * bound), 0)) + 2)
    # coordinate i takes the free value of the cycle holding i
    owner = {i: j for j, c in enumerate(cycles) for i in c}
    spread = itemgetter(*(owner[i] for i in range(3)))
    points = map(spread, itertools.product(box, repeat=len(cycles)))
    cap = math.floor(bound * DEN)
    return [(num, coords) for coords in points
            if (num := _q_of(coords, a)) <= cap]


def enumerate_coset_cone(a: int, cycles,
                         energy_bound) -> list[tuple[int, tuple, str]]:
    """All mu in D cap (L + a*rho/2) with Q(mu) <= energy_bound and
    coordinates equal along each of the given cycles (a partition of
    the indices 0, 1, 2: one free coordinate per cycle), as sorted
    (120 Q(mu), coords, branch) tuples with branch "P" or "N".

    Branch P is a direct box scan; branch N is obtained from the negation
    bijection N(L + a*rho/2) = -P(L + (10-a)*rho/2), which preserves Q.
    Completeness below the bound is a hard contract.
    """
    if not (0 < a < 10 and a % 2 == 1):
        raise LatticeError("coset label a must be odd with 0 < a < 10")
    bound = Fraction(energy_bound)
    points = [(num, coords, "P")
              for num, coords in _positive_branch(a, cycles, bound)]
    points += [(num, tuple(-c - 1 for c in coords), "N")
               for num, coords in _positive_branch(10 - a, cycles, bound)]
    points.sort()
    return points
