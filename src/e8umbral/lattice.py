"""The signature-(1,2) rank-3 lattice, its double cone, and coset enumeration.

The lattice L has Gram matrix <e_i, e_j> = 2 - delta_ij and distinguished
dual vector rho = (e_1 + e_2 + e_3)/5.  The cone D is the union of the
closed non-negative octant P and the open negative octant N in basis
coordinates.  For odd 0 < a < 10 the shifted cone points D cap (L + a*rho/2)
are parametrized by integer triples (k, l, m): branch P iff all >= 0,
branch N iff all < 0, because the coordinates of mu = k e_1 + l e_2 + m e_3
+ (a/2) rho are (k + a/10, l + a/10, m + a/10).

Q(mu) = <mu,mu>/2 is strictly positive on nonzero cone vectors.  On
branch P it is non-decreasing in every coordinate, since all coefficients
of Q in (k, l, m) are non-negative, so the scan of each coordinate stops
at its first point past the bound.  Branch N needs no scan of its own:
negation maps N(L + a*rho/2) onto P(L + (10-a)*rho/2), preserving Q, so
its points are those of the branch-P scan of the opposite coset with each
coordinate x mapped to -1 - x.  A scanned point is the pair
(120 Q(mu), coords): Q(mu) lies on the grid 1/120 of ``qseries.DEN``, so
the energy is carried as its numerator, and so is the bound of a scan.
"""

from functools import lru_cache
from operator import itemgetter


def _q_of(coords: tuple[int, int, int], a: int) -> int:
    """120 Q(mu), an integer."""
    k, l, m = coords
    return 60 * (k * k + l * l + m * m) + 240 * (k * l + l * m + m * k) + \
        60 * a * (k + l + m) + 9 * a * a


@lru_cache(maxsize=None)
def _positive_branch(a: int, cycles, cap) -> tuple[tuple[int, tuple], ...]:
    """(120 Q(mu), coords) for the branch-P points of L + a*rho/2 that are
    constant on each cycle, with 120 Q(mu) <= cap.  Cached: the cones of
    cosets a and 10 - a share their two scans, so over the five cosets
    of a class each scan runs once.

    Completeness: every coefficient of ``_q_of`` is >= 0 and a > 0, so on
    branch P 120 Q(mu) is non-decreasing in every free coordinate.  The
    least point with a given prefix of free values sets the rest to 0, so
    each coordinate loop stops at its first value whose least point is
    past the cap, without skipping one.
    """
    # coordinate i takes the free value of the cycle holding i
    spread = itemgetter(*(j for i in range(3)
                          for j, c in enumerate(cycles) if i in c))
    points = []

    def walk(free) -> bool:
        """Add the points with this prefix; False if there are none."""
        t = 0
        while True:
            prefix = free + (t,)
            if len(prefix) < len(cycles):
                found = walk(prefix)
            else:
                coords = spread(prefix)
                num = _q_of(coords, a)
                found = num <= cap
                if found:
                    points.append((num, coords))
            if not found:
                return t > 0
            t += 1

    walk(())
    return tuple(points)
