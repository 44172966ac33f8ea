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
signs; that certified bound drives the enumeration boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

Vector = Sequence[Fraction]

GRAM = ((1, 2, 2), (2, 1, 2), (2, 2, 1))


class LatticeError(ValueError):
    pass


RHO = (Fraction(1, 5), Fraction(1, 5), Fraction(1, 5))


def pair(u: Vector, v: Vector) -> Fraction:
    """Bilinear form <u, v> in basis coordinates."""
    return sum((Fraction(u[i]) * GRAM[i][j] * Fraction(v[j])
                for i in range(3) for j in range(3)), Fraction(0))


def q_norm(u: Vector) -> Fraction:
    return pair(u, u) / 2


@dataclass(frozen=True, order=True)
class ConePoint:
    """A point mu of D cap (L + a*rho/2), stored by its L-part coordinates."""

    q: Fraction                 # <mu,mu>/2, kept first for sorted output
    coords: tuple[int, int, int]
    coset_a: int
    branch: str                 # "P" or "N"

    def mu(self) -> tuple[Fraction, Fraction, Fraction]:
        s = Fraction(self.coset_a, 10)
        return tuple(c + s for c in self.coords)


def _q_of(coords: tuple[int, int, int], a: int) -> Fraction:
    k, l, m = coords
    quad = Fraction(k * k + l * l + m * m, 2) + 2 * (k * l + l * m + m * k)
    return quad + Fraction(a * (k + l + m), 2) + Fraction(3 * a * a, 40)


def _fixed(coords: tuple[int, int, int], g_fix: Optional[str]) -> bool:
    k, l, m = coords
    if g_fix is None or g_fix == "none":
        return True
    if g_fix == "tau":
        return k == l
    if g_fix == "sigma":
        return k == l == m
    raise LatticeError(f"unknown fixed-point filter {g_fix!r}")


def _positive_branch(a: int, g_fix: Optional[str],
                     bound: Fraction) -> list[tuple[Fraction, tuple]]:
    # On branch P every coordinate of mu is >= a/10 > 0 and the cross terms
    # of Q are non-negative, so Q >= (k^2+l^2+m^2)/2 and the box below is
    # complete.  One unit of slack on top of the certified bound.
    if bound < 0:
        return []
    box = math.isqrt(math.ceil(2 * bound)) + 1
    out = []
    for k in range(box + 1):
        for l in range(box + 1):
            for m in range(box + 1):
                coords = (k, l, m)
                if not _fixed(coords, g_fix):
                    continue
                q = _q_of(coords, a)
                if q <= bound:
                    out.append((q, coords))
    return out


def enumerate_coset_cone(a: int, g_fix: Optional[str],
                         energy_bound) -> list[ConePoint]:
    """All mu in D cap (L + a*rho/2) with Q(mu) <= energy_bound.

    Branch P is a direct box scan; branch N is obtained from the negation
    bijection N(L + a*rho/2) = -P(L + (10-a)*rho/2), which preserves Q.
    Completeness below the bound is a hard contract.  Results are sorted.
    """
    if not (0 < a < 10 and a % 2 == 1):
        raise LatticeError("coset label a must be odd with 0 < a < 10")
    bound = Fraction(energy_bound)
    points = [ConePoint(q, coords, a, "P")
              for q, coords in _positive_branch(a, g_fix, bound)]
    for q, coords in _positive_branch(10 - a, g_fix, bound):
        neg = tuple(-c - 1 for c in coords)
        points.append(ConePoint(q, neg, a, "N"))
    points.sort()
    return points
