"""Graded trace functions on the twisted cone modules and the
McKay-Thompson vector assembly.

Two independent routes compute the same traces:

* ``trace_closed`` evaluates the closed triple/double/single lattice sums
  (one shape per conjugacy class of the S3 symmetry) against the printed
  eta-quotient prefactors;
* ``trace_direct`` pairs the Clifford and Heisenberg factors with an
  explicit sum over enumerated cone points, applying the character-level
  sign rules of the group action.

Both accept coset labels a in {1,3,5,7,9} and a Clifford sign.  The
vector-valued series H_g has sixty components supported on the residues
+-{1,7,11,13,17,19,23,29} mod 60 (the E8 Coxeter exponents); components in
the 1-family come from the a=1 trace and components in the 7-family from
the a=3 trace with a class-dependent sign, which is the normalization that
reproduces the published coefficient tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from .lattice import enumerate_coset_cone
from .qseries import (DEN, GradingError, QSeries, SeriesError,
                      dedekind_eta, euler_product, _order_value)

COSET_LABELS = (1, 3, 5, 7, 9)

# component support: the Coxeter exponents of E8, as residues mod 60
FAMILY_1 = (1, 11, 19, 29)
FAMILY_7 = (7, 13, 17, 23)
SUPPORT_POS = tuple(sorted(FAMILY_1 + FAMILY_7))


@dataclass(frozen=True)
class GroupClass:
    """A conjugacy class of the S3 action permuting the basis vectors."""

    name: str
    permutation: tuple[int, int, int]   # images of indices (0, 1, 2)
    perm_character: int                 # number of fixed basis vectors
    order: int

    def __post_init__(self):
        fixed = sum(1 for i, p in enumerate(self.permutation) if i == p)
        if fixed != self.perm_character:
            raise ValueError("permutation character must count fixed points")


CLASS_1A = GroupClass("1A", (0, 1, 2), 3, 1)
CLASS_2A = GroupClass("2A", (1, 0, 2), 1, 2)
CLASS_3A = GroupClass("3A", (1, 2, 0), 0, 3)

CLASSES = {"1A": CLASS_1A, "2A": CLASS_2A, "3A": CLASS_3A}


@dataclass(frozen=True)
class TraceId:
    """(class, coset label, Clifford sign) naming one trace function."""

    group_class: GroupClass
    coset_a: int
    clifford_sign: int

    def __post_init__(self):
        if self.coset_a not in COSET_LABELS:
            raise ValueError("coset label must be odd with 0 < a < 10")
        if self.clifford_sign not in (1, -1):
            raise ValueError("Clifford sign must be +1 or -1")


def all_trace_ids() -> list[TraceId]:
    return [TraceId(cls, a, s)
            for cls in (CLASS_1A, CLASS_2A, CLASS_3A)
            for a in COSET_LABELS
            for s in (1, -1)]


# ----------------------------------------------------------------------
# Clifford and Heisenberg factors


def fermion_trace(sign: int, order) -> QSeries:
    """+-q^(1/24) (q;q)_inf, the graded trace of the one-fermion zero mode
    on its twisted module."""
    if sign not in (1, -1):
        raise SeriesError("sign must be +1 or -1")
    return dedekind_eta(1, order).scale(sign)


def heisenberg_trace(group_class: GroupClass, order) -> QSeries:
    """q^(-3/24) prod_n det(1 - q^n P)^(-1) for the permutation P acting on
    the rank-3 boson, as an eta-quotient by cycle type."""
    ordv = _order_value(order)
    shift = Fraction(-3, 24)
    inner = ordv - shift
    if group_class.order == 1:
        body = (euler_product(1, inner) ** 3).invert()
    elif group_class.order == 2:
        body = (euler_product(1, inner) * euler_product(2, inner)).invert()
    else:
        body = euler_product(3, inner).invert()
    return body.shift(shift).truncate(ordv)


def _closed_prefactor(group_class: GroupClass, order) -> QSeries:
    """The printed prefactors: q^(-1/12)/(q;q)^2, q^(-1/12)/(q^2;q^2),
    q^(-1/12)(q;q)/(q^3;q^3)."""
    ordv = _order_value(order)
    shift = Fraction(-1, 12)
    inner = ordv - shift
    if group_class.order == 1:
        body = (euler_product(1, inner) ** 2).invert()
    elif group_class.order == 2:
        body = euler_product(2, inner).invert()
    else:
        body = euler_product(1, inner) * euler_product(3, inner).invert()
    return body.shift(shift).truncate(ordv)


# ----------------------------------------------------------------------
# closed-form route (explicit octant sums)


def octant_sum(gram, lin, shift, signs, negative_sign: int, cap,
               parity=None) -> QSeries:
    """The signed sum over both octants of Z^n, truncated at q^cap:

        (sum_{x >= 0} + negative_sign * sum_{x < 0}) (-1)^(signs.x)
            q^((x.gram.x + lin.x)/2 + shift)

    where x < 0 means every coordinate is negative, and with parity given
    only points with parity.x even are summed.  gram and lin are integer,
    shift rational.

    Completeness: on either octant put x = y or x = -1 - y with y >= 0;
    then twice the exponent minus 2 shift is y.gram.y + w.y + c with
    w = lin resp. 2 gram.1 - lin.  With gram and w entrywise non-negative
    and gram positive on the diagonal, that is non-decreasing in every
    y_j, so each coordinate loop stops at its first point past the cap
    without skipping one, and y_j <= sqrt((2 (cap - shift) - c)/gram_jj).
    Exponents are integer numerators throughout.
    """
    n = len(lin)
    two_g1 = [2 * sum(row) for row in gram]
    octants = ((1, 0, lin, 0),
               (negative_sign, 1, [g - l for g, l in zip(two_g1, lin)],
                sum(two_g1) // 2 - sum(lin)))
    if min(min(row) for row in gram) < 0 or \
            min(gram[j][j] for j in range(n)) <= 0 or \
            min(min(o[2]) for o in octants) < 0:
        raise SeriesError("octant sum outside its certified bound")
    limit = math.floor(2 * (_order_value(cap) - Fraction(shift)))
    offset = Fraction(shift) * DEN
    if offset.denominator != 1:
        raise GradingError(f"shift {shift} not representable over {DEN}")
    coeffs: dict[int, int] = {}
    for outer, flip, w, c in octants:
        # x = -1 - y flips the parity of signs.x and parity.x by their sums
        sign0 = -outer if flip * sum(signs) % 2 else outer
        par0 = flip * sum(parity) if parity else 0
        for y, v in _octant_points(gram, w, c, limit):
            if parity and (par0 + _dot(parity, y)) % 2:
                continue
            e = v * DEN // 2 + offset.numerator
            coeffs[e] = coeffs.get(e, 0) + \
                (-sign0 if _dot(signs, y) % 2 else sign0)
    return QSeries(coeffs, cap)


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _octant_points(gram, w, c, limit):
    """(y, y.gram.y + w.y + c) for every y in N^n with value <= limit."""
    n = len(w)

    def walk(y, base):
        j = len(y)
        slope = w[j] + 2 * _dot(gram[j], y)
        t = 0
        while True:
            v = base + t * (slope + gram[j][j] * t)
            if v > limit:
                return
            if j + 1 == n:
                yield y + (t,), v
            else:
                yield from walk(y + (t,), v)
            t += 1

    return walk((), c)


# the three class shapes of the closed octant sums, with lin = a * lin_unit
# and shift 3a^2/40: (gram, lin_unit, signs, negative-octant sign)
_CLOSED_SHAPES = {
    1: (((1, 2, 2), (2, 1, 2), (2, 2, 1)), (1, 1, 1), (1, 1, 1), 1),
    2: (((6, 4), (4, 1)), (2, 1), (1, 1), -1),
    3: (((15,),), (3,), (1,), 1),
}


def trace_closed(trace_id: TraceId, order) -> QSeries:
    """The closed lattice-sum expression for one trace function."""
    ordv = _order_value(order)
    cls = trace_id.group_class
    cap = ordv + Fraction(1, 12)   # prefactor valuation is -1/12
    a = trace_id.coset_a
    gram, lin_unit, signs, neg = _CLOSED_SHAPES[cls.order]
    lat = octant_sum(gram, [a * u for u in lin_unit], Fraction(3 * a * a, 40),
                     signs, neg, cap)
    pref = _closed_prefactor(cls, ordv + Fraction(1, 12) + 1)
    out = (pref * lat).scale(trace_id.clifford_sign)
    return out.truncate(ordv)


# ----------------------------------------------------------------------
# direct route (enumerated cone points with group sign rules)


def trace_direct(trace_id: TraceId, order) -> QSeries:
    """Trace via enumerated coset-cone points.

    The prefactor is assembled from fermion_trace and heisenberg_trace (an
    independent path from the printed eta-quotients), and the lattice part
    sums sign(mu) q^Q(mu) over enumerate_coset_cone output with the
    character-level sign rules for each class.
    """
    ordv = _order_value(order)
    cls = trace_id.group_class
    a = trace_id.coset_a
    pref = fermion_trace(trace_id.clifford_sign, ordv + Fraction(1, 12) + 1) \
        * heisenberg_trace(cls, ordv + Fraction(1, 12) + 1)
    cap = ordv + Fraction(1, 12)
    fix = {1: None, 2: "tau", 3: "sigma"}[cls.order]
    coeffs: dict[int, int] = {}
    for pt in enumerate_coset_cone(a, fix, cap):
        k, l, m = pt.coords
        if cls.order == 1:
            sign = -1 if (k + l + m) % 2 else 1
        elif cls.order == 2:
            # (-1)^<lambda, rho + e_1'> = (-1)^(3k+m), with the extra sign
            # automorphism flip on branch N
            sign = -1 if (3 * k + m) % 2 else 1
            if pt.branch == "N":
                sign = -sign
        else:
            sign = -1 if k % 2 else 1
        en = int(pt.q * DEN)
        coeffs[en] = coeffs.get(en, 0) + sign
    lat_sum = QSeries(coeffs, cap)
    return (pref * lat_sum).truncate(ordv)


# ----------------------------------------------------------------------
# symmetry normalization and the McKay-Thompson vector


@lru_cache(maxsize=None)
def _closed_cached(name: str, a: int, sign: int, order: Fraction) -> QSeries:
    return trace_closed(TraceId(CLASSES[name], a, sign), order)


def h_component(group_class: GroupClass, r: int, order) -> QSeries:
    """The series H_{g,r} = 2 T_{g,r} for r in the positive support.

    r in {1,11,19,29} uses the a=1 trace; r in {7,13,17,23} uses the a=3
    trace negated for the order-1 and order-3 classes (the sign that makes
    the assembled vector match the published tables and the fifth-order
    mock theta identities).
    """
    ordv = _order_value(order)
    if r % 60 in FAMILY_1:
        t = _closed_cached(group_class.name, 1, -1, ordv)
        return t.scale(2)
    if r % 60 in FAMILY_7:
        t = _closed_cached(group_class.name, 3, -1, ordv)
        return t.scale(2 if group_class.order == 2 else -2)
    raise ValueError(f"component {r} is not in the positive support")


@dataclass(frozen=True)
class MockFormVector:
    """Sixty-component vector of series indexed by r mod 60: H_g itself
    (assemble_H) or its weight-3/2 shadow (theta.shadow_vector)."""

    group_class: GroupClass
    components: dict      # r -> QSeries, only nonzero entries stored
    order: Fraction

    def component(self, r: int) -> QSeries:
        return self.components.get(r % 60, QSeries.zero(self.order))


def assemble_H(group_class: GroupClass, order) -> MockFormVector:
    """H_g as a vector: odd in r, supported on the E8 Coxeter exponents."""
    ordv = _order_value(order)
    comps: dict[int, QSeries] = {}
    for r in SUPPORT_POS:
        h = h_component(group_class, r, ordv)
        comps[r] = h
        comps[(-r) % 60] = -h
    return MockFormVector(group_class, comps, ordv)


def trace_symmetry_sign(group_class: GroupClass, a: int) -> tuple[int, int]:
    """Reduce an arbitrary odd coset label to (representative in
    {1,3,5,7,9}, sign) consistently with the closed formulas.

    The octant sums are 20-periodic in a and satisfy two exact relations:
    negating the summation index gives F(g, 10-a) = -F(g, a) for every
    class, and shifting the coset representative by 5*rho gives
    F(g, a+10) = -F(g, a) for the order-1 and order-3 classes but
    F(g, a+10) = +F(g, a) for the order-2 class (the representative enters
    the order-2 sign rule through an extra dual-basis pairing of even
    weight).  Together these reproduce F(g, -a) = +-F(g, a) with + exactly
    when the class order is 1 or 3.
    """
    if a % 2 == 0:
        raise ValueError("coset label must be odd")
    eps10 = 1 if group_class.order == 2 else -1
    sign = 1
    a = a % 20
    if a > 10:
        a -= 10
        sign *= eps10
    return a, sign


def trace_series(group_class: GroupClass, a: int, clifford_sign: int,
                 order) -> QSeries:
    """Closed-route trace for any odd coset label, normalized into
    {1,3,5,7,9} with the sign carried explicitly."""
    rep, sgn = trace_symmetry_sign(group_class, a)
    t = trace_closed(TraceId(group_class, rep, clifford_sign), order)
    return t.scale(sgn)
