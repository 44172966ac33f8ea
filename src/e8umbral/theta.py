"""Unary theta functions of weight 3/2, shadow vectors, the thetanullwerte
exponent-class scan, and the eta-times-j-invariant series.

S_{m,r}(tau) = sum_k (2km + r) q^((2km+r)^2 / 4m) is the z-derivative at
z = 0 of the index-m Jacobi theta function; the shadows of the assembled
vector-valued series are the permutation character times fixed four-term
combinations of S_{30,r}.  Exponents are generated as integer numerators
over DEN = 120, and the theta-constant scan compares squares mod 4n, so
neither builds a Fraction per term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .characters import (FAMILY_1, FAMILY_7, GroupClass, MockFormVector,
                         component_family)
from .qseries import (DEN, GradingError, QSeries, SeriesError, _cap,
                      _order_value, dedekind_eta, eta_quotient)


def S_unary(m: int, r: int, order) -> QSeries:
    """S_{m,r} = sum_{k in Z} (2km + r) q^((2km+r)^2/4m), truncated.

    The grading denominator DEN = 120 must be divisible by 4m: m | 30.
    The exponent numerator of v = 2km + r is v^2 DEN/4m.
    """
    if m <= 0:
        raise SeriesError("index m must positive")
    if DEN % (4 * m) != 0:
        raise GradingError(
            f"denominator {DEN} too coarse for theta index {m}")
    ordv = _order_value(order)
    cap = _cap(ordv)
    step = DEN // (4 * m)
    coeffs: dict[int, int] = {}
    # |2km + r| <= sqrt(4 m order) bounds the summation range
    vmax = math.isqrt(max(cap // step, 0)) + 2 * m + abs(r)
    kmax = (vmax + abs(r)) // (2 * m) + 1
    for k in range(-kmax, kmax + 1):
        v = 2 * k * m + r
        en = v * v * step
        if en <= cap:
            coeffs[en] = coeffs.get(en, 0) + v
    return QSeries(coeffs, ordv)


# ----------------------------------------------------------------------
# shadow vectors


def shadow_component(group_class: GroupClass, r: int, order) -> QSeries:
    """The shadow of the r-th component: +-chi_bar * (four-term S sum),
    with the family and sign of component_family, and zero off the
    support."""
    ordv = _order_value(order)
    total = QSeries.zero(ordv)
    rule = component_family(r)
    if rule is None:
        return total
    family, sign = rule
    for s in (FAMILY_1 if family == 1 else FAMILY_7):
        total = total + S_unary(30, s, ordv)
    return total.scale(sign * group_class.perm_character)


def shadow_vector(group_class: GroupClass, order) -> MockFormVector:
    ordv = _order_value(order)
    return MockFormVector(group_class,
                          {r: shadow_component(group_class, r, ordv)
                           for r in range(60) if component_family(r)},
                          ordv)


# ----------------------------------------------------------------------
# thetanullwerte exponent-class scan


@dataclass(frozen=True)
class NullwerteReport:
    """Outcome of the exponent-class scan over theta constants."""

    base: int
    targets: tuple
    hits: tuple          # (n, r, class) triples that land on a target
    pairs_checked: int

    @property
    def empty(self) -> bool:
        return not self.hits


# the polar exponent classes mod 1 of the two nonzero component families
NULLWERTE_TARGETS = (Fraction(119, 120), Fraction(71, 120))


def thetanullwerte_class_check(max_divisor_base: int = 30) -> NullwerteReport:
    """Scan theta constants theta0_{n,r} for n dividing the base.

    theta0_{n,r}(tau) = sum_k q^((2kn+r)^2/4n) has all its exponents in a
    single class mod 1; the scan runs k over a full period mod 2n and
    records any (n, r) whose class hits a class t of NULLWERTE_TARGETS.
    In integers: v^2/4n = t mod 1 iff v^2 = 4nt mod 4n, which needs 4nt
    integral.  An empty hit list is the computational content of the
    uniqueness argument.
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
    return NullwerteReport(max_divisor_base, NULLWERTE_TARGETS, tuple(hits),
                           checked)


# ----------------------------------------------------------------------
# eta(tau) J(tau)


def _sigma3(n: int) -> int:
    return sum(d ** 3 for d in range(1, n + 1) if n % d == 0)


def eta_J_coefficients(order) -> QSeries:
    """eta(tau) * J(tau) with J = E4^3/Delta - 744 = q^-1 + O(q).

    E4 = 1 + 240 sum sigma_3(n) q^n and Delta = eta^24; the -744 constant
    is fixed by the normalization J = q^-1 + O(q).
    """
    ordv = _order_value(order)
    n_int = math.ceil(ordv) + 2
    e4 = QSeries({k * DEN: (1 if k == 0 else 240 * _sigma3(k))
                  for k in range(n_int + 1)}, n_int)
    j = (e4 ** 3) * eta_quotient({1: -24}, -1, n_int - 1) - 744
    eta = dedekind_eta(1, ordv + 2)
    return (eta * j).truncate(ordv)
