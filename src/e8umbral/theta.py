"""Unary theta functions of weight 3/2, shadow vectors, the thetanullwerte
exponent-class scan, and the eta-times-j-invariant series.

S_{m,r}(tau) = sum_k (2km + r) q^((2km+r)^2 / 4m) is the z-derivative at
z = 0 of the index-m Jacobi theta function; the shadows of the assembled
vector-valued series are the permutation character times fixed four-term
combinations of S_{30,r}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .characters import (FAMILY_1, FAMILY_7, GroupClass, MockFormVector,
                         component_family)
from .qseries import (DEN, GradingError, QSeries, SeriesError,
                      _order_value, dedekind_eta, eta_quotient)


def S_unary(m: int, r: int, order) -> QSeries:
    """S_{m,r} = sum_{k in Z} (2km + r) q^((2km+r)^2/4m), truncated.

    The grading denominator DEN = 120 must be divisible by 4m: m | 30.
    """
    if m <= 0:
        raise SeriesError("index m must positive")
    if DEN % (4 * m) != 0:
        raise GradingError(
            f"denominator {DEN} too coarse for theta index {m}")
    ordv = _order_value(order)
    coeffs: dict[int, int] = {}
    # |2km + r| <= sqrt(4 m order) bounds the summation range
    vmax = math.isqrt(math.ceil(4 * m * ordv)) + 2 * m + abs(r)
    kmax = (vmax + abs(r)) // (2 * m) + 1
    for k in range(-kmax, kmax + 1):
        v = 2 * k * m + r
        e = Fraction(v * v, 4 * m)
        if e > ordv:
            continue
        en = int(e * DEN)
        coeffs[en] = coeffs.get(en, 0) + v
    return QSeries(coeffs, ordv)


def g_scaled_series(char_numer: int, two_m: int, order) -> QSeries:
    """q-expansion of g_{a,0}(2m tau) for a = char_numer/(2m), where
    g_{a,0}(tau) = sum_{nu in a+Z} nu q^(nu^2/2).

    Termwise this equals S_{m,r}(tau)/(2m) with r = char_numer: the scaled
    exponent is 2m * nu^2/2 = (2km+r)^2/4m and the coefficient nu is
    (2km+r)/2m.  (The factor-2 argument scaling is forced by the exponent
    arithmetic; the sibling identities for the R-functions use the same
    normalization.)
    """
    ordv = _order_value(order)
    m2 = two_m
    coeffs: dict[int, Fraction] = {}
    kmax = (math.isqrt(math.ceil(2 * m2 * ordv)) + abs(char_numer)) // m2 + 2
    for k in range(-kmax, kmax + 1):
        nu = Fraction(char_numer + m2 * k, m2)
        e = m2 * nu * nu / 2
        if e > ordv:
            continue
        en = e * DEN
        if en.denominator != 1:
            raise GradingError("scaled theta derivative exponent off-grid")
        coeffs[int(en)] = coeffs.get(int(en), 0) + nu
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


def thetanullwerte_class_check(max_divisor_base: int = 30) -> NullwerteReport:
    """Scan theta constants theta0_{n,r} for n dividing the base.

    theta0_{n,r}(tau) = sum_k q^((2kn+r)^2/4n) has all its exponents in a
    single class mod 1; the scan runs k over a full period mod 2n and
    records any (n, r) whose class hits 119/120 or 71/120, the polar
    exponent classes of the two nonzero component families.  An empty hit
    list is the computational content of the uniqueness argument.
    """
    targets = (Fraction(119, 120), Fraction(71, 120))
    hits = []
    checked = 0
    for n in range(1, max_divisor_base + 1):
        if max_divisor_base % n:
            continue
        for r in range(2 * n):
            checked += 1
            classes = set()
            for k in range(2 * n):
                v = 2 * k * n + r
                e = Fraction(v * v, 4 * n)
                classes.add(e - math.floor(e))
            for t in targets:
                if t in classes:
                    hits.append((n, r, t))
    return NullwerteReport(max_divisor_base, targets, tuple(hits), checked)


# ----------------------------------------------------------------------
# eta(tau) J(tau)


def _sigma3(n: int) -> int:
    return sum(d ** 3 for d in range(1, n + 1) if n % d == 0)


@lru_cache(maxsize=None)
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
