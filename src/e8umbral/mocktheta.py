"""Ramanujan's fifth-order mock theta functions and the exact q-series
identities connecting them to the trace functions.

Series definitions (all with integer exponents):

    chi0 = sum_n q^n / (q^(n+1); q)_n        chi1 = sum_n q^n / (q^(n+1); q)_(n+1)
    F0   = sum_n q^(2n^2) / (q; q^2)_n       F1   = sum_n q^(2n(n+1)) / (q; q^2)_(n+1)
    phi0 = sum_n q^(n^2) (-q; q^2)_n         phi1 = sum_n q^((n+1)^2) (-q; q^2)_n

The n-th summand of chi0/chi1 has valuation n, of F0 valuation 2n^2, of F1
valuation 2n(n+1), of phi0 valuation n^2, of phi1 valuation (n+1)^2, which
bounds the number of summands needed for a given truncation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .characters import CLASSES, TraceId, octant_sum, trace_closed
from .qseries import (QSeries, SeriesError, _order_value,
                      euler_product, pochhammer)

SERIES_NAMES = ("chi0", "chi1", "F0", "F1", "phi0", "phi1")


def _term_valuation(name: str, n: int) -> int:
    if name in ("chi0", "chi1"):
        return n
    if name == "F0":
        return 2 * n * n
    if name == "F1":
        return 2 * n * (n + 1)
    if name == "phi0":
        return n * n
    if name == "phi1":
        return (n + 1) * (n + 1)
    raise SeriesError(f"unknown series {name!r}")


def _summand(name: str, n: int, order) -> QSeries:
    if name == "chi0":
        # q^n / (q^(n+1); q)_n
        return QSeries.monomial(1, n, order) * \
            pochhammer(n + 1, 1, 1, n, order).invert().truncate(order)
    if name == "chi1":
        return QSeries.monomial(1, n, order) * \
            pochhammer(n + 1, 1, 1, n + 1, order).invert().truncate(order)
    if name == "F0":
        return QSeries.monomial(1, 2 * n * n, order) * \
            pochhammer(1, 1, 2, n, order).invert().truncate(order)
    if name == "F1":
        return QSeries.monomial(1, 2 * n * (n + 1), order) * \
            pochhammer(1, 1, 2, n + 1, order).invert().truncate(order)
    if name == "phi0":
        return QSeries.monomial(1, n * n, order) * \
            pochhammer(1, -1, 2, n, order)
    if name == "phi1":
        return QSeries.monomial(1, (n + 1) * (n + 1), order) * \
            pochhammer(1, -1, 2, n, order)
    raise SeriesError(f"unknown series {name!r}")


@lru_cache(maxsize=None)
def _ramanujan_cached(name: str, order: Fraction) -> QSeries:
    total = QSeries.zero(order)
    n = 0
    while _term_valuation(name, n) <= order:
        total = total + _summand(name, n, order).truncate(order)
        n += 1
    return total


def ramanujan_series(name: str, order, argument_sign: int = 1) -> QSeries:
    """One of the six fifth-order series, optionally evaluated at -q."""
    if name not in SERIES_NAMES:
        raise SeriesError(f"unknown series {name!r}")
    if argument_sign not in (1, -1):
        raise SeriesError("argument_sign must be +1 or -1")
    s = _ramanujan_cached(name, _order_value(order))
    return s if argument_sign == 1 else s.substitute_minus_q()


# ----------------------------------------------------------------------
# indefinite double and triple sums


def zwegers_triple_sum(variant: str, order) -> QSeries:
    """The triple-sum sides of the chi identities:

    (sum_{k,l,m>=0} + sum_{k,l,m<0}) (-1)^(k+l+m)
        q^((k^2+l^2+m^2)/2 + 2(kl+lm+mk) + c(k+l+m)/2) / (q;q)_inf^2

    with c = 1 for the chi0 side and c = 3 for the chi1 side.
    """
    if variant == "chi0_side":
        c = 1
    elif variant == "chi1_side":
        c = 3
    else:
        raise SeriesError(f"unknown variant {variant!r}")
    ordv = _order_value(order)
    lattice_part = octant_sum(((1, 2, 2), (2, 1, 2), (2, 2, 1)), (c, c, c), 0,
                              (1, 1, 1), 1, ordv)
    pref = (euler_product(1, ordv + 1) ** 2).invert()
    return (pref * lattice_part).truncate(ordv)


# variant: (lin, (gram, signs, parity restriction), prefactor kind) of
#     (sum_{k,m>=0} - sum_{k,m<0}) (-1)^(signs.(k,m))
#         q^((k,m).gram.(k,m)/2 + lin.(k,m)/2)
_RESTRICTED = (((1, 4), (4, 1)), (0, 1), (1, 1))
_UNRESTRICTED = (((6, 4), (4, 1)), (1, 1), None)
_DOUBLE_SUM_DATA = {
    "phi0_lhs": ((1, 3), _RESTRICTED, "eta21"),
    "phi1_lhs": ((3, 5), _RESTRICTED, "eta21"),
    "cor_lhs_1": ((1, 3), _RESTRICTED, None),
    "cor_lhs_7": ((3, 5), _RESTRICTED, None),
    "cor_rhs_1": ((2, 1), _UNRESTRICTED, "oddprod"),
    "cor_rhs_7": ((6, 3), _UNRESTRICTED, "oddprod"),
}


def hecke_double_sum(variant: str, order) -> QSeries:
    """Hecke-type double sums.

    phi0_lhs / phi1_lhs carry the prefactor (q;q)_inf / (q^2;q^2)_inf^2 on
    the parity-restricted sum

        (sum_{k,m>=0} - sum_{k,m<0})_{k=m mod 2} (-1)^m
            q^(k^2/2 + m^2/2 + 4km + alpha*k + beta*m)

    with (alpha,beta) = (1/2,3/2) resp. (3/2,5/2); cor_lhs_* are the same
    sums bare; cor_rhs_* are prod_{n>0}(1+q^n) times the unrestricted sums

        (sum_{k,m>=0} - sum_{k,m<0}) (-1)^(k+m) q^(3k^2 + m^2/2 + 4km + c*k + c*m/2)

    with c = 1 resp. 3.
    """
    if variant not in _DOUBLE_SUM_DATA:
        raise SeriesError(f"unknown variant {variant!r}")
    ordv = _order_value(order)
    lin, (gram, signs, parity), kind = _DOUBLE_SUM_DATA[variant]
    body = octant_sum(gram, lin, 0, signs, -1, ordv, parity)
    if kind == "eta21":
        pref = euler_product(1, ordv + 1) * \
            (euler_product(2, ordv + 1) ** 2).invert()
        return (pref * body).truncate(ordv)
    if kind == "oddprod":
        # prod_{n>0} (1 + q^n) = (q^2; q^2)_inf / (q; q)_inf
        pref = euler_product(2, ordv + 1) * euler_product(1, ordv + 1).invert()
        return (pref * body).truncate(ordv)
    return body


# ----------------------------------------------------------------------
# identity suite


@dataclass(frozen=True)
class IdentityReport:
    name: str
    order: Fraction
    verified: bool
    first_discrepancy: Optional[tuple]   # (exponent, lhs, rhs) when failed

    def __str__(self) -> str:
        if self.verified:
            return f"[ok]   {self.name}  (order {self.order})"
        e, a, b = self.first_discrepancy
        return (f"[FAIL] {self.name}  first discrepancy at q^({e}): "
                f"{a} vs {b}")


def compare_series(name: str, lhs: QSeries, rhs: QSeries,
                   order) -> IdentityReport:
    ordv = _order_value(order)
    diff = lhs.first_difference(rhs, ordv)
    return IdentityReport(name, ordv, diff is None, diff)


def identity_suite(order) -> list[IdentityReport]:
    """Verify the full catalogue of exact q-series identities.

    Covers the two Zwegers triple-sum identities, the two Hecke-type
    double-sum expansions of phi0/phi1, the two corollary double-sum
    identities, the chi/F/phi relations, the trace-to-mock-theta splitting
    of the identity-class trace, and the four table identities expressing
    the assembled components through chi0, chi1, phi0, phi1.
    """
    ordv = _order_value(order)
    hi = ordv + 2          # margin for the q^-1 and q^(-49/120) shifts
    out: list[IdentityReport] = []

    chi0 = ramanujan_series("chi0", hi)
    chi1 = ramanujan_series("chi1", hi)
    F0 = ramanujan_series("F0", hi)
    F1 = ramanujan_series("F1", hi)
    phi0m = ramanujan_series("phi0", hi, argument_sign=-1)
    phi1m = ramanujan_series("phi1", hi, argument_sign=-1)

    out.append(compare_series(
        "chi0 = 2 F0 - phi0(-q)", chi0, F0.scale(2) - phi0m, ordv))
    out.append(compare_series(
        "chi1 = 2 F1 + q^-1 phi1(-q)", chi1,
        F1.scale(2) + phi1m.shift(-1), ordv))

    out.append(compare_series(
        "triple sum (chi0 side) = 2 - chi0",
        zwegers_triple_sum("chi0_side", ordv), 2 - chi0, ordv))
    out.append(compare_series(
        "triple sum (chi1 side) = chi1",
        zwegers_triple_sum("chi1_side", ordv), chi1, ordv))

    out.append(compare_series(
        "Hecke double sum = phi0(-q)",
        hecke_double_sum("phi0_lhs", ordv), phi0m, ordv))
    out.append(compare_series(
        "Hecke double sum = -q^-1 phi1(-q)",
        hecke_double_sum("phi1_lhs", ordv),
        -phi1m.shift(-1).truncate(ordv), ordv))

    out.append(compare_series(
        "corollary double-sum identity (1-family)",
        hecke_double_sum("cor_lhs_1", ordv),
        hecke_double_sum("cor_rhs_1", ordv), ordv))
    out.append(compare_series(
        "corollary double-sum identity (7-family)",
        hecke_double_sum("cor_lhs_7", ordv),
        hecke_double_sum("cor_rhs_7", ordv), ordv))

    # trace splitting: 2 T^-(e,1) = 4 q^(-1/120)(F0 - 1) - 2 q^(-1/120) phi0(-q)
    t_e1 = trace_closed(TraceId(CLASSES["1A"], 1, -1), ordv).scale(2)
    rhs = ((F0 - 1).scale(4) - phi0m.scale(2)).shift(Fraction(-1, 120))
    out.append(compare_series(
        "2 T(e,1) = 4 q^(-1/120)(F0-1) - 2 q^(-1/120) phi0(-q)",
        t_e1, rhs, t_e1.order))

    # and its 7-family analogue through F1 and phi1
    t_e7 = -trace_closed(TraceId(CLASSES["1A"], 3, -1), ordv).scale(2)
    rhs7 = F1.shift(Fraction(71, 120)).scale(4) + \
        phi1m.shift(Fraction(-49, 120)).scale(2)
    out.append(compare_series(
        "2 T(e,7) = 4 q^(71/120) F1 + 2 q^(-49/120) phi1(-q)",
        t_e7, rhs7, t_e7.order))

    # table identities for the assembled components
    from .characters import CLASS_1A, CLASS_2A, h_component
    h = h_component(CLASS_1A, 1, ordv)
    out.append(compare_series(
        "H(1A,1) = 2 q^(-1/120)(chi0 - 2)",
        h, (chi0 - 2).scale(2).shift(Fraction(-1, 120)), h.order))
    h = h_component(CLASS_1A, 7, ordv)
    out.append(compare_series(
        "H(1A,7) = 2 q^(71/120) chi1",
        h, chi1.scale(2).shift(Fraction(71, 120)), h.order))
    h = h_component(CLASS_2A, 1, ordv)
    out.append(compare_series(
        "H(2A,1) = -2 q^(-1/120) phi0(-q)",
        h, phi0m.scale(-2).shift(Fraction(-1, 120)), h.order))
    h = h_component(CLASS_2A, 7, ordv)
    out.append(compare_series(
        "H(2A,7) = 2 q^(-49/120) phi1(-q)",
        h, phi1m.scale(2).shift(Fraction(-49, 120)), h.order))

    return out
