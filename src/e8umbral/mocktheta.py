"""Ramanujan's fifth-order mock theta functions and the exact q-series
identities connecting them to the trace functions.

Series definitions (all with integer exponents):

    chi0 = sum_n q^n / (q^(n+1); q)_n        chi1 = sum_n q^n / (q^(n+1); q)_(n+1)
    F0   = sum_n q^(2n^2) / (q; q^2)_n       F1   = sum_n q^(2n(n+1)) / (q; q^2)_(n+1)
    phi0 = sum_n q^(n^2) (-q; q^2)_n         phi1 = sum_n q^((n+1)^2) (-q; q^2)_n

Each is summed straight from its definition, as q^v(n) P_n with P_n the
Pochhammer factor, on a dense list of integer coefficients.  P_0 is 1, or
1/(1 - q) for chi1 and F1, and P_n changes to P_(n+1) by one to three
binomials:

    chi0   P_n (1 - q^(n+1)) / ((1 - q^(2n+1)) (1 - q^(2n+2)))
    chi1   P_n (1 - q^(n+1)) / ((1 - q^(2n+2)) (1 - q^(2n+3)))
    F0     P_n / (1 - q^(2n+1))           F1     P_n / (1 - q^(2n+3))
    phi0, phi1   P_n (1 + q^(2n+1))

Multiplying by 1 - s q^k is one pass over the list, dividing by it one
running sum with stride k.  The summand valuations n, 2n^2, 2n(n+1), n^2,
(n+1)^2 bound the number of summands, so to order N chi0 and chi1 cost
O(N^2) integer additions and the other four O(N^1.5).  The Zwegers and
Hecke-type sums are ``octant_series``: each a ``ClosedForm`` row of
``_SUMS``, an eta-quotient times an octant sum, built by ``closed_series``
as the traces are.
"""

from collections import namedtuple
from operator import add

from .characters import (CLASS_1A, CLASS_2A, FAMILIES, GRAM_1A, GRAM_2A,
                         ClosedForm, closed_series, h_component)
from .qseries import DEN, QSeries, SeriesError, _num, _series

# name: (valuation of summand n, factors of P_0, factors taking P_n to
# P_(n+1)); a factor (k, s, e) is (1 - s q^k)^e with e = +1 or -1
_SERIES = {
    "chi0": (lambda n: n, (),
             lambda n: ((n + 1, 1, 1), (2 * n + 1, 1, -1),
                        (2 * n + 2, 1, -1))),
    "chi1": (lambda n: n, ((1, 1, -1),),
             lambda n: ((n + 1, 1, 1), (2 * n + 2, 1, -1),
                        (2 * n + 3, 1, -1))),
    "F0": (lambda n: 2 * n * n, (), lambda n: ((2 * n + 1, 1, -1),)),
    "F1": (lambda n: 2 * n * (n + 1), ((1, 1, -1),),
           lambda n: ((2 * n + 3, 1, -1),)),
    "phi0": (lambda n: n * n, (), lambda n: ((2 * n + 1, -1, 1),)),
    "phi1": (lambda n: (n + 1) * (n + 1), (),
             lambda n: ((2 * n + 1, -1, 1),)),
}


def _apply(p: list, k: int, s: int, e: int) -> None:
    """p <- p (1 - s q^k)^e in place, truncated to len(p) coefficients."""
    if e == 1:
        p[k:] = [a - s * b for a, b in zip(p[k:], p)]
    else:
        for i in range(k, len(p)):
            p[i] += s * p[i - k]


def ramanujan_series(name: str, order) -> QSeries:
    """One of the six fifth-order series."""
    if name not in _SERIES:
        raise SeriesError(f"unknown series {name!r}")
    num = _num(order)
    valuation, first, step = _SERIES[name]
    top = num // DEN
    total = [0] * (top + 1)
    p = [1] + [0] * top
    for factor in first:
        _apply(p, *factor)
    n = 0
    while (v := valuation(n)) <= top:
        del p[top - v + 1:]       # summand n is needed to q^(top - v) only
        total[v:] = map(add, total[v:], p)
        for factor in step(n):
            _apply(p, *factor)
        n += 1
    return _series({DEN * e: c for e, c in enumerate(total) if c}, num, False)


# ----------------------------------------------------------------------
# indefinite double and triple sums


# name: the ClosedForm, shift 0, of the eta quotient times the octant sum
# of each side.  The chi sides 2 - chi0 and chi1 are
# q^((k^2+l^2+m^2)/2 + 2(kl+lm+mk) + c(k+l+m)/2) / (q;q)_inf^2, c = 1, 3.
# The Hecke sums (-1)^m q^(k^2/2 + m^2/2 + 4km + alpha k + beta m) over
# k = m mod 2, (alpha, beta) = (1/2, 3/2), (3/2, 5/2), times (q;q)_inf /
# (q^2;q^2)_inf^2 are phi0(-q) and -q^-1 phi1(-q), and bare the corollary
# lhs; its rhs is prod_{n>0} (1 + q^n) = (q^2;q^2)_inf / (q;q)_inf times
# (-1)^(k+m) q^(3k^2 + m^2/2 + 4km + c k + c m/2), c = 1, 3.
_KM = ((1, 4), (4, 1))
_SUMS = {
    "chi0_side": ClosedForm(((1, -2),), GRAM_1A, (1, 1, 1), (1, 1, 1), 1, 0),
    "chi1_side": ClosedForm(((1, -2),), GRAM_1A, (3, 3, 3), (1, 1, 1), 1, 0),
    "phi0_lhs": ClosedForm(((1, 1), (2, -2)), _KM, (1, 3), (0, 1), -1, 0,
                           (1, 1)),
    "phi1_lhs": ClosedForm(((1, 1), (2, -2)), _KM, (3, 5), (0, 1), -1, 0,
                           (1, 1)),
    "cor_lhs_1": ClosedForm((), _KM, (1, 3), (0, 1), -1, 0, (1, 1)),
    "cor_lhs_7": ClosedForm((), _KM, (3, 5), (0, 1), -1, 0, (1, 1)),
    "cor_rhs_1": ClosedForm(((1, -1), (2, 1)), GRAM_2A, (2, 1), (1, 1), -1,
                            0),
    "cor_rhs_7": ClosedForm(((1, -1), (2, 1)), GRAM_2A, (6, 3), (1, 1), -1,
                            0),
}


def octant_series(name: str, order) -> QSeries:
    """One of the eight sums of _SUMS, exact to order."""
    if name not in _SUMS:
        raise SeriesError(f"unknown series {name!r}")
    return closed_series(_SUMS[name], order)


# ----------------------------------------------------------------------
# identity suite


class IdentityReport(namedtuple("IdentityReport",
                                "name order first_discrepancy residual tol",
                                defaults=(None, None))):
    """The verdict of a named check: exact, to an order or None with the
    (exponent, lhs, rhs) of its first discrepancy, or to EVERY order with
    its first differing (field, printed, derived), or None; or numeric, a
    residual that passes below tol (a NaN fails).  str is its verify line."""

    __slots__ = ()
    EVERY = "every"     # the order of a check that compares data, not series

    @property
    def verified(self) -> bool:
        return (self.first_discrepancy is None if self.residual is None
                else self.residual < self.tol)

    def __str__(self) -> str:
        every = self.order is self.EVERY
        if self.residual is not None:
            detail = f": residual {self.residual:.3e}"
        elif not self.verified:
            detail = (" differs in {}: printed {} vs derived {}" if every
                      else " first discrepancy at q^({}): {} vs {}"
                      ).format(*self.first_discrepancy)
        else:
            detail = ("" if self.order is None else "  (every order)"
                      if every else f"  (order {self.order})")
        mark = "[ok]  " if self.verified else "[FAIL]"
        return f"{mark} {self.name}{detail}"


def compare_series(name: str, lhs: QSeries, rhs: QSeries,
                   order) -> IdentityReport:
    return IdentityReport(name, order, lhs.first_difference(rhs, order))


def compare_data(name: str, printed, derived) -> IdentityReport:
    """Two records, field by field: equal records build equal series."""
    return IdentityReport(name, IdentityReport.EVERY, next(
        ((f, p, d) for f, p, d in zip(printed._fields, printed, derived)
         if p != d), None))


def identity_suite(order) -> list[IdentityReport]:
    """Verify the full catalogue of exact q-series identities.

    Covers the two Zwegers triple-sum identities, the two Hecke-type
    double-sum expansions of phi0/phi1, the two corollary double-sum
    identities, the chi/F/phi relations, the trace-to-mock-theta splitting
    of the identity-class trace, and the four table identities expressing
    the assembled components through chi0, chi1, phi0, phi1.
    """
    hi = order + 2          # margin for the q^-1 and q^(-49/120) shifts
    chi0, chi1, F0, F1 = (ramanujan_series(name, hi)
                          for name in ("chi0", "chi1", "F0", "F1"))
    phi0m, phi1m = (ramanujan_series(name, hi).substitute_minus_q()
                    for name in ("phi0", "phi1"))
    m1, p71 = (f.lead for f in FAMILIES.values())   # q^(-1/120), q^(71/120)
    h1, h7 = (h_component(CLASS_1A, r, order) for r in FAMILIES)
    phi1m_1 = phi1m.shift(-1)    # q^-1 phi1(-q)
    table = [
        ("chi0 = 2 F0 - phi0(-q)", chi0, F0.scale(2) - phi0m),
        ("chi1 = 2 F1 + q^-1 phi1(-q)", chi1, F1.scale(2) + phi1m_1),
        ("triple sum (chi0 side) = 2 - chi0",
         octant_series("chi0_side", order), 2 - chi0),
        ("triple sum (chi1 side) = chi1",
         octant_series("chi1_side", order), chi1),
        ("Hecke double sum = phi0(-q)",
         octant_series("phi0_lhs", order), phi0m),
        ("Hecke double sum = -q^-1 phi1(-q)",
         octant_series("phi1_lhs", order), -phi1m_1),
        ("corollary double-sum identity (1-family)",
         octant_series("cor_lhs_1", order),
         octant_series("cor_rhs_1", order)),
        ("corollary double-sum identity (7-family)",
         octant_series("cor_lhs_7", order),
         octant_series("cor_rhs_7", order)),
        # the trace splitting of the identity class, and its 7-family
        # analogue through F1 and phi1
        ("2 T(e,1) = 4 q^(-1/120)(F0-1) - 2 q^(-1/120) phi0(-q)",
         h1, ((F0 - 1).scale(4) - phi0m.scale(2))._shift(m1)),
        ("2 T(e,7) = 4 q^(71/120) F1 + 2 q^(-49/120) phi1(-q)",
         h7, F1._shift(p71).scale(4) + phi1m._shift(p71 - DEN).scale(2)),
        # the table identities for the assembled components
        ("H(1A,1) = 2 q^(-1/120)(chi0 - 2)", h1,
         (chi0 - 2).scale(2)._shift(m1)),
        ("H(1A,7) = 2 q^(71/120) chi1", h7, chi1.scale(2)._shift(p71)),
        ("H(2A,1) = -2 q^(-1/120) phi0(-q)", h_component(CLASS_2A, 1, order),
         phi0m.scale(-2)._shift(m1)),
        ("H(2A,7) = 2 q^(-49/120) phi1(-q)", h_component(CLASS_2A, 7, order),
         phi1m.scale(2)._shift(p71 - DEN)),
    ]
    return [compare_series(name, lhs, rhs, order) for name, lhs, rhs in table]
