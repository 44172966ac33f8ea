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
O(N^2) integer additions and the other four O(N^1.5).  The identities'
octant sums are read where they are stated: the Zwegers triple sums are
the 1A traces, so the H(1A, r) lines are the triple-sum identities; the
corollary's right sides are the 2A shape with other eta powers, and the
Hecke-type sums the template ``_HECKE``.
"""

from collections import namedtuple
from operator import add

from .characters import (CLASS_1A, CLASS_2A, FAMILIES, ClosedForm, TraceId,
                         _closed_data, closed_series, h_component)
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


# the Hecke-type sum (-1)^m q^(k^2/2 + m^2/2 + 4km + (a k + (a + 2) m)/2)
# over k = m mod 2 at lin = (a, a + 2), a the coset of a family: bare, the
# corollary's left side; times (q;q)_inf / (q^2;q^2)_inf^2, phi0(-q) at
# a = 1 and -q^-1 phi1(-q) at a = 3
_HECKE = ClosedForm((), ((1, 4), (4, 1)), None, (0, 1), -1, 0, (1, 1))


def identity_suite(order) -> list[IdentityReport]:
    """Verify the full catalogue of exact q-series identities.

    Covers the two Hecke-type double-sum expansions of phi0/phi1, the two
    corollary double-sum identities, the chi/F/phi relations, the
    trace-to-mock-theta splitting of the identity-class trace, and the
    four table identities expressing the assembled components through
    chi0, chi1, phi0, phi1.  The 1A traces are minus the two Zwegers
    triple sums times q^(lead/120), so the H(1A, r) lines are the
    triple-sum identities.  The corollary's right side is prod_{n>0}
    (1 + q^n) = (q^2;q^2)_inf / (q;q)_inf times the 2A shape at the
    coset, shift 0.
    """
    hi = order + 1      # margin for the q^-1 shift of phi1(-q)
    chi0, chi1, F0, F1 = (ramanujan_series(name, hi)
                          for name in ("chi0", "chi1", "F0", "F1"))
    phi0m, phi1m = (ramanujan_series(name, hi).substitute_minus_q()
                    for name in ("phi0", "phi1"))
    m1, p71 = (f.lead for f in FAMILIES.values())   # q^(-1/120), q^(71/120)
    h1, h7 = (h_component(CLASS_1A, r, order) for r in FAMILIES)
    phi1m_1 = phi1m.shift(-1)    # q^-1 phi1(-q)
    hecke = {r: _HECKE._replace(lin=(f.coset_a, f.coset_a + 2))
             for r, f in FAMILIES.items()}
    phi0_lhs, phi1_lhs = (
        closed_series(form._replace(powers=((1, 1), (2, -2))), order)
        for form in hecke.values())
    corollary = [
        (f"corollary double-sum identity ({r}-family)",
         closed_series(form, order),
         closed_series(_closed_data(TraceId(CLASS_2A, FAMILIES[r].coset_a))
                       ._replace(powers=((1, -1), (2, 1)), shift=0), order))
        for r, form in hecke.items()]
    table = [
        ("chi0 = 2 F0 - phi0(-q)", chi0, F0.scale(2) - phi0m),
        ("chi1 = 2 F1 + q^-1 phi1(-q)", chi1, F1.scale(2) + phi1m_1),
        ("Hecke double sum = phi0(-q)", phi0_lhs, phi0m),
        ("Hecke double sum = -q^-1 phi1(-q)", phi1_lhs, -phi1m_1),
        *corollary,
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
