"""Exact arithmetic on truncated formal Puiseux series in q.

A series is a finite map from exponent numerators (integers over the
fixed grading denominator ``DEN`` = 120) to rational coefficients, together
with a truncation order N: coefficients at exponents <= N are exact,
anything beyond N is unspecified and reading it is an error.  A coefficient
is an int when it is integral and a Fraction only otherwise, so integer
series stay in int arithmetic.  Every exponent of the E8^3 module lies on
the grid 1/120: the index-30 theta exponents r^2/120, the polar terms
q^(-1/120), q^(71/120), q^(-49/120), the cone energies 3a^2/40, and the
eta exponents in 1/24.

All values are immutable after construction and every operation returns a
new canonical series (no stored zeros), so coefficient-map equality is
semantic equality up to the shared truncation order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

DEN = 120

INF = math.inf

Rational = Union[int, Fraction]
OrderLike = Union[int, Fraction, float]


class SeriesError(ValueError):
    """Base class for exact-series contract violations."""


class GradingError(SeriesError):
    """Exponent not on the grid 1/DEN."""


class TruncationError(SeriesError):
    """Attempt to read coefficients beyond the truncation order."""


class DivergenceError(SeriesError):
    """A formally divergent construction (e.g. infinite product with
    a factor of non-positive exponent)."""


def _frac(x: Rational) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _is_inf(x) -> bool:
    return isinstance(x, float) and math.isinf(x)


def _cap(order):
    """Largest exponent numerator a series of this order knows."""
    return INF if _is_inf(order) else math.floor(order * DEN)


def _order_value(order: OrderLike):
    if _is_inf(order):
        return INF
    return _frac(order)  # type: ignore[arg-type]


class QSeries:
    """Truncated series sum_e c_e * q**(e/DEN) with exact rational c_e."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: dict, order: OrderLike = INF):
        ordv = _order_value(order)
        cap = _cap(ordv)
        clean: dict[int, Rational] = {}
        for e, c in coeffs.items():
            if c == 0 or e > cap:
                continue
            clean[int(e)] = c.numerator if c.denominator == 1 else c
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "order", ordv)

    def __setattr__(self, name, value):  # immutable by contract
        raise AttributeError("QSeries is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, order: OrderLike = INF) -> "QSeries":
        return cls({}, order)

    @classmethod
    def const(cls, c: Rational, order: OrderLike = INF) -> "QSeries":
        return cls({0: c}, order)

    @classmethod
    def one(cls, order: OrderLike = INF) -> "QSeries":
        return cls.const(1, order)

    @classmethod
    def monomial(cls, c: Rational, exponent: Rational,
                 order: OrderLike = INF) -> "QSeries":
        e = _frac(exponent) * DEN
        if e.denominator != 1:
            raise GradingError(
                f"exponent {exponent} not representable over denominator {DEN}")
        return cls({int(e): c}, order)

    # ------------------------------------------------------------------
    # basic queries

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self) -> list[tuple[int, Rational]]:
        """Sorted (exponent numerator, coefficient) pairs."""
        return sorted(self.coeffs.items())

    def exponents(self) -> list[Fraction]:
        return [Fraction(e, DEN) for e in sorted(self.coeffs)]

    def valuation(self):
        """Lowest exponent with a nonzero coefficient, as a Fraction.

        An identically-truncated-to-zero series only certifies valuation
        beyond its order, so the order itself is returned as the sound
        lower bound.
        """
        if not self.coeffs:
            return self.order
        return Fraction(min(self.coeffs), DEN)

    def coefficient(self, exponent: Rational) -> Rational:
        """Coefficient at the given exponent; error past the truncation."""
        e = _frac(exponent)
        if e > self.order:
            raise TruncationError(
                f"coefficient at {e} requested but series is only known "
                f"to order {self.order}")
        en = e * DEN
        if en.denominator != 1:
            return 0
        return self.coeffs.get(int(en), 0)

    # ------------------------------------------------------------------
    # ring operations

    def _coerce(self, other) -> Optional["QSeries"]:
        if isinstance(other, QSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return QSeries.const(other)
        return None

    def __add__(self, other) -> "QSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        order = min(self.order, rhs.order)
        coeffs = dict(self.coeffs)
        for e, c in rhs.coeffs.items():
            coeffs[e] = coeffs.get(e, 0) + c
        return QSeries(coeffs, order)

    __radd__ = __add__

    def __neg__(self) -> "QSeries":
        return QSeries({e: -c for e, c in self.coeffs.items()}, self.order)

    def __sub__(self, other) -> "QSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "QSeries":
        return (-self) + other

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        # order rule: min over (order_a + val_b, order_b + val_a); an empty
        # factor contributes its order as the sound valuation bound.
        order = min(self.order + other.valuation(),
                    other.order + self.valuation())
        coeffs: dict[int, Rational] = {}
        if self.coeffs and other.coeffs:
            cap = _cap(order)
            bitems = sorted(other.coeffs.items())
            bmin = bitems[0][0]
            for ea, ca in sorted(self.coeffs.items()):
                if ea + bmin > cap:
                    break
                for eb, cb in bitems:
                    e = ea + eb
                    if e > cap:
                        break
                    coeffs[e] = coeffs.get(e, 0) + ca * cb
        return QSeries(coeffs, order)

    __rmul__ = __mul__

    def scale(self, c: Rational) -> "QSeries":
        if c == 0:
            return QSeries({}, self.order)
        return QSeries({e: c * v for e, v in self.coeffs.items()}, self.order)

    def shift(self, exponent: Rational) -> "QSeries":
        """Multiply by the monomial q**exponent."""
        d = _frac(exponent) * DEN
        if d.denominator != 1:
            raise GradingError(
                f"shift by {exponent} not representable over denominator "
                f"{DEN}")
        d = int(d)
        order = self.order + _frac(exponent)
        return QSeries({e + d: c for e, c in self.coeffs.items()}, order)

    def __pow__(self, n: int) -> "QSeries":
        if not isinstance(n, int) or n < 0:
            raise SeriesError("only non-negative integer powers supported")
        result = QSeries.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def invert(self) -> "QSeries":
        """Multiplicative inverse of a unit series.

        Requires a nonzero lowest-order coefficient.  If self has valuation
        v and order N, the inverse has valuation -v and order N - 2v.  Only
        a monomial has an exact inverse; any other series must be truncated
        first.
        """
        if not self.coeffs:
            raise SeriesError("cannot invert a series with no readable "
                              "nonzero coefficient")
        items = self.items()
        v = items[0][0]
        lead = items[0][1]
        # a unit lead keeps integer coefficients integers
        inv = lead if lead in (1, -1) else 1 / Fraction(lead)
        order = self.order - 2 * Fraction(v, DEN)
        rel = [(e - v, c) for e, c in items[1:]]
        if not rel:
            return QSeries({-v: inv}, order)
        if _is_inf(self.order):
            raise SeriesError("the inverse of an exact series with more "
                              "than one term is infinite; truncate first")
        # relative truncation for the unit part 1 + u
        rel_cap = _cap(self.order) - v
        # solve on the sublattice actually supported by u
        step = 0
        for e, _ in rel:
            step = math.gcd(step, e)
        # write self = lead * q^v * (1 + u); solve (1 + u) * w = 1 term by
        # term on the sublattice generated by the support of u
        known: dict[int, Rational] = {0: 1}
        rel_norm = [(e, c * inv) for e, c in rel]
        for e in range(step, rel_cap + 1, step):
            acc = 0
            for eu, cu in rel_norm:
                if eu > e:
                    break
                prev = known.get(e - eu)
                if prev is not None:
                    acc += cu * prev
            if acc:
                known[e] = -acc
        return QSeries({e - v: c * inv for e, c in known.items()}, order)

    # ------------------------------------------------------------------
    # substitutions and comparisons

    def truncate(self, order: OrderLike) -> "QSeries":
        """Weaken the truncation order (dropping now-unclaimed terms)."""
        ordv = _order_value(order)
        if ordv > self.order:
            raise TruncationError(
                f"cannot extend truncation order {self.order} to {ordv}")
        return QSeries(self.coeffs, ordv)

    def substitute_minus_q(self) -> "QSeries":
        """The series at -q; valid only when all exponents are integers."""
        out: dict[int, Rational] = {}
        for e, c in self.coeffs.items():
            if e % DEN != 0:
                raise GradingError(
                    "q -> -q substitution needs integer exponents, found "
                    f"{Fraction(e, DEN)}")
            out[e] = c if (e // DEN) % 2 == 0 else -c
        return QSeries(out, self.order)

    def same_up_to(self, other: "QSeries", order: OrderLike) -> bool:
        return self.first_difference(other, order) is None

    def first_difference(self, other: "QSeries", order: OrderLike):
        """First (exponent, lhs, rhs) disagreement up to order, or None.

        Both series must be known at least to the requested order.
        """
        ordv = _order_value(order)
        if self.order < ordv or other.order < ordv:
            raise TruncationError(
                f"comparison to order {ordv} needs both series known that "
                f"far (have {self.order} and {other.order})")
        cap = _cap(ordv)
        for e in sorted(set(self.coeffs) | set(other.coeffs)):
            if e > cap:
                break
            ca = self.coeffs.get(e, 0)
            cb = other.coeffs.get(e, 0)
            if ca != cb:
                return (Fraction(e, DEN), ca, cb)
        return None

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QSeries.const(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None  # mutable-free but dict-backed; not hashable

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in self.items()[:10]:
            exp = Fraction(e, DEN)
            if exp == 0:
                parts.append(f"{c}")
            else:
                parts.append(f"{c}*q^({exp})")
        tail = " + ..." if len(self.coeffs) > 10 else ""
        return " + ".join(parts).replace("+ -", "- ") + tail

    def __repr__(self) -> str:
        return f"QSeries(order={self.order}, {self})"


# ----------------------------------------------------------------------
# standard product constructions


def pochhammer(x_exponent: Rational, x_sign: int, step: Rational, n: int,
               order: OrderLike) -> QSeries:
    """Truncated (x; q^step)_n = prod_{k<n} (1 - x_sign * q^(x_exponent + k*step))."""
    if x_sign not in (1, -1):
        raise SeriesError("x_sign must be +1 or -1")
    x0 = _frac(x_exponent)
    st = _frac(step)
    ordv = _order_value(order)
    acc = QSeries.one(ordv)
    for k in range(n):
        acc = acc * (QSeries.const(1, ordv) +
                     QSeries.monomial(-x_sign, x0 + k * st, ordv))
    return acc


def euler_product(scale: int, order: OrderLike) -> QSeries:
    """(q^scale; q^scale)_infinity, by Euler's pentagonal number theorem:
    sum_{j in Z} (-1)^j q^(scale * j(3j-1)/2)."""
    if scale <= 0:
        raise DivergenceError(
            f"infinite product has factor of exponent {scale} <= 0")
    ordv = _order_value(order)
    if _is_inf(ordv):
        raise SeriesError("infinite product needs a finite truncation order")
    step = scale * DEN
    cap = _cap(ordv)
    coeffs = {}
    # the generalized pentagonal numbers j(3j-1)/2 <= j(3j+1)/2 grow with j
    j = 0
    while step * j * (3 * j - 1) // 2 <= cap:
        sign = -1 if j % 2 else 1
        coeffs[step * j * (3 * j - 1) // 2] = sign
        coeffs[step * j * (3 * j + 1) // 2] = sign
        j += 1
    return QSeries(coeffs, ordv)


def dedekind_eta(scale: int, order: OrderLike) -> QSeries:
    """q^(scale/24) * (q^scale; q^scale)_infinity."""
    if scale <= 0:
        raise SeriesError("eta scale must be a positive integer")
    lead = Fraction(scale, 24)
    return euler_product(scale, _order_value(order) - lead).shift(lead)
