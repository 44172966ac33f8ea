"""Exact arithmetic on truncated formal Puiseux series in q.

A series is a finite map from exponent numerators (integers over the
fixed grading denominator ``DEN`` = 120) to rational coefficients, together
with a truncation order N: coefficients at exponents <= N are exact,
anything beyond N is unspecified and reading it is an error.  A coefficient
is an int when it is integral and a Fraction only otherwise, so integer
series stay in int arithmetic.  Every exponent of the E8^3 module lies on
the grid 1/120: the index-30 theta exponents r^2/120, the polar terms
q^(-1/120), q^(71/120), q^(-49/120), the cone energies 3a^2/40, and the
eta exponents in 1/24.  Every eta-quotient of the package (eta, the trace,
Zwegers and Hecke prefactors, 1/Delta) is built by ``eta_quotient``, in
place on a dense integer list by passes of Euler's pentagonal sum: one
pass multiplies or divides by one (q^k; q^k)_infinity, and no series is
ever inverted.

A product is one CPython bigint product, by Kronecker substitution (D.
Harvey, arXiv:0712.4046).  Both operands lie on progressions e0 + g i with
one step g, so each becomes a dense int list, times a common denominator
where its coefficients are Fractions.  Each list is packed into one int
with a fixed-width byte field per coefficient, wide enough for every
coefficient of the product; the product of the two ints carries the
product's coefficients in its fields, read off with a bias per field.

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


def _order_value(order: OrderLike):
    """The one normal form of an order: a Fraction, or INF."""
    return INF if order == INF else Fraction(order)


def _cap(order):
    """Largest exponent numerator a series of this order knows."""
    return INF if order == INF else order.numerator * DEN // order.denominator


def _dense(coeffs: dict, e0: int, g: int, top: int) -> tuple[list, int]:
    """(p, d): d times the coefficients at exponents e0 + g i, i <= top, as
    the dense int list p, with d the common denominator."""
    d = math.lcm(*(c.denominator for c in coeffs.values()))
    n = min((max(coeffs) - e0) // g, top) + 1
    p = [0] * n
    for e, c in coeffs.items():
        i = (e - e0) // g
        if i < n:
            p[i] = c.numerator * (d // c.denominator)
    return p, d


def _pack(p: list, nb: int) -> int:
    """sum_i p[i] 2^(8 nb i), read from one little-endian byte string of
    the fields p[i] + 2^(8 nb - 1), minus that bias in every field; each
    |p[i]| must be below 2^(8 nb - 1)."""
    half = 1 << (8 * nb - 1)
    biased = b"".join((c + half).to_bytes(nb, "little") for c in p)
    bias = half.to_bytes(nb, "little") * len(p)
    return int.from_bytes(biased, "little") - int.from_bytes(bias, "little")


class QSeries:
    """Truncated series sum_e c_e * q**(e/DEN) with exact rational c_e."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: dict, order: OrderLike = INF):
        ordv = _order_value(order)
        cap = _cap(ordv)
        clean = {e: c for e, c in coeffs.items() if c and e <= cap}
        if not {int}.issuperset(map(type, clean.values())):  # a C-level scan
            for e, c in clean.items():
                if c.denominator == 1:
                    clean[e] = c.numerator
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "order", ordv)

    def __setattr__(self, name, value):  # immutable by contract
        raise AttributeError("QSeries is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def const(cls, c: Rational, order: OrderLike = INF) -> "QSeries":
        return cls({0: c}, order)

    # ------------------------------------------------------------------
    # basic queries

    def items(self) -> list[tuple[int, Rational]]:
        """Sorted (exponent numerator, coefficient) pairs."""
        return sorted(self.coeffs.items())

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
        e = Fraction(exponent)
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
        if not (self.coeffs and other.coeffs):
            return QSeries({}, order)
        a0, b0 = min(self.coeffs), min(other.coeffs)
        cap = _cap(order)
        if cap == INF:
            cap = max(self.coeffs) + max(other.coeffs)
        # both operands on the progressions e0 + g i; the product's index
        # i + j stops at top
        g = math.gcd(*(e - a0 for e in self.coeffs),
                     *(e - b0 for e in other.coeffs)) or 1
        top = (cap - a0 - b0) // g
        a, da = _dense(self.coeffs, a0, g, top)
        b, db = _dense(other.coeffs, b0, g, top)
        # fields of nb bytes hold any |sum of min(len) products| below
        # 2^(8 nb - 2): the top bit of a field is its sign, one bit spare
        bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
        nb = (bound.bit_length() + 2 + 7) // 8
        n = min(len(a) + len(b) - 1, top + 1)
        # the bias 2^(8 nb - 1) in each field makes every field of the
        # product a non-negative digit, so the fields read off without
        # borrows; the mask drops the fields past top
        half = 1 << (8 * nb - 1)
        bias = int.from_bytes(half.to_bytes(nb, "little") * n, "little")
        digits = ((_pack(a, nb) * _pack(b, nb) + bias) &
                  ((1 << (8 * nb * n)) - 1)).to_bytes(nb * n, "little")
        den = da * db
        coeffs: dict[int, Rational] = {}
        for i in range(n):
            c = int.from_bytes(digits[i * nb:(i + 1) * nb], "little") - half
            if c:
                coeffs[a0 + b0 + g * i] = c if den == 1 else Fraction(c, den)
        return QSeries(coeffs, order)

    __rmul__ = __mul__

    def scale(self, c: Rational) -> "QSeries":
        if c == 0:
            return QSeries({}, self.order)
        return QSeries({e: c * v for e, v in self.coeffs.items()}, self.order)

    def shift(self, exponent: Rational) -> "QSeries":
        """Multiply by the monomial q**exponent."""
        d = Fraction(exponent) * DEN
        if d.denominator != 1:
            raise GradingError(
                f"shift by {exponent} not representable over denominator "
                f"{DEN}")
        d = int(d)
        order = self.order + Fraction(exponent)
        return QSeries({e + d: c for e, c in self.coeffs.items()}, order)

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
# eta quotients


def eta_quotient(powers: dict, shift: Rational, order: OrderLike) -> QSeries:
    """q^shift prod_k (q^k; q^k)_infinity^powers[k], exact to order.

    The product is built on a dense list p of integer coefficients at
    exponents 0..top, top = floor(order - shift), from Euler's pentagonal
    sum (q^k; q^k)_infinity = 1 + sum_g s_g q^g over the exponents
    g = k j(3j -+ 1)/2, j >= 1, with s_g = (-1)^j.  Each unit of a power
    is one pass over p that adds s_g p[i] into every p[i + g].  A positive
    power runs top-down, so each p[i] it reads is still the old one: a
    product.  A negative power runs bottom-up with the signs reversed, so
    each p[i] it reads is already final: a quotient, which the constant
    term 1 allows.  No series is inverted.
    """
    ordv = _order_value(order)
    if ordv == INF:
        raise SeriesError("infinite product needs a finite truncation order")
    inner = ordv - Fraction(shift)
    top = math.floor(inner)
    p = [1] + [0] * top
    for k, n in powers.items():
        if k <= 0:
            raise DivergenceError(
                f"infinite product has factor of exponent {k} <= 0")
        # the exponents g with s_g = -1 (odd j), then with s_g = +1 (even j)
        jmax = math.isqrt(max(top, 0) // k)
        odd, even = ([k * g for j in range(first, jmax + 1, 2)
                      for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2)
                      if k * g <= top] for first in (1, 2))
        rows = range(top, -1, -1) if n > 0 else range(top + 1)
        for _ in range(abs(n)):
            for i in rows:
                v = p[i] if n > 0 else -p[i]
                if v:
                    room = top - i
                    for g in odd:
                        if g > room:
                            break
                        p[i + g] -= v
                    for g in even:
                        if g > room:
                            break
                        p[i + g] += v
    return QSeries({DEN * i: c for i, c in enumerate(p) if c},
                   inner).shift(shift)


def dedekind_eta(scale: int, order: OrderLike) -> QSeries:
    """q^(scale/24) * (q^scale; q^scale)_infinity."""
    return eta_quotient({scale: 1}, Fraction(scale, 24), order)
