"""Exact arithmetic on truncated formal Puiseux series in q with integer
coefficients.

A series is a finite map from exponent numerators (integers over the
fixed grading denominator ``DEN`` = 120) to int coefficients, together with
a truncation order N: coefficients at exponents <= N are exact, anything
beyond N is unspecified and reading it is an error.  Every coefficient of
the package is an integer (graded multiplicities of the E8^3 module, mock
theta and eta-quotient coefficients), and every exponent lies on the grid
1/120: the index-30 theta exponents r^2/120, the polar terms q^(-1/120),
q^(71/120), q^(-49/120), the cone energies 3a^2/40, and the eta exponents
in 1/24.  Every eta-quotient of the package (the products ``closed_series``
gives the traces of both routes and the sums of ``octant_series``) is
built once per order by the cached ``_eta``, in place on a dense integer
list by passes of Euler's pentagonal sum: one pass multiplies or divides
by one (q^k; q^k)_infinity, and no series is ever inverted.

Every order is finite.  Orders, shifts and exponents have one normal
form: the int numerator over DEN (``QSeries.top`` is DEN times the order).
The public boundary checks once: ``QSeries(...)`` takes int exponent
numerators, int coefficients and an order, ``scale`` an int factor, and
``_num`` turns an order, shift or exponent (an int or a Fraction) into its
numerator, with GradingError for anything off the grid, math.inf
included.  Internal constructors check nothing.  A public result
(``QSeries.order``, the exponent of ``first_difference``) is an int when
integral, else a Fraction from ``_rational``, the one place where the
engine imports ``fractions``.

A product is one CPython bigint product, by Kronecker substitution (D.
Harvey, arXiv:0712.4046).  Both operands lie on progressions e0 + g i with
one step g, so each becomes a dense int list.  Each list is packed into
one int with a fixed-width byte field per coefficient, wide enough for
every coefficient of the product; the product of the two ints carries the
product's coefficients in its fields, read off with a bias per field.

All values are immutable after construction and every operation returns a
new canonical series (no stored zeros, no exponent past the order), so
coefficient-map equality is semantic equality up to the shared truncation
order.
"""

import math
from functools import lru_cache

DEN = 120


class SeriesError(ValueError):
    """Base class for exact-series contract violations."""


class GradingError(SeriesError):
    """Exponent not on the grid 1/DEN."""


class TruncationError(SeriesError):
    """Attempt to read coefficients beyond the truncation order."""


class DivergenceError(SeriesError):
    """A formally divergent construction (e.g. infinite product with
    a factor of non-positive exponent)."""


def _num(x):
    """DEN * x for an order, shift or exponent x (an int or a Fraction):
    an int; GradingError when x is off the grid 1/DEN (math.inf is)."""
    try:
        n = x * DEN
        if n.denominator == 1:
            return n.numerator
    except (AttributeError, TypeError):
        pass
    raise GradingError(f"{x} not representable over denominator {DEN}")


def _rational(n):
    """n / DEN: an int when integral, else a Fraction."""
    if n % DEN == 0:
        return n // DEN
    from fractions import Fraction   # only a non-integral value needs it
    return Fraction(n, DEN)


def _series(coeffs: dict, top, clean: bool = True) -> "QSeries":
    """The series of int coeffs known to the exponent numerator top.
    Unless clean is False (coeffs already canonical), zeros and exponents
    past top are dropped."""
    if clean:
        coeffs = {e: c for e, c in coeffs.items() if c and e <= top}
    s = object.__new__(QSeries)
    object.__setattr__(s, "coeffs", coeffs)
    object.__setattr__(s, "top", top)
    return s


def _dense(coeffs: dict, e0: int, g: int, top: int) -> list:
    """The coefficients at exponents e0 + g i, i <= top, as a dense list."""
    n = min((max(coeffs) - e0) // g, top) + 1
    p = [0] * n
    for e, c in coeffs.items():
        i = (e - e0) // g
        if i < n:
            p[i] = c
    return p


def _pack(p: list, nb: int) -> int:
    """sum_i p[i] 2^(8 nb i), read from one little-endian byte string of
    the fields p[i] + 2^(8 nb - 1), minus that bias in every field; each
    |p[i]| must be below 2^(8 nb - 1)."""
    half = 1 << (8 * nb - 1)
    biased = b"".join((c + half).to_bytes(nb, "little") for c in p)
    bias = half.to_bytes(nb, "little") * len(p)
    return int.from_bytes(biased, "little") - int.from_bytes(bias, "little")


class QSeries:
    """Truncated series sum_e c_e * q**(e/DEN) with int c_e, known to the
    exponent numerator top = DEN * order."""

    __slots__ = ("coeffs", "top")

    def __new__(cls, coeffs: dict, order):
        for e, c in coeffs.items():
            if type(e) is not int:
                raise GradingError(f"exponent numerator {e!r} is not an int")
            if type(c) is not int:
                raise SeriesError(f"coefficient {c!r} is not an int")
        return _series(coeffs, _num(order))

    def __setattr__(self, name, value):  # immutable by contract
        raise AttributeError("QSeries is immutable")

    # ------------------------------------------------------------------
    # basic queries

    @property
    def order(self):
        """The finite truncation order: an int, or a Fraction."""
        return _rational(self.top)

    def items(self) -> list[tuple[int, object]]:
        """Sorted (exponent numerator, coefficient) pairs."""
        return sorted(self.coeffs.items())

    def coefficient(self, exponent):
        """Coefficient at the given exponent; error past the truncation."""
        n = _num(exponent)
        if n > self.top:
            raise TruncationError(
                f"coefficient at {exponent} requested but series is only "
                f"known to order {self.order}")
        return self.coeffs.get(n, 0)

    # ------------------------------------------------------------------
    # ring operations

    def _coerce(self, other) -> "QSeries | None":
        if type(other) is int:   # a constant, known at q^0 and as far as self
            return _series({0: other}, max(self.top, 0))
        return other if isinstance(other, QSeries) else None

    def __add__(self, other) -> "QSeries":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        coeffs = dict(self.coeffs)
        for e, c in rhs.coeffs.items():
            coeffs[e] = coeffs.get(e, 0) + c
        return _series(coeffs, min(self.top, rhs.top))

    def __neg__(self) -> "QSeries":
        return _series({e: -c for e, c in self.coeffs.items()}, self.top,
                       False)

    def __sub__(self, other) -> "QSeries":
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else self + (-rhs)

    def __rsub__(self, other) -> "QSeries":
        return (-self) + other

    def __mul__(self, other) -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        # order rule: min over (order_a + val_b, order_b + val_a); an empty
        # factor contributes its order as the sound valuation bound.
        top = min(self.top + (min(b) if b else other.top),
                  other.top + (min(a) if a else self.top))
        if not (a and b):
            return _series({}, top, False)
        a0, b0 = min(a), min(b)
        # both operands on the progressions e0 + g i; the product's index
        # i + j stops at last
        g = math.gcd(*(e - a0 for e in a), *(e - b0 for e in b)) or 1
        last = (top - a0 - b0) // g
        pa, pb = _dense(a, a0, g, last), _dense(b, b0, g, last)
        # fields of nb bytes hold any |sum of min(len) products| below
        # 2^(8 nb - 2): the top bit of a field is its sign, one bit spare
        bound = max(map(abs, pa)) * max(map(abs, pb)) * min(len(pa), len(pb))
        nb = (bound.bit_length() + 2 + 7) // 8
        n = min(len(pa) + len(pb) - 1, last + 1)
        # the bias 2^(8 nb - 1) in each field makes every field of the
        # product a non-negative digit, so the fields read off without
        # borrows; the mask drops the fields past last
        half = 1 << (8 * nb - 1)
        bias = int.from_bytes(half.to_bytes(nb, "little") * n, "little")
        digits = ((_pack(pa, nb) * _pack(pb, nb) + bias) &
                  ((1 << (8 * nb * n)) - 1)).to_bytes(nb * n, "little")
        coeffs = {}
        for i in range(n):
            c = int.from_bytes(digits[i * nb:(i + 1) * nb], "little") - half
            if c:
                coeffs[a0 + b0 + g * i] = c
        return _series(coeffs, top, False)

    def scale(self, c: int) -> "QSeries":
        if type(c) is not int:
            raise SeriesError(f"scale factor {c!r} is not an int")
        # a nonzero int times nonzero ints: already canonical
        coeffs = {e: c * v for e, v in self.coeffs.items()} if c else {}
        return _series(coeffs, self.top, False)

    def shift(self, exponent) -> "QSeries":
        """Multiply by the monomial q**exponent."""
        return self._shift(_num(exponent))

    def _shift(self, d: int) -> "QSeries":
        """Multiply by the monomial q**(d/DEN)."""
        return _series({e + d: c for e, c in self.coeffs.items()},
                       self.top + d, False)

    # ------------------------------------------------------------------
    # substitutions and comparisons

    def truncate(self, order) -> "QSeries":
        """Weaken the truncation order (dropping now-unclaimed terms)."""
        top = _num(order)
        if top > self.top:
            raise TruncationError(
                f"cannot extend truncation order {self.order} to {order}")
        if top == self.top:
            return self
        return _series({e: c for e, c in self.coeffs.items() if e <= top},
                       top, False)

    def substitute_minus_q(self) -> "QSeries":
        """The series at -q; valid only when all exponents are integers."""
        if any(e % DEN for e in self.coeffs):
            raise GradingError("q -> -q substitution needs integer exponents")
        return _series({e: -c if e // DEN % 2 else c
                        for e, c in self.coeffs.items()}, self.top, False)

    def first_difference(self, other: "QSeries", order):
        """First (exponent, lhs, rhs) disagreement up to order, or None.

        Both series must be known at least to the requested order.
        """
        top = _num(order)
        if self.top < top or other.top < top:
            raise TruncationError(
                f"comparison to order {order} needs both series known that "
                f"far (have {self.order} and {other.order})")
        a, b = self.coeffs, other.coeffs
        # the exponents of the (exponent, coefficient) pairs in one map only
        bad = [e for e, _ in a.items() ^ b.items() if e <= top]
        if not bad:
            return None
        e = min(bad)
        return (_rational(e), a.get(e, 0), b.get(e, 0))

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else self.coeffs == rhs.coeffs

    __hash__ = None  # mutable-free but dict-backed; not hashable


# ----------------------------------------------------------------------
# eta quotients


@lru_cache(maxsize=None)
def _eta(powers: tuple, shift: int, top) -> QSeries:
    """q^(shift/DEN) prod_k (q^k; q^k)_infinity^m over the sorted (k, m)
    pairs powers, exact to the numerator top, cached for every caller: both
    routes and the five cosets of a class share a product (1A's also the
    chi sides'), and octant_series sums share in pairs.

    The product is built on a dense list p of integer coefficients at
    exponents 0..n, n = floor(order - shift), from Euler's pentagonal
    sum (q^k; q^k)_infinity = 1 + sum_g s_g q^g over the exponents
    g = k j(3j -+ 1)/2, j >= 1, with s_g = (-1)^j.  Each unit of a power
    is one pass over p that adds s_g p[i] into every p[i + g].  A positive
    power runs top-down, so each p[i] it reads is still the old one: a
    product.  A negative power runs bottom-up with the signs reversed, so
    each p[i] it reads is already final: a quotient, which the constant
    term 1 allows.  No series is inverted.
    """
    inner = top - shift
    n = inner // DEN
    p = [1] + [0] * n
    for k, m in powers:
        if k <= 0:
            raise DivergenceError(
                f"infinite product has factor of exponent {k} <= 0")
        # the exponents g with s_g = -1 (odd j), then with s_g = +1 (even j)
        jmax = math.isqrt(max(n, 0) // k)
        odd, even = ([k * g for j in range(first, jmax + 1, 2)
                      for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2)
                      if k * g <= n] for first in (1, 2))
        rows = range(n, -1, -1) if m > 0 else range(n + 1)
        for _ in range(abs(m)):
            for i in rows:
                v = p[i] if m > 0 else -p[i]
                if v:
                    room = n - i
                    for g in odd:
                        if g > room:
                            break
                        p[i + g] -= v
                    for g in even:
                        if g > room:
                            break
                        p[i + g] += v
    # below its shift (n < 0) the product claims nothing, not even p[0]
    return _series({DEN * i: c for i, c in enumerate(p) if c}, inner,
                   n < 0)._shift(shift)
