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
in 1/24.  A series is added, negated, scaled by an int, shifted by a
monomial and compared, never multiplied by a series: the one product of
the package, an eta-quotient times an octant sum, is formed on a dense
integer list before any series exists (``characters.closed_series`` of a
``characters.ClosedForm`` record).

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

All values are immutable after construction and every operation returns a
new canonical series (no stored zeros, no exponent past the order), so
coefficient-map equality is semantic equality up to the shared truncation
order.
"""

DEN = 120


class SeriesError(ValueError):
    """Base class for exact-series contract violations."""


class GradingError(SeriesError):
    """Exponent not on the grid 1/DEN."""


class TruncationError(SeriesError):
    """Attempt to read coefficients beyond the truncation order."""


class DivergenceError(SeriesError):
    """A formally divergent construction (an infinite product with a
    factor of non-positive exponent)."""


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
    # sums, scalings and shifts

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
