import itertools
import math
import random
from fractions import Fraction as F

import pytest

from e8umbral.characters import (CLASS_1A, CLASSES, GRAM_1A, GRAM_2A,
                                 ClosedForm, TraceId, _direct_data,
                                 _times_eta, closed_series, h_component,
                                 trace_closed)
from e8umbral.mocktheta import identity_suite, ramanujan_series
from e8umbral.qseries import (DEN, DivergenceError, GradingError,
                              QSeries, SeriesError, TruncationError, _num)

from oracles import (closed_form_oracle, eta_quotient_oracle,
                     finite_pochhammer, partition_counts, pentagonal_series,
                     poly_inv, poly_mul, same_up_to, valuation)


def eta_quotient(powers: dict, shift, order):
    """prod_k (q^k; q^k)_inf^m over the (k, m) items of powers, times
    q^shift, exact to order: the package's in-place kernel on the dense
    list 1, 0, 0, ... at the half-integer steps above q^shift."""
    top, lead = _num(order), _num(shift)
    n = (top - lead) // DEN
    p = [1] + [0] * (2 * n)
    _times_eta(p, sorted(powers.items()))
    # below its shift (n < 0) the product claims nothing, not even p[0]
    return QSeries({DEN * i + lead: c for i, c in enumerate(p[::2])}, order)


def q(power, coeff=1, order=10):
    """coeff q^power, known to order; power on the grid 1/120."""
    return QSeries({int(F(power) * 120): coeff}, order)


def test_monomial_exponent_addition():
    assert q(F(-1, 120)).shift(F(1, 120)) == q(0)


def test_additive_inverse_gives_empty_map():
    s = QSeries({n * 120: 1 for n in range(11)}, 10)
    z = s + (-s)
    assert z.coeffs == {}


def test_geometric_inverse():
    # 1/(q; q)_inf to q^2: the partition numbers 1, 1, 2
    inv = eta_quotient({1: -1}, 0, 2)
    assert [c for _, c in inv.items()] == [1, 1, 2]
    # integral coefficients are stored as ints, not as boxed Fractions
    for s in (inv, eta_quotient({1: 1}, 0, 30),
              h_component(CLASSES["1A"], 1, 20)):
        assert all(type(c) is int for c in s.coeffs.values())
    # coefficients are ints: a Fraction is refused, integral or not
    with pytest.raises(SeriesError, match=r"coefficient Fraction\(2, 1\)"):
        QSeries({0: F(4, 2)}, 2)
    with pytest.raises(SeriesError, match=r"factor Fraction\(1, 60\)"):
        inv.scale(F(1, 60))


def test_partition_generating_function():
    inv = eta_quotient({1: -1}, 0, 8)
    expected = partition_counts(8)
    for n in range(9):
        assert inv.coefficient(n) == expected[n]


def test_pentagonal_numbers():
    got = eta_quotient({1: 1}, 0, 30)
    want = pentagonal_series(30)
    for n in range(31):
        assert got.coefficient(n) == want.get(n, 0)
    # the pentagonal route against the factor-by-factor product
    for k in (1, 2, 3):
        want = finite_pochhammer(k, 1, k, 60 // k, 60)
        got = eta_quotient({k: 1}, 0, 60)
        assert all(got.coefficient(n) == want.get(n, 0) for n in range(61))
    # prod_{n>0} (1 + q^n) as (q^2; q^2)_inf / (q; q)_inf
    want = finite_pochhammer(1, -1, 1, 60, 60)
    got = eta_quotient({2: 1, 1: -1}, 0, 60)
    assert all(got.coefficient(n) == want.get(n, 0) for n in range(61))


def _against_products(powers, shift, order):
    # eta_quotient against factor-by-factor products of (1 - q^(kn)) and
    # one oracle inversion
    n_max = math.floor(order - shift)
    num, den = {0: F(1)}, {0: F(1)}
    for k, p in powers.items():
        factor = finite_pochhammer(k, 1, k, n_max // k, n_max)
        for _ in range(abs(p)):
            if p > 0:
                num = poly_mul(num, factor, n_max)
            else:
                den = poly_mul(den, factor, n_max)
    want = poly_mul(num, poly_inv(den, n_max), n_max)
    got = eta_quotient(powers, shift, order)
    assert got.order == order
    assert got.coeffs == {int((n + shift) * 120): c for n, c in want.items()}


@pytest.mark.parametrize("powers,shift", [
    ({1: -3}, F(-1, 8)), ({1: -1, 2: -1}, F(-1, 8)), ({3: -1}, F(-1, 8)),
    ({1: -2}, F(-1, 12)), ({2: -1}, F(-1, 12)), ({1: 1, 3: -1}, F(-1, 12)),
    ({1: 1, 2: -2}, F(7, 120)), ({1: -1, 2: 1}, F(1, 3)), ({1: -24}, -1),
    ({2: 1}, F(1, 12)),
])
def test_eta_quotient_against_products(powers, shift):
    # every power table the package uses
    _against_products(powers, shift, 30)


def _random_eta_inputs(count):
    # seeded (powers, shift, order): powers in +-{1, 2, 3} on k <= 6,
    # orders up to 60 on the grid 1/120 (a draw over 1/840 floored onto
    # it), order >= shift
    rng = random.Random(15)
    for _ in range(count):
        ks = rng.sample(range(1, 7), rng.randrange(1, 4))
        shift = F(rng.randrange(-120, 121), 120)
        yield ({k: rng.choice((-3, -2, -1, 1, 2, 3)) for k in ks}, shift,
               shift + F(rng.randrange(59 * 840) // 7, 120))


@pytest.mark.parametrize("powers,shift,order", _random_eta_inputs(40))
def test_eta_quotient_against_products_random(powers, shift, order):
    _against_products(powers, shift, order)


def test_eta_quotient_below_its_shift_is_empty():
    # q^1/(q; q)_inf claims nothing below q^1: known to order 1/2 it is
    # the empty series of that order
    got = eta_quotient({1: -1}, 1, F(1, 2))
    assert not got.coeffs and got.order == F(1, 2)


def test_eta_quotient_input_checks():
    with pytest.raises(GradingError, match="inf not representable"):
        eta_quotient({1: -1}, 0, math.inf)
    with pytest.raises(GradingError, match="1/7 not representable"):
        eta_quotient({1: 1}, F(1, 7), 5)
    # an order off the grid 1/120 is refused, not floored onto it
    with pytest.raises(GradingError, match="1/840 not representable"):
        eta_quotient({1: 1}, 0, F(1, 840))


@pytest.mark.parametrize("build,error,named", [
    (lambda: QSeries({0: 0.5}, 3), SeriesError, "coefficient 0.5 "),
    (lambda: q(0, order=5).scale(0.5), SeriesError, "scale factor 0.5 "),
    (lambda: QSeries({1: 1}, 0.5), GradingError, "0.5 not representable"),
    (lambda: q(0, order=5).shift(0.5), GradingError, "0.5 not representable"),
    (lambda: q(0, order=5).coefficient(0.5), GradingError,
     "0.5 not representable"),
    (lambda: QSeries({0.5: 1}, 3), GradingError, "exponent numerator 0.5 "),
], ids=["coefficient", "scale", "order", "shift", "coefficient-at",
        "exponent"])
def test_float_at_the_boundary_is_refused(build, error, named):
    # a float is no exact coefficient, order or exponent: the series'
    # own error names it, not an AttributeError from deep inside
    with pytest.raises(error, match=named):
        build()


@pytest.mark.parametrize("build", [
    lambda inf: QSeries({0: 1}, inf),
    lambda inf: q(0, order=5).coefficient(inf),
    lambda inf: q(0, order=5).first_difference(q(0, order=5), inf),
    lambda inf: closed_series(ClosedForm(((1, -2),), ((1,),), (1,), (1,), 1,
                                         -1), inf),
    lambda inf: trace_closed(TraceId(CLASS_1A, 1), inf),
    lambda inf: closed_series(_direct_data(TraceId(CLASS_1A, 1)), inf),
    lambda inf: h_component(CLASS_1A, 1, inf),
    lambda inf: ramanujan_series("chi0", inf),
    lambda inf: identity_suite(inf),
], ids=["QSeries", "coefficient", "first_difference",
        "closed_series", "trace_closed", "direct_data",
        "h_component", "ramanujan_series", "identity_suite"])
def test_infinite_order_is_refused(build):
    # every series is known to a finite order: an infinite one is off the
    # grid 1/120 like any other non-rational value, refused where it enters
    with pytest.raises(GradingError, match="inf not representable"):
        build(math.inf)


def test_pochhammer_divergence():
    with pytest.raises(DivergenceError, match="exponent 0 <= 0"):
        eta_quotient({0: 1}, 0, 5)
    with pytest.raises(DivergenceError, match="exponent -1 <= 0"):
        eta_quotient({1: 1, -1: -1}, 0, 5)


def test_eta_leading_terms():
    eta = eta_quotient({1: 1}, F(1, 24), 3)
    assert valuation(eta) == F(1, 24)
    assert eta.coefficient(F(1, 24)) == 1
    assert eta.coefficient(F(25, 24)) == -1
    assert valuation(eta_quotient({2: 1}, F(1, 12), 3)) == F(1, 12)


def test_eta2_euler_identity():
    # q^(1/12) sum_k (-1)^k q^(3k^2+k) equals eta(2 tau)
    order = 40
    coeffs = {}
    for k in range(-5, 6):
        e = 3 * k * k + k
        coeffs[e * 120 + 10] = coeffs.get(e * 120 + 10, 0) + (-1) ** (k % 2)
    lhs = QSeries(coeffs, order)
    assert same_up_to(lhs, eta_quotient({2: 1}, F(1, 12), order), order)


def test_extract_coefficient_contract():
    s = q(0, order=5) - q(1, order=5)
    assert s.coefficient(1) == -1
    assert s.coefficient(3) == 0
    with pytest.raises(TruncationError):
        s.coefficient(7)


def test_grading_rescale_and_mismatch():
    moved = q(F(1, 24)).shift(F(1, 120))
    assert moved.coefficient(F(6, 120)) == 1
    with pytest.raises(GradingError):
        q(0).shift(F(1, 7))


def _random_series(rng, order=8):
    # a random rational n/d, d <= 4, times the common denominator 12
    coeffs = {rng.randrange(-4, 10) * 60: rng.randrange(-6, 7) *
              (12 // rng.randrange(1, 5))
              for _ in range(rng.randrange(1, 7))}
    return QSeries(coeffs, order)


def test_ring_laws_randomized():
    # the additive laws; a series is never multiplied by a series
    rng = random.Random(2024)
    for _ in range(120):
        x, y, z = (_random_series(rng) for _ in range(3))
        assert same_up_to(x + y, y + x, min(x.order, y.order))
        assert same_up_to((x + y) + z, x + (y + z),
                          min(x.order, y.order, z.order))
        assert (x - x).coeffs == {}


def test_truncation_is_contract_not_zero():
    s = eta_quotient({1: 1}, 0, 5)
    with pytest.raises(TruncationError):
        s.coefficient(6)
    with pytest.raises(TruncationError):
        s.first_difference(eta_quotient({1: 1}, 0, 10), 8)


def test_minus_q_substitution():
    s = QSeries({0: 1, 120: 2, 240: 3, 360: 4}, 5)
    t = s.substitute_minus_q()
    assert [c for _, c in t.items()] == [1, -2, 3, -4]
    with pytest.raises(GradingError):
        q(F(1, 2)).substitute_minus_q()


# ----------------------------------------------------------------------
# the one product: an eta quotient times an octant sum, in place


# the 1A trace of coset 1 and the corollary sum cor_rhs_1
_FORMS = (ClosedForm(((1, -2),), GRAM_1A, (1, 1, 1), (1, 1, 1), 1, -10),
          ClosedForm(((1, -1), (2, 1)), GRAM_2A, (2, 1), (1, 1), -1, 0))


def test_mul_truncation_rule():
    # the product is exact to the order asked, with no margin: coefficient
    # v of the in-place product reads only the walk's counts at values
    # <= v, all exact to the cap
    for form, order in itertools.product(_FORMS,
                                         (F(-1, 120), 0, F(7, 3), 9,
                                          F(121, 12))):
        got = closed_series(form, order)
        assert got.order == order
        assert same_up_to(got, closed_series(form, order + 3), order)
        assert got.coeffs == closed_form_oracle(form, order)


def test_zero_series_annihilates_conservatively():
    # an octant sum empty to the order (its shift above it) gives the
    # empty product, known to that order, whatever the eta quotient; and
    # an order below q^-1 is the empty series too, not an error
    for powers in ((), ((1, -2),), ((1, 1), (3, -1))):
        got = closed_series(ClosedForm(powers, GRAM_1A, (1, 1, 1),
                                       (1, 1, 1), 1, 600), 2)
        assert not got.coeffs and got.order == 2
    got = closed_series(_FORMS[0], -3)
    assert not got.coeffs and got.order == -3


# ----------------------------------------------------------------------
# the in-place kernel against the schoolbook oracle


_PRODUCT_KINDS = ("negative", "huge", "sparse", "one-term", "empty",
                  "even only", "lone -1", "long")


def _kernel_case(rng, kind):
    """A seeded dense list at the steps q^(1/2) and the (k, m) pairs of an
    eta quotient; "even only" has only integer exponents, as on the walk's
    list of every trace."""
    size = {"empty": 0, "long": rng.randrange(150, 300)}.get(
        kind, rng.randrange(1, 60))
    p = [0] * size
    if kind == "huge":
        p = [rng.choice((-1, 1)) * rng.randrange(2**64, 2**90)
             for _ in range(size)]
    elif kind in ("sparse", "one-term", "lone -1"):
        count = 1 if kind != "sparse" else rng.randrange(2, 6)
        for i in rng.sample(range(size), min(count, size)):
            p[i] = -1 if kind == "lone -1" else rng.randrange(-9, 10) or 1
    elif kind != "empty":
        p = [0 if kind == "even only" and i % 2 else rng.randrange(-9, 10)
             for i in range(size)]
    powers = [(k, rng.choice((-3, -2, -1, 1, 2, 3)))
              for k in rng.sample(range(1, 7), rng.randrange(1, 4))]
    return p, powers


@pytest.mark.parametrize("seed", range(60))
def test_product_against_oracle(seed):
    rng = random.Random(seed)
    p, powers = _kernel_case(rng, _PRODUCT_KINDS[seed % len(_PRODUCT_KINDS)])
    n = len(p) - 1
    # the oracle in the list's own steps: q^k is x^(2k)
    quotient = eta_quotient_oracle([(2 * k, m) for k, m in powers], n)
    want = poly_mul(dict(enumerate(p)), quotient, n)
    got = list(p)
    _times_eta(got, powers)
    assert got == [want.get(i, 0) for i in range(len(p))]
    assert all(type(c) is int for c in got)
