import random
from fractions import Fraction as F

import pytest

from e8umbral.characters import CLASSES, h_component
from e8umbral.qseries import (DivergenceError, GradingError,
                              QSeries, SeriesError, TruncationError,
                              dedekind_eta, euler_product, pochhammer)
from e8umbral.theta import g_scaled_series

from oracles import finite_pochhammer, partition_counts, pentagonal_series


def q(power, coeff=1, order=None):
    return QSeries.monomial(coeff, F(power),
                            order if order is not None else float("inf"))


def test_difference_of_squares():
    a = QSeries.one(order=5) + q(1, order=5)
    b = QSeries.one(order=5) - q(1, order=5)
    prod = a * b
    assert prod == QSeries.one() - q(2)
    assert prod.order == 5


def test_monomial_exponent_addition():
    assert q(F(-1, 120)) * q(F(1, 120)) == QSeries.one()


def test_additive_inverse_gives_empty_map():
    s = QSeries({n * 120: 1 for n in range(11)}, 10)
    z = s + (-s)
    assert z.coeffs == {}
    assert z.is_zero


def test_geometric_inverse():
    inv = (QSeries.one(order=4) - q(1, order=4)).invert()
    assert [c for _, c in inv.items()] == [1, 1, 1, 1, 1]
    # integral coefficients are stored as ints, not as boxed Fractions
    for s in (inv, euler_product(1, 30), h_component(CLASSES["1A"], 1, 20)):
        assert all(type(c) is int for c in s.coeffs.values())
    two = QSeries({0: F(4, 2)}).coeffs[0]
    assert type(two) is int and two == 2
    g = g_scaled_series(1, 60, 5)
    assert any(isinstance(c, F) and c.denominator != 1
               for c in g.coeffs.values())


def test_invert_monomial():
    assert q(F(1, 120)).invert() == q(F(-1, 120))


def test_partition_generating_function():
    inv = euler_product(1, 8).invert()
    expected = partition_counts(8)
    for n in range(9):
        assert inv.coefficient(n) == expected[n]


def test_pentagonal_numbers():
    got = euler_product(1, 30)
    want = pentagonal_series(30)
    for n in range(31):
        assert got.coefficient(n) == want.get(n, 0)
    # the pentagonal route against the factor-by-factor product
    for k in (1, 2, 3):
        want = finite_pochhammer(k, 1, k, 60 // k, 60)
        got = euler_product(k, 60)
        assert all(got.coefficient(n) == want.get(n, 0) for n in range(61))
    # prod_{n>0} (1 + q^n) as (q^2; q^2)_inf / (q; q)_inf
    want = finite_pochhammer(1, -1, 1, 60, 60)
    got = euler_product(2, 60) * euler_product(1, 60).invert()
    assert all(got.coefficient(n) == want.get(n, 0) for n in range(61))


def test_pochhammer_empty_product_and_factors():
    assert pochhammer(F(1, 2), 1, 1, 0, 10) == QSeries.one()
    assert pochhammer(1, -1, 2, 1, 10) == QSeries.one() + q(1)


def test_pochhammer_divergence():
    with pytest.raises(DivergenceError):
        euler_product(0, 5)
    with pytest.raises(DivergenceError):
        euler_product(-1, 5)


def test_eta_leading_terms():
    eta = dedekind_eta(1, 3)
    assert eta.coefficient(F(1, 24)) == 1
    assert eta.coefficient(F(25, 24)) == -1
    assert dedekind_eta(2, 3).valuation() == F(1, 12)


def test_eta2_euler_identity():
    # q^(1/12) sum_k (-1)^k q^(3k^2+k) equals eta(2 tau)
    order = 40
    coeffs = {}
    for k in range(-5, 6):
        e = 3 * k * k + k
        coeffs[e * 120 + 10] = coeffs.get(e * 120 + 10, 0) + (-1) ** (k % 2)
    lhs = QSeries(coeffs, order)
    assert lhs.same_up_to(dedekind_eta(2, order), order)


def test_extract_coefficient_contract():
    s = QSeries.one(order=5) - q(1, order=5)
    assert s.coefficient(1) == -1
    assert s.coefficient(3) == 0
    with pytest.raises(TruncationError):
        s.coefficient(7)


def test_grading_rescale_and_mismatch():
    prod = QSeries.monomial(1, F(1, 24)) * QSeries.monomial(1, F(1, 120))
    assert prod.coefficient(F(6, 120)) == 1
    with pytest.raises(GradingError):
        QSeries.monomial(1, F(1, 7))


def _random_series(rng, order=8):
    coeffs = {rng.randrange(-4, 10) * 60: F(rng.randrange(-6, 7),
                                            rng.randrange(1, 5))
              for _ in range(rng.randrange(1, 7))}
    return QSeries(coeffs, order)


def test_ring_laws_randomized():
    rng = random.Random(2024)
    for _ in range(120):
        x, y, z = (_random_series(rng) for _ in range(3))
        assoc_l = (x * y) * z
        assoc_r = x * (y * z)
        assert assoc_l.same_up_to(assoc_r,
                                  min(assoc_l.order, assoc_r.order))
        assert (x * y).same_up_to(y * x, (x * y).order)
        assert (x + y).same_up_to(y + x, min(x.order, y.order))
        dist_l = x * (y + z)
        dist_r = x * y + x * z
        assert dist_l.same_up_to(dist_r, min(dist_l.order, dist_r.order))


def test_invert_roundtrip_randomized():
    rng = random.Random(99)
    for _ in range(60):
        u = QSeries.const(rng.randrange(1, 5), order=8) + \
            _random_series(rng).shift(F(1, 2))
        w = u.invert()
        prod = u * w
        assert prod.same_up_to(QSeries.one(), prod.order)
        assert w.valuation() == -u.valuation()


def test_truncation_is_contract_not_zero():
    s = euler_product(1, 5)
    with pytest.raises(TruncationError):
        s.coefficient(6)
    with pytest.raises(TruncationError):
        s.first_difference(euler_product(1, 10), 8)
    # 1/(1 - q) is infinite: an exact inverse would have to claim all of it
    with pytest.raises(SeriesError, match="truncate first"):
        (QSeries.one() - q(1)).invert()


def test_minus_q_substitution():
    s = QSeries({0: 1, 120: 2, 240: 3, 360: 4}, 5)
    t = s.substitute_minus_q()
    assert [c for _, c in t.items()] == [1, -2, 3, -4]
    with pytest.raises(GradingError):
        QSeries.monomial(1, F(1, 2)).substitute_minus_q()


def test_mul_truncation_rule():
    # min over (order1 + val2, order2 + val1)
    a = QSeries({120: 1}, 5)      # valuation 1, order 5
    b = QSeries({240: 1}, 7)      # valuation 2, order 7
    assert (a * b).order == 7          # min(5+2, 7+1)


def test_zero_series_annihilates_conservatively():
    z = QSeries.zero(order=4)
    s = euler_product(1, 9)
    prod = z * s
    assert prod.is_zero
    assert prod.order == 4             # val(zero) bounded by its order
