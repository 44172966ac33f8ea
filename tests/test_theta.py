import random
from fractions import Fraction as F

import pytest

from e8umbral.characters import CLASSES
from e8umbral.qseries import GradingError
from e8umbral.theta import (S_unary, eta_J_coefficients, g_scaled_series,
                            shadow_component, shadow_vector,
                            thetanullwerte_class_check)


def test_s30_leading_term():
    s = S_unary(30, 1, 10)
    assert s.coefficient(F(1, 120)) == 1
    assert s.valuation() == F(1, 120)


def test_s_symmetries_randomized():
    rng = random.Random(5)
    for _ in range(20):
        m = rng.choice((1, 2, 3, 5, 6, 10, 15, 30))    # 4m divides 120
        r = rng.randrange(-3 * m, 3 * m + 1)
        a = S_unary(m, r, 9)
        assert a == -S_unary(m, -r, 9)
        assert a == S_unary(m, r + 2 * m, 9)


def test_grading_guard():
    with pytest.raises(GradingError):
        S_unary(7, 1, 5)


def test_scaled_theta_derivative_relation():
    # g_{r/60,0} at the doubled argument equals S_{30,r}/60 termwise
    for r in (1, 7, 11, 13, 23, 29):
        g = g_scaled_series(r, 60, 12)
        assert g == S_unary(30, r, 12).scale(F(1, 60))


def test_shadow_vector_components():
    sv = shadow_vector(CLASSES["1A"], 5)
    s_sum = sum((S_unary(30, r, 5) for r in (11, 19, 29)),
                S_unary(30, 1, 5))
    assert sv.component(1) == s_sum.scale(3)
    assert sv.component(59) == s_sum.scale(-3)
    sv2 = shadow_vector(CLASSES["2A"], 5)
    s7 = sum((S_unary(30, r, 5) for r in (13, 17, 23)), S_unary(30, 7, 5))
    assert sv2.component(53) == -s7
    assert sv2.component(1) == s_sum


def test_order_three_shadow_vanishes():
    sv = shadow_vector(CLASSES["3A"], 6)
    assert all(sv.component(r).is_zero for r in range(60))


def test_shadow_off_support_zero():
    assert shadow_component(CLASSES["1A"], 3, 5).is_zero
    assert shadow_component(CLASSES["2A"], 30, 5).is_zero


def test_nullwerte_scan_base30_empty():
    rep = thetanullwerte_class_check(30)
    assert rep.empty
    assert rep.pairs_checked == 144     # sum of 2n over n | 30
    assert rep.targets == (F(119, 120), F(71, 120))


def test_nullwerte_scan_base90_empty():
    # the order-3 variant of the scan: also empty, settling the garbled
    # printed claim in the direction the uniqueness argument needs
    rep = thetanullwerte_class_check(90)
    assert rep.empty
    assert rep.pairs_checked == 468


def test_nullwerte_scan_sees_planted_target():
    # sanity: the scan logic does report hits when a target class exists
    rep = thetanullwerte_class_check(2)
    assert rep.empty                    # n in {1,2}: classes are k^2/4 mod 1


def test_eta_j_coefficients():
    ej = eta_J_coefficients(F(97, 24))
    assert ej.coefficient(F(-23, 24)) == 1
    assert ej.coefficient(F(25, 24)) == 196883
    assert ej.coefficient(F(49, 24)) == 21296876
    assert ej.coefficient(F(73, 24)) == 842609326
    assert ej.coefficient(F(97, 24)) == 19360062527
