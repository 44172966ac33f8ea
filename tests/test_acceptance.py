"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured cost so the gate is auditable from the pytest -s log.

Criteria (tolerances fixed here, not calibrated later):
  1. full appendix tables, exact, < 60 s
  2. closed vs direct route for all 30 trace functions to order 20, < 30 s
  3. triple-sum identities to order 25, exact
  4. corollary double-sum identities to order 25, exact
  5. the four component identities to order 30, exact
  6. chi/F/phi and Hecke-type expansions to order 50, exact
  7. the four eta*J coefficients, exact
  8. theta-constant exponent scan base 30: empty
  9. completion identity residuals < 1e-6 at 5 points with Im >= 0.5,
     both components, < 120 s
 10. transformation residuals < 1e-6: identity class under T and S,
     order-2 under Gamma_0(2) generators, order-3 under Gamma_0(3)
     generators with the cubic phase, 3 sample points each
 11. property suites (ring laws, pentagonal, eta(2 tau) identity, S
     symmetries, scaled-theta relation, theta antisymmetry, random
     splitting instances) are the pytest modules of this directory; the
     representative checks rerun here
"""

import math
import random
import time
from fractions import Fraction as F

from e8umbral.characters import (CLASS_1A, CLASS_2A, CLASS_3A, CLASSES,
                                 all_trace_ids, h_component,
                                 trace_closed, trace_direct)
from e8umbral.maass import (IndefThetaData, indefinite_theta,
                            order2_theta_data, tau1_identity_check,
                            theta_split_check, transform_check)
from e8umbral.mocktheta import (hecke_double_sum, ramanujan_series,
                                zwegers_triple_sum)
from e8umbral.qseries import QSeries, dedekind_eta, euler_product
from e8umbral.theta import (S_unary, eta_J_coefficients, g_scaled_series,
                            thetanullwerte_class_check)

TABLE_A1 = {
    -1: (-2, -2, -2), 119: (2, 2, 2), 239: (2, -2, 2), 359: (4, 0, -2),
    479: (2, -2, 2), 599: (6, 2, 0), 719: (4, 0, -2), 839: (6, 2, 0),
    959: (6, -2, 0), 1079: (10, 2, -2), 1199: (6, -2, 0), 1319: (12, 0, 0),
    1439: (10, -2, -2), 1559: (14, 2, 2), 1679: (14, -2, 2),
    1799: (18, 2, 0), 1919: (14, -2, 2), 2039: (24, 4, 0),
    2159: (22, -2, -2), 2279: (26, 2, 2), 2399: (26, -2, 2),
    2519: (34, 2, -2), 2639: (30, -2, 0), 2759: (42, 2, 0),
    2879: (40, -4, -2), 2999: (48, 4, 0), 3119: (48, -4, 0),
    3239: (58, 2, -2), 3359: (56, -4, 2), 3479: (72, 4, 0),
    3599: (70, -2, -2), 3719: (80, 4, 2), 3839: (84, -4, 0),
    3959: (100, 4, -2), 4079: (96, -4, 0), 4199: (116, 4, 2),
    4319: (116, -4, -4), 4439: (134, 6, 2), 4559: (140, -4, 2),
}

TABLE_A2 = {
    71: (2, -2, 2), 191: (4, 0, -2), 311: (4, 0, -2), 431: (6, 2, 0),
    551: (6, -2, 0), 671: (8, 0, 2), 791: (8, 0, 2), 911: (12, 0, 0),
    1031: (10, -2, -2), 1151: (14, 2, 2), 1271: (16, 0, -2),
    1391: (18, 2, 0), 1511: (18, -2, 0), 1631: (24, 0, 0),
    1751: (24, 0, 0), 1871: (30, 2, 0), 1991: (30, -2, 0),
    2111: (36, 0, 0), 2231: (38, -2, 2), 2351: (46, 2, -2),
    2471: (46, -2, -2), 2591: (54, 2, 0), 2711: (60, 0, 0),
    2831: (66, 2, 0), 2951: (68, -4, 2), 3071: (82, 2, -2),
    3191: (84, 0, 0), 3311: (98, 2, 2), 3431: (102, -2, 0),
    3551: (114, 2, 0), 3671: (122, -2, 2), 3791: (138, 2, 0),
    3911: (144, -4, 0), 4031: (162, 2, 0), 4151: (174, -2, 0),
    4271: (192, 4, 0), 4391: (200, -4, 2), 4511: (226, 2, -2),
    4631: (238, -2, -2),
}

NAMES = ("1A", "2A", "3A")


def _report(label, elapsed=None):
    extra = f"  [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"PASS  {label}{extra}")


def test_criterion_01_appendix_tables():
    t0 = time.time()
    h1 = {n: h_component(CLASSES[n], 1, F(4560, 120)) for n in NAMES}
    h7 = {n: h_component(CLASSES[n], 7, F(4632, 120)) for n in NAMES}
    for num, vals in TABLE_A1.items():
        got = tuple(h1[n].coefficient(F(num, 120)) for n in NAMES)
        assert got == vals, f"table 1 row {num}: {got} != {vals}"
    for num, vals in TABLE_A2.items():
        got = tuple(h7[n].coefficient(F(num, 120)) for n in NAMES)
        assert got == vals, f"table 7 row {num}: {got} != {vals}"
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report("criterion 1: appendix tables, 78 rows x 3 classes, exact",
            elapsed)


def test_criterion_02_route_equivalence():
    t0 = time.time()
    for tid in all_trace_ids():
        c = trace_closed(tid, 20)
        d = trace_direct(tid, 20)
        diff = c.first_difference(d, 20)
        assert diff is None, (tid, diff)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report("criterion 2: closed = direct for all 30 trace ids, order 20",
            elapsed)


def test_criterion_03_triple_sum_identities():
    order = 25
    assert zwegers_triple_sum("chi0_side", order).same_up_to(
        2 - ramanujan_series("chi0", order), order)
    assert zwegers_triple_sum("chi1_side", order).same_up_to(
        ramanujan_series("chi1", order), order)
    _report("criterion 3: triple-sum identities, order 25, exact")


def test_criterion_04_corollary_identities():
    order = 25
    for fam in ("1", "7"):
        assert hecke_double_sum(f"cor_lhs_{fam}", order).same_up_to(
            hecke_double_sum(f"cor_rhs_{fam}", order), order)
    _report("criterion 4: corollary double-sum identities, order 25, exact")


def test_criterion_05_component_identities():
    order = 30
    chi0 = ramanujan_series("chi0", order + 2)
    chi1 = ramanujan_series("chi1", order + 2)
    phi0m = ramanujan_series("phi0", order + 2, argument_sign=-1)
    phi1m = ramanujan_series("phi1", order + 2, argument_sign=-1)
    checks = [
        (h_component(CLASS_1A, 1, order),
         (chi0 - 2).scale(2).shift(F(-1, 120))),
        (h_component(CLASS_1A, 7, order),
         chi1.scale(2).shift(F(71, 120))),
        (h_component(CLASS_2A, 1, order),
         phi0m.scale(-2).shift(F(-1, 120))),
        (h_component(CLASS_2A, 7, order),
         phi1m.scale(2).shift(F(-49, 120))),
    ]
    for got, want in checks:
        assert got.first_difference(want, got.order) is None
    _report("criterion 5: four mock-theta component identities, order 30")


def test_criterion_06_chi_f_phi_and_hecke():
    order = 50
    chi0 = ramanujan_series("chi0", order)
    chi1 = ramanujan_series("chi1", order)
    F0 = ramanujan_series("F0", order)
    F1 = ramanujan_series("F1", order + 1)
    phi0m = ramanujan_series("phi0", order + 1, argument_sign=-1)
    phi1m = ramanujan_series("phi1", order + 1, argument_sign=-1)
    assert chi0.same_up_to(F0.scale(2) - phi0m, order)
    assert chi1.same_up_to(F1.scale(2) + phi1m.shift(-1), order)
    assert hecke_double_sum("phi0_lhs", order).same_up_to(phi0m, order)
    assert hecke_double_sum("phi1_lhs", order).same_up_to(
        -phi1m.shift(-1), order)
    _report("criterion 6: chi/F/phi and Hecke expansions, order 50, exact")


def test_criterion_07_eta_j_coefficients():
    ej = eta_J_coefficients(F(97, 24))
    assert ej.coefficient(F(25, 24)) == 196883
    assert ej.coefficient(F(49, 24)) == 21296876
    assert ej.coefficient(F(73, 24)) == 842609326
    assert ej.coefficient(F(97, 24)) == 19360062527
    _report("criterion 7: four eta*J coefficients, exact")


def test_criterion_08_nullwerte_scan():
    rep = thetanullwerte_class_check(30)
    assert rep.empty
    _report(f"criterion 8: theta-constant scan base 30 empty "
            f"({rep.pairs_checked} pairs)")


def test_criterion_09_completion_identity():
    t0 = time.time()
    points = (0.1 + 0.8j, 0.5j, 0.3 + 0.7j, -0.2 + 1.3j, 0.45 + 0.6j)
    worst = 0.0
    for r in (1, 7):
        for tau in points:
            res = tau1_identity_check(tau, r, 1e-6)
            worst = max(worst, res)
            assert res < 1e-6, (r, tau, res)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(f"criterion 9: completion identity at 5 points x 2 components, "
            f"worst residual {worst:.1e}", elapsed)


def test_criterion_10_transformation_residuals():
    t0 = time.time()
    points = (0.2 + 1.1j, -0.4 + 0.9j, 0.05 + 0.75j)
    gens = {CLASS_1A: (((1, 1), (0, 1)), ((0, -1), (1, 0))),
            CLASS_2A: (((1, 1), (0, 1)), ((1, 0), (2, 1))),
            CLASS_3A: (((1, 1), (0, 1)), ((1, 0), (3, 1)))}
    worst = 0.0
    for cls, pair in gens.items():
        for gamma in pair:
            for tau in points:
                res = transform_check(cls, gamma, tau, 1e-6)
                worst = max(worst, res)
                assert res < 1e-6, (cls.name, gamma, tau, res)
    _report(f"criterion 10: transformation residuals, worst {worst:.1e}",
            time.time() - t0)


def test_criterion_11_property_suites():
    # representative reruns; the full property modules live alongside
    rng = random.Random(7)

    # ring laws on random series
    for _ in range(20):
        def rnd():
            return QSeries({rng.randrange(-3, 9) * 60:
                            F(rng.randrange(-5, 6), rng.randrange(1, 4))
                            for _ in range(5)}, 8)
        x, y, z = rnd(), rnd(), rnd()
        l = (x * y) * z
        assert l.same_up_to(x * (y * z), l.order)

    # pentagonal identity
    pent = {}
    for k in range(-6, 7):
        e = k * (3 * k - 1) // 2
        if e <= 25:
            pent[e * 120] = pent.get(e * 120, 0) + (-1) ** (k % 2)
    assert euler_product(1, 25).same_up_to(QSeries(pent, 25), 25)

    # eta(2 tau) identity
    coeffs = {}
    for k in range(-5, 6):
        e = 3 * k * k + k
        coeffs[e * 120 + 10] = coeffs.get(e * 120 + 10, 0) + (-1) ** (k % 2)
    assert QSeries(coeffs, 30).same_up_to(dedekind_eta(2, 30), 30)

    # S symmetries and the scaled-theta relation
    for _ in range(8):
        m = rng.choice((1, 2, 3, 5, 6, 10, 15, 30))    # 4m divides 120
        r = rng.randrange(-2 * m, 2 * m)
        assert S_unary(m, r, 8) == -S_unary(m, -r, 8)
        assert S_unary(m, r, 8) == S_unary(m, r + 2 * m, 8)
    for r in (1, 13, 29):
        assert g_scaled_series(r, 60, 10) == S_unary(30, r, 10).scale(F(1, 60))

    # indefinite theta antisymmetry
    data = order2_theta_data(1)
    swapped = IndefThetaData(data.A, data.a, data.b, data.c2, data.c1)
    tau = 0.2 + 0.9j
    assert abs(indefinite_theta(data, tau, 1e-11)
               + indefinite_theta(swapped, tau, 1e-11)) < 1e-10

    # random splitting instances
    done = 0
    while done < 4:
        a00, a01, a11 = 2 * rng.randrange(1, 4), rng.randrange(-3, 4), \
            2 * rng.randrange(-3, 0)
        if a00 * a11 - a01 * a01 >= 0:
            continue
        c = (rng.randrange(-3, 4), rng.randrange(1, 4))
        if math.gcd(c[0], c[1]) != 1:
            continue
        if F(a00 * c[0] ** 2 + 2 * a01 * c[0] * c[1] + a11 * c[1] ** 2, 2) >= 0:
            continue
        a = (F(rng.randrange(0, 10), 10), F(rng.randrange(0, 10), 10))
        b = (F(rng.randrange(-5, 6), 20), F(rng.randrange(-5, 6), 20))
        assert theta_split_check(((a00, a01), (a01, a11)), a, b, c,
                                 1j, 1e-8) < 1e-8
        done += 1

    _report("criterion 11: property suites (ring laws, pentagonal, "
            "eta(2 tau), S symmetries, antisymmetry, splitting)")
