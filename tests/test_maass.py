import cmath
import math
import random
import re
import time
from fractions import Fraction as F

import pytest
from scipy.integrate import quad

from e8umbral import maass
from e8umbral.characters import (CLASS_1A, CLASS_2A, CLASS_3A, FAMILIES,
                                 h_component)
from e8umbral.maass import (SQRT_PI, ConvergenceError, IndefThetaData,
                            NumericsError,
                            _at_point, _eichler_part, _mat_mul,
                            _pd_lambda_min, _theta_sum, _theta_term,
                            _to_fundamental_domain, _wall_coordinate,
                            _wedge_lambda_min,
                            beta_incomplete,
                            e, h_value, indefinite_theta,
                            multiplier_matrix, nu_S, nu_T, order2_theta_data,
                            r_function, series_value,
                            tau1_identity_check, transform_check)
from e8umbral.qseries import DEN, _num
from oracles import (decimal_eichler_value, decimal_series_value, g_value,
                     multiplier_by_tokens, multiplier_by_weil, shadow,
                     theta_sum_loop)
from test_qseries import eta_quotient

import numpy as np


def test_beta_normalization_and_monotonicity():
    assert beta_incomplete(0.0) == 1.0
    assert beta_incomplete(4.0) < beta_incomplete(1.0) < beta_incomplete(0.01)
    with pytest.raises(NumericsError):
        beta_incomplete(-0.5)


def test_beta_against_quadrature():
    val, err = quad(lambda u: u ** -0.5 * math.exp(-math.pi * u), 1.0,
                    math.inf, epsabs=1e-13)
    assert abs(beta_incomplete(1.0) - val) < 1e-10


def test_r_function_stability_and_periodicity():
    tau = 1j
    v10 = r_function(F(1, 2), 0, tau, 1e-10)[0]
    v15 = r_function(F(1, 2), 0, tau, 1e-15)[0]
    assert abs(v10 - v15) < 1e-10
    assert abs(r_function(F(1, 3), F(1, 7), tau, 1e-12)[0]
               - r_function(F(4, 3), F(1, 7), tau, 1e-12)[0]) < 1e-14


def _ray_integral(g, tau, tol=1e-12):
    """e(-1/8) int_{-conj tau}^{i inf} g(z) (z + tau)^(-1/2) dz by adaptive
    quadrature along the vertical ray z = -conj(tau) + i t."""
    x, y = tau.real, tau.imag

    def f(t):
        z = complex(-x, y + t)
        return 1j * g(z) / cmath.sqrt(1j * (2 * y + t))

    re, _ = quad(lambda t: f(t).real, 0, math.inf, epsabs=tol, epsrel=0,
                 limit=400)
    im, _ = quad(lambda t: f(t).imag, 0, math.inf, epsabs=tol, epsrel=0,
                 limit=400)
    return e(F(-1, 8)) * complex(re, im)


def test_r_equals_eichler_integral_of_g():
    # R_{a,b}(tau) = e(-1/8) int_{-conj tau}^{i inf} g_{a,-b}(z)/sqrt(z+tau)
    rng = random.Random(11)
    pts = [15j, 0.4 + 11j]
    for _ in range(8):
        pts.append(complex(rng.uniform(-0.5, 0.5), rng.uniform(4.0, 12.0)))
    for tau in pts:
        a = F(rng.randrange(1, 10), 10)
        b = F(rng.randrange(-2, 3), 4)
        lhs = r_function(a, b, tau, 1e-13)[0]
        rhs = _ray_integral(lambda z: g_value(a, -b, z), tau)
        assert abs(lhs - rhs) < 1e-8, (tau, a, b)


def test_paper_cone_data_invariants():
    data = order2_theta_data(1)
    data.validate()
    assert data.b_of(data.c1, data.c1) == -10       # 2Q(c1)
    assert data.b_of(data.c2, data.c2) == -15       # 2Q(c2)
    assert data.b_of(data.c1, data.c2) == -20
    bad = IndefThetaData(data.A, data.a, data.b, (1, 0), data.c2)
    with pytest.raises(NumericsError):
        bad.validate()


def test_non_int_characteristic_is_refused():
    # the characteristics are int numerators over 120, and A, c1 and c2
    # are integer: a Fraction or a float is named in a NumericsError, not
    # a TypeError from math.gcd
    data = order2_theta_data(1)
    for bad, shown in (((F(1, 10), F(1, 10)), "Fraction(1, 10)"),
                       ((12, 0.1), "0.1")):
        for fields in ({"a": bad}, {"b": bad}):
            odd = data._replace(**fields)
            for call in (odd.validate,
                         lambda: indefinite_theta(odd, 0.1 + 0.8j, 1e-10)):
                with pytest.raises(NumericsError, match=re.escape(shown)):
                    call()
    for fields, shown in (({"c1": (-1.0, 4)}, "entry -1.0 of c1"),
                          ({"A": ((6.5, 4), (4, 1))}, "entry 6.5 of A")):
        odd = data._replace(**fields)
        for call in (odd.validate,
                     lambda: indefinite_theta(odd, 0.1 + 0.8j, 1e-10)):
            with pytest.raises(NumericsError, match=re.escape(shown)):
                call()


def test_integer_cone_numerics_match_fraction_arithmetic():
    """Every double the theta sum derives from the cone data, formed by
    int/int division, equals bit for bit the one formed from the same
    data as Fractions (characteristics a/120 and b/120, Q = B/2)."""
    for r in (1, 7):
        data = order2_theta_data(r)
        fa, fb = (tuple(F(x, DEN) for x in v) for v in (data.a, data.b))
        (a00, a01), (_, a11) = data.A
        w1, w2 = ((-ac[1], ac[0]) for ac in (data.a_times(data.c1),
                                              data.a_times(data.c2)))
        q1, q2 = (F(data.b_of(w, w), 2) for w in (w1, w2))
        assert _wedge_lambda_min(data) == float(min(
            q1 / (w1[0] ** 2 + w1[1] ** 2), q2 / (w2[0] ** 2 + w2[1] ** 2)))
        for c in (data.c1, data.c2):
            qc = F(data.b_of(c, c), 2)
            ac0, ac1 = data.a_times(c)
            p, rr, t = ((x * qc - u * v) / (2 * qc) for x, u, v in (
                (a00, ac0, ac0), (a01, ac0, ac1), (a11, ac1, ac1)))
            assert _pd_lambda_min(data, c) == (float(p + t) - math.hypot(
                float(p - t), float(2 * rr))) / 2.0
            bca = data.b_of(c, fa)
            for y in (0.01, 0.3, 0.8, 1.7):
                x = _wall_coordinate(data, c, y)
                k = SQRT_PI * math.sqrt(y / -float(qc)) / bca.denominator
                for n1 in range(-6, 7):
                    for n2 in range(-6, 7):
                        assert x(n1, n2) == k * (bca.numerator
                                                 + bca.denominator
                                                 * (ac0 * n1 + ac1 * n2))
        # one term of the ring sum at a time: a/120 and A b/120 as floats;
        # a bound of inf stops the summer at ring 0, 1e-30 at ring 6
        a0, a1 = (float(x) for x in fa)
        ab0, ab1 = (float(x) for x in data.a_times(fb))
        tau = 0.1 + 0.8j
        for m1 in range(-2, 3):
            for m2 in range(-2, 3):
                term = _theta_term(data, tau, lambda n1, n2: (
                    float((n1, n2) == (m1, m2)), 0.0))
                nu0, nu1 = a0 + m1, a1 + m2
                qnu = 0.5 * (a00 * nu0 * nu0 + 2 * a01 * nu0 * nu1
                             + a11 * nu1 * nu1)
                want = cmath.exp(2j * math.pi * (
                    qnu * tau + nu0 * ab0 + nu1 * ab1))
                assert term(m1, m2)[0] == want, (r, m1, m2)
                assert _theta_sum(term, 2, 0.5, 1.0, tau.imag, 1e-30)[0] \
                    == want
                assert _theta_sum(term, 2, 0.5, 1.0, tau.imag, math.inf)[0] \
                    == (want if m1 == m2 == 0 else 0.0)


def _random_cone_data(rng):
    """Random admissible (A, c1, c2): A of signature (1,1), Q(c1), Q(c2)
    < 0 and B(c1, c2) < 0."""
    while True:
        a01 = rng.randrange(-6, 7)
        A = ((rng.randrange(-6, 7), a01), (a01, rng.randrange(-6, 7)))
        c1, c2 = ((rng.randrange(-5, 6), rng.randrange(-5, 6))
                  for _ in range(2))
        data = IndefThetaData(A, (0, 0), (0, 0), c1, c2)
        try:
            data.validate()
        except NumericsError:
            continue
        return data


def test_lambda_bounds_against_sampling():
    """The exact wedge minimum is a lower bound for Q on the unit circle
    within B(c1,x) B(c2,x) <= 0 and is attained there; the closed-form
    majorant eigenvalue matches eigvalsh.  Parallel c1, c2 give the wall
    value (the sampled bound this replaces returned inf there)."""
    rng = random.Random(5)
    cases = [order2_theta_data(1)] + [_random_cone_data(rng)
                                      for _ in range(24)]
    t = np.linspace(0.0, math.pi, 1 << 17, endpoint=False)
    xs = np.stack([np.cos(t), np.sin(t)])
    for data in cases:
        A = np.array(data.A, dtype=float)
        ac1, ac2 = (A @ np.array(c, dtype=float) for c in (data.c1, data.c2))
        inside = (ac1 @ xs) * (ac2 @ xs) <= 0
        sampled = 0.5 * np.sum(xs * (A @ xs), axis=0)[inside].min()
        exact = _wedge_lambda_min(data)
        assert exact - 1e-12 <= sampled < exact + 1e-3, (data, exact, sampled)
        for c, ac in ((data.c1, ac1), (data.c2, ac2)):
            M = A / 2.0 - np.outer(ac, ac) / float(data.b_of(c, c))
            ref = np.linalg.eigvalsh(M).min()
            assert abs(_pd_lambda_min(data, c) - ref) \
                < 1e-12 * (1.0 + np.abs(M).max())
    data = order2_theta_data(1)
    assert _wedge_lambda_min(data) == 0.5
    parallel = IndefThetaData(data.A, data.a, data.b, data.c1,
                              tuple(2 * x for x in data.c1))
    assert _wedge_lambda_min(parallel) == 0.5   # wall x = (0, 1)


def test_indefinite_theta_stability_and_antisymmetry():
    tau = 0.2 + 0.9j
    data = order2_theta_data(1)
    v1 = indefinite_theta(data, tau, 1e-8)
    v2 = indefinite_theta(data, tau, 1e-13)
    assert abs(v1 - v2) < 1e-8
    swapped = IndefThetaData(data.A, data.a, data.b, data.c2, data.c1)
    assert abs(indefinite_theta(swapped, tau, 1e-12) + v2) < 1e-11


def test_indefinite_theta_reads_a_mod_z2():
    # the sum runs over a + Z^2, so shifting a by an integer vector (120
    # numerators each) keeps it; a ring bound that assumed |a| < 2 dropped
    # rings near the origin and returned about 0 at a shift of (10, 0)
    tau = 0.1 + 0.8j
    for r in (1, 7):
        data = order2_theta_data(r)
        want = indefinite_theta(data, tau, 1e-12)
        for m in ((1, 0), (-1, 0), (-5, 5), (10, 0), (-30, 30)):
            shifted = data._replace(a=tuple(x + DEN * k
                                            for x, k in zip(data.a, m)))
            got = indefinite_theta(shifted, tau, 1e-12)
            assert abs(got - want) <= 1e-13 * abs(want), (r, m)


def _outcome(summer, *args):
    """The value of a summer, or None if it could not meet its bound."""
    try:
        return summer(*args)
    except RuntimeError:         # ConvergenceError, or the old loops' error
        return None


def _counting(f):
    """(g, calls): g calls f and records its arguments in calls."""
    calls = []

    def counted(*args):
        calls.append(args)
        return f(*args)

    return counted, calls


def test_summers_match_their_old_loops_bit_for_bit(monkeypatch):
    """_theta_sum fixes its length before the first term; on the terms of
    r_function, eta(2 tau) and indefinite_theta it gives, by ==, the value
    that the loop that tests the tail after each ring gives (on the same
    terms, less their conditions), and a tail below the bound asked."""
    rng = random.Random(26)
    spy, lines = _counting(_theta_sum)      # r_function's calls, recorded
    monkeypatch.setattr(maass, "_theta_sum", spy)
    for i in range(200):
        k = rng.randrange(-180, 181)
        a = k / 60 if i % 2 else F(k, 60)          # a on the grid 1/60
        tau = complex(rng.uniform(-1, 1), 0.005 * 1000 ** rng.random())
        _outcome(r_function, a, rng.uniform(-1, 1), tau,
                 1e-15 * 1e9 ** rng.random())       # [1e-15, 1e-6]
    assert len(lines) == 200
    spy, etas = _counting(_theta_sum)
    monkeypatch.setattr(maass, "_theta_sum", spy)
    for _ in range(20):
        tau = complex(rng.uniform(-1, 1), 0.05 * 40 ** rng.random())
        _outcome(tau1_identity_check, tau, rng.choice((1, 7)),
                 1e-14 * 1e8 ** rng.random())
    etas = [args for args in etas if args[0].__name__ == "eta_term"]
    assert len(etas) == 20
    spy, rings = _counting(_theta_sum)
    monkeypatch.setattr(maass, "_theta_sum", spy)
    for _ in range(50):
        data = _random_cone_data(rng)._replace(
            a=(rng.randrange(120), rng.randrange(120)),
            b=(rng.randrange(-120, 121), rng.randrange(-120, 121)))
        tau = complex(rng.uniform(-1, 1), 0.05 * 40 ** rng.random())
        _outcome(indefinite_theta, data, tau, 1e-12 * 1e6 ** rng.random())
    assert len(rings) == 50
    for term, *rest in lines + etas + rings:
        got = _outcome(_theta_sum, term, *rest)
        assert (got[0] if got else None) == _outcome(
            theta_sum_loop, lambda *n: term(*n)[0], *rest)
        assert got is None or got[1] < rest[4]


def test_r_function_rings_by_the_nearest_offset(monkeypatch):
    # a + Z is summed from its point nearest 0, so a = 59/60 stops where
    # a = -1/60 does, after ring 0 at Im 30, and not one ring later as
    # its offset 59/60 in [0, 1) would
    spy, calls = _counting(beta_incomplete)
    monkeypatch.setattr(maass, "beta_incomplete", spy)
    tau = 60 * (0.3 + 0.5j)
    values = [r_function(a, 0, tau, 1e-21) for a in (F(59, 60), F(-1, 60))]
    assert len(calls) == 2 and values[0] == values[1]


def test_a_sum_that_cannot_meet_its_bound_evaluates_nothing():
    term, terms = _counting(lambda n: 0j)
    with pytest.raises(ConvergenceError,
                       match=r"line sum tail bound 1e-21 .*shell 20000"):
        _theta_sum(term, 1, 0.5, 1.0, 1e-12, 1e-21)
    assert terms == []
    data = order2_theta_data(1)
    weight, weights = _counting(lambda n1, n2: 1.0)
    with pytest.raises(ConvergenceError,
                       match=r"ring sum tail bound 1e-10 .*shell 801"):
        _theta_sum(_theta_term(data, 0.1 + 1e-9j, weight), 2,
                   _wedge_lambda_min(data), 2.0, 1e-9, 1e-10)
    assert weights == []


def test_completion_identity_both_components():
    for tol in (1e-8, 1e-12):
        for r in (1, 7):
            for tau in (0.1 + 0.8j, 0.5j):
                assert tau1_identity_check(tau, r, tol) < tol


def test_completion_identity_at_rounding_level_on_verify_points():
    # the three tau of `verify --suite numeric`, at each tol it meets: the
    # identity holds to rounding, far below tol
    for tol in (1e-6, 1e-12, 1e-14):
        for r in (1, 7):
            for tau in (0.1 + 0.8j, 0.5j, 0.25 + 0.95j):
                assert tau1_identity_check(tau, r, tol) <= 5e-16, (tol, r, tau)


def test_completion_identity_at_rounding_level_on_a_band():
    rng = random.Random(35)
    for _ in range(20):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 1.5))
        for r in (1, 7):
            for tol in (1e-6, 1e-12):
                assert tau1_identity_check(tau, r, tol) < 2e-15, (tol, r, tau)


def test_completion_identity_shifted_tau():
    # integer shifts act by fixed 120th-root phases on both sides, and Re
    # tau is reduced mod 120 once: far from 0 the residual stays at
    # rounding level
    for tau in (0.1 + 0.8j, 2.1 + 0.8j, 1e4 + 0.1 + 0.8j, 1e6 + 0.1 + 0.8j):
        for r in (1, 7):
            assert tau1_identity_check(tau, r, 1e-8) < 1e-14, (tau, r)


def test_completion_routes_agree():
    # the R-sum Eichler part against quadrature of the shadow's integral,
    # near the real axis, at a middle height and far from it; the shadow
    # order is sized so that its dropped terms are below e^(-40) at tau
    for tau in (0.21 + 0.1j, 0.13 + 0.92j, -0.3 + 2.5j):
        order = math.ceil(40 / (2 * math.pi * tau.imag))
        for cls, r in ((CLASS_1A, 1), (CLASS_1A, 7), (CLASS_2A, 1),
                       (CLASS_2A, 7)):
            terms = [(float(n), float(c)) for n, c in
                     sorted(shadow(cls.perm_character, r, order).items())]
            g = lambda z: sum(c * cmath.exp(2j * math.pi * n * z)
                              for n, c in terms)
            holo = series_value(h_component(cls, r, 2 * order), tau)[0]
            oracle = holo + _ray_integral(g, tau) / math.sqrt(60)
            assert abs(_at_point(cls, r, tau, 1e-9, True)[0] - oracle) \
                < 1e-9, (tau, cls.name, r)


def test_printed_r_terms_equal_family_r_sum():
    # the printed R-terms of the order-2 completion identity,
    # e(-c/60) R_{c/30,-1/2}(15 tau), sum to the Eichler part
    # sum_{s in family(r)} R_{s/60,0}(60 tau) that _at_point adds;
    # with the printed minus signs they do not
    printed = {1: (1, 11), 7: (13, 23)}
    family = {1: (1, 11, 19, 29), 7: (7, 13, 17, 23)}
    for r in (1, 7):
        for tau in (0.1 + 0.8j, 0.31 + 0.03j, -0.2 + 2.5j, 0.25 + 60j):
            terms = sum(e(F(-c, 60)) * r_function(F(c, 30), F(-1, 2),
                                                  15 * tau, 1e-16)[0]
                        for c in printed[r])
            fam = sum(r_function(F(s, 60), 0, 60 * tau, 1e-16)[0]
                      for s in family[r])
            assert abs(terms - fam) < 1e-14, (r, tau)
            if tau.imag <= 1:
                assert abs(-terms - fam) > 1e-2, (r, tau)


def test_large_real_part_t_law():
    # every exponent of H_r and of its Eichler part lies in -r^2/120 + Z,
    # so the value at x + i is e(-r^2 (floor(x) mod 120)/120) times the
    # value at frac(x) + i; floor(x) mod 120 is taken in exact integers
    # here.  The fraction 0.125 is exact at 1e6 and 1e12, where 0.1 is
    # not; summed at x itself, without the mod-120 reduction, the series
    # misses by at least 4e-12 at 1e6 + 0.125 and 1e-6 at 1e12 + 0.125
    for x in (1e300, -1e300, 1e6 + 7, 1e6 + 0.125, 1e12 + 0.125):
        n = math.floor(x)
        k, base = n % 120, complex(x - n, 1.0)
        for cls in (CLASS_1A, CLASS_2A, CLASS_3A):
            for r in (1, 7):
                phase = e(F(-r * r * k, 120))
                at = complex(x, 1.0)
                series = [_at_point(cls, r, t, 1e-12, False)[0]
                          for t in (at, base)]
                assert abs(series[0] - phase * series[1]) < 1e-13
                completed = [_at_point(cls, r, t, 1e-12, True)[0]
                             for t in (at, base)]
                assert abs(completed[0] - phase * completed[1]) < 1e-13
                assert abs(h_value(cls, r, at, 1e-12, True)[0]
                           - phase * completed[1]) < 1e-13


def test_order2_completion_equals_theta_quotient():
    # the shadow-integral completion agrees with the independent
    # indefinite-theta quotient route at five sample points, eta(2 tau)
    # taken from its exact series, not from the line sum of
    # tau1_identity_check
    from e8umbral.maass import _eval_order
    for r in (1, 7):
        for tau in (0.1 + 0.8j, 0.5j, 0.3 + 0.7j, -0.2 + 1.3j,
                    0.45 + 0.6j):
            data = order2_theta_data(r)
            th = indefinite_theta(data, tau, 1e-12)
            eta_val = series_value(
                eta_quotient({2: 1}, F(1, 12), _eval_order(tau.imag, 1e-10)),
                tau)[0]
            # the phase tracks the coset characteristic (1 or 3)/10
            pref = -e(F(-1, 10)) if r == 1 else -e(F(-3, 10))
            quotient = pref * th / eta_val
            comp = _at_point(CLASS_2A, r, tau, 1e-9, True)[0]
            assert abs(quotient - comp) < 1e-13, (r, tau)
            if r == 7 and tau == 0.1 + 0.8j:
                # the component label is not the phase: e(-7/10) misses
                assert abs(-e(F(-7, 10)) * th / eta_val - comp) > 0.1


def test_order3_completion_is_plain_series():
    tau = 0.1 + 0.9j
    from e8umbral.maass import _eval_order
    plain = series_value(
        h_component(CLASS_3A, 7, _eval_order(tau.imag, 1e-9)), tau)[0]
    assert abs(_at_point(CLASS_3A, 7, tau, 1e-9, True)[0] - plain) < 1e-12


def test_negative_component_index():
    tau = 0.2 + 1.0j
    a = _at_point(CLASS_2A, 59, tau, 1e-9, True)[0]
    b = _at_point(CLASS_2A, 1, tau, 1e-9, True)[0]
    assert abs(a + b) < 1e-10


def test_multiplier_relations():
    ns, nt = np.array(nu_S()), np.array(nu_T(1))
    z = e(F(-1, 4)) * np.eye(2)
    assert np.abs(ns @ ns - z).max() < 1e-12
    st = ns @ nt
    assert np.abs(st @ st @ st - z).max() < 1e-12
    # unitarity is checked, not assumed
    assert np.abs(ns @ ns.conj().T - np.eye(2)).max() < 1e-12
    assert np.abs(nt @ nt.conj().T - np.eye(2)).max() < 1e-12


def test_multiplier_word_consistency():
    # nu built by word decomposition respects the group law numerically,
    # also at gamma with c = 0 > d (-I, -T^m and the negated words), where
    # the principal branch of sqrt(d) is +i sqrt(|d|)
    rng = random.Random(3)
    from e8umbral.maass import _mat_mul

    def rand_gamma():
        m = ((1, 0), (0, 1))
        for _ in range(4):
            m = _mat_mul(m, ((1, rng.randrange(-3, 4)), (0, 1)))
            m = _mat_mul(m, ((0, -1), (1, 0)))
        return m

    def neg(g):
        return tuple(tuple(-x for x in row) for row in g)

    tau0 = 0.21 + 1.3j

    def check(g1, g2):
        g12 = _mat_mul(g1, g2)
        n1, n2, n12 = (np.array(multiplier_matrix(g))
                       for g in (g1, g2, g12))
        # metaplectic cocycle: products agree up to the sign of the
        # branch mismatch, which is +-1
        j = lambda g, t: g[1][0] * t + g[1][1]
        sigma = cmath.sqrt(j(g1, (g2[0][0] * tau0 + g2[0][1])
                              / j(g2, tau0))) * cmath.sqrt(j(g2, tau0)) \
            / cmath.sqrt(j(g12, tau0))
        assert np.abs(n12 - sigma.real * (n1 @ n2)).max() < 1e-10

    minus_t = [((-1, -m), (0, -1)) for m in (-3, 0, 4)]   # -T^m; m = 0: -I
    for _ in range(6):
        g1, g2 = rand_gamma(), rand_gamma()
        for h1 in (g1, neg(g1)):
            for h2 in (g2, neg(g2)):
                check(h1, h2)
        for mt in minus_t:
            check(mt, g1)
            check(g1, mt)
    for mt1 in minus_t:
        for mt2 in minus_t:
            check(mt1, mt2)


def test_multiplier_t_power_is_one_diagonal():
    # T^n is one diagonal factor with n reduced mod 120, not n tokens
    n = 10 ** 6
    start = time.perf_counter()
    nu = multiplier_matrix(((1, n), (0, 1)))
    assert time.perf_counter() - start < 0.01
    want = ((e(F(-n, 120) % 1), 0), (0, e(F(-49 * n, 120) % 1)))
    assert np.abs(np.array(nu) - np.array(want)).max() < 1e-13
    assert nu == nu_T(n) == nu_T(n % 120)


def test_nu_t_diagonal_from_family_leads():
    # the diagonal built from the families' leading exponents is the
    # written-out one, float for float, and so is nu(S), built from the
    # families' residues, against the printed sine matrix
    for n in range(-240, 241):
        assert nu_T(n) == ((e(-(n % 120) / 120), 0j),
                           (0j, e(-(49 * n % 120) / 120))), n
    k = 2.0 * e(3 / 8) / math.sqrt(15.0)
    p = k * (math.sin(math.pi / 30) + math.sin(11 * math.pi / 30))
    q = k * (math.sin(7 * math.pi / 30) + math.sin(13 * math.pi / 30))
    assert nu_S() == ((p, q), (q, -p))


def test_multiplier_matches_token_product():
    # on 1000 seeded gamma, nu with T^n as one factor agrees with the
    # product over the word spelled one T at a time (tests/oracles.py);
    # the powers stay below 66, so the oracle's own rounding over its
    # tokens stays below 5e-14.  Past 120 the reduction mod 120 is checked
    # against nu(gamma T^(120 k)) = nu(gamma).
    rng = random.Random(17)
    s = ((0, -1), (1, 0))
    for _ in range(1000):
        powers = [rng.randrange(-6, 7) for _ in range(rng.randrange(1, 5))]
        if rng.random() < 0.5:
            powers[rng.randrange(len(powers))] += \
                rng.choice((-1, 1)) * rng.randrange(40, 60)
        g = ((1, powers[0]), (0, 1))
        for n in powers[1:]:
            g = _mat_mul(_mat_mul(g, s), ((1, n), (0, 1)))
        if rng.random() < 0.5:
            g = tuple(tuple(-x for x in row) for row in g)
        nu = np.array(multiplier_matrix(g))
        assert np.abs(nu - np.array(multiplier_by_tokens(g))).max() < 1e-13
        shifted = _mat_mul(g, ((1, 120 * rng.randrange(-10 ** 6, 10 ** 6)),
                               (0, 1)))
        assert np.abs(nu - np.array(multiplier_matrix(shifted))).max() \
            < 1e-13


def _random_gamma(rng, c_max):
    """A seeded gamma in SL2(Z) with 0 < |c| <= c_max, or c = 0 with
    d = +-1 and |b| < 10^6; both signs of c and d come up."""
    while True:
        c = rng.randint(-c_max, c_max)
        d = rng.randint(-c_max - 5, c_max + 5)
        if math.gcd(c, d) != 1:
            continue
        if c == 0:
            return ((d, rng.randrange(-10 ** 6, 10 ** 6)), (0, d))
        a = pow(d, -1, abs(c)) + abs(c) * rng.randrange(-3, 4)
        return ((a, (a * d - 1) // c), (c, d))


def test_multiplier_matches_weil_representation():
    # nu from the Euclid pass against the conjugate Weil representation of
    # the shadow's unary thetas (tests/oracles.py), which shares no word,
    # generator matrix or cocycle with it: 1501 seeded gamma with |c| <= 60,
    # 6 with 10^3 <= |c| <= 10^4, +-I, -T^m, S and S^-1, and
    # ((-1, 0), (2^14, -1)), on which a floor-quotient pass took 2^14 steps
    rng = random.Random(7)
    gammas = [_random_gamma(rng, 60) for _ in range(1501)]
    assert {g[1][0] > 0 for g in gammas} == {g[1][0] < 0 for g in gammas} \
        == {True, False}
    for c_max in (10 ** 3, 2 * 10 ** 3, 3 * 10 ** 3, 5 * 10 ** 3, 10 ** 4,
                  10 ** 4):
        g = _random_gamma(rng, c_max)
        while not 10 ** 3 <= abs(g[1][0]) <= 10 ** 4:
            g = _random_gamma(rng, c_max)
        gammas.append(g)
    gammas += [((1, 0), (0, 1)), ((-1, 0), (0, -1)), ((0, -1), (1, 0)),
               ((0, 1), (-1, 0))]
    gammas += [((-1, -m), (0, -1)) for m in (-121, -3, 1, 4, 119, 10 ** 6)]
    gammas.append(((-1, 0), (2 ** 14, -1)))
    for g in gammas:
        got = np.array(multiplier_matrix(g))
        assert np.abs(got - np.array(multiplier_by_weil(g))).max() < 1e-12, g


def test_multiplier_steps_are_logarithmic(monkeypatch):
    # the Euclid pass calls nu_T once per step and once for the last T^b:
    # with the nearer quotient |c| at least halves per step, so at most
    # floor(log2 |c|) + 2 calls.  The counter raises past that bound, so a
    # pass in O(|c|) steps fails at once instead of running for long.
    calls = [0, 0]              # calls so far, the bound

    def counted(n=1):
        calls[0] += 1
        if calls[0] > calls[1]:
            raise AssertionError(f"nu_T called more than {calls[1]} times")
        return nu_T(n)

    monkeypatch.setattr(maass, "nu_T", counted)
    rng = random.Random(1412)
    gammas = [((-1, 0), (2 ** k, -1)) for k in range(63)]
    while len(gammas) < 63 + 2000:
        c = rng.randrange(1, 10 ** 6) * rng.choice((-1, 1))
        d = rng.randrange(-10 ** 6, 10 ** 6)
        if math.gcd(c, d) != 1:
            continue
        a = pow(d, -1, abs(c)) - (abs(c) if c < 0 else 0)   # sign of c
        gammas.append(((a, (a * d - 1) // c), (c, d)))
    for g in gammas:
        calls[:] = [0, abs(g[1][0]).bit_length() + 1]
        multiplier_matrix(g)


def test_multiplier_rejects_non_int_entries():
    # gamma is checked once, in multiplier_matrix, for int entries before
    # its determinant; transform_check relies on that check
    half = ((1, 0), (0.5, 1))
    with pytest.raises(NumericsError, match="entry 0.5 of gamma is not an int"):
        multiplier_matrix(half)
    with pytest.raises(NumericsError, match="entry 0.5 of gamma is not an int"):
        transform_check(CLASS_1A, half, 0.2 + 1.1j, 1e-8)
    with pytest.raises(NumericsError, match="entry True of gamma"):
        multiplier_matrix(((True, 0), (0, 1)))
    for check in (multiplier_matrix,
                  lambda g: transform_check(CLASS_1A, g, 0.2 + 1.1j, 1e-8)):
        with pytest.raises(NumericsError, match="determinant 1"):
            check(((1, 1), (1, 1)))


def test_modular_value_band_matches_direct_summation():
    # at 20 seeded points per component with Im tau in [0.02, 0.1] the
    # pull-back from F agrees with summing at tau itself.  The completed
    # value can cancel to 1/100 of its two parts, the series and the
    # Eichler integral, so its error is measured against their size.
    rng = random.Random(29)
    for r in (1, 7):
        for _ in range(20):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.02, 0.1))
            series, _ = _at_point(CLASS_1A, r, tau, 1e-12, False)
            eichler = _eichler_part(CLASS_1A, r, tau, 1e-12)[0]
            got, _ = h_value(CLASS_1A, r, tau, 1e-12, False)
            assert abs(got - series) < 1e-12 * abs(series), (r, tau)
            got, _ = h_value(CLASS_1A, r, tau, 1e-12, True)
            want = _at_point(CLASS_1A, r, tau, 1e-12, True)[0]
            assert abs(got - want) < 1e-12 * (abs(series) + abs(eichler)), \
                (r, tau)


@pytest.mark.parametrize("cls,cs", [(CLASS_2A, (2, 4)), (CLASS_3A, (3, 6))],
                         ids=["2A", "3A"])
def test_gamma0_pull_back_band_matches_direct_summation(cls, cs):
    # 20 seeded points per class with Im tau in [0.02, 0.1], each inside
    # the Ford circle at a cusp a/c with N | c (x^2 + y^2 < y/c^2 about
    # a/c), so that gamma has c != 0 with N | c and h_value pulls back
    # through the law of Gamma_0(N); the value agrees with summing at tau
    # itself, the completion to the size of its two parts as for 1A above
    rng = random.Random(31)
    for _ in range(20):
        c = rng.choice(cs)
        a = rng.choice([a for a in range(1, c) if math.gcd(a, c) == 1])
        y = rng.uniform(0.02, min(0.1, 0.9 / c ** 2))
        x = rng.uniform(-0.9, 0.9) * math.sqrt(y / c ** 2 - y * y)
        tau = complex(a / c + x, y)
        lower = _to_fundamental_domain(tau)[0][1][0]
        assert lower != 0 and lower % cls.order == 0, tau
        for r in (1, 7):
            series, _ = _at_point(cls, r, tau, 1e-12, False)
            eichler = _eichler_part(cls, r, tau, 1e-12)[0]
            got, _ = h_value(cls, r, tau, 1e-12, False)
            assert abs(got - series) < 1e-12 * abs(series), (r, tau)
            got, _ = h_value(cls, r, tau, 1e-12, True)
            want = _at_point(cls, r, tau, 1e-12, True)[0]
            assert abs(got - want) < 1e-12 * (abs(series) + abs(eichler)), \
                (r, tau)


@pytest.mark.parametrize("tau", [0.25 + 0.001j, 0.1234 + 0.0011j,
                                 -0.377 + 0.0009j])
def test_modular_value_s_law_near_cusp(tau):
    # tau^(-1/2) Hhat(-1/tau) = nu(S) Hhat(tau) where direct summation
    # cannot reach: both sides are pulled back from F, through different
    # gamma
    h = [h_value(CLASS_1A, r, tau, 1e-9, True)[0] for r in (1, 7)]
    hs = [h_value(CLASS_1A, r, -1 / tau, 1e-9, True)[0] for r in (1, 7)]
    for (p, q), lhs in zip(nu_S(), hs):
        rhs = p * h[0] + q * h[1]
        assert abs(lhs / cmath.sqrt(tau) - rhs) < 1e-12 * max(abs(rhs), 1.0)


@pytest.mark.parametrize("c", [9999, 10002, 30003])
@pytest.mark.parametrize("tau0", [1 / 3 + 0.002 + 0.01j,
                                  2 / 3 - 0.003 + 0.02j])
def test_modular_value_gamma0_3_law_at_large_c(c, tau0):
    # (c tau + d)^(-1/2) H(g tau) = conj e(cd/9) nu(g) H(tau) on the 3A
    # pair for g in Gamma_0(3) with c about 1e4, so cd is about 1e8 to 1e9:
    # both sides are pulled back, g tau (Im about 1e-11) through a gamma
    # with c of the same size, whose phase must be reduced mod 9 exactly
    # (a float cd/9 puts 1e-12 to 1e-11 into it).  g tau is rounded to a
    # double w, and tau is g^-1 w rounded, so the law holds to the
    # rounding of tau
    g = ((-1, -1), (c, c - 1))
    ginv = ((c - 1, 1), (-c, -1))

    def mobius(m, z):
        (a, b), (p, q) = m
        z = F(z.real), F(z.imag)
        num, den = (a * z[0] + b, a * z[1]), (p * z[0] + q, p * z[1])
        norm = den[0] ** 2 + den[1] ** 2
        return complex(float((num[0] * den[0] + num[1] * den[1]) / norm),
                       float((num[1] * den[0] - num[0] * den[1]) / norm))

    w = mobius(g, tau0)
    tau = mobius(ginv, w)
    for z in (tau, w):
        lower = _to_fundamental_domain(z)[0][1][0]
        assert lower != 0 and lower % 3 == 0, z
    h = [h_value(CLASS_3A, r, tau, 1e-12, True)[0] for r in (1, 7)]
    hw = [h_value(CLASS_3A, r, w, 1e-12, True)[0] for r in (1, 7)]
    phase = e(F(c * (c - 1) % 9, 9)).conjugate()
    size = math.hypot(*map(abs, h))
    for (p, q), lhs in zip(multiplier_matrix(g), hw):
        rhs = phase * (p * h[0] + q * h[1])
        assert abs(lhs / cmath.sqrt(c * tau + c - 1) - rhs) < 1e-13 * size


@pytest.mark.parametrize("cls,cs", [(CLASS_1A, (1, 2, 3)),
                                    (CLASS_2A, (2, 4)), (CLASS_3A, (3, 6))],
                         ids=["1A", "2A", "3A"])
def test_error_figure_bounds_a_40_digit_sum(cls, cs):
    # the est. error of a series line, summed at tau or pulled back from
    # F, bounds its distance from the 40-digit decimal sum of the same
    # series to order 1000 (tests/oracles.py), whose own tail is below
    # 1e-39 at Im tau >= 0.02.  50 seeded points per class and 2 families:
    # 15 with Re uniform in [-1/2, 1/2] and Im log-uniform in [0.02, 2],
    # 15 in Ford circles at a/c with N | c, and 20 far translates, Re in
    # k + [-1/2, 1/2] for k in [1, 119] and Im as the first 15.  Summed
    # at Re tau reduced only mod 120, the Eichler part of a pulled-back
    # series missed by up to 48 times the figure there.  The figure is
    # read as eval prints it
    rng = random.Random(43)
    exact = {r: h_component(cls, r, 1000).items() for r in (1, 7)}
    points = [complex(rng.uniform(-0.5, 0.5),
                      math.exp(rng.uniform(math.log(0.02), math.log(2))))
              for _ in range(15)]
    for _ in range(15):
        c = rng.choice(cs)
        a = rng.choice([a for a in range(c) if math.gcd(a, c) == 1])
        y = rng.uniform(0.02, min(0.5, 0.9 / c ** 2))
        x = rng.uniform(-0.9, 0.9) * math.sqrt(y / c ** 2 - y * y)
        points.append(complex(a / c + x, y))
    points += [complex(rng.randint(1, 119) + rng.uniform(-0.5, 0.5),
                       math.exp(rng.uniform(math.log(0.02), math.log(2))))
               for _ in range(20)]
    pulled_back = 0
    for tau in points:
        lower = _to_fundamental_domain(tau)[0][1][0]
        pulled_back += lower != 0 and lower % cls.order == 0
        for r in (1, 7):
            value, est = h_value(cls, r, tau, 1e-9, False)
            error = abs(value - decimal_series_value(exact[r], tau))
            assert error <= float(f"{est:.1e}"), (r, tau, error, est)
    assert 2 <= pulled_back <= len(points) - 2


@pytest.mark.parametrize("cls,cs", [(CLASS_1A, (1, 2, 3)),
                                    (CLASS_2A, (2, 4))], ids=["1A", "2A"])
def test_completion_error_figure_bounds_a_40_digit_sum(cls, cs):
    # the est. error of a completion line, read as eval prints it, bounds
    # its distance from the 40-digit sum of tests/oracles.py: the series
    # to order 1000 plus the R-sums of the Eichler part, each term's erfc
    # from a decimal series or continued fraction.  60 seeded points per
    # class and 2 families, at tol 1e-9 and 1e-12: 30 in F with Im
    # log-uniform in [0.9, 8], where the Eichler part can be most of the
    # value; 15 pulled back from F, in Ford circles at a/c with N | c and
    # Im in [0.02, 0.5]; and 15 far translates, Re in k + [-1/2, 1/2] for
    # k in [1, 119] and Im log-uniform in [0.02, 8].  A figure that
    # counted the tail asked of each R-sum and not its rounding was under
    # on 22 (1A) and 17 (2A) of these 240 lines, by up to 26 times
    rng = random.Random(45)
    exact = {r: h_component(cls, r, 1000).items() for r in (1, 7)}
    points = []
    while len(points) < 30:
        tau = complex(rng.uniform(-0.5, 0.5),
                      math.exp(rng.uniform(math.log(0.9), math.log(8))))
        if abs(tau) >= 1:
            points.append(tau)
    for _ in range(15):
        c = rng.choice(cs)
        a = rng.choice([a for a in range(c) if math.gcd(a, c) == 1])
        y = rng.uniform(0.02, min(0.5, 0.9 / c ** 2))
        x = rng.uniform(-0.9, 0.9) * math.sqrt(y / c ** 2 - y * y)
        points.append(complex(a / c + x, y))
        lower = _to_fundamental_domain(points[-1])[0][1][0]
        assert lower != 0 and lower % cls.order == 0, points[-1]
    points += [complex(rng.randint(1, 119) + rng.uniform(-0.5, 0.5),
                       math.exp(rng.uniform(math.log(0.02), math.log(8))))
               for _ in range(15)]
    for tau in points:
        for r in (1, 7):
            want = (decimal_series_value(exact[r], tau)
                    + decimal_eichler_value(cls.perm_character, r, tau))
            for tol in (1e-9, 1e-12):
                value, est = h_value(cls, r, tau, tol, True)
                error = abs(value - want)
                assert error <= float(f"{est:.1e}"), (r, tau, tol, error, est)


@pytest.mark.parametrize("cls", [CLASS_1A, CLASS_2A, CLASS_3A],
                         ids=["1A", "2A", "3A"])
def test_translation_is_an_exact_phase(cls):
    # H_r(tau0 + k) = e(k lead/120) H_r(tau0), the completion too, to the
    # sum of the two error figures, for k up to 1e12: each sum of H_r
    # takes the phase of k from its integer exponents.  tau0 is dyadic,
    # so tau0 + k is exact; the phase is reduced into [-1/2, 1/2) turns
    # in integers.  Points where either side exits 3 are skipped, but at
    # most 16 of the 96
    checked = 0
    for tau0 in (0.3125 + 0.02j, -0.4375 + 0.05j, 0.0625 + 0.5j,
                 0.25 + 1.5j):
        for k in (1, 59, 100, 119, 2 ** 20, 10 ** 12):
            for r in FAMILIES:
                phase = e(((FAMILIES[r].lead * k + 60) % 120 - 60) / 120)
                for completion in (False, True):
                    try:
                        far, far_est = h_value(cls, r, tau0 + k, 1e-9,
                                               completion)
                        near, near_est = h_value(cls, r, tau0, 1e-9,
                                                 completion)
                    except NumericsError:
                        continue
                    checked += 1
                    assert abs(far - phase * near) <= far_est + near_est, \
                        (r, tau0, k, completion)
    assert checked >= 80


def test_modular_value_in_f_is_direct_summation():
    # where gamma is a translation, or off Gamma_0(N) for 2A and 3A, only
    # the requested component is summed, at tau itself, and its error
    # figure is _at_point's, for the series and the completion alike
    huge = complex(1e300, 1.0)
    cases = [(CLASS_1A, tau) for tau in (0.3 + 1.0j, 7.4 + 0.95j,
                                         -0.5 + 60.0j, huge)]
    cases += [(cls, tau) for cls in (CLASS_2A, CLASS_3A)
              for tau in (0.3 + 1.0j, -0.4 + 0.03j, huge)]
    cases = [(cls, tau, r) for cls, tau in cases for r in (1, 7, 53)]
    # far up a translate of F, H_7 is summed alone: |H_1| is about 1.3e7
    # at Im tau = 300, past double precision at tol 1e-9, so a pull-back
    # of the pair would exit 3 for r = 7 too
    far = 0.25 + 300.0j
    cases.append((CLASS_1A, far, 7))
    for cls, tau, r in cases:
        for completion in (False, True):
            assert h_value(cls, r, tau, 1e-9, completion) == \
                _at_point(cls, r, tau, 1e-9, completion)
    for completion in (False, True):
        with pytest.raises(NumericsError, match="below double precision"):
            h_value(CLASS_1A, 1, far, 1e-9, completion)


_OFF_H = (0.3 + 0j, 0j, 0.3 - 1j, complex(math.inf, 1),
          complex(0.3, math.inf), complex(math.nan, 1),
          complex(0.3, math.nan))
_BAD_TOLS = (0.0, -1e-9, -math.inf, math.inf, math.nan)


def _refuses_tol(tol):
    return pytest.raises(NumericsError, match=re.escape(
        f"tol must be a finite number > 0, not {tol!r}"))


@pytest.mark.parametrize("completion", [False, True])
def test_modular_value_rejects_bad_input(completion):
    # raised before any summation or pull-back to F, for every class
    for cls in (CLASS_1A, CLASS_2A, CLASS_3A):
        with pytest.raises(ValueError, match="component 2 is not in the "
                                             "support"):
            h_value(cls, 2, 0.3 + 1j, 1e-9, completion)
        for tau in _OFF_H:
            with pytest.raises(NumericsError, match="upper half plane"):
                h_value(cls, 1, tau, 1e-9, completion)
        # one refusal for every tol that is not finite and > 0, at a point
        # of F and at one pulled back to F
        for tau in (0.3 + 1j, 0.2 + 0.01j):
            for tol in _BAD_TOLS:
                with _refuses_tol(tol):
                    h_value(cls, 1, tau, tol, completion)


@pytest.mark.parametrize("tol", _BAD_TOLS)
def test_checks_reject_bad_tol(tol, monkeypatch):
    # the checks refuse the tols h_value refuses, before any sum
    def summed(*args, **kwargs):
        raise AssertionError("a sum ran")

    for name in ("_at_point", "_theta_sum", "indefinite_theta"):
        monkeypatch.setattr(maass, name, summed)
    with _refuses_tol(tol):
        tau1_identity_check(0.1 + 0.8j, 1, tol)
    for cls in (CLASS_1A, CLASS_2A, CLASS_3A):
        with _refuses_tol(tol):
            transform_check(cls, cls.check_gammas[-1], 0.2 + 1.1j, tol)


@pytest.mark.parametrize("tau", _OFF_H)
def test_evaluators_reject_tau_off_h(tau):
    # one check before the mod-120 reduction of Re tau, which raises
    # ValueError on an infinite part
    for value in (lambda: _at_point(CLASS_2A, 1, tau, 1e-9, False),
                  lambda: _at_point(CLASS_2A, 7, tau, 1e-9, True),
                  lambda: r_function(F(1, 60), 0, tau, 1e-12)):
        with pytest.raises(NumericsError, match="upper half plane"):
            value()


@pytest.mark.parametrize("cls,gens", [
    (CLASS_1A, (((1, 1), (0, 1)), ((0, -1), (1, 0)))),
    (CLASS_2A, (((1, 1), (0, 1)), ((1, 0), (2, 1)))),
    (CLASS_3A, (((1, 1), (0, 1)), ((1, 0), (3, 1)))),
])
def test_transformation_residuals(cls, gens):
    for gamma in gens:
        for tau in (0.2 + 1.1j, -0.4 + 0.9j):
            assert transform_check(cls, gamma, tau, 1e-8) < 1e-8


def test_transformation_group_guard():
    with pytest.raises(NumericsError):
        transform_check(CLASS_2A, ((0, -1), (1, 0)), 1j, 1e-6)
    with pytest.raises(NumericsError):
        transform_check(CLASS_3A, ((1, 0), (2, 1)), 1j, 1e-6)


# ----------------------------------------------------------------------
# the one-sided theta splitting identity (sign-weighted sum vs R times a
# positive-definite theta), on the package's certified summer


def _egcd(p: int, q: int) -> tuple:
    if q == 0:
        return abs(p), 1 if p >= 0 else -1, 0
    g, x, y = _egcd(q, p % q)
    return g, y, x - (p // q) * y


def split_cosets(data: IndefThetaData, c) -> tuple:
    """Representatives mu0 of {mu in a+Z^2 : 2 Q(c) < B(c, mu) <= 0}
    modulo the integer line B(c, .) = 0, and that line's primitive
    generator w; Q(c) < 0."""
    ac = data.a_times(c)
    g, x0, y0 = _egcd(ac[0], ac[1])
    w = (-ac[1] // g, ac[0] // g)
    # B(c, .) takes the values B(a, c) + g Z on a+Z^2
    bca = F(data.b_of(data.a, c), DEN)
    lo = math.floor((data.b_of(c, c) - bca) / g) + 1
    reps = [(F(data.a[0], DEN) + j * x0, F(data.a[1], DEN) + j * y0)
            for j in range(lo, math.floor(-bca / g) + 1)]
    return reps, w


def theta_split_check(A, a, b, c, tau: complex, tol: float) -> float:
    """Residual of the splitting of the one-sided sign-weighted theta:

        sum_{nu in a+Z^2} sgn(B(c,nu)) beta(-B(c,nu)^2 y / Q(c))
            e(Q(nu) tau + B(nu,b))
        = - sum_{mu0} R_{B(c,mu0)/2Q(c), -B(c,b)}(-2 Q(c) tau)
              * sum_{xi in mu0_perp + Z w} e(Q(xi) tau + B(xi, b_perp))

    for primitive c with Q(c) < 0, both sides with certified tails.  The
    minus sign on the second R characteristic compensates the
    e^(-2 pi i nu b) phase in the R definition; restating the splitting
    with +B(c,b) fails numerically for generic b.  The characteristics a
    and b are rationals on the grid 1/120, a in [0, 1)^2 as _theta_sum
    needs.
    """
    a, b = (tuple(_num(x) for x in v) for v in (a, b))
    if math.gcd(*c) != 1:
        raise NumericsError("cone vector c must be primitive")
    data = IndefThetaData(A, a, b, c, c)
    qc2 = data.b_of(c, c)              # 2 Q(c)
    y = tau.imag
    x = _wall_coordinate(data, c, y)

    def weight(n1: int, n2: int) -> tuple:
        # sgn(B(c,nu)) beta(-B(c,nu)^2 y / Q(c)) = sgn(x) erfc(|x|)
        z = x(n1, n2)
        return (math.copysign(math.erfc(abs(z)), z) if z else 0.0,
                math.erfc(abs(z)) * (4 * z * z + 2))

    # left side: terms damped by exp(-2 pi y M_c(nu))
    total = _theta_sum(_theta_term(data, tau, weight), 2,
                       _pd_lambda_min(data, c), 1.0, y, tol * 1e-2)[0]

    # right side.  B(c, w) = 0, so the line mu0_perp + Z w is (s + Z) w
    # with s = B(mu0, w)/2Q(w), and B(xi, b_perp) = B(xi, b) on it; its
    # theta terms have modulus exp(-2 pi y Q(w) x^2) at x = s + k.
    reps, w = split_cosets(data, c)
    qw2 = data.b_of(w, w)              # 2 Q(w)
    qw_f, bwb = qw2 / 2, data.b_of(w, b) / DEN

    def line_term(t: float) -> tuple:
        z = 2j * math.pi * (qw_f * t * t * tau + t * bwb)
        return cmath.exp(z), 2 * abs(z)

    rhs = 0j
    for mu0 in reps:
        rval = r_function(data.b_of(c, mu0) / qc2, -data.b_of(c, b) / DEN,
                          float(-qc2) * tau, tail_bound=tol * 1e-3)[0]
        s = data.b_of(mu0, w) / qw2
        s = float(s - math.floor(s))
        line = _theta_sum(lambda k: line_term(s + k), 1, qw_f, 1.0, y,
                          tol * 1e-3, s)[0]
        rhs -= rval * line
    return abs(total - rhs)


def test_split_identity_paper_data():
    data = order2_theta_data(1)
    a, b = (tuple(F(x, DEN) for x in v) for v in (data.a, data.b))
    reps1, _ = split_cosets(data, data.c1)
    assert reps1 == [(F(-9, 10), F(1, 10))]
    reps2, _ = split_cosets(data, data.c2)
    assert sorted(reps2) == [(F(1, 10), F(1, 10)), (F(1, 10), F(11, 10)),
                             (F(1, 10), F(21, 10))]
    # at Im tau = 0.3 the c2 line theta needs several terms
    for c in (data.c1, data.c2):
        for tau in (0.1 + 0.8j, 0.1 + 0.3j):
            assert theta_split_check(data.A, a, b, c, tau, 1e-9) < 1e-9


def test_split_identity_c1_side_vanishes():
    # the lone coset for c1 carries an alternating half-integer theta
    data = order2_theta_data(1)
    A = np.array(data.A, dtype=float)
    av = np.array([x / DEN for x in data.a])
    Abv = A @ np.array([x / DEN for x in data.b])
    Ac1 = A @ np.array([float(x) for x in data.c1])
    qc1 = data.b_of(data.c1, data.c1) / 2
    total = 0j
    y = 0.8
    tau = 0.1 + 0.8j
    for n1 in range(-25, 26):
        for n2 in range(-25, 26):
            nu = av + np.array([n1, n2], float)
            bc = float(Ac1 @ nu)
            if bc == 0:
                continue
            w = beta_incomplete(-bc * bc * y / qc1)
            if w == 0:
                continue
            qnu = 0.5 * float(nu @ (A @ nu))
            total += math.copysign(1.0, bc) * w * \
                cmath.exp(2j * math.pi * (qnu * tau + float(nu @ Abv)))
    assert abs(total) < 1e-12


def test_split_identity_random_instances():
    rng = random.Random(42)
    count = 0
    while count < 8:
        a00 = 2 * rng.randrange(1, 4)
        a01 = rng.randrange(-3, 4)
        a11 = 2 * rng.randrange(-3, 0)
        A = ((a00, a01), (a01, a11))
        if a00 * a11 - a01 * a01 >= 0:
            continue
        c = (rng.randrange(-3, 4), rng.randrange(1, 4))
        if math.gcd(c[0], c[1]) != 1:
            continue
        qc = F(a00 * c[0] * c[0] + 2 * a01 * c[0] * c[1]
               + a11 * c[1] * c[1], 2)
        if qc >= 0:
            continue
        a = (F(rng.randrange(0, 10), 10), F(rng.randrange(0, 10), 10))
        b = (F(rng.randrange(-5, 6), 20), F(rng.randrange(-5, 6), 20))
        assert theta_split_check(A, a, b, c, 1j, 1e-8) < 1e-8
        count += 1
    # a coset that meets the wall B(c, nu) = 0, where the weight must be
    # exactly sgn(0) = 0
    assert theta_split_check(((2, -3), (-3, -2)), (F(3, 10), F(2, 5)),
                             (F(1, 20), F(-1, 10)), (1, 2), 0.3 + 0.25j,
                             1e-12) < 1e-12


def test_split_identity_rejects_imprimitive_c():
    data = order2_theta_data(1)
    with pytest.raises(NumericsError):
        theta_split_check(data.A, data.a, data.b, (-2, 4), 1j, 1e-8)


def test_cusp_boundedness_contrast():
    # toward the cusp 0 the order-2 completion stays bounded while the
    # identity-class completion grows
    ts = (0.2, 0.1, 0.05)
    v1 = [abs(_at_point(CLASS_1A, 1, t * 1j, 1e-6, True)[0]) for t in ts]
    v2 = [abs(_at_point(CLASS_2A, 1, t * 1j, 1e-6, True)[0]) for t in ts]
    assert v1[0] < v1[1] < v1[2]
    assert v1[2] > 3.0 * v1[0]
    assert max(v2) < 6.0
    assert v2[2] < 1.5 * max(v2[0], v2[1]) + 1.0
