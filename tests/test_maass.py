import cmath
import math
import random
from fractions import Fraction as F

import pytest
from scipy.integrate import quad

from e8umbral.characters import CLASS_1A, CLASS_2A, CLASS_3A, h_component
from e8umbral.maass import (IndefThetaData, NumericsError,
                            _pd_lambda_min, _wedge_lambda_min,
                            beta_incomplete, completion_value, e,
                            e_function, g_weight32_value, indefinite_theta,
                            multiplier_matrix, nu_S, nu_T, order2_theta_data,
                            r_function, rho_3_3, series_value, split_cosets,
                            tau1_identity_check, theta_split_check,
                            transform_check)
from e8umbral.theta import shadow_component

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


def test_e_function_properties():
    assert e_function(0.0) == 0.0
    for z in (0.3, 1.7, 2.9):
        assert abs(e_function(-z) + e_function(z)) < 1e-15
        assert abs(e_function(z)) < 1.0
    assert abs(e_function(3.0) - (1.0 - beta_incomplete(9.0))) < 1e-15
    assert e_function(8.0) > 1 - 1e-12


def test_r_function_stability_and_periodicity():
    tau = 1j
    v10 = r_function(F(1, 2), 0, tau, 1e-10)
    v15 = r_function(F(1, 2), 0, tau, 1e-15)
    assert abs(v10 - v15) < 1e-10
    assert abs(r_function(F(1, 3), F(1, 7), tau)
               - r_function(F(4, 3), F(1, 7), tau)) < 1e-14


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


def _eichler_of_g(a, b, tau):
    return _ray_integral(lambda z: g_weight32_value(a, b, z), tau)


def test_r_equals_eichler_integral_of_g():
    # R_{a,b}(tau) = e(-1/8) int_{-conj tau}^{i inf} g_{a,-b}(z)/sqrt(z+tau)
    rng = random.Random(11)
    pts = [15j, 0.4 + 11j]
    for _ in range(8):
        pts.append(complex(rng.uniform(-0.5, 0.5), rng.uniform(4.0, 12.0)))
    for tau in pts:
        a = F(rng.randrange(1, 10), 10)
        b = F(rng.randrange(-2, 3), 4)
        lhs = r_function(a, b, tau, 1e-13)
        rhs = _eichler_of_g(a, -b, tau)
        assert abs(lhs - rhs) < 1e-8, (tau, a, b)


def test_paper_cone_data_invariants():
    data = order2_theta_data(1)
    data.validate()
    assert data.q_of(data.c1) == -5
    assert data.q_of(data.c2) == F(-15, 2)
    assert data.b_of(data.c1, data.c2) == -20
    bad = IndefThetaData(data.A, data.a, data.b, (1, 0), data.c2)
    with pytest.raises(NumericsError):
        bad.validate()


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
            M = A / 2.0 - np.outer(ac, ac) / (2.0 * float(data.q_of(c)))
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


def test_completion_identity_both_components():
    for tol in (1e-8, 1e-12):
        for r in (1, 7):
            for tau in (0.1 + 0.8j, 0.5j):
                assert tau1_identity_check(tau, r, tol) < tol


def test_completion_identity_shifted_tau():
    # integer shifts act by fixed 120th-root phases on both sides
    for tau in (0.1 + 0.8j, 2.1 + 0.8j):
        assert tau1_identity_check(tau, 1, 1e-8) < 1e-8


def test_completion_routes_agree():
    # the termwise Eichler sum against quadrature of the shadow's integral
    tau = 0.13 + 0.92j
    for cls, r in ((CLASS_1A, 1), (CLASS_1A, 7), (CLASS_2A, 1),
                   (CLASS_2A, 7)):
        s = shadow_component(cls, r, 30)
        shadow = [(n / 120, float(c)) for n, c in s.items()]
        g = lambda z: sum(c * cmath.exp(2j * math.pi * n * z)
                          for n, c in shadow)
        holo, _ = series_value(h_component(cls, r, 60), tau)
        oracle = holo + _ray_integral(g, tau) / math.sqrt(60)
        assert abs(completion_value(cls, r, tau, 1e-9) - oracle) < 1e-9


def test_order2_completion_equals_theta_quotient():
    # the shadow-integral completion agrees with the independent
    # indefinite-theta quotient route at five sample points
    from e8umbral.maass import _eta2_series, _eval_order
    for r in (1, 7):
        for tau in (0.1 + 0.8j, 0.5j, 0.3 + 0.7j, -0.2 + 1.3j,
                    0.45 + 0.6j):
            data = order2_theta_data(r)
            th = indefinite_theta(data, tau, 1e-12)
            eta_val, _ = series_value(
                _eta2_series(_eval_order(tau.imag, 1e-10)), tau)
            # the phase tracks the coset characteristic (1 or 3)/10
            pref = -e(F(-1, 10)) if r == 1 else -e(F(-3, 10))
            quotient = pref * th / eta_val
            comp = completion_value(CLASS_2A, r, tau, 1e-9)
            assert abs(quotient - comp) < 1e-6, (r, tau)


def test_order3_completion_is_plain_series():
    tau = 0.1 + 0.9j
    from e8umbral.maass import _eval_order, _signed_component
    plain, _ = series_value(
        _signed_component(CLASS_3A, 7, _eval_order(tau.imag, 1e-9)), tau)
    assert abs(completion_value(CLASS_3A, 7, tau, 1e-9) - plain) < 1e-12


def test_negative_component_index():
    tau = 0.2 + 1.0j
    a = completion_value(CLASS_2A, 59, tau, 1e-9)
    b = completion_value(CLASS_2A, 1, tau, 1e-9)
    assert abs(a + b) < 1e-10


def test_multiplier_relations():
    ns, nt = np.array(nu_S()), np.array(nu_T())
    z = e(F(-1, 4)) * np.eye(2)
    assert np.abs(ns @ ns - z).max() < 1e-12
    st = ns @ nt
    assert np.abs(st @ st @ st - z).max() < 1e-12
    # unitarity is checked, not assumed
    assert np.abs(ns @ ns.conj().T - np.eye(2)).max() < 1e-12
    assert np.abs(nt @ nt.conj().T - np.eye(2)).max() < 1e-12


def test_multiplier_word_consistency():
    # nu built by word decomposition respects the group law numerically
    rng = random.Random(3)
    from e8umbral.maass import _mat_mul

    def rand_gamma():
        m = ((1, 0), (0, 1))
        for _ in range(4):
            m = _mat_mul(m, ((1, rng.randrange(-3, 4)), (0, 1)))
            m = _mat_mul(m, ((0, -1), (1, 0)))
        return m

    tau0 = 0.21 + 1.3j
    for _ in range(6):
        g1, g2 = rand_gamma(), rand_gamma()
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


def test_rho_phase():
    assert abs(rho_3_3(((1, 0), (3, 1))) - e(F(1, 3))) < 1e-15
    with pytest.raises(NumericsError):
        rho_3_3(((1, 0), (2, 1)))


def test_split_identity_paper_data():
    data = order2_theta_data(1)
    reps1, _ = split_cosets(data.A, data.a, data.c1)
    assert reps1 == [(F(-9, 10), F(1, 10))]
    reps2, _ = split_cosets(data.A, data.a, data.c2)
    assert sorted(reps2) == [(F(1, 10), F(1, 10)), (F(1, 10), F(11, 10)),
                             (F(1, 10), F(21, 10))]
    # at Im tau = 0.3 the c2 line theta needs several terms
    for c in (data.c1, data.c2):
        for tau in (0.1 + 0.8j, 0.1 + 0.3j):
            assert theta_split_check(data.A, data.a, data.b, c,
                                     tau, 1e-9) < 1e-9


def test_split_identity_c1_side_vanishes():
    # the lone coset for c1 carries an alternating half-integer theta
    data = order2_theta_data(1)
    A = np.array(data.A, dtype=float)
    av = np.array([float(x) for x in data.a])
    Abv = A @ np.array([float(x) for x in data.b])
    Ac1 = A @ np.array([float(x) for x in data.c1])
    qc1 = float(data.q_of(data.c1))
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
    v1 = [abs(completion_value(CLASS_1A, 1, t * 1j, 1e-6)) for t in ts]
    v2 = [abs(completion_value(CLASS_2A, 1, t * 1j, 1e-6)) for t in ts]
    assert v1[0] < v1[1] < v1[2]
    assert v1[2] > 3.0 * v1[0]
    assert max(v2) < 6.0
    assert v2[2] < 1.5 * max(v2[0], v2[1]) + 1.0
