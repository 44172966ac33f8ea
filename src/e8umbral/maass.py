"""Floating-point evaluation of the mock modular machinery: incomplete
Gaussian weights, Eichler integrals, indefinite theta functions of
signature (1,1), completions, and weight-1/2 transformation residuals.

Summation tails are certified: the sign-weighted and E-weighted lattice
sums decay like exp(-2 pi y M(nu)) for positive-definite forms M built
from the cone data, and ring sums stop only once the remaining rings are
provably below the requested bound.  Series-to-number evaluation carries
an empirical tail estimate (measured coefficient growth times the dropped
geometric tail) and refuses to report values it cannot back.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .characters import (CLASS_2A, CLASSES, SUPPORT_POS, GroupClass,
                         h_component)
from .qseries import DEN, QSeries
from .theta import shadow_component

TWO_PI = 2.0 * math.pi
SQRT_PI = math.sqrt(math.pi)

# completion scaling constant C = sqrt(60) (index 30 shadows)
SHADOW_SCALE = math.sqrt(60.0)


class NumericsError(RuntimeError):
    pass


class ConvergenceError(NumericsError):
    """A certified tail bound could not be met within the iteration cap."""


def e(x) -> complex:
    """e(x) = exp(2 pi i x)."""
    return cmath.exp(2j * math.pi * float(x))


# ----------------------------------------------------------------------
# incomplete Gaussian weights


def beta_incomplete(x: float) -> float:
    """beta(x) = int_x^inf u^(-1/2) exp(-pi u) du = erfc(sqrt(pi x)).

    Substituting u = t^2/pi reduces the integral to the complementary
    error function, which the libm implementation delivers to full double
    precision; beta(0) = 1.
    """
    if x < 0:
        raise NumericsError("beta_incomplete needs x >= 0")
    return math.erfc(math.sqrt(math.pi * x))


def e_function(z: float) -> float:
    """E(z) = sgn(z)(1 - beta(z^2)) = erf(sqrt(pi) z); odd, E(0) = 0."""
    return math.erf(SQRT_PI * z)


# ----------------------------------------------------------------------
# series evaluation with an empirical tail certificate


def series_value(series: QSeries, tau: complex) -> tuple[complex, float]:
    """Sum a truncated exact series at q = e(tau).

    Returns (value, tail_estimate).  The tail estimate extrapolates the
    measured coefficient growth geometrically past the truncation order;
    it is empirical, not a proof, and callers compare it against their
    tolerance before trusting the value.
    """
    y = tau.imag
    if y <= 0:
        raise NumericsError("tau must lie in the upper half plane")
    total = 0.0 + 0.0j
    mags: list[tuple[float, float]] = []
    for en, c in series.items():
        cf = float(c)
        total += cf * cmath.exp(2j * math.pi * tau * en / DEN)
        mags.append((en / DEN, abs(cf)))
    absq = math.exp(-TWO_PI * y)
    if series.order == math.inf:
        return total, 0.0
    order = float(series.order)
    if not mags:
        return total, absq ** order
    tail_coeff = max(m for _, m in mags[-8:])
    growth = 1.0
    for (e1, m1), (e2, m2) in zip(mags[-9:-1], mags[-8:]):
        if m1 > 0 and m2 > m1:
            growth = max(growth, (m2 / m1) ** (1.0 / max(e2 - e1, 1e-9)))
    growth = min(growth, 0.5 / absq)
    ratio = growth * absq
    est = tail_coeff * (absq ** order) * growth / max(1.0 - ratio, 0.5)
    return total, est


def _eval_order(y: float, tol: float) -> int:
    """Truncation order giving a dropped tail well below tol at Im = y."""
    n = (math.log(1.0 / tol) + 34.0) / (TWO_PI * y)
    n = int(math.ceil(n / 20.0)) * 20
    return max(40, min(n, 800))


@lru_cache(maxsize=None)
def _component_series(class_name: str, r: int, order: int) -> QSeries:
    return h_component(CLASSES[class_name], r, order)


@lru_cache(maxsize=None)
def _shadow_series(class_name: str, r: int, order: int) -> QSeries:
    return shadow_component(CLASSES[class_name], r, order)


def _signed_component(group_class: GroupClass, r: int,
                      order: int) -> QSeries:
    """H_r, with H_{-r} = -H_r for r outside SUPPORT_POS."""
    rr = r % 60
    if rr in SUPPORT_POS:
        return _component_series(group_class.name, rr, order)
    if -rr % 60 in SUPPORT_POS:
        return -_component_series(group_class.name, -rr % 60, order)
    raise NumericsError(f"component {r} is outside the support")


# ----------------------------------------------------------------------
# R functions and Eichler integrals


def _line_sum(term, x0, kappa: float, y: float,
              tail_bound: float) -> complex:
    """sum_{x in x0+Z} term(x), for terms bounded by
    |term(x)| <= exp(-pi kappa y x^2).

    Points are added in pairs s + n, s - n - 1 (s = x0 mod 1, n = 0, 1,
    ...), so the sum grows outward from x = 0.  Once every point left
    has |x| >= d, the rest of the sum is at most
    2 exp(-pi kappa y d^2) / (1 - exp(-2 pi kappa y d)), since
    (d + j)^2 >= d^2 + 2dj; the sum stops when that tail is below
    tail_bound.
    """
    s = float(x0 - math.floor(x0))
    rate = math.pi * kappa * y
    total = 0.0 + 0.0j
    n = 0
    while True:
        total += term(s + n) + term(s - n - 1)
        n += 1
        d = min(s + n, n + 1 - s)
        if 2.0 * math.exp(-rate * d * d) / -math.expm1(-2.0 * rate * d) \
                < tail_bound:
            return total
        if n > 20000:
            raise ConvergenceError("line sum tail bound not met")


def r_function(a, b, tau: complex, tail_bound: float = 1e-12) -> complex:
    """R_{a,b}(tau) = sum_{nu in a+Z} sgn(nu) beta(2 nu^2 y) q^(-nu^2/2)
    e^(-2 pi i nu b), with sgn(0) = 0.

    erfc(t) <= exp(-t^2) bounds each term by exp(-pi y nu^2), so
    _line_sum certifies the tail with kappa = 1.
    """
    b = float(b)
    y = tau.imag
    if y <= 0:
        raise NumericsError("tau must lie in the upper half plane")

    def term(nu: float) -> complex:
        if nu == 0.0:
            return 0.0 + 0.0j
        w = beta_incomplete(2.0 * nu * nu * y)
        if w == 0.0:
            return 0.0 + 0.0j
        return math.copysign(1.0, nu) * w * \
            cmath.exp(-1j * math.pi * nu * nu * tau) * \
            cmath.exp(-2j * math.pi * nu * b)

    return _line_sum(term, a, 1.0, y, tail_bound)


def g_weight32_value(a, b, z: complex, tol: float = 1e-14) -> complex:
    """Numeric value of g_{a,b}(z) = sum_{nu in a+Z} nu e^(pi i nu^2 z +
    2 pi i nu b) for Im z > 0."""
    a = float(a)
    b = float(b)
    y = z.imag
    if y <= 0:
        raise NumericsError("z must lie in the upper half plane")
    total = 0.0 + 0.0j
    frac = a - math.floor(a)
    n = 0
    while True:
        for nu in {frac + n, frac - n - 1}:
            total += nu * cmath.exp(1j * math.pi * nu * nu * z
                                    + 2j * math.pi * nu * b)
        n += 1
        vmin = min(abs(frac + n), abs(frac - n))
        if vmin > 0 and (vmin + 1) * math.exp(-math.pi * vmin * vmin * y) \
                / max(1.0 - math.exp(-math.pi * vmin * y), 0.1) < tol:
            return total
        if n > 20000:
            raise ConvergenceError("g function tail bound not met")


def component_value(group_class: GroupClass, r: int, tau: complex,
                    tol: float, tail_budget: float) -> tuple[complex, float]:
    """(H_r(tau), tail estimate < tail_budget), truncating at
    _eval_order(Im tau, tol) and doubling the order up to 800."""
    y = tau.imag
    order = _eval_order(y, tol)
    while True:
        value, tail = series_value(_signed_component(group_class, r, order),
                                   tau)
        if tail < tail_budget:
            return value, tail
        if order >= 800:
            raise ConvergenceError(
                f"series truncation insufficient for tol {tol} at Im {y}")
        order = min(order * 2, 800)


def _shadow_terms(group_class: GroupClass, r: int, y: float,
                  tol: float) -> list[tuple[float, float]]:
    """(n, c_n) pairs of the shadow component, deep enough that dropped
    terms contribute below tol to the completion at height y."""
    n_max = (math.log(1.0 / tol) + 25.0) / (TWO_PI * y)
    n_max = max(5.0, n_max)
    s = _shadow_series(group_class.name, r % 60, int(math.ceil(n_max)) + 1)
    return [(en / DEN, float(c)) for en, c in s.items()]


def completion_value(group_class: GroupClass, r: int, tau: complex,
                     tol: float = 1e-9) -> complex:
    """The completed component value H_r(tau) + (shadow Eichler integral).

    The non-holomorphic part is the Eichler integral of the shadow
    component with scaling constant C = sqrt(60), summed termwise: the
    shadow term c_n q^n contributes c_n/(C sqrt(2n)) beta(4 n y) q^(-n).
    """
    y = tau.imag
    if y <= 0:
        raise NumericsError("tau must lie in the upper half plane")
    value, _ = component_value(group_class, r, tau, tol, tol / 5.0)
    if group_class.perm_character == 0:
        return value          # zero shadow: completion equals the series
    nonholo = 0.0 + 0.0j
    for n, c in _shadow_terms(group_class, r, y, tol):
        if n <= 0 or c == 0.0:
            continue
        nonholo += c / (SHADOW_SCALE * math.sqrt(2.0 * n)) * \
            beta_incomplete(4.0 * n * y) * \
            cmath.exp(-2j * math.pi * n * tau)
    return value + nonholo


# ----------------------------------------------------------------------
# indefinite theta functions of signature (1,1)


@dataclass(frozen=True)
class IndefThetaData:
    """Quadratic form data (A; a, b; c1, c2) for the two-sided theta."""

    A: tuple                 # ((int,int),(int,int)), symmetric, sig (1,1)
    a: tuple                 # rational 2-vector of characteristics
    b: tuple
    c1: tuple                # integer cone vectors, same negative component
    c2: tuple

    def a_times(self, v) -> tuple:
        """A v, exact for integer or rational v."""
        (a00, a01), (a10, a11) = self.A
        return (a00 * v[0] + a01 * v[1], a10 * v[0] + a11 * v[1])

    def q_of(self, v) -> Fraction:
        return self.b_of(v, v) / 2

    def b_of(self, u, v) -> Fraction:
        av = self.a_times((Fraction(v[0]), Fraction(v[1])))
        return Fraction(u[0]) * av[0] + Fraction(u[1]) * av[1]

    def validate(self) -> None:
        A = self.A
        if A[0][1] != A[1][0]:
            raise NumericsError("A must be symmetric")
        det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
        if det >= 0:
            raise NumericsError("A must have signature (1,1)")
        for c in (self.c1, self.c2):
            if self.q_of(c) >= 0:
                raise NumericsError(f"cone vector {c} must have Q(c) < 0")
        if self.b_of(self.c1, self.c2) >= 0:
            raise NumericsError("c1 and c2 must lie in the same component")


def _pd_lambda_min(data: IndefThetaData, c) -> float:
    """Smallest eigenvalue of M_c(x) = Q(x) - B(c,x)^2 / (2 Q(c)), the
    positive-definite majorant controlling the same-sign terms.

    M_c = ((p, r), (r, t)) is exact; its smallest eigenvalue is
    (p + t - hypot(p - t, 2r)) / 2.
    """
    (a00, a01), (_, a11) = data.A
    ac0, ac1 = data.a_times(c)
    qc2 = 2 * data.q_of(c)
    p = Fraction(a00, 2) - ac0 * ac0 / qc2
    r = Fraction(a01, 2) - ac0 * ac1 / qc2
    t = Fraction(a11, 2) - ac1 * ac1 / qc2
    lam = (float(p + t) - math.hypot(float(p - t), float(2 * r))) / 2.0
    if lam <= 0:
        raise NumericsError("cone data does not yield a positive majorant")
    return lam


def _wedge_lambda_min(data: IndefThetaData) -> float:
    """min of Q on the unit circle restricted to the sign-changing wedge
    B(c1,x) B(c2,x) <= 0 between the two cone walls (where |E1 - E2| is
    only bounded by 2).

    The wedge is +-(cone spanned by the wall directions w_i = J A c_i),
    J the quarter turn.  On the unit circle Q is a sinusoid in twice the
    angle, so on an arc shorter than a half turn its only interior local
    minimum is the global one, the smallest eigenvalue of A/2, which is
    negative.  Hence either Q(alpha w1 + beta w2) fails to be positive for
    some alpha, beta >= 0 (decided exactly, and an error) or the minimum is
    the smaller exact wall value Q(w_i)/|w_i|^2.  For c1 parallel to c2 the
    wedge is the common wall, and the wall value is returned.
    """
    w1, w2 = ((-ac[1], ac[0]) for ac in (data.a_times(data.c1),
                                          data.a_times(data.c2)))
    q1, q2, b12 = data.q_of(w1), data.q_of(w2), data.b_of(w1, w2)
    if q1 <= 0 or q2 <= 0 or (b12 < 0 and b12 * b12 >= 4 * q1 * q2):
        raise NumericsError("cone walls admit non-positive vectors")
    return float(min(q1 / (w1[0] ** 2 + w1[1] ** 2),
                     q2 / (w2[0] ** 2 + w2[1] ** 2)))


def _ring_tail(R0: int, y: float, lam: float) -> float:
    """Bound on sum_{R >= R0} (points of ring R) exp(-2 pi y lam (R-2)^2)."""
    total = 0.0
    R = R0
    while True:
        contrib = (8 * R + 4) * \
            math.exp(-TWO_PI * y * lam * max(R - 2, 0) ** 2)
        total += contrib
        if contrib < 1e-4 * total or contrib == 0.0:
            return total
        R += 1


def _ring_sum(data: IndefThetaData, tau: complex, weight, wmax: float,
              lam: float, tail_bound: float) -> complex:
    """sum_{n in Z^2} weight(n) e(Q(nu) tau + B(nu, b)) with nu = a + n,
    summed over expanding square rings.

    The caller's lam and wmax bound each term on ring R by
    wmax exp(-2 pi y lam (R-2)^2); the sum stops at the first ring R >= 2
    past which _ring_tail bounds the remaining rings below tail_bound.
    """
    y = tau.imag
    (a00, a01), (_, a11) = data.A
    a0, a1 = float(data.a[0]), float(data.a[1])
    ab0, ab1 = (float(x) for x in data.a_times(data.b))
    total = 0.0 + 0.0j
    R = 0
    while True:
        if R == 0:
            pts = [(0, 0)]
        else:
            pts = [p for i in range(-R, R + 1) for p in ((i, R), (i, -R))]
            pts += [p for j in range(-R + 1, R) for p in ((R, j), (-R, j))]
        for n1, n2 in pts:
            w = weight(n1, n2)
            if w == 0.0:
                continue
            nu0, nu1 = a0 + n1, a1 + n2
            qnu = 0.5 * (a00 * nu0 * nu0 + 2 * a01 * nu0 * nu1
                         + a11 * nu1 * nu1)
            total += w * cmath.exp(2j * math.pi * (qnu * tau + nu0 * ab0
                                                   + nu1 * ab1))
        if R >= 2 and wmax * _ring_tail(R + 1, y, lam) < tail_bound:
            return total
        if R > 800:
            raise ConvergenceError("theta ring sum tail bound not met")
        R += 1


def _wall_coordinate(data: IndefThetaData, c, y: float):
    """n -> x = sqrt(pi) B(c, nu) sqrt(y)/sqrt(-Q(c)) for nu = a + n, so
    that E(B(c,nu) sqrt(y)/sqrt(-Q(c))) = erf(x).  B(c, nu) is formed from
    an integer numerator, so x is exactly 0 on the wall B(c, nu) = 0.
    """
    ac = data.a_times(c)
    bca = data.b_of(c, data.a)
    p, d = bca.numerator, bca.denominator
    k = SQRT_PI * math.sqrt(y / -float(data.q_of(c))) / d
    return lambda n1, n2: k * (p + d * (ac[0] * n1 + ac[1] * n2))


def indefinite_theta(data: IndefThetaData, tau: complex,
                     tail_bound: float = 1e-10) -> complex:
    """The two-sided weighted theta sum

        sum_{nu in a+Z^2} [E(B(c1,nu) sqrt(y)/sqrt(-Q(c1)))
                           - E(B(c2,nu) sqrt(y)/sqrt(-Q(c2)))]
            q^Q(nu) e(B(nu, b))

    summed over expanding square rings with a certified tail: same-sign
    terms decay like exp(-2 pi y M_c(nu)) with M_c positive definite, and
    the sign-changing wedge carries exp(-2 pi y Q(nu)) with Q positive
    there, so every ring past the stopping radius is provably negligible.
    On same-sign terms the weight is taken as a difference of erfc values,
    not of erf values near +-1, so no rounding error is blown up by a
    large |q^Q(nu)|.
    """
    data.validate()
    y = tau.imag
    if y <= 0:
        raise NumericsError("tau must lie in the upper half plane")
    x1 = _wall_coordinate(data, data.c1, y)
    x2 = _wall_coordinate(data, data.c2, y)

    def weight(n1: int, n2: int) -> float:
        z1, z2 = x1(n1, n2), x2(n1, n2)
        if z1 * z2 > 0:
            d = math.erfc(abs(z2)) - math.erfc(abs(z1))
            return d if z1 > 0 else -d
        return math.erf(z1) - math.erf(z2)

    lam = min(_pd_lambda_min(data, data.c1), _pd_lambda_min(data, data.c2),
              _wedge_lambda_min(data))
    return _ring_sum(data, tau, weight, 2.0, lam, tail_bound)


# ----------------------------------------------------------------------
# the trace-function completion identity (order-2 class)

# printed cone data for the order-2 class; the component families differ
# only in the characteristic vector a and the matching phase prefactor
_TAU_A = ((6, 4), (4, 1))
_TAU_B = (Fraction(3, 20), Fraction(-1, 10))
_TAU_C1 = (-1, 4)
_TAU_C2 = (-2, 3)


def order2_theta_data(r: int) -> IndefThetaData:
    if r == 1:
        a = (Fraction(1, 10), Fraction(1, 10))
    elif r == 7:
        a = (Fraction(3, 10), Fraction(3, 10))
    else:
        raise NumericsError("component must be 1 or 7")
    return IndefThetaData(_TAU_A, a, _TAU_B, _TAU_C1, _TAU_C2)


@lru_cache(maxsize=None)
def _eta2_series(order: int) -> QSeries:
    from .qseries import dedekind_eta
    return dedekind_eta(2, order)


def tau1_identity_check(tau: complex, r: int = 1, tol: float = 1e-8) -> float:
    """Residual of the completion identity for the order-2 trace:

        -e(-r/10) theta(tau) / eta(2 tau)
            = 2 T(2A, r) + e(-c1/60) R_{c1/30,-1/2}(15 tau)
                         + e(-c2/60) R_{c2/30,-1/2}(15 tau)

    with (c1, c2) = (1, 11) for r = 1 and (13, 23) for r = 7.  The R-term
    signs follow from the two-sided splitting of the weighted theta sum;
    the printed form of this identity carries minus signs there, which the
    two independent evaluation routes show to be a typo.
    """
    y = tau.imag
    data = order2_theta_data(r)
    theta_val = indefinite_theta(data, tau, tail_bound=tol * 1e-3)
    order = _eval_order(y, tol)
    eta_val, eta_tail = series_value(_eta2_series(order), tau)
    if eta_tail > tol * 1e-2:
        raise ConvergenceError("eta series truncation insufficient")
    pref = -e(Fraction(-1, 10)) if r == 1 else -e(Fraction(-3, 10))
    lhs = pref * theta_val / eta_val

    h = _signed_component(CLASS_2A, r, _eval_order(y, tol / 10.0))
    hseries, tail = series_value(h, tau)
    if tail > tol / 10.0:
        raise ConvergenceError("trace series truncation insufficient")
    if r == 1:
        chars = (1, 11)
    else:
        chars = (13, 23)
    rterms = sum(
        e(Fraction(-c, 60)) * r_function(Fraction(c, 30), Fraction(-1, 2),
                                         15.0 * tau, tail_bound=tol * 1e-3)
        for c in chars)
    rhs = hseries + rterms
    return abs(lhs - rhs)


# ----------------------------------------------------------------------
# weight-1/2 multiplier system and transformation residuals


def nu_T() -> tuple:
    """nu(T) on (H_1, H_7), as the tuple ((a, b), (c, d)) of complex
    numbers."""
    return ((e(Fraction(-1, 120)), 0j), (0j, e(Fraction(-49, 120))))


def nu_S() -> tuple:
    """nu(S) on (H_1, H_7), the printed sine matrix, as the tuple
    ((a, b), (c, d)) of complex numbers."""
    s = math.sin
    k = 2.0 * e(Fraction(3, 8)) / math.sqrt(15.0)
    p = k * (s(math.pi / 30) + s(11 * math.pi / 30))
    q = k * (s(7 * math.pi / 30) + s(13 * math.pi / 30))
    return ((p, q), (q, -p))


def _sl2_word(gamma) -> list[str]:
    """Decompose gamma in SL2(Z) into tokens 'S', 'T', 'T-' composing
    left-to-right to gamma."""
    (a, b), (c, d) = gamma
    if a * d - b * c != 1:
        raise NumericsError("matrix must have determinant 1")
    if c == 0:
        if a == 1:
            return ["T"] * b if b >= 0 else ["T-"] * (-b)
        # a = d = -1: gamma = S^2 T^(-b)
        return ["S", "S"] + (["T-"] * b if b >= 0 else ["T"] * (-b))
    n = a // c
    rest = _sl2_word(((c, d), (-(a - n * c), -(b - n * d))))
    head = ["T"] * n if n >= 0 else ["T-"] * (-n)
    return head + ["S"] + rest


_GEN_MATRICES = {
    "S": ((0, -1), (1, 0)),
    "T": ((1, 1), (0, 1)),
    "T-": ((1, -1), (0, 1)),
}


def _mat_mul(p, q):
    return ((p[0][0] * q[0][0] + p[0][1] * q[1][0],
             p[0][0] * q[0][1] + p[0][1] * q[1][1]),
            (p[1][0] * q[0][0] + p[1][1] * q[1][0],
             p[1][0] * q[0][1] + p[1][1] * q[1][1]))


def _moebius(m, tau: complex) -> complex:
    (a, b), (c, d) = m
    return (a * tau + b) / (c * tau + d)


def multiplier_matrix(gamma) -> tuple:
    """nu(gamma) for the metaplectic lift of gamma carrying the principal
    branch of (c tau + d)^(1/2), as the tuple ((a, b), (c, d)) of complex
    numbers.

    The word in S, T is lifted generator by generator while tracking the
    branch function at a base point; a residual sign relative to the
    principal branch multiplies the matrix product by -1 (the image of the
    nontrivial deck element, consistent with nu(S)^2 = (nu(S) nu(T))^3 =
    e(-1/4) Id).
    """
    word = _sl2_word(gamma)
    tau0 = 0.2347 + 1.7113j
    mat = ((1, 0), (0, 1))
    phi = 1.0 + 0.0j
    for tok in reversed(word):
        g = _GEN_MATRICES[tok]
        if tok == "S":
            phi = cmath.sqrt(_moebius(mat, tau0)) * phi
        mat = _mat_mul(g, mat)
    if mat != tuple(tuple(row) for row in gamma):
        raise NumericsError("word decomposition failed")
    (a, b), (c, d) = gamma
    eps = phi / cmath.sqrt(c * tau0 + d)
    if abs(eps - 1.0) < 1e-8:
        sign = 1.0
    elif abs(eps + 1.0) < 1e-8:
        sign = -1.0
    else:
        raise NumericsError(f"metaplectic sign tracking failed ({eps})")
    nut = nu_T()
    gens = {"S": nu_S(), "T": nut,   # nu(T)^-1 is the conjugate diagonal
            "T-": tuple(tuple(z.conjugate() for z in row) for row in nut)}
    prod = ((sign, 0j), (0j, sign))
    for tok in word:
        prod = _mat_mul(prod, gens[tok])
    return prod


def rho_3_3(gamma) -> complex:
    """The order-3 phase e(c d / 9) on Gamma_0(3)."""
    (a, b), (c, d) = gamma
    if c % 3:
        raise NumericsError("rho_3|3 lives on Gamma_0(3)")
    return e(Fraction(c * d, 9))


def transform_check(group_class: GroupClass, gamma, tau: complex,
                    tol: float = 1e-8) -> float:
    """Residual of the weight-1/2 transformation law on the completed
    2-vector (H_1, H_7):

        (c tau + d)^(-1/2) H(gamma tau) = nu(gamma) H(tau)

    with nu generated from nu(T), nu(S) by word decomposition, times the
    e(cd/9) phase for the order-3 class.  gamma must lie in
    Gamma_0(order).
    """
    (a, b), (c, d) = gamma
    if a * d - b * c != 1:
        raise NumericsError("matrix must have determinant 1")
    if c % group_class.order != 0:
        raise NumericsError(
            f"gamma is not in Gamma_0({group_class.order})")
    nu = multiplier_matrix(gamma)
    # in this orientation of the law the order-3 scalar enters
    # conjugated; the T and Gamma_0(3) generator checks pin it down
    phase = rho_3_3(gamma).conjugate() if group_class.order == 3 else 1.0
    gtau = (a * tau + b) / (c * tau + d)
    h1, h7 = (completion_value(group_class, r, tau, tol / 10.0)
              for r in (1, 7))
    jac = cmath.sqrt(c * tau + d)
    return max(abs(completion_value(group_class, r, gtau, tol / 10.0) / jac
                   - phase * (row[0] * h1 + row[1] * h7))
               for r, row in zip((1, 7), nu))


# ----------------------------------------------------------------------
# the one-sided theta splitting identity (sign-weighted sum vs R times
# positive-definite theta)


def _egcd(p: int, q: int) -> tuple[int, int, int]:
    if q == 0:
        return (abs(p), 1 if p >= 0 else -1, 0)
    g, x, y2 = _egcd(q, p % q)
    return (g, y2, x - (p // q) * y2)


def _int_matrix(data_A) -> tuple:
    return tuple(tuple(int(x) for x in row) for row in data_A)


def split_cosets(data_A, a, c) -> list[tuple]:
    """Representatives mu0 of {mu in a+Z^2 : 0 <= B(c,mu)/2Q(c) < 1}
    modulo the integer line orthogonal to c, together with the line
    generator w.  Returns (list of mu0 as Fraction pairs, w)."""
    c = (int(c[0]), int(c[1]))
    data = IndefThetaData(_int_matrix(data_A), tuple(a), (0, 0), c, c)
    qc = data.q_of(c)
    if qc >= 0:
        raise NumericsError("c must have Q(c) < 0")
    ac = data.a_times(c)
    g, x0, y0 = _egcd(ac[0], ac[1])
    if g == 0:
        raise NumericsError("degenerate cone vector")
    # primitive generator of the B(c, .) = 0 integer line
    w = (-ac[1] // g, ac[0] // g)
    bca = data.b_of(a, c)
    # B values on a+Z^2 form bca + g Z; want values t with 2 Q(c) < t <= 0
    reps = []
    j_lo = math.floor((2 * qc - bca) / g) + 1    # strict lower endpoint
    j_hi = math.floor(-bca / g)
    for j in range(j_lo, j_hi + 1):
        t = bca + g * j
        if not (2 * qc < t <= 0):
            continue
        mu0 = (Fraction(a[0]) + j * x0, Fraction(a[1]) + j * y0)
        reps.append(mu0)
    return reps, w


def theta_split_check(data_A, a, b, c, tau: complex,
                      tol: float = 1e-8) -> float:
    """Residual of the splitting of the one-sided sign-weighted theta:

        sum_{nu in a+Z^2} sgn(B(c,nu)) beta(-B(c,nu)^2 y / Q(c))
            e(Q(nu) tau + B(nu,b))
        = - sum_{mu0} R_{B(c,mu0)/2Q(c), -B(c,b)}(-2 Q(c) tau)
              * sum_{xi in mu0_perp + Z w} e(Q(xi) tau + B(xi, b_perp))

    for primitive c with Q(c) < 0.  Both sides are evaluated numerically
    with certified tails and the absolute difference returned.  The minus
    sign on the second R characteristic compensates the e^(-2 pi i nu b)
    phase in the R definition; restating the splitting with +B(c,b) fails
    numerically for generic b.
    """
    c = (int(c[0]), int(c[1]))
    if math.gcd(c[0], c[1]) != 1:
        raise NumericsError("cone vector c must be primitive")
    y = tau.imag
    if y <= 0:
        raise NumericsError("tau must lie in the upper half plane")
    data = IndefThetaData(_int_matrix(data_A), tuple(a), tuple(b), c, c)
    qc = data.q_of(c)
    if qc >= 0:
        raise NumericsError("c must have Q(c) < 0")
    x = _wall_coordinate(data, c, y)

    def weight(n1: int, n2: int) -> float:
        # sgn(B(c,nu)) beta(-B(c,nu)^2 y / Q(c)) = sgn(x) erfc(|x|)
        z = x(n1, n2)
        if z == 0.0:
            return 0.0
        return math.erfc(z) if z > 0 else -math.erfc(-z)

    # left side: terms damped by exp(-2 pi y M_c(nu))
    total = _ring_sum(data, tau, weight, 1.0, _pd_lambda_min(data, c),
                      tol * 1e-2)

    # right side.  B(c, w) = 0, so the line mu0_perp + Z w is (s + Z) w
    # with s = B(mu0, w)/2Q(w), and B(xi, b_perp) = B(xi, b) on it; its
    # theta terms have modulus exp(-2 pi y Q(w) x^2) at x = s + k.
    reps, w = split_cosets(data.A, a, c)
    bcb = data.b_of(c, b)
    qw = data.q_of(w)
    qw_f, bwb = float(qw), float(data.b_of(w, b))

    def line_term(x: float) -> complex:
        return cmath.exp(2j * math.pi * (qw_f * x * x * tau + x * bwb))

    rhs = 0.0 + 0.0j
    for mu0 in reps:
        rval = r_function(data.b_of(c, mu0) / (2 * qc), -bcb,
                          float(-2 * qc) * tau, tail_bound=tol * 1e-3)
        line = _line_sum(line_term, data.b_of(mu0, w) / (2 * qw),
                         2.0 * qw_f, y, tol * 1e-3)
        rhs -= rval * line
    return abs(total - rhs)
