"""Floating-point evaluation of the mock modular machinery: incomplete
Gaussian weights, Eichler integrals, indefinite theta functions of
signature (1,1), completions, and weight-1/2 transformation residuals.

Every sum gives (value, tail, rounding), its rounding by the one rule
that _theta_sum states: eps sum |t| (3 + k) over its terms t, k the
condition of t.  _theta_sum adds a Gaussian-damped sum over Z or Z^2 in
square rings |n|_inf = R up to the first past which a certified majorant
of the rest, its tail, is below the bound, or fails with ConvergenceError
before any term if there is none within its cap.  It sums the R-functions
of a completion's Eichler part, eta(2 tau), indefinite_theta and the test
suite's theta splitting identity.  series_value sums H_r at a point with
an empirical tail, at the order ``_eval_order`` gives for its tolerance
(at most 800).  The error figure `eval` prints, formed by _at_point, is
the tail and rounding of H_r, plus those of the Eichler part for a
completion; a value it cannot back is refused with a bare reason
(ConvergenceError, NumericsError), to which h_value adds tol and tau.
h_value and the checks refuse a tol not finite and > 0 before any sum.

Summing at tau itself needs an order of about 1/Im tau, so near a cusp
it hits that cap.  h_value, the evaluator of `eval`, therefore maps tau
into the fundamental domain in exact integers and, where that gamma is in
Gamma_0(N), N the order of the class, sums the completed pair (H_1, H_7)
there at a 40-term order and pulls it back through _law, the one
statement of the weight-1/2 law, with nu(gamma) from multiplier_matrix;
transform_check checks it.  Every other value is summed by _at_point
at the point it is given, and so is each side of the checks
(transform_check, tau1_identity_check), so a check stays independent of
the route it checks.  The two sums of H_r (series_value, _eichler_part)
sum at Re tau - round(Re tau), with the phase of the integer part from
each exponent; tau1_identity_check reduces Re tau mod DEN = 120.
"""

import cmath
import math
import sys
from collections import namedtuple

from .characters import (CLASS_2A, FAMILIES, GRAM_2A, GroupClass,
                         component_family, h_component)
from .qseries import DEN, QSeries

TWO_PI = 2.0 * math.pi
TWO_PI_I = 2j * math.pi
SQRT_PI = math.sqrt(math.pi)


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


# ----------------------------------------------------------------------
# series evaluation with an empirical tail certificate


def _im_upper(tau: complex) -> float:
    """Im tau, or NumericsError unless tau is a finite point of H."""
    if not (math.isfinite(tau.real) and 0 < tau.imag < math.inf):
        raise NumericsError("tau must lie in the upper half plane")
    return tau.imag


def _check_tol(tol: float) -> None:
    """NumericsError unless tol is a finite number > 0."""
    if not 0 < tol < math.inf:
        raise NumericsError(f"tol must be a finite number > 0, not {tol!r}")


def series_value(series: QSeries, tau: complex) -> tuple:
    """Sum a truncated exact series at q = e(tau): (value, tail_estimate,
    rounding) over the terms t_k = c_k exp(z_k), z_k = 2 pi i ((tau - n) e_k
    + m_k)/DEN, where n = round(Re tau), so tau - n is exact, and m_k = n
    e_k mod DEN in [-60, 60), in integers (no m_k is added if n = 0).  The
    tail estimate extrapolates the measured coefficient growth past the
    order; it is empirical, not a proof.  rounding is _theta_sum's rule,
    eps sum_k |t_k| (3 + 2 |z_k|), as t_k has the one factor exp(z_k).
    """
    y = _im_upper(tau)
    tau -= (n := round(tau.real))
    items = series.items()
    total, mass = 0.0 + 0.0j, 0.0
    try:
        for en, c in items:
            z = 2j * math.pi * tau * en / DEN
            if n:
                z += TWO_PI_I * ((en * n + DEN // 2) % DEN - DEN // 2) / DEN
            total += (term := float(c) * cmath.exp(z))
            mass += abs(term) * (3.0 + 2.0 * abs(z))
    except OverflowError:
        total = complex(math.inf)
    if not cmath.isfinite(total):
        raise NumericsError("the value overflows a double")
    rounding = sys.float_info.epsilon * mass
    absq = math.exp(-TWO_PI * y)
    order = series.top / DEN
    if not items:
        return total, absq ** order, rounding
    mags = [(en / DEN, abs(float(c))) for en, c in items[-9:]]
    tail_coeff = max(m for _, m in mags[-8:])
    growth = 1.0
    for (e1, m1), (e2, m2) in zip(mags[-9:-1], mags[-8:]):
        if m2 > m1:
            growth = max(growth, (m2 / m1) ** (1.0 / (e2 - e1)))
    if absq > 0.0:        # else |q|^order, and with it the tail, is 0.0
        growth = min(growth, 0.5 / absq)
    ratio = growth * absq
    est = tail_coeff * (absq ** order) * growth / max(1.0 - ratio, 0.5)
    return total, est, rounding


def _eval_order(y: float, tol: float) -> int:
    """Truncation order giving a dropped tail well below tol at Im = y."""
    # clamped before rounding: at a subnormal y the quotient is inf
    n = min((34.0 - math.log(tol)) / (TWO_PI * y), 800.0)
    return max(40, int(math.ceil(n / 20.0)) * 20)


# ----------------------------------------------------------------------
# R functions and Eichler integrals


def _theta_sum(term, rank: int, lam: float, wmax: float, y: float,
               tail_bound: float, near: float = 1.0) -> tuple:
    """(value, tail, rounding) of sum_{n in Z^rank} t_n, rank 1 or 2, in
    square rings |n|_inf = R, for term(*n) = (t_n, k_n) with |t_n| <= wmax
    exp(-a |s + n|^2), a = 2 pi y lam.

    Ring R' >= 1 has at most c(R') = 2 rank (2R' + 1)^(rank - 1) points,
    each with |s + n| >= R' - near: near >= |s| at rank 1, and near = 1
    (the default) at rank 2, s in [0, 1)^2.  These ring bounds fall ever
    faster, so with d = R + 1 - near the rest past ring R is at most tail
    = wmax c(R + 1) exp(-a d^2) / (1 - rho), rho = c(R + 2)/c(R + 1)
    exp(-a (2d + 1)).  A linear search before any term finds the first R
    <= cap (20000 for rank 1, a line sum; 801 for rank 2, a ring sum)
    where tail is below tail_bound, and the rings up to it are added; else
    ConvergenceError.  rounding = eps sum_n |t_n| (3 + k_n) is maass's one
    first-order rounding rule: 3 eps for the products and the sum, and
    the condition k_n, 2 |x f'(x)/f(x)| for two roundings of x in each
    factor f(x) of t_n: 2 |z| for exp(z), < 2 (2 x^2 + 1) for erfc(x >= 0).
    """
    a = TWO_PI * y * lam
    cap, what = (20000, "line sum") if rank == 1 else (801, "ring sum")
    for stop in range(cap + 1):
        c1 = 2 * rank * (2 * stop + 3) ** (rank - 1)      # c(stop + 1)
        c2 = 2 * rank * (2 * stop + 5) ** (rank - 1)      # c(stop + 2)
        d = stop + 1 - near
        rho = c2 / c1 * math.exp(-a * (2 * d + 1))
        if rho < 1.0 and (tail := wmax * c1 * math.exp(-a * d * d)
                          / (1.0 - rho)) < tail_bound:
            break
    else:
        raise ConvergenceError(
            f"{what} tail bound {tail_bound:g} not met by shell {cap}")
    mass = [0.0]

    def at(*n) -> complex:
        t, k = term(*n)
        mass[0] += abs(t) * (3.0 + k)
        return t

    total = at(*(0,) * rank)                            # ring 0
    for R in range(1, stop + 1):
        if rank == 1:
            total += at(R) + at(-R)
        else:
            pts = [p for i in range(-R, R + 1) for p in ((i, R), (i, -R))]
            pts += [p for j in range(-R + 1, R) for p in ((R, j), (-R, j))]
            for n1, n2 in pts:
                total += at(n1, n2)
    return total, tail, sys.float_info.epsilon * mass[0]


def r_function(a, b, tau: complex, tail_bound: float) -> tuple:
    """(value, tail, rounding) of R_{a,b}(tau) = sum_{nu in a+Z} sgn(nu)
    beta(2 nu^2 y) q^(-nu^2/2) e^(-2 pi i nu b), sgn(0) = 0, by _theta_sum.

    erfc(t) <= exp(-t^2) bounds each term by exp(-pi y nu^2), so
    _theta_sum certifies the tail with lam = 1/2 at s = a - round(a); the
    condition counts two exponentials and erfc(x), x^2 = 2 pi nu^2 y.
    """
    b = float(b)
    y = _im_upper(tau)
    s = float(a - round(a))

    def term(n: int) -> tuple:
        nu = s + n
        if nu == 0.0 or (w := beta_incomplete(2.0 * nu * nu * y)) == 0.0:
            return 0.0 + 0.0j, 0.0
        z1, z2 = -1j * math.pi * nu * nu * tau, -2j * math.pi * nu * b
        return math.copysign(1.0, nu) * w * cmath.exp(z1) * cmath.exp(z2), \
            2.0 * (abs(z1) + abs(z2) + 4.0 * math.pi * nu * nu * y + 1.0)

    return _theta_sum(term, 1, 0.5, 1.0, y, tail_bound, abs(s))


def _eichler_part(group_class: GroupClass, r: int, tau: complex,
                  tol: float) -> tuple[complex, float]:
    """(value, est) of sign chi sum_{s in family(r)} R_{s/60,0}(60 tau);
    (0, 0), summed nowhere, if chi = 0.  est is chi times the sum of the
    R-sums' tails (each asked below tol * 1e-12) and roundings and of the
    rounding of their phases, whose exponents have |z| <= pi.
    This is the Eichler integral of the shadow sign chi sum_s S_{30,s},
    scaled by 1/sqrt(60): its term c_n q^n (n = 30 nu^2, c_n = 60 nu, nu in
    s/60 + Z) gives c_n/sqrt(120 n) beta(4ny) q^(-n) = sgn(nu) beta(120 nu^2
    y) e(-30 nu^2 tau).  As 30 nu^2 is in s^2/120 + Z, each R is summed at
    tau - k, k = round(Re tau), times e(-k s^2/120), in integers mod 120."""
    if (chi := group_class.perm_character) == 0:
        return 0.0, 0.0
    family, sign = component_family(r)
    tau -= (k := round(tau.real))
    sums = [(e(((DEN // 2 - k * s * s) % DEN - DEN // 2) / DEN),
             r_function(s / 60, 0, 60.0 * tau, tol * 1e-12))
            for s in FAMILIES[family].members]
    total = sum(phase * value for phase, (value, _, _) in sums)
    return sign * chi * total, chi * sum(
        tail + rounding + sys.float_info.epsilon * abs(value) * (3 + TWO_PI)
        for _, (value, tail, rounding) in sums)


def _at_point(group_class: GroupClass, r: int, tau: complex, tol: float,
              completion: bool) -> tuple[complex, float]:
    """(value, est) of H_r(tau), or of its completion, summed at tau itself
    by the two sums, each reducing Re tau on its own.  The series is summed
    once, at the order _eval_order gives for tol, and must reach a tail
    estimate below tol, or below tol/5 for the completion, which adds the
    Eichler part: else ConvergenceError, and NumericsError if tol is below
    the double precision of the value.  est, the one error figure of eval,
    is the tail and rounding of the series, plus those of the Eichler part
    for the completion, and at least ulp(|value|): reported, not enforced."""
    y = _im_upper(tau)
    series = h_component(group_class, r, _eval_order(y, tol))
    value, tail, rounding = series_value(series, tau)
    if not tail < (tol / 5.0 if completion else tol):
        raise ConvergenceError(f"series truncation insufficient at Im {y}")
    if tol < (floor := sys.float_info.epsilon * abs(value)):
        raise NumericsError(f"below double precision: floor {floor:.1e} "
                            f"at a value of size {abs(value):.1e}")
    eichler, eichler_est = _eichler_part(group_class, r, tau, tol) \
        if completion else (0.0, 0.0)
    value += eichler
    return value, max(tail + rounding + eichler_est, math.ulp(abs(value)))


def _to_fundamental_domain(tau: complex) -> tuple:
    """(gamma, gamma tau, c tau + d) for gamma in SL2(Z) with gamma tau in
    the standard fundamental domain (|Re| <= 1/2, |tau| >= 1): T^(-round(Re))
    and, while |tau| < 1, S, applied alternately in integers, tau = (X +
    iY)/D exactly.  Each S raises Im gamma tau = y / |c tau + d|^2, which
    takes discrete values, so the loop ends.  Each part of the two complex
    numbers is correctly rounded (OverflowError past the doubles)."""
    (xn, xd), (yn, yd) = (tau.real.as_integer_ratio(),
                          tau.imag.as_integer_ratio())
    D = math.lcm(xd, yd)
    X, Y = xn * (D // xd), yn * (D // yd)
    a, b, c, d = 1, 0, 0, 1
    while True:
        u, v = c * X + d * D, c * Y           # D (c tau + d)
        m = u * u + v * v                     # D^2 |c tau + d|^2
        re = (a * X + b * D) * u + a * c * Y * Y   # m Re gamma tau
        n, rest = divmod(re, m)
        if 2 * rest > m or 2 * rest == m and n % 2:   # half to even
            n += 1
        a, b = a - n * c, b - n * d
        re -= n * m
        if re * re + (Y * D) ** 2 >= m * m:
            return (((a, b), (c, d)), complex(re / m, Y * D / m),
                    complex(u / D, v / D))
        a, b, c, d = -c, -d, a, b


def h_value(group_class: GroupClass, r: int, tau: complex, tol: float,
            completion: bool) -> tuple[complex, float]:
    """(value, est. error) of the component H_r of the class at tau,
    completed or not; the sums it calls reduce Re tau.

    Where gamma, with gamma tau in the fundamental domain F, lies in
    Gamma_0(N), N the order of the class, the pair is pulled back from F
    through the law of _law:

        Hhat(tau) = conj(phase) nu(gamma)^-1 (c tau + d)^(-1/2) Hhat(gamma tau)

    where Im gamma tau >= sqrt(3)/2 and a short series suffices at any Im
    tau.  gamma tau is formed in exact integers from the parsed doubles, so
    c tau + d loses no digits near a cusp.  Both components are summed at
    gamma tau to tol |c tau + d|^(1/2).  A row of the unitary nu^-1 maps
    their figures (e1, e7) to at most |(e1, e7)|, and nu's entries are
    good to 5 eps at |c| <= 10 and 19 eps at 1e12: the error at tau is
    (|(e1, e7)| + (12 + log2 |c|) eps |(Hhat_1, Hhat_7)|) / |c tau +
    d|^(1/2).  The series is the completion less its Eichler part at tau,
    a line sum of about Im(tau)^(-1/2) terms, whose figure it adds.  Near
    the other cusps, and for a translation gamma, _at_point sums H_r at
    tau and gives the error.  Either figure is at least ulp(|value|).
    Errors are reported, not enforced.  An overflow past the input checks
    becomes a NumericsError, and each is raised again as "<reason> (tol
    <tol> at tau = <tau>)", of its type.
    """
    if (rule := component_family(r)) is None:
        raise ValueError(f"component {r} is not in the support")
    family, sign = rule
    _im_upper(tau)
    _check_tol(tol)
    try:
        gamma, gtau, jac = _to_fundamental_domain(tau)
        # nu(T^n) is diagonal: sum H_r alone; the pair exits 3 if |H_1| > 4.5e6
        if gamma[1][0] == 0 or (law := _law(group_class, gamma)) is None:
            return _at_point(group_class, r, tau, tol, completion)
        nu, phase = law
        scale = math.sqrt(abs(jac))
        if tol * scale == 0.0:
            raise NumericsError("below double precision")
        hats, ests = zip(*(_at_point(group_class, s, gtau, tol * scale, True)
                           for s in FAMILIES))
        col = [*FAMILIES].index(family)
        value = sign * phase.conjugate() * (
            nu[0][col].conjugate() * hats[0]
            + nu[1][col].conjugate() * hats[1]) / cmath.sqrt(jac)
        if not cmath.isfinite(value):
            raise OverflowError
        est = (math.hypot(*ests) + (12 + gamma[1][0].bit_length())
               * sys.float_info.epsilon * math.hypot(*map(abs, hats))) / scale
        eichler, eichler_est = (0.0, 0.0) if completion \
            else _eichler_part(group_class, r, tau, tol)
        value -= eichler
        return value, max(est + eichler_est, math.ulp(abs(value)))
    except (OverflowError, NumericsError) as exc:
        if isinstance(exc, OverflowError):
            exc = NumericsError("the value overflows a double")
        raise type(exc)(f"{exc} (tol {tol} at tau = {tau})") from None


# ----------------------------------------------------------------------
# indefinite theta functions of signature (1,1)


class IndefThetaData(namedtuple("IndefThetaData", "A a b c1 c2")):
    """Quadratic form data (A; a, b; c1, c2) for the two-sided theta: A
    ((int, int), (int, int)), symmetric of signature (1,1); a and b
    2-vectors of characteristics, as int numerators over DEN = 120, with a
    read mod Z^2; c1 and c2 integer cone vectors in the same negative
    component."""

    __slots__ = ()

    def a_times(self, v) -> tuple:
        """A v, exact for integer v."""
        (a00, a01), (a10, a11) = self.A
        return (a00 * v[0] + a01 * v[1], a10 * v[0] + a11 * v[1])

    def b_of(self, u, v):
        """B(u, v), exact for integer u and v; 2Q(v) = B(v, v)."""
        av = self.a_times(v)
        return u[0] * av[0] + u[1] * av[1]

    def validate(self) -> None:
        A = self.A
        for name, v in zip(self._fields, ((*A[0], *A[1]), *self[1:])):
            for x in v:
                if type(x) is not int:
                    raise NumericsError(f"entry {x!r} of {name} is not an int")
        if A[0][1] != A[1][0]:
            raise NumericsError("A must be symmetric")
        det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
        if det >= 0:
            raise NumericsError("A must have signature (1,1)")
        for c in (self.c1, self.c2):
            if self.b_of(c, c) >= 0:
                raise NumericsError(f"cone vector {c} must have Q(c) < 0")
        if self.b_of(self.c1, self.c2) >= 0:
            raise NumericsError("c1 and c2 must lie in the same component")


def _pd_lambda_min(data: IndefThetaData, c) -> float:
    """Smallest eigenvalue of M_c(x) = Q(x) - B(c,x)^2 / (2 Q(c)), the
    positive-definite majorant controlling the same-sign terms.

    M_c = ((p, r), (r, t)) has int numerators P, R, T over 2 B(c, c); its
    smallest eigenvalue is (p + t - hypot(p - t, 2r)) / 2.
    """
    (a00, a01), (_, a11) = data.A
    ac0, ac1 = data.a_times(c)
    q2 = data.b_of(c, c)              # 2 Q(c)
    P, R, T = (a00 * q2 - 2 * ac0 * ac0, a01 * q2 - 2 * ac0 * ac1,
               a11 * q2 - 2 * ac1 * ac1)
    lam = ((P + T) / (2 * q2) - math.hypot((P - T) / (2 * q2), R / q2)) / 2.0
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
    q1, q2, b12 = data.b_of(w1, w1), data.b_of(w2, w2), data.b_of(w1, w2)
    if q1 <= 0 or q2 <= 0 or (b12 < 0 and b12 * b12 >= q1 * q2):
        raise NumericsError("cone walls admit non-positive vectors")
    return min(q1 / (2 * (w1[0] ** 2 + w1[1] ** 2)),
               q2 / (2 * (w2[0] ** 2 + w2[1] ** 2)))


def _theta_term(data: IndefThetaData, tau: complex, weight):
    """n -> (w exp(z), m/|w| + 2 |z|), z = 2 pi i (Q(nu) tau + B(nu, b)),
    nu = a + n, for weight(n) = (w, m), m the first-order error of w in
    units of eps; (0, 0) if w is 0.  a and b are numerators over DEN."""
    (a00, a01), (_, a11) = data.A
    a0, a1 = data.a[0] / DEN, data.a[1] / DEN
    ab0, ab1 = (x / DEN for x in data.a_times(data.b))

    def term(n1: int, n2: int) -> tuple:
        if (w := weight(n1, n2))[0] == 0.0:
            return 0.0 + 0.0j, 0.0
        nu0, nu1 = a0 + n1, a1 + n2
        qnu = 0.5 * (a00 * nu0 * nu0 + 2 * a01 * nu0 * nu1 + a11 * nu1 * nu1)
        z = TWO_PI_I * (qnu * tau + nu0 * ab0 + nu1 * ab1)
        return w[0] * cmath.exp(z), w[1] / abs(w[0]) + 2.0 * abs(z)

    return term


def _wall_coordinate(data: IndefThetaData, c, y: float):
    """n -> x = sqrt(pi) B(c, nu) sqrt(y)/sqrt(-Q(c)) for nu = a + n, so
    that E(B(c,nu) sqrt(y)/sqrt(-Q(c))) = erf(x).  B(c, nu) is formed from
    an integer numerator, so x is exactly 0 on the wall B(c, nu) = 0.
    """
    ac0, ac1 = data.a_times(c)
    bca = data.b_of(c, data.a)
    g = math.gcd(bca, DEN)
    p, d = bca // g, DEN // g
    k = SQRT_PI * math.sqrt(y / (-data.b_of(c, c) / 2)) / d
    return lambda n1, n2: k * (p + d * (ac0 * n1 + ac1 * n2))


def indefinite_theta(data: IndefThetaData, tau: complex,
                     tail_bound: float) -> complex:
    """The two-sided weighted theta sum

        sum_{nu in a+Z^2} [E(B(c1,nu) sqrt(y)/sqrt(-Q(c1)))
                           - E(B(c2,nu) sqrt(y)/sqrt(-Q(c2)))]
            q^Q(nu) e(B(nu, b))

    with E(z) = sgn(z)(1 - beta(z^2)) = erf(sqrt(pi) z), summed over
    expanding square rings with a certified tail: same-sign terms decay
    like exp(-2 pi y M_c(nu)) with M_c positive definite, and the
    sign-changing wedge carries exp(-2 pi y Q(nu)) with Q positive there,
    so every ring past the stopping radius is provably negligible.
    On same-sign terms the weight is taken as a difference of erfc values,
    not of erf values near +-1, so no rounding error is blown up by a
    large |q^Q(nu)|.  The sum depends on a only mod Z^2, so a is reduced
    mod DEN first, into the offsets [0, 1)^2 that _theta_sum certifies.
    """
    data.validate()
    data = data._replace(a=tuple(x % DEN for x in data.a))
    y = _im_upper(tau)
    x1 = _wall_coordinate(data, data.c1, y)
    x2 = _wall_coordinate(data, data.c2, y)

    def weight(n1: int, n2: int) -> tuple:
        z1, z2 = x1(n1, n2), x2(n1, n2)
        if z1 * z2 > 0:
            d = (f2 := math.erfc(abs(z2))) - (f1 := math.erfc(abs(z1)))
            return (d if z1 > 0 else -d), \
                f1 * (4 * z1 * z1 + 2) + f2 * (4 * z2 * z2 + 2)
        return (w := math.erf(z1) - math.erf(z2)), 2.0 * abs(w)

    lam = min(_pd_lambda_min(data, data.c1), _pd_lambda_min(data, data.c2),
              _wedge_lambda_min(data))
    return _theta_sum(_theta_term(data, tau, weight), 2, lam, 2.0, y,
                      tail_bound)[0]


# ----------------------------------------------------------------------
# the trace-function completion identity (order-2 class)

def order2_theta_data(r: int) -> IndefThetaData:
    """The printed cone data for the order-2 class: a = (c/10, c/10) with
    c the coset of the family's trace, 1 for r = 1 and 3 for r = 7, and
    b = (3/20, -1/10), as numerators over 120."""
    if r not in FAMILIES:
        raise NumericsError("component must be 1 or 7")
    a = (12 * FAMILIES[r].coset_a,) * 2
    return IndefThetaData(GRAM_2A, a, (18, -12), (-1, 4), (-2, 3))


def tau1_identity_check(tau: complex, r: int, tol: float) -> float:
    """Residual of the completion identity for the order-2 trace:

        -e(-a/10) theta(tau) / eta(2 tau)
            = 2 T(2A, r) + e(-c1/60) R_{c1/30,-1/2}(15 tau)
                         + e(-c2/60) R_{c2/30,-1/2}(15 tau)

    with (a, c1, c2) = (1, 1, 11) for r = 1 and (3, 13, 23) for r = 7, a
    the coset of the family's trace.  The R-terms equal sum_{s in
    family(r)} R_{s/60,0}(60 tau), the certified Eichler part of the
    completion _at_point sums, which gives the right side.  The printed minus
    signs on the R-terms are a typo: both routes give plus.

    eta(2 tau) = e(-1/12) sum_{nu in 1/6+Z} e(nu/2 + 3 nu^2 tau) is summed
    by _theta_sum with lam = 3, as |q^(3 nu^2)| = exp(-6 pi y nu^2), to a
    certified tail below tol * 1e-12, the ratio _eichler_part uses.  Re
    tau is reduced mod DEN = 120 for theta and eta(2 tau), of periods 40
    (Q(nu) in 3c^2/40 + Z) and 12; the completion's sums reduce their own.
    """
    data = order2_theta_data(r)
    y = _im_upper(tau)
    _check_tol(tol)
    tau = complex(math.fmod(tau.real, DEN), y)
    theta_val = indefinite_theta(data, tau, tail_bound=tol * 1e-3)

    def eta_term(n: int) -> tuple:
        z = 1j * math.pi * (nu := 1 / 6 + n) * (1.0 + 6.0 * nu * tau)
        return cmath.exp(z), 2.0 * abs(z)

    eta_val = e(-1 / 12) * _theta_sum(eta_term, 1, 3.0, 1.0, y, tol * 1e-12,
                                      1 / 6)[0]
    lhs = -e(-FAMILIES[r].coset_a / 10) * theta_val / eta_val
    return abs(lhs - _at_point(CLASS_2A, r, tau, tol / 10.0, True)[0])


# ----------------------------------------------------------------------
# weight-1/2 multiplier system and transformation residuals


def nu_T(n: int) -> tuple:
    """nu(T^n) on (H_1, H_7), the diagonal of e(n lead/120) over the leading
    exponents of the families, reduced mod 120 in integers, as the tuple
    ((a, b), (c, d)) of complex numbers."""
    d1, d7 = (e(-(-f.lead * n % DEN) / DEN) for f in FAMILIES.values())
    return ((d1, 0j), (0j, d7))


def nu_S() -> tuple:
    """nu(S) on (H_1, H_7), the printed sine matrix ((p, q), (q, -p)) with
    p, q = e(3/8)/sqrt(15) sum_s sin(pi s/30) over each family's residues."""
    k = e(3 / 8) / math.sqrt(15.0)
    p, q = (k * sum(math.sin(math.pi * s / 30) for s in f.members)
            for f in FAMILIES.values())
    return ((p, q), (q, -p))


def _mat_mul(p, q):
    return ((p[0][0] * q[0][0] + p[0][1] * q[1][0],
             p[0][0] * q[0][1] + p[0][1] * q[1][1]),
            (p[1][0] * q[0][0] + p[1][1] * q[1][0],
             p[1][0] * q[0][1] + p[1][1] * q[1][1]))


def multiplier_matrix(gamma) -> tuple:
    """nu(gamma) for the metaplectic lift of gamma carrying the principal
    branch of (c tau + d)^(1/2), as the tuple ((a, b), (c, d)) of complex
    numbers; gamma must have int entries and determinant 1.

    One Euclid pass writes gamma = T^n S gamma' and multiplies nu(T^n)
    nu(S) onto the product, a power T^n costing one diagonal, nu_T(n).
    n is a / c rounded to the nearer integer, ties to the floor, so |c|
    halves per step; the floor quotient takes |c| steps on ((-1, 0), (c, -1)).
    The product is the multiplier of the product of the generator lifts;
    its sign against the principal branch is Kubota's integer cocycle:
    sigma(S, gamma') = -1 exactly when x(gamma') > 0 > c, where x(g) is
    the lower-left entry of g, or its lower-right entry when that is 0.
    The base case S^2 T^(-b) = -T^(-b) (a = d = -1) lifts to -1 times
    Kubota's section, and c = 0 > d flips once more, as that section takes
    sqrt(d) = -i sqrt(|d|) and the principal branch +i sqrt(|d|).  The
    sign is the image of the nontrivial deck element, consistent with
    nu(S)^2 = (nu(S) nu(T))^3 = e(-1/4) Id.
    """
    for x in (*gamma[0], *gamma[1]):
        if type(x) is not int:
            raise NumericsError(f"entry {x!r} of gamma is not an int")
    (a, b), (c, d) = gamma
    if a * d - b * c != 1:
        raise NumericsError("matrix must have determinant 1")
    sign = -1 if c == 0 > d else 1
    prod, s = ((1.0, 0j), (0j, 1.0)), nu_S()
    while c != 0:
        n = a // c
        if 2 * abs(a - n * c) > abs(c):
            n += 1
        c2, d2 = n * c - a, n * d - b      # the bottom row of gamma'
        if (c2 or d2) > 0 > c:
            sign = -sign
        prod = _mat_mul(_mat_mul(prod, nu_T(n)), s)
        (a, b), (c, d) = (c, d), (c2, d2)
    if a == -1:
        prod, b, sign = _mat_mul(_mat_mul(prod, s), s), -b, -sign
    prod = _mat_mul(prod, nu_T(b))
    return prod if sign > 0 else tuple(tuple(-x for x in row) for row in prod)


def _law(group_class: GroupClass, gamma):
    """(nu, phase) with (c tau + d)^(-1/2) H(gamma tau) = phase nu(gamma)
    H(tau) on the class's completed pair H = (H_1, H_7), or None off
    Gamma_0(order): nu from multiplier_matrix (which checks gamma), phase
    1 but at order 3, where e(cd/9), cd reduced mod 9 in integers, enters
    conjugated in this orientation (the T and Gamma_0(3) checks pin it)."""
    nu, (c, d) = multiplier_matrix(gamma), gamma[1]
    if c % group_class.order != 0:
        return None
    return nu, e(c * d % 9 / 9).conjugate() if group_class.order == 3 else 1.0


def transform_check(group_class: GroupClass, gamma, tau: complex,
                    tol: float) -> float:
    """Residual of the law of _law at gamma in Gamma_0(order), each side
    its completion summed at its own point by _at_point."""
    if (law := _law(group_class, gamma)) is None:
        raise NumericsError(f"gamma is not in Gamma_0({group_class.order})")
    _check_tol(tol)
    nu, phase = law
    (a, b), (c, d) = gamma
    gtau = (a * tau + b) / (c * tau + d)
    h1, h7 = (_at_point(group_class, r, tau, tol / 10.0, True)[0]
              for r in FAMILIES)
    jac = cmath.sqrt(c * tau + d)
    return max(abs(_at_point(group_class, r, gtau, tol / 10.0, True)[0]
                   / jac - phase * (row[0] * h1 + row[1] * h7))
               for r, row in zip(FAMILIES, nu))
