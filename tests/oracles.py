"""Independent brute-force oracles for the exact-series, shadow and
multiplier tests (a word product, and the Weil representation's Gauss
sums), the certified summers as they were first written, and a 40-digit
decimal summer of a q-series at a point.

Deliberately self-contained: plain dict polynomials over Fraction, plain
2x2 tuples and plain loops of complex exponentials, with no imports from
the package, so the expected values frozen into the tests come from a
second computational path.
"""

import cmath
import decimal
import itertools
import math
from fractions import Fraction


def same_up_to(a, b, order) -> bool:
    """Whether two series agree to order: a and b are anything with the
    first_difference method of the package's series."""
    return a.first_difference(b, order) is None


def valuation(s):
    """The lowest exponent with a nonzero coefficient of a series (anything
    with the coeffs map over 120 and the order of the package's series),
    or its order when it has none: an empty truncated series certifies
    only that its valuation is past its order."""
    return Fraction(min(s.coeffs), 120) if s.coeffs else s.order


def poly_mul(a: dict, b: dict, order: int) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if e > order:
                continue
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def poly_inv(a: dict, order: int) -> dict:
    """Inverse of a polynomial with a(0) = nonzero constant term."""
    c0 = a[0]
    out = {0: 1 / c0}
    for e in range(1, order + 1):
        acc = Fraction(0)
        for ea, ca in a.items():
            if 0 < ea <= e:
                acc += ca * out.get(e - ea, Fraction(0))
        v = -acc / c0
        if v:
            out[e] = v
    return out


def partition_counts(n_max: int) -> list:
    """p(0..n_max) by coin-style dynamic programming."""
    p = [0] * (n_max + 1)
    p[0] = 1
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            p[n] += p[n - part]
    return p


def pentagonal_series(order: int) -> dict:
    """sum_k (-1)^k q^(k(3k-1)/2) over all integers k."""
    out = {}
    k = 0
    while True:
        hit = False
        for kk in (k, -k) if k else (0,):
            e = kk * (3 * kk - 1) // 2
            if e <= order:
                out[e] = out.get(e, Fraction(0)) + (-1) ** (kk % 2)
                hit = True
        if not hit:
            return {e: c for e, c in out.items() if c}
        k += 1


def eta_quotient_oracle(powers, n: int) -> dict:
    """prod_k (q^k; q^k)_inf^m over the (k, m) pairs powers, to q^n, as
    {exponent: Fraction}: one pentagonal sum per factor, multiplied out
    term by term, and one inversion of the denominators' product."""
    if n < 0:
        return {}
    top, bottom = {0: Fraction(1)}, {0: Fraction(1)}
    for k, m in powers:
        euler = {k * e: c for e, c in pentagonal_series(n // k).items()}
        for _ in range(abs(m)):
            if m > 0:
                top = poly_mul(top, euler, n)
            else:
                bottom = poly_mul(bottom, euler, n)
    return poly_mul(top, poly_inv(bottom, n), n)


def finite_pochhammer(x_shift: int, sign: int, step: int, n: int,
                      order: int) -> dict:
    """prod_{k<n} (1 - sign * q^(x_shift + k step)) as a dict polynomial."""
    acc = {0: Fraction(1)}
    for k in range(n):
        acc = poly_mul(acc, {0: Fraction(1),
                             x_shift + k * step: Fraction(-sign)}, order)
    return acc


def ramanujan_oracle(name: str, order: int) -> dict:
    """Direct term-by-term summation of the fifth-order series."""
    total = {}
    n = 0
    while True:
        if name == "chi0":
            val, term = n, poly_mul({n: Fraction(1)},
                                    poly_inv(finite_pochhammer(n + 1, 1, 1, n,
                                                               order), order),
                                    order)
        elif name == "chi1":
            val, term = n, poly_mul({n: Fraction(1)},
                                    poly_inv(finite_pochhammer(n + 1, 1, 1,
                                                               n + 1, order),
                                             order), order)
        elif name == "F0":
            val = 2 * n * n
            term = poly_mul({val: Fraction(1)},
                            poly_inv(finite_pochhammer(1, 1, 2, n, order),
                                     order), order)
        elif name == "F1":
            val = 2 * n * (n + 1)
            term = poly_mul({val: Fraction(1)},
                            poly_inv(finite_pochhammer(1, 1, 2, n + 1, order),
                                     order), order)
        elif name == "phi0":
            val = n * n
            term = poly_mul({val: Fraction(1)},
                            finite_pochhammer(1, -1, 2, n, order), order)
        elif name == "phi1":
            val = (n + 1) * (n + 1)
            term = poly_mul({val: Fraction(1)},
                            finite_pochhammer(1, -1, 2, n, order), order)
        else:
            raise ValueError(name)
        if val > order:
            return {e: c for e, c in total.items() if c}
        for e, c in term.items():
            if e <= order:
                total[e] = total.get(e, Fraction(0)) + c
        n += 1


# ----------------------------------------------------------------------
# the thetanullwerte exponent-class scan


def nullwerte_scan(base: int, targets) -> tuple:
    """(hits, pairs) of the scan of theta0_{n,r}, n | base, 0 <= r < 2n,
    for exponent classes t/120 mod 1 (t in targets), straight from the
    definition: every exponent (2kn + r)^2/4n over a full period of k mod
    2n, reduced mod 1 as a Fraction.  A hit is (n, r, t)."""
    hits, pairs = [], 0
    for n in range(1, base + 1):
        if base % n:
            continue
        for r in range(2 * n):
            pairs += 1
            classes = {Fraction((2 * k * n + r) ** 2, 4 * n) % 1
                       for k in range(2 * n)}
            hits += [(n, r, t) for t in targets
                     if Fraction(t, 120) % 1 in classes]
    return tuple(hits), pairs


# ----------------------------------------------------------------------
# signed octant sums


def octant_box_sum(gram, lin, shift, signs, negative_sign, cap,
                   parity=None) -> dict:
    """(sum_{x >= 0} + negative_sign * sum_{x < 0}) (-1)^(signs.x)
    q^((x.gram.x + lin.x)/2 + shift) over the x with parity.x even (all x
    without parity), up to q^cap, as {120 * exponent: coefficient}.

    Brute force over a box per octant.  In one octant x_i x_j >= 0, so for
    a non-negative gram with diagonal >= 1, x.gram.x >= sum x_i^2, and
    lin.x >= -L sum |x_i| with L the largest of the entries of lin that
    lower it there.  Each x_i^2 - L |x_i| is at least -L^2/4, so a point
    below the cap has x_j^2 - L |x_j| <= R + n L^2/4 with R = 2 (cap -
    shift), and |x_j| <= L + sqrt(R + n L^2) bounds the box.
    """
    n = len(lin)
    room = math.floor(2 * (Fraction(cap) - Fraction(shift)))
    out = {}
    for weight, side in ((1, 1), (negative_sign, -1)):
        big = max(0, *(-side * l for l in lin))
        bound = big + math.isqrt(max(room, 0) + n * big * big) + 1
        box = range(0, bound + 1) if side == 1 else range(-bound, 0)
        for x in itertools.product(box, repeat=n):
            value = sum(gram[i][j] * x[i] * x[j]
                        for i in range(n) for j in range(n)) + \
                sum(l * t for l, t in zip(lin, x))
            if value > room or \
                    (parity and sum(p * t for p, t in zip(parity, x)) % 2):
                continue
            e = (Fraction(value, 2) + Fraction(shift)) * 120
            assert e.denominator == 1, "exponent off the grid 1/120"
            sign = -weight if sum(s * t for s, t in zip(signs, x)) % 2 \
                else weight
            out[int(e)] = out.get(int(e), 0) + sign
    return {e: c for e, c in out.items() if c}


def closed_form_oracle(form, order) -> dict:
    """{120 * exponent: coefficient} up to q^order of a closed form, its
    fields by position as in ``characters.ClosedForm``: the eta quotient
    of powers (``eta_quotient_oracle``) times the octant sum of the other
    fields (``octant_box_sum``, the shift a numerator over 120), multiplied
    out term by term over Fractions.  With powers = () it is the bare
    octant sum."""
    powers, gram, lin, signs, negative_sign, shift, parity = form
    box = octant_box_sum(gram, lin, Fraction(shift, 120), signs,
                         negative_sign, order, parity)
    if not box:
        return {}
    top = math.floor(120 * Fraction(order))
    quotient = eta_quotient_oracle(powers, (top - min(box)) // 120)
    out = poly_mul(box, {120 * e: c for e, c in quotient.items()}, top)
    assert all(c.denominator == 1 for c in out.values())
    return {e: int(c) for e, c in out.items()}


# ----------------------------------------------------------------------
# the signature-(1,2) lattice of the cone modules, in basis coordinates

GRAM = ((1, 2, 2), (2, 1, 2), (2, 2, 1))
RHO = (Fraction(1, 5), Fraction(1, 5), Fraction(1, 5))


def pair(u, v) -> Fraction:
    """Bilinear form <u, v> in basis coordinates."""
    return sum((Fraction(u[i]) * GRAM[i][j] * Fraction(v[j])
                for i in range(3) for j in range(3)), Fraction(0))


def q_norm(u) -> Fraction:
    return pair(u, u) / 2


def cone_mu(coords, a) -> tuple:
    """The vector mu = coords + (a/10)(1, 1, 1) of a point of L + a rho/2."""
    s = Fraction(a, 10)
    return tuple(c + s for c in coords)


# ----------------------------------------------------------------------
# weight-3/2 unary thetas and the shadows of the H_g

# the E8 Coxeter exponents mod 60, by component family (1, then 7)
FAMILIES = ((1, 11, 19, 29), (7, 13, 17, 23))


def unary_theta(m: int, r: int, order) -> dict:
    """S_{m,r} = sum_k (2km + r) q^((2km+r)^2/4m) up to q^order, as
    {Fraction exponent: int coefficient}."""
    out = {}
    bound = math.isqrt(max(math.floor(4 * m * order), 0)) + 1
    for v in range(-bound, bound + 1):
        e = Fraction(v * v, 4 * m)
        if (v - r) % (2 * m) == 0 and e <= order:
            out[e] = out.get(e, 0) + v
    return {e: c for e, c in out.items() if c}


def shadow(chi: int, r: int, order) -> dict:
    """The shadow of H_r for a class of permutation character chi:
    chi times the sum of S_{30,s} over the family of r mod 60, negated
    when -r is in the family, and {} off the support."""
    for family in FAMILIES:
        for sign in (1, -1):
            if sign * r % 60 in family:
                out = {}
                for s in family:
                    for e, c in unary_theta(30, s, order).items():
                        out[e] = out.get(e, 0) + sign * chi * c
                return {e: c for e, c in out.items() if c}
    return {}


def g_value(a, b, z: complex) -> complex:
    """g_{a,b}(z) = sum_{nu in a+Z} nu e^(pi i nu^2 z + 2 pi i nu b),
    summed outward from nu = a; it stops at n once d = n - |a| >= 1 and
    d e^(-pi Im(z) d^2) < 1e-30, a bound on every later term."""
    a, b = float(a), float(b)
    total, n = 0j, 0
    while True:
        for nu in ((a,) if n == 0 else (a + n, a - n)):
            total += nu * cmath.exp(1j * math.pi * (nu * nu * z + 2 * nu * b))
        d = n - abs(a)
        if d >= 1 and d * math.exp(-math.pi * z.imag * d * d) < 1e-30:
            return total
        n += 1


# ----------------------------------------------------------------------
# the weight-1/2 multiplier on (H_1, H_7), one generator at a time


def _e(x) -> complex:
    return cmath.exp(2j * math.pi * float(x))


def _mul2(p, q):
    (a, b), (c, d) = p
    (w, x), (y, z) = q
    return ((a * w + b * y, a * x + b * z), (c * w + d * y, c * x + d * z))


def multiplier_by_tokens(gamma) -> tuple:
    """nu(gamma) as the product of nu(S), nu(T) and nu(T)^-1 over the word
    of gamma spelled one T at a time, with Kubota's sign: a T^n S on the
    left of gamma' flips it when x(gamma') > 0 > c (x the lower-left entry,
    or the lower-right one when that is 0), the base case -T^m flips it,
    and c = 0 > d flips it once more for the principal branch."""
    k = 2.0 * _e(Fraction(3, 8)) / math.sqrt(15.0)
    p = k * (math.sin(math.pi / 30) + math.sin(11 * math.pi / 30))
    q = k * (math.sin(7 * math.pi / 30) + math.sin(13 * math.pi / 30))
    gen = {"S": ((p, q), (q, -p)),
           "T": ((_e(Fraction(-1, 120)), 0j), (0j, _e(Fraction(-49, 120)))),
           "T-": ((_e(Fraction(1, 120)), 0j), (0j, _e(Fraction(49, 120))))}

    def t_power(n):
        return ["T"] * n if n >= 0 else ["T-"] * (-n)

    def word(g):
        (a, b), (c, d) = g
        if c == 0:
            return (t_power(b), 1) if a == 1 else \
                (["S", "S"] + t_power(-b), -1)
        n = a // c
        c2, d2 = n * c - a, n * d - b
        rest, sign = word(((c, d), (c2, d2)))
        if (c2 or d2) > 0 > c:
            sign = -sign
        return t_power(n) + ["S"] + rest, sign

    tokens, sign = word(gamma)
    c, d = gamma[1]
    if c == 0 > d:
        sign = -sign
    prod = ((complex(sign), 0j), (0j, complex(sign)))
    for tok in tokens:
        prod = _mul2(prod, gen[tok])
    return prod


def _e_ratio(num: int, den: int) -> complex:
    """e(num/den), the numerator reduced mod den in integers first."""
    return cmath.exp(2j * math.pi * ((num % den) / den))


def multiplier_by_weil(gamma) -> tuple:
    """nu(gamma) as the conjugate of the Weil representation carried by
    the unary thetas S_{30,s} of the shadow (Eichler-Zagier, The Theory of
    Jacobi Forms, section 5), with no word, generator or cocycle.

    For c > 0 the theta theta_{30,s} transforms under gamma by the Gauss
    sum U_{r,s} = e(-1/8)/sqrt(60c) sum_{n = r mod 60, 0 <= n < 60c}
    e((a n^2 - 2 n s + d s^2)/(120c)), and S_{30,s} is odd in s, so
    nu_ij = sum_{s in F_j} [conj U_{r_i,s} - conj U_{r_i,-s mod 60}] with
    r = (1, 7), F_1 = {1, 11, 19, 29} and F_2 = {7, 13, 17, 23}.  For
    c < 0, nu(gamma) = i nu(-gamma), the principal root of c tau + d being
    i times that of -(c tau + d).  For c = 0, gamma = d T^(bd) with
    d = +-1, and nu is the T-power's diagonal (e(-bd/120), e(-49bd/120)),
    times -i when d = -1 (the principal root of -1).  Every exponent is
    reduced mod its denominator in integers before it is divided."""
    (a, b), (c, d) = gamma
    if c < 0:
        return tuple(tuple(1j * x for x in row)
                     for row in multiplier_by_weil(((-a, -b), (-c, -d))))
    if c == 0:
        k = 1.0 if d == 1 else -1j
        return ((k * _e_ratio(-b * d, 120), 0j),
                (0j, k * _e_ratio(-49 * b * d, 120)))
    m = 120 * c
    pre = _e_ratio(-1, 8) / math.sqrt(60 * c)

    def u(r, s):
        return pre * sum(_e_ratio(a * n * n - 2 * n * s + d * s * s, m)
                         for n in range(r, 60 * c, 60))

    families = ((1, 11, 19, 29), (7, 13, 17, 23))
    return tuple(tuple(sum(u(r, s).conjugate() - u(r, -s % 60).conjugate()
                           for s in family) for family in families)
                 for r in (1, 7))


# ----------------------------------------------------------------------
# the certified summer as a loop that tests its tail after each ring


def theta_sum_loop(term, rank: int, lam: float, wmax: float, y: float,
                   tail_bound: float, near: float = 1.0) -> complex:
    """sum_{n in Z^rank} term(*n), rank 1 or 2, ring |n|_inf = R after
    ring, until after ring R the rest bound wmax c(R + 1) exp(-a d^2) /
    (1 - rho) is below tail_bound, with c(R) = 2 rank (2R + 1)^(rank - 1),
    a = 2 pi y lam, d = R + 1 - near (near the offset of a rank-1 sum, 1
    for rank 2) and rho = c(R + 2)/c(R + 1) exp(-a (2d + 1)) < 1;
    RuntimeError past ring 20000 (rank 1) or 801 (rank 2)."""
    a = 2.0 * math.pi * y * lam
    cap = 20000 if rank == 1 else 801
    total = 0.0 + 0.0j
    R = 0
    while True:
        if R == 0:
            total += term(*(0,) * rank)
        elif rank == 1:
            total += term(R) + term(-R)
        else:
            pts = [p for i in range(-R, R + 1) for p in ((i, R), (i, -R))]
            pts += [p for j in range(-R + 1, R) for p in ((R, j), (-R, j))]
            for n in pts:
                total += term(*n)
        c1, c2 = (2 * rank * (2 * k + 1) ** (rank - 1) for k in (R + 1, R + 2))
        d = R + 1 - near
        rho = c2 / c1 * math.exp(-a * (2 * d + 1))
        if rho < 1.0 and \
                wmax * c1 * math.exp(-a * d * d) / (1.0 - rho) < tail_bound:
            return total
        if R >= cap:
            raise RuntimeError("theta sum tail bound not met")
        R += 1


# ----------------------------------------------------------------------
# a q-series at a point, to 40 digits


PI_50 = "3.1415926535897932384626433832795028841971693993751"


def _decimal_cis(turns: Fraction) -> tuple:
    """(cos, sin) of 2 pi turns as Decimals in the current context: turns
    is reduced mod 1 in exact rationals into [-1/2, 1/2], and each of cos
    and sin is a Taylor series in the reduced angle, |angle| <= pi, whose
    60 terms leave pi^60/60! < 1e-51."""
    D = decimal.Decimal
    turns -= round(turns)
    angle = 2 * D(PI_50) * D(turns.numerator) / D(turns.denominator)
    cos, sin, term = D(0), D(0), D(1)
    for n in range(60):
        if n % 2 == 0:
            cos += term if n % 4 == 0 else -term
        else:
            sin += term if n % 4 == 1 else -term
        term = term * angle / (n + 1)
    return cos, sin


def decimal_series_value(items, tau: complex, den: int = 120) -> complex:
    """sum_k c_k q^(e_k/den) at q = e(tau), tau read exactly from its
    doubles, in 40-digit decimal arithmetic; items are (e_k, c_k) pairs,
    c_k int or Fraction.  u = q^(1/den) is exp(-2 pi y/den), one
    Decimal.exp, times _decimal_cis(x/den); each q^(e_k/den) is the
    previous one times u^(e_k - e_(k-1)), itself a power of u by repeated
    squaring, and only the sum is rounded to a double."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        D = decimal.Decimal
        cos, sin = _decimal_cis(Fraction(tau.real) / den)
        mod = (-2 * D(PI_50) * D(tau.imag) / den).exp()
        u = (mod * cos, mod * sin)

        def mul(p, q):
            return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])

        def power(z, n):
            if n < 0:                     # 1/z = conj(z)/|z|^2
                norm = z[0] * z[0] + z[1] * z[1]
                z, n = (z[0] / norm, -z[1] / norm), -n
            out = (D(1), D(0))
            while n:
                if n & 1:
                    out = mul(out, z)
                z, n = mul(z, z), n >> 1
            return out

        re = im = D(0)
        at, w, step = 0, (D(1), D(0)), power(u, den)
        for e, c in items:            # increasing e, mostly den apart
            w = mul(w, step if e - at == den else power(u, e - at))
            at, c = e, D(c.numerator) / D(c.denominator)
            re, im = re + c * w[0], im + c * w[1]
        return complex(float(re), float(im))


def decimal_erfc(x):
    """erfc(x) for a Decimal x >= 0, to 40 digits, computed at 60.  Up to
    x = 3, 1 - erf(x) with erf(x) = 2 x exp(-x^2)/sqrt(pi) sum_n (2x^2)^n
    / (1 3 ... (2n+1)), a sum of positive terms taken until they fall
    below 1e-65 of it; 1 - erf loses at most 5 digits there.  Past 3, the
    continued fraction exp(-x^2)/sqrt(pi) / (x + (1/2)/(x + (2/2)/(x +
    (3/2)/(x + ...)))), evaluated from depth 300 back, where its error is
    below 1e-50 at x = 3 and falls with x."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x = D(x)
        root_pi = D(PI_50).sqrt()
        if x <= 3:
            total, term, n = D(0), D(1), 0
            while term > total * D("1e-65"):
                total += term
                n += 1
                term = term * 2 * x * x / (2 * n + 1)
            out = 1 - 2 * x * (-x * x).exp() / root_pi * total
        else:
            frac = x
            for k in range(300, 0, -1):
                frac = x + D(k) / 2 / frac
            out = (-x * x).exp() / root_pi / frac
    return +out                      # rounded to the caller's precision


def decimal_eichler_value(chi: int, r: int, tau: complex) -> complex:
    """The Eichler part of the completion of H_r for a class of permutation
    character chi, chi sign sum_{s in family} R_{s/60,0}(60 tau) with the
    family and sign of shadow(), in 40-digit decimal arithmetic, tau read
    exactly from its doubles; 0 off the support.  With nu = v/60, v = s +
    60n, and y = Im tau, the term of R at nu is sgn(nu) erfc(sqrt(2 pi
    nu^2 60 y)) exp(pi nu^2 60 y) e(-v^2 Re(tau)/120), its phase reduced
    in exact rationals.  The terms fall with |nu|, so each R adds the
    pairs v = s + 60n, s - 60(n + 1) for n = 0, 1, ... until both terms
    of a pair are below 1e-50 of the first."""
    rule = [(family, sign) for family in FAMILIES for sign in (1, -1)
            if sign * r % 60 in family]
    if not rule:
        return 0j
    (family, sign), = rule
    D = decimal.Decimal
    x = Fraction(tau.real)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        pi_y = D(PI_50) * D(tau.imag) / 60
        re = im = D(0)
        for s in family:
            first = None
            for n in itertools.count():
                pair = []
                for v in (s + 60 * n, s - 60 * (n + 1)):
                    expo = pi_y * v * v                  # pi nu^2 60 y
                    size = decimal_erfc((2 * expo).sqrt()) * expo.exp()
                    size = size if v > 0 else -size
                    cos, sin = _decimal_cis(-v * v * x / 120)
                    re, im = re + size * cos, im + size * sin
                    pair.append(abs(size))
                first = first or pair[0]
                if max(pair) < first * D("1e-50"):
                    break
        return complex(float(chi * sign * re), float(chi * sign * im))
