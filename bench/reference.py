"""Values the benchmark checks the program against, obtained without the
package: the paper's appendix tables as published, the fifth-order mock
theta functions in plain integer arithmetic, and the multiplier nu(S) from
its closed formula.
"""

import cmath
import math

# Appendix tables of arXiv:1412.8191: exponent numerator over 120 ->
# coefficients of (H_1A, H_2A, H_3A), component r = 1 and r = 7.
APPENDIX = {
    1: {
        -1: (-2, -2, -2), 119: (2, 2, 2), 239: (2, -2, 2), 359: (4, 0, -2),
        479: (2, -2, 2), 599: (6, 2, 0), 719: (4, 0, -2), 839: (6, 2, 0),
        959: (6, -2, 0), 1079: (10, 2, -2), 1199: (6, -2, 0),
        1319: (12, 0, 0), 1439: (10, -2, -2), 1559: (14, 2, 2),
        1679: (14, -2, 2), 1799: (18, 2, 0), 1919: (14, -2, 2),
        2039: (24, 4, 0), 2159: (22, -2, -2), 2279: (26, 2, 2),
        2399: (26, -2, 2), 2519: (34, 2, -2), 2639: (30, -2, 0),
        2759: (42, 2, 0), 2879: (40, -4, -2), 2999: (48, 4, 0),
        3119: (48, -4, 0), 3239: (58, 2, -2), 3359: (56, -4, 2),
        3479: (72, 4, 0), 3599: (70, -2, -2), 3719: (80, 4, 2),
        3839: (84, -4, 0), 3959: (100, 4, -2), 4079: (96, -4, 0),
        4199: (116, 4, 2), 4319: (116, -4, -4), 4439: (134, 6, 2),
        4559: (140, -4, 2),
    },
    7: {
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
    },
}

# first exponent numerator of each component family
FIRST_ROW = {1: -1, 7: 71}


def _divide_by_one_minus(coeffs, k):
    """coeffs /= (1 - q^k) in place, truncated to len(coeffs)."""
    for i in range(k, len(coeffs)):
        coeffs[i] += coeffs[i - k]


def _chi(extra, n_max):
    """chi_0 (extra = 0) or chi_1 (extra = 1) to q^n_max:
    sum_n q^n / ((1 - q^(n+1)) ... (1 - q^(2n+extra)))."""
    total = [0] * (n_max + 1)
    for n in range(n_max + 1):
        term = [0] * (n_max + 1 - n)
        term[0] = 1
        for k in range(n + 1, min(2 * n + extra, n_max - n) + 1):
            _divide_by_one_minus(term, k)
        for i, c in enumerate(term):
            total[n + i] += c
    return total


def _phi(shift, n_max):
    """phi_0 (shift = 0) or phi_1 (shift = 1) to q^n_max:
    sum_n q^((n+shift)^2) (1 + q)(1 + q^3) ... (1 + q^(2n-1))."""
    total = [0] * (n_max + 1)
    n = 0
    while (n + shift) ** 2 <= n_max:
        term = [0] * (n_max + 1)
        term[(n + shift) ** 2] = 1
        for j in range(n):
            k = 2 * j + 1
            for i in range(n_max, k - 1, -1):
                term[i] += term[i - k]
        total = [a + b for a, b in zip(total, term)]
        n += 1
    return total


def expected_1a_2a(component, max_row):
    """Exponent numerator -> (H_1A, H_2A) coefficient, for every row of the
    component up to max_row, from

        H_1A,1 = 2 q^(-1/120) (chi0 - 2)     H_1A,7 = 2 q^(71/120) chi1
        H_2A,1 = -2 q^(-1/120) phi0(-q)      H_2A,7 = 2 q^(-49/120) phi1(-q)
    """
    rows = range(FIRST_ROW[component], max_row + 1, 120)
    n_max = len(rows)
    out = {}
    if component == 1:
        chi, phi = _chi(0, n_max), _phi(0, n_max)
        for n, num in enumerate(rows):
            out[num] = (2 * chi[n] - (4 if n == 0 else 0),
                        -2 * (-1) ** n * phi[n])
    else:
        chi, phi = _chi(1, n_max), _phi(1, n_max)
        for n, num in enumerate(rows):
            out[num] = (2 * chi[n], 2 * (-1) ** (n + 1) * phi[n + 1])
    return out


def _nu_s():
    s = [math.sin(k * math.pi / 30) for k in range(14)]
    pref = 2 * cmath.exp(2j * math.pi * 3 / 8) / math.sqrt(15)
    a, b = pref * (s[1] + s[11]), pref * (s[7] + s[13])
    return ((a, b), (b, -a))


NU_S = _nu_s()


def s_law_residuals(tau, h_tau, h_image):
    """Residuals of

        tau^(-1/2) H(-1/tau) = nu(S) H(tau)

    on the (r=1, r=7) vector.  Each value is a pair (number, error bound).
    Returns, for r = 1 and r = 7, the residual and the bound that the
    values' own errors allow for it.
    """
    root = cmath.sqrt(tau)
    out = []
    for r in range(2):
        lhs = h_image[r][0] / root
        rhs = sum(NU_S[r][k] * h_tau[k][0] for k in range(2))
        bound = h_image[r][1] / abs(root) + \
            sum(abs(NU_S[r][k]) * h_tau[k][1] for k in range(2))
        out.append((abs(lhs - rhs), bound))
    return out
