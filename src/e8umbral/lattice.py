"""The signature-(1,2) rank-3 lattice L and the quadratic form on the cone
points that a permutation of its basis fixes.

L has Gram matrix <e_i, e_j> = 2 - delta_ij and dual vector
rho = (e_1 + e_2 + e_3)/5.  The cone D is the closed non-negative octant P
and the open negative octant N in basis coordinates.  For odd 0 < a < 10,
mu = k e_1 + l e_2 + m e_3 + (a/2) rho has coordinates (k + a/10, ...), so
the cone points of L + a*rho/2 are the integer (k, l, m) all >= 0
(branch P) or all < 0 (branch N).  A permutation fixes the mu constant on
each of its cycles; in one free coordinate per cycle these are again the
two octants, on which ``_fixed_form`` gives Q(mu) = <mu, mu>/2, the form
that ``characters._direct_data`` records for ``characters.closed_series``.
"""

GRAM = tuple(tuple(2 - (i == j) for j in range(3)) for i in range(3))
RHO_5 = (1, 1, 1)       # 5 rho in basis coordinates


def _pair(u, v) -> int:
    """<u, v> for integer basis coordinates."""
    return sum(u[i] * GRAM[i][j] * v[j] for i in range(3) for j in range(3))


def _fixed_form(cycles, a: int) -> tuple:
    """(gram, lin, shift) with Q(mu) = (y.gram.y + lin.y)/2 + shift/120 for
    mu = sum_i y_i f_i + (a/2) rho, f_i the sum of the basis vectors of
    cycle i: gram_ij = <f_i, f_j>, lin_i = a <f_i, rho> = a |cycle i| and
    shift = 15 a^2 <rho, rho> = 9 a^2, the numerator over ``qseries.DEN``.
    All are integers: <f_i, 5 rho> = 5 |cycle i|, <5 rho, 5 rho> = 15."""
    f = [tuple(int(i in c) for i in range(3)) for c in cycles]
    gram = tuple(tuple(_pair(u, v) for v in f) for u in f)
    lin = tuple(a * _pair(u, RHO_5) // 5 for u in f)
    return gram, lin, 3 * a * a * _pair(RHO_5, RHO_5) // 5
