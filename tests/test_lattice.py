from fractions import Fraction as F

import pytest

from e8umbral import lattice
from e8umbral.characters import all_trace_ids
from e8umbral.lattice import _positive_branch

from oracles import RHO, cone_mu, pair, q_norm


# the cycles of the identity, of the involution tau and of the 3-cycle sigma
ALL, TAU, SIGMA = ((0,), (1,), (2,)), ((0, 1), (2,)), ((0, 1, 2),)


def brute_scan(a, bound, cycles=ALL, box=12):
    """Naive large-box oracle straight from the definitions: sorted
    (120 Q(mu), coords, branch) for mu = coords + a rho/2 in the cone,
    with coords equal within each cycle."""
    out = []
    for k in range(-box, box + 1):
        for l in range(-box, box + 1):
            for m in range(-box, box + 1):
                mu = (k + F(a, 10), l + F(a, 10), m + F(a, 10))
                if all(c >= 0 for c in mu):
                    branch = "P"
                elif all(c < 0 for c in mu):
                    branch = "N"
                else:
                    continue
                coords = (k, l, m)
                if any(coords[i] != coords[c[0]] for c in cycles for i in c):
                    continue
                qv = q_norm(mu)
                if qv <= bound:
                    num = qv * 120
                    assert num.denominator == 1
                    out.append((int(num), coords, branch))
    return sorted(out)


def cone(a, cycles, cap):
    """The points of the scans as the direct trace reads them, sorted
    like brute_scan: branch P from the scan of coset a, branch N from the
    scan of coset 10 - a with each coordinate x mapped to -1 - x."""
    p = _positive_branch(a, cycles, cap)
    n = _positive_branch(10 - a, cycles, cap)
    return sorted([(num, c, "P") for num, c in p] +
                  [(num, tuple(-1 - x for x in c), "N") for num, c in n])


def test_gram_values():
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert pair(e[0], e[0]) == 1
    assert pair(e[0], e[1]) == 2
    assert pair((2, -3, 5), RHO) == 4
    assert pair(RHO, RHO) == F(3, 5)


def test_dual_basis_property():
    # eps_i' = 2 rho - eps_i pairs to the identity against the basis
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for i in range(3):
        dual = tuple(2 * RHO[j] - basis[i][j] for j in range(3))
        for j in range(3):
            assert pair(dual, basis[j]) == (1 if i == j else 0)


def test_minimal_point_coset_one():
    # Q = 3/40 = 9/120; the energy bound is a numerator over 120 too
    assert cone(1, ALL, 9) == [(9, (0, 0, 0), "P")]
    assert cone(1, ALL, 8) == []


def test_sigma_fixed_coset_five():
    # Q = 15/8 = 225/120 on both points
    assert cone(5, SIGMA, 225) == \
        [(225, (-1, -1, -1), "N"), (225, (0, 0, 0), "P")]


@pytest.mark.parametrize("a", [1, 3, 5, 7, 9])
@pytest.mark.parametrize("cycles", [ALL, TAU, SIGMA],
                         ids=["None", "tau", "sigma"])
def test_completeness_against_box_oracle(a, cycles):
    assert cone(a, cycles, 1200) == brute_scan(a, F(10), cycles)


def test_scan_stops_at_the_cap(monkeypatch):
    # each coordinate loop stops at its first point past the cap, and the
    # cones of cosets a and 10 - a share their cached branch-P scans: over
    # the 15 traces at order 250 the energy is evaluated fewer times than
    # points are kept, where one scan per branch evaluates it 13 382 times
    # and a box scan about 13 times per point
    calls = 0
    q_of = lattice._q_of

    def counted(coords, a):
        nonlocal calls
        calls += 1
        return q_of(coords, a)

    monkeypatch.setattr(lattice, "_q_of", counted)
    _positive_branch.cache_clear()
    kept = sum(len(_positive_branch(coset, t.group_class.cycles,
                                    250 * 120 + 10))
               for t in all_trace_ids()
               for coset in (t.coset_a, 10 - t.coset_a))
    assert kept == 11298
    assert 2 * calls <= 13382
    # a cached scan is a tuple: no caller can change what the next reads
    assert isinstance(_positive_branch(1, ALL, 600), tuple)


def test_branch_sign_conditions_and_q():
    for num, coords, branch in cone(7, ALL, 960):
        mu = cone_mu(coords, 7)
        if branch == "P":
            assert all(c >= 0 for c in mu)
        else:
            assert all(c < 0 for c in mu)
        assert q_norm(mu) * 120 == num
        assert num > 0


def test_negation_symmetry():
    # x -> -1 - x maps the branch-P points of coset 10 - a onto branch N of
    # coset a, preserving Q: the energy of each scanned point is that of
    # its image, by the formula of the scan and by the form itself
    seen = 0
    for a in (1, 3, 7, 9):
        for num, coords in _positive_branch(10 - a, ALL, 720):
            seen += 1
            image = tuple(-1 - x for x in coords)
            assert all(c < 0 for c in cone_mu(image, a))
            assert lattice._q_of(image, a) == num
            assert q_norm(cone_mu(image, a)) * 120 == num
    assert seen


def test_positive_branch_square_bound():
    # on branch P the cross terms are non-negative: Q >= sum(coords^2)/2
    for num, coords in _positive_branch(3, ALL, 1080):
        mu = cone_mu(coords, 3)
        assert num >= 60 * sum(c * c for c in mu)


def test_deterministic_sorted_output():
    # a fresh scan repeats the cached one, in the order of its walk: sorted
    # by coordinates
    a = _positive_branch(3, ALL, 1440)
    _positive_branch.cache_clear()
    b = _positive_branch(3, ALL, 1440)
    assert a == b
    assert [coords for _, coords in a] == sorted(coords for _, coords in a)
