import ast
import inspect
import itertools
from fractions import Fraction as F

import pytest

from e8umbral import characters, lattice
from e8umbral.characters import CLASSES, TraceId, octant_sum
from e8umbral.lattice import GRAM, _fixed_form

from oracles import RHO, cone_mu, pair, q_norm


# the cycles of the identity, of the involution tau and of the 3-cycle sigma
ALL, TAU, SIGMA = ((0,), (1,), (2,)), ((0, 1), (2,)), ((0, 1, 2),)

# the character-level sign rule of each class on the basis coordinates
# (k, l, m), straight from the paper: (-1)^(k+l+m) for 1A,
# (-1)^<lambda, rho + e_1'> = (-1)^(3k+m) for 2A, (-1)^k for 3A; the sign
# automorphism of 2A flips the sign on branch N
LITERAL_SIGN = {ALL: lambda k, l, m: k + l + m,
                TAU: lambda k, l, m: 3 * k + m,
                SIGMA: lambda k, l, m: k}
FLIPS_N = {TAU}


def spread(cycles, y):
    """The basis coordinates of the free point y: coordinate i takes the
    value of the cycle holding i."""
    return tuple(next(t for c, t in zip(cycles, y) if i in c)
                 for i in range(3))


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


def cone_count(cycles, a, cap):
    """{120 Q(mu): number of fixed cone points} up to cap, by octant_sum
    on the derived form with no sign."""
    gram, lin, shift = _fixed_form(cycles, a)
    return octant_sum(gram, lin, shift, (0,) * len(lin), 1, cap).coeffs


def test_gram_values():
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert pair(e[0], e[0]) == 1
    assert pair(e[0], e[1]) == 2
    assert pair((2, -3, 5), RHO) == 4
    assert pair(RHO, RHO) == F(3, 5)
    assert GRAM == tuple(tuple(pair(u, v) for v in e) for u in e)


def test_dual_basis_property():
    # eps_i' = 2 rho - eps_i pairs to the identity against the basis
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for i in range(3):
        dual = tuple(2 * RHO[j] - basis[i][j] for j in range(3))
        for j in range(3):
            assert pair(dual, basis[j]) == (1 if i == j else 0)


def test_minimal_point_coset_one():
    # Q = 3/40 = 9/120; the energy bound is a numerator over 120 too
    assert cone_count(ALL, 1, 9) == {9: 1}
    assert cone_count(ALL, 1, 8) == {}


def test_sigma_fixed_coset_five():
    # Q = 15/8 = 225/120 on both points, (0, 0, 0) and (-1, -1, -1)
    assert cone_count(SIGMA, 5, 225) == {225: 2}
    assert {q_norm(cone_mu(c, 5)) for c in ((0, 0, 0), (-1, -1, -1))} == \
        {F(225, 120)}


def test_branch_sign_conditions_and_q():
    # on every fixed point of a box, the derived form is Q(mu) by the
    # definition, and mu is on branch P exactly when y is in the
    # non-negative octant, on branch N exactly when y is negative
    for cycles, a in itertools.product((ALL, TAU, SIGMA), (1, 3, 5, 7, 9)):
        gram, lin, shift = _fixed_form(cycles, a)
        n = len(cycles)
        assert (len(gram), len(lin), type(shift)) == (n, n, int)
        for y in itertools.product(range(-4, 4), repeat=n):
            mu = cone_mu(spread(cycles, y), a)
            value = sum(gram[i][j] * y[i] * y[j]
                        for i in range(n) for j in range(n)) + \
                sum(l * t for l, t in zip(lin, y))
            assert F(value, 2) + F(shift, 120) == q_norm(mu)
            assert all(c >= 0 for c in mu) == all(t >= 0 for t in y)
            assert all(c < 0 for c in mu) == all(t < 0 for t in y)


@pytest.mark.parametrize("a", [1, 3, 5, 7, 9])
@pytest.mark.parametrize("cycles", [ALL, TAU, SIGMA],
                         ids=["None", "tau", "sigma"])
def test_completeness_against_box_oracle(a, cycles):
    # the direct route's lattice sum, before its prefactor, is the signed
    # count per energy of the cone points of a box scan, under the
    # class's literal sign rule and the 2A flip
    want = {}
    for num, coords, branch in brute_scan(a, F(10), cycles):
        sign = -1 if LITERAL_SIGN[cycles](*coords) % 2 else 1
        if branch == "N" and cycles in FLIPS_N:
            sign = -sign
        want[num] = want.get(num, 0) + sign
    cls = next(c for c in CLASSES.values() if c.cycles == cycles)
    data = characters._direct_data(TraceId(cls, a))
    # the record's shift carries the prefactor's q^(-1/12) as well
    got = octant_sum(data.gram, data.lin, data.shift, data.signs,
                     data.negative_sign, 1190)
    assert got.order == F(119, 12)
    assert got.coeffs == {e - 10: c for e, c in want.items() if c}


def _names(node) -> set:
    """Every name, attribute and imported name a syntax tree references."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_direct_route_reads_no_printed_shape():
    # the lattice module and trace_direct, with every definition of
    # characters it reaches, read none of the printed closed forms
    printed = {"_CLOSED_SHAPES", "GRAM_1A", "GRAM_2A"}
    assert not _names(ast.parse(inspect.getsource(lattice))) & printed
    tree = ast.parse(inspect.getsource(characters))
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                defs[getattr(target, "id", None)] = node
    seen, reached, todo = set(), set(), ["trace_direct"]
    while todo:
        name = todo.pop()
        seen.add(name)
        refs = _names(defs[name])
        assert not refs & printed, name
        reached |= refs
        todo += [r for r in refs if r in defs and r not in seen]
    assert {"_DIRECT_SIGNS", "_fixed_form", "_prefactor", "_octant_product",
            "_times_eta"} <= reached
