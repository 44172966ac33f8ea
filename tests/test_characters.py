import math
import random
from fractions import Fraction as F

import pytest

from e8umbral.characters import (CLASS_1A, CLASS_2A, CLASS_3A, CLASSES,
                                 COSET_LABELS, FAMILIES, ClosedForm, TraceId,
                                 _CLOSED_SHAPES, _closed_data, _direct_data,
                                 _prefactor, all_trace_ids, closed_series,
                                 component_family, h_component,
                                 trace_closed)
from e8umbral.qseries import GradingError, QSeries, SeriesError

from oracles import (closed_form_oracle, eta_quotient_oracle, same_up_to,
                     shadow, valuation)
from test_mocktheta import SUITE_FORMS
from test_qseries import eta_quotient


def test_fermion_trace():
    # the one-fermion factor of T^- is -q^(1/24) (q;q)_inf = -eta(tau)
    minus = eta_quotient({1: 1}, F(1, 24), 8).scale(-1)
    assert valuation(minus) == F(1, 24)
    assert minus.coefficient(F(1, 24)) == -1
    assert minus.coefficient(F(25, 24)) == 1
    # with it the direct trace leads with -q^(-1/120), half the first
    # entry of Table A1
    direct = -closed_series(_direct_data(TraceId(CLASS_1A, 1)), 1)
    lead = direct.coefficient(F(-1, 120))
    assert 2 * lead == TABLE_A1_HEAD["1A"][0]


def test_class_data():
    assert CLASS_1A.perm_character == 3 and CLASS_1A.order == 1
    assert CLASS_2A.perm_character == 1 and CLASS_2A.order == 2
    assert CLASS_3A.perm_character == 0 and CLASS_3A.order == 3
    assert [c.cycles for c in (CLASS_1A, CLASS_2A, CLASS_3A)] == \
        [((0,), (1,), (2,)), ((0, 1), (2,)), ((0, 1, 2),)]


def _oracle_quotient(powers, n):
    """prod_k (q^k; q^k)_inf^m over the (k, m) pairs powers to q^n, from
    the Fraction oracle of tests/oracles.py."""
    want = eta_quotient_oracle(powers, n)
    # the quotient is integral; a series takes its coefficients as ints
    assert all(c.denominator == 1 for c in want.values())
    return QSeries({120 * e: c.numerator for e, c in want.items()}, n)


@pytest.mark.parametrize("name,builder", [
    ("1A", lambda n: _oracle_quotient(((1, -2),), n)),
    ("2A", lambda n: _oracle_quotient(((2, -1),), n)),
    ("3A", lambda n: _oracle_quotient(((1, 1), (3, -1)), n)),
])
def test_prefactor_identities(name, builder):
    # the eta quotient of the derived powers and shift, fermion times boson
    # trace, reproduces the printed eta-quotients q^(-1/12)/(q;q)^2,
    # q^(-1/12)/(q^2;q^2), q^(-1/12)(q;q)/(q^3;q^3)
    order = 10
    powers, shift = _prefactor(CLASSES[name])
    prod = eta_quotient(dict(powers), F(shift, 120), order)
    want = builder(order + 1).shift(F(-1, 12))
    assert same_up_to(prod, want, prod.order)


TABLE_A1_HEAD = {
    "1A": [-2, 2, 2, 4, 2, 6, 4, 6, 6, 10],
    "2A": [-2, 2, -2, 0, -2, 2, 0, 2, -2, 2],
    "3A": [-2, 2, 2, -2, 2, 0, -2, 0, 0, -2],
}

TABLE_A2_HEAD = {
    "1A": [2, 4, 4, 6, 6, 8, 8, 12, 10, 14],
    "2A": [-2, 0, 0, 2, -2, 0, 0, 0, -2, 2],
    "3A": [2, -2, -2, 0, 0, 2, 2, 0, -2, 2],
}


@pytest.mark.parametrize("name", ["1A", "2A", "3A"])
def test_component_one_head(name):
    t = trace_closed(TraceId(CLASSES[name], 1), 11)
    got = [2 * t.coefficient(F(-1 + 120 * n, 120)) for n in range(10)]
    assert got == TABLE_A1_HEAD[name]


@pytest.mark.parametrize("name", ["1A", "2A", "3A"])
def test_component_seven_head(name):
    h = h_component(CLASSES[name], 7, 11)
    got = [h.coefficient(F(71 + 120 * n, 120)) for n in range(10)]
    assert got == TABLE_A2_HEAD[name]


def _random_closed_form(seed):
    """A seeded ClosedForm and order: the bare octant sum of
    _random_octant_case and its cap floored onto the grid 1/120 as the
    order, times a random eta quotient, powers in +-{1, 2, 3} on k <= 4."""
    form, cap = _random_octant_case(seed)
    rng = random.Random(-seed)
    powers = tuple(sorted((k, rng.choice((-3, -2, -1, 1, 2, 3)))
                          for k in rng.sample(range(1, 5),
                                              rng.randrange(1, 3))))
    return form._replace(powers=powers), _on_grid(cap)


def test_route_equivalence_spot():
    # closed forms against the box sum times the eta quotient, multiplied
    # out over Fractions by tests/oracles.py, which shares no code with
    # the walk or the in-place product: four traces, then seeded random
    # forms that include an octant sum empty below its shift, a negative
    # octant starting below 0 and a parity condition
    for tid in (TraceId(CLASS_1A, 1), TraceId(CLASS_2A, 7),
                TraceId(CLASS_3A, 9), TraceId(CLASS_2A, 5)):
        minus = {e: -c for e, c in
                 closed_form_oracle(_closed_data(tid), 12).items()}
        assert trace_closed(tid, 12).coeffs == minus
        assert (-closed_series(_direct_data(tid), 12)).coeffs == minus
    seen = set()
    for seed in range(30):
        form, order = _random_closed_form(seed)
        got = closed_series(form, order)
        assert got.order == order
        assert got.coeffs == closed_form_oracle(form, order), seed
        if 120 * order < form.shift:
            seen.add("empty below the shift")
        if sum(map(sum, form.gram)) < sum(form.lin):
            seen.add("lo < 0")
        if form.parity:
            seen.add("parity")
    assert seen == {"empty below the shift", "lo < 0", "parity"}


def test_order3_coset_seven_row():
    t = trace_closed(TraceId(CLASS_3A, 7), 3)
    assert 2 * t.coefficient(F(191, 120)) == -2


def test_ten_minus_a_antisymmetry_all_classes():
    # the literal octant sums satisfy F(g, 10-a) = -F(g, a) for every class
    for cls in (CLASS_1A, CLASS_2A, CLASS_3A):
        for a in (1, 3):
            x = trace_closed(TraceId(cls, a), 8)
            y = trace_closed(TraceId(cls, 10 - a), 8)
            assert same_up_to(y, -x, 8)


def test_coset_five_vanishes():
    # 10 - a = a at a = 5, so the antisymmetry forces the zero series
    for cls in (CLASS_1A, CLASS_2A, CLASS_3A):
        assert not trace_closed(TraceId(cls, 5), 12).coeffs
        assert not closed_series(_direct_data(TraceId(cls, 5)), 12).coeffs


def test_assembled_vector_structure():
    for cls in (CLASS_1A, CLASS_2A, CLASS_3A):
        members = {s for f in FAMILIES.values() for s in f.members}
        for r in range(60):
            in_support = r in members or (60 - r) % 60 in members
            if not in_support:
                for rr in (r, -r):
                    with pytest.raises(ValueError):
                        h_component(cls, rr, 6)
                continue
            comp = h_component(cls, r, 6)
            assert same_up_to(comp, -h_component(cls, -r, 6), 6)
            assert comp.coeffs
        # polar part of the 1-family: a single -2 q^(-1/120)
        c1 = h_component(cls, 1, 6)
        assert c1.coefficient(F(-1, 120)) == -2
        assert all(F(e, 120) >= F(-1, 120) for e, _ in c1.items())
        # the 7-family never dips below q^(71/120)
        assert valuation(h_component(cls, 7, 6)) >= F(71, 120)


def test_component_59_is_negated_component_1():
    assert same_up_to(h_component(CLASS_2A, 59, 6),
                      -h_component(CLASS_2A, 1, 6), 6)


def test_family_records_against_mathematics():
    # the E8 Coxeter exponents mod 60 and their negatives, each once
    support = {1, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 49, 53, 59}
    covered = [s * m % 60 for f in FAMILIES.values() for m in f.members
               for s in (1, -1)]
    assert sorted(covered) == sorted(support)
    for r, fam in FAMILIES.items():
        assert fam.r == r == fam.members[0]
        assert fam.lead == 9 * fam.coset_a ** 2 - 10
        # every member's exponents lie in the class -m^2/120 mod 1
        for m in fam.members:
            assert (fam.lead + m * m) % 120 == 0, (r, m)


def test_family_records_against_consumers():
    for r in range(-120, 121):
        want = next(((f.r, s) for f in FAMILIES.values() for m in f.members
                     for s in (1, -1) if (r - s * m) % 60 == 0), None)
        assert component_family(r) == want, r
    for cls in (CLASS_1A, CLASS_2A, CLASS_3A):
        for r, fam in FAMILIES.items():
            comp = h_component(cls, r, 6)
            # H_r is +-2 times the trace of the family's coset, and its
            # leading exponent is lead/120
            trace = trace_closed(TraceId(cls, fam.coset_a), 6)
            assert comp in (trace.scale(2), trace.scale(-2))
            assert valuation(comp) == F(fam.lead, 120)


def test_all_trace_ids_count():
    assert len(all_trace_ids()) == 15


def test_trace_id_validation():
    # a trace is named by (class, coset label) alone
    assert TraceId(CLASS_2A, 3) == (CLASS_2A, 3)
    for a in (2, 11):
        with pytest.raises(ValueError):
            TraceId(CLASS_1A, a)


def test_component_family_rule():
    # the E8 Coxeter exponents 1, 7, 11, 13, 17, 19, 23, 29 mod 60; H_r for
    # r in {1, 11, 19, 29} is H_1 and for r in {7, 13, 17, 23} is H_7
    coxeter = {1: 1, 11: 1, 19: 1, 29: 1, 7: 7, 13: 7, 17: 7, 23: 7}
    heads = {(name, fam): h_component(CLASSES[name], fam, 6)
             for name in CLASSES for fam in (1, 7)}
    shadows = {(name, fam): shadow(CLASSES[name].perm_character, fam, 6)
               for name in CLASSES for fam in (1, 7)}
    for r in range(-120, 180):
        if r % 60 in coxeter:
            want = (coxeter[r % 60], 1)
        elif -r % 60 in coxeter:
            want = (coxeter[-r % 60], -1)
        else:
            want = None
        assert component_family(r) == want, r
        for name, cls in CLASSES.items():
            if want is None:
                with pytest.raises(ValueError):
                    h_component(cls, r, 6)
                assert shadow(cls.perm_character, r, 6) == {}
                continue
            fam, sign = want
            assert h_component(cls, r, 6) == heads[name, fam].scale(sign)
            assert shadow(cls.perm_character, r, 6) == \
                {e: sign * c for e, c in shadows[name, fam].items()}


# ----------------------------------------------------------------------
# octant sums against the box oracle


def _random_octant_case(seed):
    """A seeded bare octant sum inside the certified bound of the walk, and
    a cap: symmetric non-negative gram with positive diagonal, 0 <= lin <=
    2 gram.1, a non-zero shift on the grid 1/120 and a cap off that grid,
    with a fractional part."""
    rng = random.Random(seed)
    n = rng.randrange(1, 4)
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = rng.randrange(1, 4)
        for j in range(i):
            gram[i][j] = gram[j][i] = rng.randrange(0, 3)
    lin = [rng.randrange(0, 2 * sum(row) + 1) for row in gram]
    signs = [rng.randrange(-2, 3) for _ in range(n)]
    parity = rng.choice((None, [rng.randrange(0, 3) for _ in range(n)]))
    shift = F(rng.choice([k for k in range(-300, 301) if k]), 120)
    cap = shift + F(rng.randrange(-7, 56), 7) + F(1, 3)
    return ClosedForm((), gram, lin, signs, rng.choice((1, -1)),
                      int(120 * shift), parity), cap


def _on_grid(cap):
    """The cap floored onto the grid 1/120, where every order lies: the
    exponents of a closed form lie on that grid, so it sums the same
    points as the cap itself."""
    return F(math.floor(120 * cap), 120)


# the eight octant sums of the identity suite, by name; the two Zwegers
# sums keep their case ids
_ZWEGERS_IDS = {"chi0_side": "zwegers c=1", "chi1_side": "zwegers c=3"}

# the negative octant starts at value c = 1.gram.1 - lin.1, which is
# 15 - 3a for the closed shapes: below 0 at a = 7 and 9, as for 17 of the
# random shapes
_OCTANT_CASES = {
    **{f"closed {o} a={a}": (shape._replace(
        powers=(), lin=[a * u for u in shape.lin], shift=9 * a * a),
        F(121, 12))
       for o, shape in _CLOSED_SHAPES.items() for a in COSET_LABELS},
    **{_ZWEGERS_IDS.get(name, name): (form._replace(powers=()), F(12))
       for name, form in SUITE_FORMS.items()},
    **{f"random {seed}": _random_octant_case(seed) for seed in range(30)},
}


@pytest.mark.parametrize("name", _OCTANT_CASES)
def test_octant_sum_against_box_oracle(name):
    # the bare octant sum is the closed form with no eta quotient; the box
    # oracle takes the cap as drawn
    form, cap = _OCTANT_CASES[name]
    got = closed_series(form, _on_grid(cap))
    assert got.order == _on_grid(cap)
    assert got.coeffs == closed_form_oracle(form, cap)


def test_octant_sum_guards():
    with pytest.raises(SeriesError):      # a negative gram entry
        closed_series(ClosedForm((), ((1, -1), (-1, 1)), (0, 0), (1, 1), 1,
                                 0), F(1, 24))
    with pytest.raises(SeriesError):      # lin past 2 gram.1
        closed_series(ClosedForm((), ((1,),), (3,), (1,), 1, 0), F(1, 24))
    with pytest.raises(GradingError):     # a shift off the grid 1/120
        closed_series(ClosedForm((), ((1,),), (1,), (1,), 1, F(1, 7)),
                      F(1, 24))
