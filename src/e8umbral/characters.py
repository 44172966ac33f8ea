"""Graded trace functions on the twisted cone modules and the
McKay-Thompson components built from them.

A trace is minus ``closed_series`` of a ``ClosedForm`` record: an eta
quotient times a signed sum over both octants of Z^n, multiplied in place
on the dense list of the sum's one walk before any series exists.
``trace_closed`` reads its record from the printed closed lattice sums and
prefactors (one shape per class of the S3 symmetry), by ``_closed_data``;
``_direct_data`` derives it from the lattice (``lattice._fixed_form``), the
class's sign rule and 2A flip, and its cycles (the one-fermion times
Heisenberg prefactor).  ``verify`` compares the two records, which proves
the traces equal at every order and checks every printed datum against the
lattice and the group action.  The tests check ``closed_series``, bare
(no eta quotient) and as each closed form, against a box brute force
times an eta quotient over Fractions (``closed_form_oracle``), and the
bare sum against a scan of the cone points.

A trace is named by its class and a coset label a in {1,3,5,7,9}.  On
the two one-fermion modules the zero mode contributes only an overall
sign, T^+ = -T^-, so both routes build T^-, the traces H_g is made of.  The
vector-valued series H_g has sixty components supported on the residues
+-{1,7,11,13,17,19,23,29} mod 60 (the E8 Coxeter exponents), in two
families, each stated once in ``FAMILIES``: its residues, its leading
exponent and the coset a = 1 or 3 of its trace (with a class-dependent
sign for a=3, the normalization that reproduces the published tables).
The one component rule is ``component_family``: r maps to (family, sign)
with H_r = sign * H_family, and every module that indexes by r mod 60
(the components, the Eichler parts, the numerics and the CLI) asks it.
"""

import math
from collections import namedtuple
from functools import lru_cache
from .lattice import _fixed_form
from .qseries import (DEN, DivergenceError, GradingError, QSeries,
                      SeriesError, _num, _series)

COSET_LABELS = (1, 3, 5, 7, 9)

# one record per component family, by its representative r: the s mod 60
# with H_s = H_r, the coset a of its trace and lead = 9a^2 - 10, the
# numerator over DEN of its leading exponent
Family = namedtuple("Family", "r members coset_a lead")
FAMILIES = {f.r: f for f in (Family(1, (1, 11, 19, 29), 1, -1),
                             Family(7, (7, 13, 17, 23), 3, 71))}
_RULE = {sign * s % 60: (f.r, sign) for f in FAMILIES.values()
         for s in f.members for sign in (1, -1)}


def component_family(r: int):
    """(family, sign) with H_r = sign * H_family and family 1 or 7, or None
    off the support +-{1,7,11,13,17,19,23,29} mod 60."""
    return _RULE.get(r % 60)


class GroupClass(namedtuple("GroupClass", "name permutation")):
    """A conjugacy class of the S3 action permuting the three E8 summands,
    named by one permutation (the images of indices 0, 1, 2).  The rest
    follows from its cycles: the order, the permutation character, the
    Heisenberg trace and the invariant sublattice."""

    __slots__ = ()

    @property
    def cycles(self) -> tuple:
        """The cycles of the permutation, each from its least index: on
        three points the cycle through i is i, p(i), p(p(i))."""
        p = self.permutation
        orbits = (tuple(dict.fromkeys((i, p[i], p[p[i]]))) for i in range(3))
        return tuple(c for c in orbits if c[0] == min(c))

    @property
    def order(self) -> int:
        """The lcm of the cycle lengths."""
        return math.lcm(*map(len, self.cycles))

    @property
    def perm_character(self) -> int:
        """The number of fixed summands."""
        return sum(len(c) == 1 for c in self.cycles)

    @property
    def check_gammas(self) -> tuple:
        """T, and S at order 1 or ((1, 0), (N, 1)) at order N > 1."""
        n = self.order
        return (((1, 1), (0, 1)),
                ((0, -1), (1, 0)) if n == 1 else ((1, 0), (n, 1)))


CLASS_1A = GroupClass("1A", (0, 1, 2))
CLASS_2A = GroupClass("2A", (1, 0, 2))
CLASS_3A = GroupClass("3A", (1, 2, 0))

CLASSES = {"1A": CLASS_1A, "2A": CLASS_2A, "3A": CLASS_3A}


class TraceId(namedtuple("TraceId", "group_class coset_a")):
    """(class, coset label) naming one trace function."""

    __slots__ = ()

    def __new__(cls, group_class, coset_a):
        if coset_a not in COSET_LABELS:
            raise ValueError("coset label must be odd with 0 < a < 10")
        return super().__new__(cls, group_class, coset_a)


def all_trace_ids() -> list[TraceId]:
    return [TraceId(cls, a) for cls in CLASSES.values() for a in COSET_LABELS]


# ----------------------------------------------------------------------
# the closed forms of both routes, and the closed-form route

# the one record of a closed form: prod_k (q^k; q^k)_inf^m over the (k, m)
# pairs powers, times the signed sum over both octants of Z^n
#     (sum_{x >= 0} + negative_sign * sum_{x < 0}) (-1)^(signs.x)
#         q^((x.gram.x + lin.x)/2 + shift/DEN)
# where x < 0 means every coordinate is negative, over the x with
# parity.x even if parity is given.  gram (symmetric) and lin are integer,
# shift an int numerator over DEN
ClosedForm = namedtuple("ClosedForm",
                        "powers gram lin signs negative_sign shift parity",
                        defaults=(None,))


def closed_series(form: ClosedForm, order) -> QSeries:
    """The closed form, exact to order: every product of the exact engine,
    and with powers () the bare octant sum.  The walk counts the octant
    points by value v on one dense list, entry v at q^(v/2 + shift/DEN),
    which _times_eta multiplies in place.

    Completeness: on either octant put x = y or x = -1 - y with y >= 0;
    then twice the exponent minus 2 shift is y.gram.y + w.y + c with
    w = lin resp. 2 gram.1 - lin.  With gram and w entrywise non-negative
    and gram positive on the diagonal, that is non-decreasing in every
    y_j, so each coordinate loop stops at its first point past the cap
    without skipping one, and y_j <= sqrt((2 (cap - shift)/DEN - c)/gram_jj).
    One walk per octant visits those y, carrying the value, the slopes
    w + 2 gram.y, the sign and the parity, each updated once per step.
    """
    cap = _num(order)
    powers, gram, lin, signs, negative_sign, shift, parity = form
    n = len(lin)
    two_g1 = [2 * sum(row) for row in gram]
    octants = ((1, 0, lin, 0),
               (negative_sign, 1, [g - l for g, l in zip(two_g1, lin)],
                sum(two_g1) // 2 - sum(lin)))
    if min(min(row) for row in gram) < 0 or \
            min(gram[j][j] for j in range(n)) <= 0 or \
            min(min(o[2]) for o in octants) < 0:
        raise SeriesError("octant sum outside its certified bound")
    if type(shift) is not int:
        raise GradingError(f"shift numerator {shift} is not an integer")
    limit = 2 * (cap - shift) // DEN    # the largest value x.gram.x + lin.x
    lo = min(0, octants[1][3])           # the least value of either octant
    acc = [0] * max(limit - lo + 1, 0)   # acc[v - lo]: signed count of value v
    # per coordinate j: the slope steps of the later coordinates, and the
    # factors of the sign and the parity bit per step
    cols = [[2 * gram[k][j] for k in range(j + 1, n)] for j in range(n)]
    muls = [-1 if s % 2 else 1 for s in signs]
    pflips = [p % 2 for p in parity] if parity else [0] * n

    def walk(j, v, slopes, sign, odd):
        # y_j = 0, 1, ... with the earlier coordinates fixed; slopes are
        # those of coordinates j..n-1 at the current point
        gjj, col, mul, pflip = gram[j][j], cols[j], muls[j], pflips[j]
        step, rest = slopes[0] + gjj, slopes[1:]   # step: v(y_j + 1) - v
        while v <= limit:
            if col:
                walk(j + 1, v, rest, sign, odd)
                rest = [s + c for s, c in zip(rest, col)]
            elif not odd:
                acc[v - lo] += sign
            v += step
            step += 2 * gjj
            sign *= mul
            odd ^= pflip

    for outer, flip, w, c in octants:
        # x = -1 - y flips the parity of signs.x and parity.x by their sums
        sign0 = -outer if flip * sum(signs) % 2 else outer
        walk(0, c, w, sign0, flip * sum(parity) % 2 if parity else 0)
    _times_eta(acc, powers)
    return _series({v * DEN // 2 + shift: s
                    for v, s in enumerate(acc, lo) if s}, cap, False)


def _times_eta(p: list, powers) -> None:
    """p <- p prod_k (q^k; q^k)_inf^m in place over the (k, m) pairs powers,
    p[i] the coefficient of q^(i/2) as on the walk's list, to len(p) terms.
    Euler's pentagonal sum is (q^k; q^k)_inf = 1 + sum_g s_g q^(g/2) over
    g = k j(3j -+ 1), j >= 1, with s_g = (-1)^j.  Each unit of a power is
    one pass that adds s_g p[i] into every p[i + g]: top-down for a
    positive power, so each p[i] read is still the old one (a product), and
    bottom-up with the signs reversed for a negative one, so each p[i] read
    is final (a quotient, as the constant term is 1).  Either way p[i]
    comes from the old p[<= i]."""
    n = len(p) - 1
    for k, m in powers:
        if k <= 0:
            raise DivergenceError(
                f"infinite product has factor of exponent {k} <= 0")
        # the exponents g with s_g = -1 (odd j), then with s_g = +1 (even j)
        jmax = math.isqrt(max(n, 0) // (2 * k))
        odd, even = ([k * g for j in range(first, jmax + 1, 2)
                      for g in (j * (3 * j - 1), j * (3 * j + 1))
                      if k * g <= n] for first in (1, 2))
        rows = range(n, -1, -1) if m > 0 else range(n + 1)
        for _ in range(abs(m)):
            for i in rows:
                v = p[i] if m > 0 else -p[i]
                if v:
                    room = n - i
                    for g in odd:
                        if g > room:
                            break
                        p[i + g] -= v
                    for g in even:
                        if g > room:
                            break
                        p[i + g] += v


# the printed forms of the 1A cube and 2A sums, read by mocktheta and maass
GRAM_1A = ((1, 2, 2), (2, 1, 2), (2, 2, 1))
GRAM_2A = ((6, 4), (4, 1))
# the class shapes at the unit coset, as ClosedForm templates: lin the
# unit and shift -10, the prefactor's q^(-1/12); the prefactors over it are
# 1/(q;q)^2, 1/(q^2;q^2) resp. (q;q)/(q^3;q^3)
_CLOSED_SHAPES = {
    1: ClosedForm(((1, -2),), GRAM_1A, (1, 1, 1), (1, 1, 1), 1, -10),
    2: ClosedForm(((2, -1),), GRAM_2A, (2, 1), (1, 1), -1, -10),
    3: ClosedForm(((1, 1), (3, -1)), ((15,),), (3,), (1,), 1, -10),
}


def _closed_data(trace_id: TraceId) -> ClosedForm:
    """The printed data: the class's template in _CLOSED_SHAPES at coset
    a, lin = a * unit and shift 3a^2/40 - 1/12.  T^- is minus its
    closed_series, by either route."""
    a = trace_id.coset_a
    shape = _CLOSED_SHAPES[trace_id.group_class.order]
    return shape._replace(lin=tuple(a * u for u in shape.lin),
                          shift=shape.shift + 9 * a * a)


@lru_cache(maxsize=None)
def trace_closed(trace_id: TraceId, order) -> QSeries:
    """The trace from the printed data, cached by (trace id, order) for
    h_component."""
    return -closed_series(_closed_data(trace_id), order)


# ----------------------------------------------------------------------
# direct route (the data from the lattice, the group action and the cycles)

# per class order: the character-level sign rule as signs on the free
# coordinates of the points (k, l, m), (k, k, m) resp. (k, k, k),
# (-1)^(k+l+m) for 1A, (-1)^<lambda, rho + e_1'> = (-1)^(3k+m) for 2A and
# (-1)^k for 3A, and the sign on branch N, which the sign automorphism of
# 2A flips
_DIRECT_SIGNS = {1: ((1, 1, 1), 1), 2: ((3, 1), -1), 3: ((1,), 1)}


def _prefactor(group_class: GroupClass) -> tuple:
    """(powers, shift) of q^(shift/DEN) prod (q^k;q^k)_inf^m: the fermion
    q^(1/24) (q;q)_inf times the Heisenberg trace of P on the rank-3 boson,
    q^(-3/24) prod_n det(1 - q^n P)^-1, one 1/(q^L;q^L)_inf per L-cycle."""
    lengths = [len(c) for c in group_class.cycles]
    return (tuple((k, m) for k in sorted({1, *lengths})
                  if (m := (k == 1) - lengths.count(k))), 5 - 5 * sum(lengths))


def _direct_data(trace_id: TraceId) -> ClosedForm:
    """The derived data, not the printed shapes: ``lattice._fixed_form``,
    the class's literal sign rule mod 2 and branch-N sign, and the
    one-fermion times Heisenberg prefactor, its shift added to the form's."""
    cls = trace_id.group_class
    signs, negative_sign = _DIRECT_SIGNS[cls.order]
    gram, lin, shift = _fixed_form(cls.cycles, trace_id.coset_a)
    powers, pre_shift = _prefactor(cls)
    return ClosedForm(powers, gram, lin, tuple(s % 2 for s in signs),
                      negative_sign, shift + pre_shift)


# ----------------------------------------------------------------------
# the McKay-Thompson components


def h_component(group_class: GroupClass, r: int, order) -> QSeries:
    """The series H_{g,r} = 2 T_{g,r} for r in the support.

    Each family uses the trace of its coset a in FAMILIES, the a=3 trace
    negated for the order-1 and order-3 classes (the sign that makes the
    components match the published tables and the fifth-order mock
    theta identities).  A negative residue carries the sign of
    component_family.
    """
    if (rule := component_family(r)) is None:
        raise ValueError(f"component {r} is not in the support")
    family, sign = rule
    a = FAMILIES[family].coset_a
    scale = -2 if a == 3 and group_class.order != 2 else 2
    return trace_closed(TraceId(group_class, a), order).scale(scale * sign)

