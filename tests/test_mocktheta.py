import math
from fractions import Fraction as F

import pytest

from e8umbral import characters, mocktheta
from e8umbral.characters import (CLASS_1A, CLASS_2A, FAMILIES, TraceId,
                                 _closed_data, closed_series, trace_closed)
from e8umbral.mocktheta import (_HECKE, IdentityReport, compare_series,
                                identity_suite, ramanujan_series)
from e8umbral.qseries import GradingError, QSeries, SeriesError

from oracles import ramanujan_oracle, same_up_to


NAMES = ["chi0", "chi1", "F0", "F1", "phi0", "phi1"]


def _suite_forms() -> dict:
    """The eight octant sums of identity_suite as it derives them, by
    name: per family (coset a), the 1A shape with shift 0; the Hecke
    template at lin (a, a + 2) times (q;q)/(q^2;q^2)^2, and bare; the 2A
    shape times (q^2;q^2)/(q;q), shift 0."""
    forms = {}
    for (r, f), n in zip(FAMILIES.items(), "01"):
        hecke = _HECKE._replace(lin=(f.coset_a, f.coset_a + 2))
        forms[f"chi{n}_side"] = _closed_data(
            TraceId(CLASS_1A, f.coset_a))._replace(shift=0)
        forms[f"phi{n}_lhs"] = hecke._replace(powers=((1, 1), (2, -2)))
        forms[f"cor_lhs_{r}"] = hecke
        shape_2a = _closed_data(TraceId(CLASS_2A, f.coset_a))
        forms[f"cor_rhs_{r}"] = shape_2a._replace(powers=((1, -1), (2, 1)),
                                                  shift=0)
    return forms


SUITE_FORMS = _suite_forms()


def suite_sum(name: str, order):
    return closed_series(SUITE_FORMS[name], order)


@pytest.mark.parametrize("name", NAMES)
def test_series_against_direct_summation_oracle(name):
    order = 40
    got = ramanujan_series(name, order)
    want = ramanujan_oracle(name, order)
    assert got.order == order
    for n in range(order + 1):
        assert got.coefficient(n) == want.get(n, 0), (name, n)


@pytest.mark.parametrize("name", NAMES)
def test_series_odd_orders_and_minus_q(name):
    # a non-integral order keeps its value and reads to its floor
    got = ramanujan_series(name, F(7, 2))
    want = ramanujan_oracle(name, 3)
    assert got.order == F(7, 2)
    assert got.coeffs == {120 * e: c for e, c in want.items()}
    empty = ramanujan_series(name, -1)
    assert empty.order == -1 and not empty.coeffs
    got = ramanujan_series(name, 25).substitute_minus_q()
    want = ramanujan_oracle(name, 25)
    for n in range(26):
        assert got.coefficient(n) == (-1) ** n * want.get(n, 0), (name, n)


@pytest.mark.parametrize("name", NAMES)
def test_series_needs_finite_order(name):
    with pytest.raises(GradingError, match="inf not representable"):
        ramanujan_series(name, math.inf)


def test_series_built_without_series_products():
    # the summands are built incrementally on integer lists, and a series
    # has no product at all: a return to per-summand products would have
    # to bring one back
    for name in NAMES:
        s = ramanujan_series(name, 100)
        assert s.coefficient(100) != 0
        with pytest.raises(TypeError):
            s * s


def test_f1_starts_at_one():
    # the n = 0 summand is 1/(q;q^2)_1 = 1/(1-q)
    f1 = ramanujan_series("F1", 5)
    assert f1.coefficient(0) == 1


def test_phi0_minus_q_head():
    s = ramanujan_series("phi0", 6).substitute_minus_q()
    assert [s.coefficient(n) for n in range(4)] == [1, -1, 1, 0]


def test_unknown_name_rejected():
    with pytest.raises(SeriesError):
        ramanujan_series("chi2", 5)


def test_triple_sum_constant_terms():
    chi0_side = suite_sum("chi0_side", 10)
    assert chi0_side.coefficient(0) == 1        # chi0(0) = 1, so 2 - 1
    chi1_side = suite_sum("chi1_side", 10)
    assert chi1_side.coefficient(0) == 1


def test_triple_sums_match_chi():
    order = 20
    assert same_up_to(suite_sum("chi0_side", order),
                      2 - ramanujan_series("chi0", order), order)
    assert same_up_to(suite_sum("chi1_side", order),
                      ramanujan_series("chi1", order), order)
    # the suite reads them as minus the 1A traces times q^(-lead/120)
    for n, f in zip("01", FAMILIES.values()):
        trace = trace_closed(TraceId(CLASS_1A, f.coset_a), order + 1)
        assert same_up_to(-trace._shift(-f.lead),
                          suite_sum(f"chi{n}_side", order), order)


def test_hecke_sums_match_phi():
    order = 20
    phi0m = ramanujan_series("phi0", order).substitute_minus_q()
    assert same_up_to(suite_sum("phi0_lhs", order), phi0m, order)
    phi1m = ramanujan_series("phi1", order + 1).substitute_minus_q()
    assert same_up_to(suite_sum("phi1_lhs", order),
                      -phi1m.shift(-1), order)


def test_corollary_identities():
    order = 20
    for fam in ("1", "7"):
        lhs = suite_sum(f"cor_lhs_{fam}", order)
        rhs = suite_sum(f"cor_rhs_{fam}", order)
        assert same_up_to(lhs, rhs, order)


def test_identity_suite_all_verified():
    reports = identity_suite(25)
    assert len(reports) == 12
    assert all(r.verified for r in reports)
    names = [r.name for r in reports]
    assert "chi0 = 2 F0 - phi0(-q)" in names
    assert any("T(e,1)" in n for n in names)


def _corrupting(real, target):
    """real, with one low coefficient of the series it returns for the
    first argument target, the one at its second-lowest exponent, raised
    by 1."""
    def corrupted(arg, order):
        s = real(arg, order)
        if arg != target:
            return s
        coeffs = dict(s.coeffs)
        coeffs[sorted(coeffs)[1]] += 1
        return QSeries(coeffs, s.order)
    return corrupted


def test_no_two_identity_lines_are_one_comparison(monkeypatch):
    # corrupt one input of identity_suite at a time and record the lines
    # that fail: each line fails under some corruption, and no two under
    # the same ones, which two lines comparing one pair of objects would.
    # The inputs: the six Ramanujan series, the six octant sums the suite
    # builds itself and the four 1A and 2A traces it reads.  mocktheta
    # imports closed_series by name, so both modules' names are patched
    inputs = {**{name: name for name in NAMES},
              **{name: form for name, form in SUITE_FORMS.items()
                 if not name.endswith("_side")},
              **{f"trace {c.name} a={a}": _closed_data(TraceId(c, a))
                 for c in (CLASS_1A, CLASS_2A) for a in (1, 3)}}
    fails_under = {}
    for label, target in inputs.items():
        monkeypatch.setattr(mocktheta, "ramanujan_series",
                            _corrupting(ramanujan_series, target))
        for module in (characters, mocktheta):
            monkeypatch.setattr(module, "closed_series",
                                _corrupting(closed_series, target))
        trace_closed.cache_clear()
        try:
            reports = identity_suite(12)
        finally:
            trace_closed.cache_clear()
        for report in reports:
            fails_under.setdefault(report.name, set())
            if not report.verified:
                fails_under[report.name].add(label)
    assert len(inputs) == 16
    assert [line for line, labels in fails_under.items() if not labels] == []
    lines_of = {}
    for line, labels in fails_under.items():
        lines_of.setdefault(frozenset(labels), []).append(line)
    assert [lines for lines in lines_of.values() if len(lines) > 1] == []


def test_corrupted_series_pinpoints_discrepancy():
    order = 12
    lhs = ramanujan_series("chi0", order)
    bumped = dict(lhs.coeffs)
    bumped[5 * 120] = bumped.get(5 * 120, F(0)) + 1
    rhs = QSeries(bumped, order)
    report = compare_series("negative control", lhs, rhs, order)
    assert not report.verified
    assert report.first_discrepancy[0] == 5
    assert "FAIL" in str(report)
    assert compare_series("same", lhs, lhs, order).verified


def test_report_renders_each_form():
    # the three forms of a verify line, and an ok line without an order
    ok = IdentityReport("lhs = rhs", 25, None)
    assert ok.verified and str(ok) == "[ok]   lhs = rhs  (order 25)"
    assert str(ok._replace(order=None)) == "[ok]   lhs = rhs"
    fail = ok._replace(first_discrepancy=(F(71, 120), 1, -2))
    assert not fail.verified
    assert str(fail) == ("[FAIL] lhs = rhs first discrepancy at "
                         "q^(71/120): 1 vs -2")
    numeric = IdentityReport("residual check", None, None, 2.5e-7, 1e-6)
    assert numeric.verified
    assert str(numeric) == "[ok]   residual check: residual 2.500e-07"
    # a residual equal to tol fails, and so does a NaN
    for res, text in ((1e-6, "1.000e-06"), (math.nan, "nan")):
        bad = numeric._replace(residual=res)
        assert not bad.verified
        assert str(bad) == f"[FAIL] residual check: residual {text}"
