import math
from fractions import Fraction as F

import pytest

from e8umbral.mocktheta import (IdentityReport, compare_series,
                                identity_suite, octant_series,
                                ramanujan_series)
from e8umbral.qseries import GradingError, QSeries, SeriesError

from oracles import ramanujan_oracle, same_up_to


NAMES = ["chi0", "chi1", "F0", "F1", "phi0", "phi1"]


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


def test_series_built_without_series_products(monkeypatch):
    # the summands are built incrementally on integer lists; a return to
    # per-summand QSeries products would otherwise show only as a slowdown
    calls = []
    real = QSeries.__mul__

    def counted(*args):
        calls.append("__mul__")
        return real(*args)
    monkeypatch.setattr(QSeries, "__mul__", counted)
    for name in NAMES:
        assert ramanujan_series(name, 100).coefficient(100) != 0
    assert calls == []


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
    with pytest.raises(SeriesError):
        octant_series("nope", 5)


def test_triple_sum_constant_terms():
    chi0_side = octant_series("chi0_side", 10)
    assert chi0_side.coefficient(0) == 1        # chi0(0) = 1, so 2 - 1
    chi1_side = octant_series("chi1_side", 10)
    assert chi1_side.coefficient(0) == 1


def test_triple_sums_match_chi():
    order = 20
    assert same_up_to(octant_series("chi0_side", order),
                      2 - ramanujan_series("chi0", order), order)
    assert same_up_to(octant_series("chi1_side", order),
                      ramanujan_series("chi1", order), order)


def test_hecke_sums_match_phi():
    order = 20
    phi0m = ramanujan_series("phi0", order).substitute_minus_q()
    assert same_up_to(octant_series("phi0_lhs", order), phi0m, order)
    phi1m = ramanujan_series("phi1", order + 1).substitute_minus_q()
    assert same_up_to(octant_series("phi1_lhs", order),
                      -phi1m.shift(-1), order)


def test_corollary_identities():
    order = 20
    for fam in ("1", "7"):
        lhs = octant_series(f"cor_lhs_{fam}", order)
        rhs = octant_series(f"cor_rhs_{fam}", order)
        assert same_up_to(lhs, rhs, order)


def test_identity_suite_all_verified():
    reports = identity_suite(25)
    assert len(reports) == 14
    assert all(r.verified for r in reports)
    names = [r.name for r in reports]
    assert "chi0 = 2 F0 - phi0(-q)" in names
    assert any("T(e,1)" in n for n in names)


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
