from fractions import Fraction as F

import pytest

from e8umbral.mocktheta import (compare_series, hecke_double_sum,
                                identity_suite, ramanujan_series,
                                zwegers_triple_sum)
from e8umbral.qseries import QSeries, SeriesError

from oracles import ramanujan_oracle


@pytest.mark.parametrize("name", ["chi0", "chi1", "F0", "F1", "phi0", "phi1"])
def test_series_against_direct_summation_oracle(name):
    order = 18
    got = ramanujan_series(name, order)
    want = ramanujan_oracle(name, order)
    for n in range(order + 1):
        assert got.coefficient(n) == want.get(n, 0), (name, n)


def test_f1_starts_at_one():
    # the n = 0 summand is 1/(q;q^2)_1 = 1/(1-q)
    f1 = ramanujan_series("F1", 5)
    assert f1.coefficient(0) == 1


def test_phi0_minus_q_head():
    s = ramanujan_series("phi0", 6, argument_sign=-1)
    assert [s.coefficient(n) for n in range(4)] == [1, -1, 1, 0]


def test_unknown_name_rejected():
    with pytest.raises(SeriesError):
        ramanujan_series("chi2", 5)
    with pytest.raises(SeriesError):
        zwegers_triple_sum("nope", 5)
    with pytest.raises(SeriesError):
        hecke_double_sum("nope", 5)


def test_triple_sum_constant_terms():
    chi0_side = zwegers_triple_sum("chi0_side", 10)
    assert chi0_side.coefficient(0) == 1        # chi0(0) = 1, so 2 - 1
    chi1_side = zwegers_triple_sum("chi1_side", 10)
    assert chi1_side.coefficient(0) == 1


def test_triple_sums_match_chi():
    order = 20
    assert zwegers_triple_sum("chi0_side", order).same_up_to(
        2 - ramanujan_series("chi0", order), order)
    assert zwegers_triple_sum("chi1_side", order).same_up_to(
        ramanujan_series("chi1", order), order)


def test_hecke_sums_match_phi():
    order = 20
    assert hecke_double_sum("phi0_lhs", order).same_up_to(
        ramanujan_series("phi0", order, argument_sign=-1), order)
    phi1m = ramanujan_series("phi1", order + 1, argument_sign=-1)
    assert hecke_double_sum("phi1_lhs", order).same_up_to(
        -phi1m.shift(-1), order)


def test_corollary_identities():
    order = 20
    for fam in ("1", "7"):
        lhs = hecke_double_sum(f"cor_lhs_{fam}", order)
        rhs = hecke_double_sum(f"cor_rhs_{fam}", order)
        assert lhs.same_up_to(rhs, order)


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
