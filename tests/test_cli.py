import cmath
import collections
import csv
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from e8umbral import characters, cli, maass, mocktheta
from e8umbral.characters import (CLASS_1A, CLASS_2A, CLASS_3A, FAMILIES,
                                 TraceId, component_family, trace_closed)
from e8umbral.cli import main
from e8umbral.mocktheta import IdentityReport
from e8umbral.qseries import QSeries


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_csv_head(capsys):
    code, out, _ = run_cli(capsys, "table", "--component", "1",
                           "--max-row", "359", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["exponent_numerator"] for r in rows] == ["-1", "119", "239",
                                                       "359"]
    assert [r["1A"] for r in rows] == ["-2", "2", "2", "4"]
    assert [r["2A"] for r in rows] == ["-2", "2", "-2", "0"]
    assert [r["3A"] for r in rows] == ["-2", "2", "2", "-2"]


def test_table_component7_json(capsys):
    code, out, _ = run_cli(capsys, "table", "--component", "7",
                           "--max-row", "191", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["grading_denominator"] == 120
    assert doc["component"] == 7
    assert doc["rows"][0] == {"exponent_numerator": 71,
                              "values": {"1A": "2", "2A": "-2", "3A": "2"}}
    assert doc["rows"][1]["values"] == {"1A": "4", "2A": "0", "3A": "-2"}


def test_table_minimal_range(capsys):
    code, out, _ = run_cli(capsys, "table", "--component", "1",
                           "--max-row", "-1", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[1:] == ["-1,-2,-2,-2"]


def test_table_budget_guard(capsys):
    code, _, err = run_cli(capsys, "table", "--component", "1",
                           "--max-row", "900000")
    assert code == 2
    assert "budget" in err


def test_order_cap():
    # --order goes up to 1000, the table's row budget over DEN
    handler, args = cli.parse_args(["verify", "--order", "1000"])
    assert handler is cli.cmd_verify and args["order"] == 1000
    assert main(["verify", "--order", "1001"]) == 2


def test_csv_json_encode_same_data(capsys):
    _, out_csv, _ = run_cli(capsys, "table", "--component", "1",
                            "--max-row", "479", "--format", "csv")
    _, out_json, _ = run_cli(capsys, "table", "--component", "1",
                             "--max-row", "479", "--format", "json")
    rows = list(csv.DictReader(io.StringIO(out_csv)))
    doc = json.loads(out_json)
    assert len(rows) == len(doc["rows"])
    for r_csv, r_json in zip(rows, doc["rows"]):
        assert int(r_csv["exponent_numerator"]) == r_json["exponent_numerator"]
        for name in ("1A", "2A", "3A"):
            assert r_csv[name] == r_json["values"][name]


def test_output_determinism(capsys):
    _, out1, _ = run_cli(capsys, "table", "--component", "7",
                         "--max-row", "311", "--format", "json")
    _, out2, _ = run_cli(capsys, "table", "--component", "7",
                         "--max-row", "311", "--format", "json")
    assert out1 == out2


# sha256 of the stdout of full tables and of the exact suite: any change to
# a coefficient, a row or a verify line shows here.  A change that means to
# alter these outputs updates the digests on purpose
GOLDEN_STDOUT = {
    ("table", "--component", "1", "--max-row", "119999"):
        "a189126f6cb0635182b4762157dc0bbbd38217c0497632cbec52fdb6bc90ba30",
    ("table", "--component", "7", "--max-row", "119999"):
        "5812a748bdc86cb45973c673372f1d8021b9bc036e5f5df974f92e949cc10cb2",
    ("table", "--component", "1", "--max-row", "4559", "--format", "json"):
        "52e103ef63e3b1d49f69dda9296d892f38719968c4bd79abb4f9e46c8e76165f",
    ("verify", "--suite", "exact", "--order", "250"):
        "2668508a5f6bbf0b6d0ace5898fef2bd447000d2dcbcd7f50727af40e0e8ab2d",
}


@pytest.mark.parametrize("argv", GOLDEN_STDOUT, ids=[
    "table-1-csv", "table-7-csv", "table-1-json", "verify-exact-250"])
def test_golden_output(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]


def test_verify_exact_passes(capsys):
    trace_closed.cache_clear()
    code, out, _ = run_cli(capsys, "verify", "--suite", "exact",
                           "--order", "12")
    assert code == 0
    assert "checks passed" in out
    assert "[FAIL]" not in out
    # the identities build the four traces of the 1A and 2A components;
    # the closed-vs-direct lines compare data and build no trace
    assert trace_closed.cache_info().misses == 4


def clear_caches():
    trace_closed.cache_clear()


def test_verify_exact_sums_each_cone_once(capsys, monkeypatch):
    # one octant walk per closed form, each to the order compared at: the
    # 4 traces of the 1A and 2A components, the 2 corollary right sides
    # and the 4 Hecke sums.  mocktheta imports closed_series by name, so
    # both modules' names are counted
    orders = []
    real = characters.closed_series

    def counted(form, order):
        orders.append(order)
        return real(form, order)

    for module in (characters, mocktheta):
        monkeypatch.setattr(module, "closed_series", counted)
    clear_caches()
    code, _, _ = run_cli(capsys, "verify", "--suite", "exact",
                         "--order", "8")
    assert code == 0
    assert orders == [8] * 10


def test_verify_exact_builds_each_eta_quotient_once(capsys, monkeypatch):
    # each closed form multiplies its eta quotient once, in place on the
    # list of its own walk: the 1A and 2A traces' (q;q)^-2 and
    # (q^2;q^2)^-1, and the other sums' three products, the empty one
    # included, two sums each
    calls = []
    real = characters._times_eta

    def counted(p, powers):
        calls.append(tuple(powers))
        return real(p, powers)

    monkeypatch.setattr(characters, "_times_eta", counted)
    clear_caches()
    code, _, _ = run_cli(capsys, "verify", "--suite", "exact",
                         "--order", "8")
    assert code == 0
    assert sorted(calls) == sorted(
        [((1, -2),)] * 2 + [((2, -1),)] * 2 + [((1, 1), (2, -2))] * 2
        + [()] * 2 + [((1, -1), (2, 1))] * 2)


@pytest.mark.parametrize("suite", ["exact", "numeric", "all"])
def test_verify_corrupt_hook_fails(capsys, suite):
    # the hook corrupts one input of a real comparison, which fails it and
    # only it: a printed shift in the exact suite, when it runs, else the
    # tol of the first numeric check
    code, out, _ = run_cli(capsys, "verify", "--suite", suite,
                           "--order", "8", "--corrupt")
    lines = out.splitlines()
    fails = [line for line in lines if "[FAIL]" in line]
    n = len(lines) - 1
    assert code == 1
    assert len(fails) == 1 and "[corrupted]" in fails[0]
    assert (" differs in shift: " if suite != "numeric"
            else " [corrupted]: residual ") in fails[0]
    assert lines[-1] == f"{n - 1}/{n} checks passed"


def corrupt_direct_data(monkeypatch):
    """Add one to the first lin entry of the direct record of 2A a=3;
    return the printed and the derived lin."""
    real = cli._direct_data
    bad_id = TraceId(CLASS_2A, 3)

    def corrupted(tid):
        d = real(tid)
        return d._replace(lin=(d.lin[0] + 1, *d.lin[1:])) if tid == bad_id \
            else d

    monkeypatch.setattr(cli, "_direct_data", corrupted)
    return real(bad_id).lin, corrupted(bad_id).lin


def test_verify_names_closed_vs_direct_discrepancy(capsys, monkeypatch):
    # one datum of the direct route off by one: exactly one failed check,
    # naming the trace id, the field and both values plainly
    printed, derived = corrupt_direct_data(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "--suite", "exact",
                           "--order", "8")
    assert code == 1
    fails = [line for line in out.splitlines() if "[FAIL]" in line]
    assert len(fails) == 1
    assert fails[0].endswith(
        f"2A a=3 differs in lin: printed {printed} vs derived {derived}")
    assert (printed, derived) == ((6, 3), (7, 3))
    assert "ClosedForm" not in fails[0]


def fail_theta_scan(monkeypatch):
    monkeypatch.setattr(cli, "thetanullwerte_class_check",
                        lambda base: (((30, 1, 119),), 144))
    return [], IdentityReport(
        "theta-constant exponent scan base 30 empty (144 pairs)", None,
        ("1/120", "theta0_(30,1)", "119/120")), 28


def fail_numeric_check(monkeypatch):
    # one transformation check returns its tol, which does not pass
    real, gamma = cli.transform_check, ((1, 0), (3, 1))
    monkeypatch.setattr(cli, "transform_check", lambda cls, g, tau, tol:
                        tol if g == gamma else real(cls, g, tau, tol))
    return ["--suite", "numeric"], IdentityReport(
        f"transformation 3A gamma={gamma}", None, None, 1e-6, 1e-6), 12


def fail_identity(monkeypatch):
    # H(2A,7) one too high at q^(671/120), read by one identity line only
    real, bump = mocktheta.h_component, QSeries({671: 1}, 8)
    monkeypatch.setattr(mocktheta, "h_component", lambda cls, r, order:
                        real(cls, r, order) + bump
                        if (cls, r) == (CLASS_2A, 7) else
                        real(cls, r, order))
    c = real(CLASS_2A, 7, 8).coefficient(F(671, 120))
    return [], IdentityReport("H(2A,7) = 2 q^(-49/120) phi1(-q)", 8,
                              (F(671, 120), c + 1, c)), 28


def fail_corrupt(monkeypatch):
    # the hook: the printed shift of 1A a=1 one unit too high
    return ["--corrupt"], IdentityReport(
        "closed vs direct route, 1A a=1 [corrupted]", IdentityReport.EVERY,
        ("shift", 0, -1)), 28


def fail_closed_vs_direct(monkeypatch):
    printed, derived = corrupt_direct_data(monkeypatch)
    return [], IdentityReport("closed vs direct route, 2A a=3",
                              IdentityReport.EVERY,
                              ("lin", printed, derived)), 28


@pytest.mark.parametrize("fail", [
    fail_theta_scan, fail_numeric_check, fail_identity, fail_corrupt,
    fail_closed_vs_direct], ids=["theta", "numeric", "identity", "corrupt",
                                 "closed-vs-direct"])
def test_verify_each_kind_of_check_fails_alone(capsys, monkeypatch, fail):
    # each kind of check, made to fail alone: exit 1, its record's line
    # the one [FAIL] line, and one check fewer passed
    args, report, n = fail(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "--suite", "exact",
                           "--order", "8", *args)
    lines = out.splitlines()
    assert not report.verified
    assert code == 1
    assert [line for line in lines if "[FAIL]" in line] == [str(report)]
    assert (len(lines), lines[-1]) == (n + 1, f"{n - 1}/{n} checks passed")


def change_shape(order, field, value):
    """Change one field of a printed closed shape, a ClosedForm template
    (its lin the unit)."""
    def patch(monkeypatch):
        shape = characters._CLOSED_SHAPES[order]
        monkeypatch.setitem(characters._CLOSED_SHAPES, order,
                            shape._replace(**{field: value}))
    return patch


def change_form(monkeypatch):
    # the derived 2A form with <f_1, f_1> = 7 for 6
    real = characters._fixed_form

    def form(cycles, a):
        gram, lin, shift = real(cycles, a)
        if len(cycles) == 2:
            (g00, g01), row1 = gram
            gram = ((g00 + 1, g01), row1)
        return gram, lin, shift

    monkeypatch.setattr(characters, "_fixed_form", form)


def change_direct_signs(order, rule):
    def patch(monkeypatch):
        monkeypatch.setitem(characters._DIRECT_SIGNS, order, rule)
    return patch


def change_prefactor(monkeypatch):
    # the 3A prefactor with the Heisenberg trace of 1A
    real = characters._prefactor
    monkeypatch.setattr(characters, "_prefactor", lambda cls:
                        real(CLASS_1A if cls is CLASS_3A else cls))


def change_shift(monkeypatch):
    # the derived 3A shift one unit of q too high
    real = characters._fixed_form

    def form(cycles, a):
        gram, lin, shift = real(cycles, a)
        return gram, lin, shift + 120 if len(cycles) == 1 else shift

    monkeypatch.setattr(characters, "_fixed_form", form)


# (class, side, field, patch): one printed entry of _CLOSED_SHAPES, or one
# piece that the direct route derives itself, made wrong in one class, and
# the field of the records that then differs
NEGATIVE_CONTROLS = {
    "closed 2A gram": ("2A", "closed", "gram",
                       change_shape(2, "gram", ((6, 5), (5, 1)))),
    "closed 3A sign": ("3A", "closed", "signs",
                       change_shape(3, "signs", (0,))),
    "closed 1A negative sign": ("1A", "closed", "negative_sign",
                                change_shape(1, "negative_sign", -1)),
    "closed 2A lin unit": ("2A", "closed", "lin",
                           change_shape(2, "lin", (1, 1))),
    "direct 2A form": ("2A", "direct", "gram", change_form),
    "direct 1A sign rule": ("1A", "direct", "signs",
                            change_direct_signs(1, ((1, 1, 0), 1))),
    "direct 2A flip": ("2A", "direct", "negative_sign",
                       change_direct_signs(2, ((3, 1), 1))),
    "direct 3A Heisenberg": ("3A", "direct", "powers", change_prefactor),
    "direct 3A shift": ("3A", "direct", "shift", change_shift),
}
# the identity lines that read the closed traces of a class
READS_CLOSED = {"1A": ("2 T(e,", "H(1A,"),
                "2A": ("H(2A,", "corollary double-sum identity ("), "3A": ()}


@pytest.mark.parametrize("name", NEGATIVE_CONTROLS)
def test_closed_vs_direct_lines_catch_a_wrong_piece(capsys, monkeypatch,
                                                     name):
    # exit 1, with [FAIL] on all five closed-vs-direct lines of the changed
    # class, each naming the changed field, and on the identity lines of
    # that class when the change is to a closed shape.  The data differ at
    # a=5 too, where both traces vanish
    name_of_class, side, field, patch = NEGATIVE_CONTROLS[name]
    clear_caches()
    patch(monkeypatch)
    try:
        code, out, _ = run_cli(capsys, "verify", "--suite", "exact",
                               "--order", "8")
    finally:
        clear_caches()
    fails = [line for line in out.splitlines() if "[FAIL]" in line]
    direct = [line for line in fails if "closed vs direct route" in line]
    allowed = READS_CLOSED[name_of_class] if side == "closed" else ()
    assert code == 1
    assert [line.split(" differs in ")[0] for line in direct] == [
        f"[FAIL] closed vs direct route, {name_of_class} a={a}"
        for a in (1, 3, 5, 7, 9)]
    assert all(f" differs in {field}: printed " in line for line in direct)
    assert all(line in direct or any(s in line for s in allowed)
               for line in fails)


def test_eval_series_value(capsys):
    code, out, _ = run_cli(capsys, "eval", "--class", "1A", "--r", "1",
                           "--tau", "0+1i")
    assert code == 0
    assert "est. error" in out


EVAL_GRID_TAUS = ("0.1+0.8i", "0.25+0.03i", "0.3+0.001i", "-2.7+0.5i",
                  "0.5+0.2i", "0.324965+0.5i", "-0.472187+1.0i",
                  "0.25+0.01i", "0.1+5i")


# (class, r, tau, options) of the eval calls whose printed figure was once
# below rounding: a 1A completion mostly its Eichler part, and four values
# so small (1.6e-312 to 5.6e-320) that eps |value| underflows to 0
EVAL_FIGURE_CALLS = [
    ("1A", "7", "-1.1766146+5.6962123i", ("--completion", "--tol", "2.5e-13")),
    ("2A", "7", "0.19999980926513672+193.3020261396554i",
     ("--completion", "--tol", "3.240469416806902e-08")),
    ("1A", "7", "0.25+195i", ()),
    ("1A", "7", "0.25+195i", ("--completion",)),
    ("3A", "53", "1978.2313842773438+197.92693485819137i", ())]


def test_eval_error_figure_is_never_below_rounding(capsys):
    # over the 216-call grid (class x r in {1, 7, -1, 13} x 9 tau x series
    # and completion) no printed est. error is below eps |value|: not the
    # 0.0e+00 of a pulled-back 3A series, nor the 1.4e-107 of a 1A series
    # tail in F.  Nor at a 1A completion high in F that is mostly its
    # Eichler part, whose figure left out the R-sums' rounding (1.6e-23
    # at a value of size 1.4e-7).  Nor below the spacing ulp(|value|) of
    # a subnormal value, where eps |value| underflows to 0 as well: the
    # last four calls give values of size 1.6e-312 to 5.6e-320.  The
    # refusals keep their exit 3
    answered = 0
    for group_class, r, tau, extra in [*itertools.product(
            ("1A", "2A", "3A"), ("1", "7", "-1", "13"), EVAL_GRID_TAUS,
            ((), ("--completion",)))] + EVAL_FIGURE_CALLS:
        code, out, err = run_cli(capsys, "eval", "--class", group_class,
                                 "--r", r, f"--tau={tau}", *extra)
        if code == 3:
            assert group_class == "3A" and tau == "0.3+0.001i", err
            continue
        assert code == 0, err
        answered += 1
        head, _, tail = out.partition(" = ")
        re_part, im_part = tail.split()[:2]
        value = complex(float(re_part), float(im_part[:-1]))
        est = float(out.rsplit("<= ", 1)[1].rstrip(")\n"))
        assert est >= sys.float_info.epsilon * abs(value), out
        assert est >= math.ulp(abs(value)), out
    assert answered == 213


def _census_calls(seed: int, n: int) -> list:
    """n seeded eval points, then the calls of EVAL_FIGURE_CALLS, each as
    (class, r, tau, tol, completion).  r is one of +-1, +-7, 11, 13, 53,
    59; Re tau is a multiple of 2^-20, so that tau + 1 is exact, within 1
    of 0 for three points in four and within 1000 for the rest; Im tau is
    log-uniform in [1e-14, 1e3] and tol in [1e-16, 1e-3]; half of each
    kind of point asks for the completion."""
    rng = random.Random(seed)
    calls = []
    for i in range(n):
        group_class = rng.choice(("1A", "2A", "3A"))
        r = rng.choice((1, -1, 7, -7, 11, 13, 53, 59))
        half_width = 2 ** 20 * (1000 if i % 4 == 0 else 1)
        tau = complex(rng.randint(-half_width, half_width) / 2 ** 20,
                      10 ** rng.uniform(-14, 3))
        tol = 10 ** rng.uniform(-16, -3)
        calls.append((group_class, r, tau, tol, i % 8 < 4))
    for group_class, r, tau, options in EVAL_FIGURE_CALLS:
        tol = float(options[options.index("--tol") + 1]) \
            if "--tol" in options else 1e-9       # the default of eval
        calls.append((group_class, int(r), cli._parse_tau(tau), tol,
                      "--completion" in options))
    return calls


def test_eval_census(capsys):
    # 1000 seeded points and the calls of EVAL_FIGURE_CALLS, each at tau and
    # at tau + 1, in process.  Every call exits 0 or 3 within 0.5 s.  An
    # exit 3 writes one line naming the tol and tau given; an exit 0 one H
    # line whose figure is at least eps |value| and ulp(|value|).  Where
    # both answer, H(tau + 1) = e(lead/120) H(tau) within the two figures
    # and the 13-digit print of both values.  The exit-3 reasons, counted
    # by class, are printed
    reasons = collections.Counter()
    calls = pairs = 0
    for group_class, r, tau, tol, completion in _census_calls(7, 1000):
        answers = []
        for point in (tau, tau + 1):
            argv = ["eval", "--class", group_class, "--r", str(r),
                    f"--tau={point.real!r}+{point.imag!r}i",
                    "--tol", repr(tol)] + ["--completion"] * completion
            start = time.perf_counter()
            code, out, err = run_cli(capsys, *argv)
            elapsed = time.perf_counter() - start
            calls += 1
            assert elapsed < 0.5, (argv, elapsed)
            if code == 3:
                assert out == "" and err.count("\n") == 1, argv
                assert err.startswith("error: ") and \
                    err.endswith(f" (tol {tol} at tau = {point})\n"), err
                reason = err[len("error: "):].split(":")[0]
                reasons[group_class, " ".join(reason.split()[:3])] += 1
                answers.append(None)
                continue
            assert (code, err) == (0, ""), argv
            assert out.startswith("H[") and out.count("\n") == 1, out
            re_part, im_part = out.partition(" = ")[2].split()[:2]
            value = complex(float(re_part), float(im_part[:-1]))
            est = float(out.rsplit("<= ", 1)[1].rstrip(")\n"))
            assert est >= max(sys.float_info.epsilon * abs(value),
                              math.ulp(abs(value))), out
            answers.append((value, est))
        if None not in answers:
            (h0, e0), (h1, e1) = answers
            lead = FAMILIES[component_family(r)[0]].lead
            gap = abs(h1 - cmath.exp(2j * math.pi * lead / 120) * h0)
            assert gap <= e0 + e1 + 5e-13 * (abs(h0) + abs(h1)), \
                (group_class, r, tau, tol, completion, gap)
            pairs += 1
    assert calls >= 2000
    print(f"eval census: {calls} calls, {pairs} pairs checked")
    for (group_class, reason), count in sorted(reasons.items()):
        print(f"  exit 3, {group_class}: {count} {reason}")


def test_eval_out_of_support(capsys):
    code, _, err = run_cli(capsys, "eval", "--class", "1A", "--r", "5",
                           "--tau", "0+1i")
    assert code == 2
    assert "support" in err
    # the support is read from characters.FAMILIES
    code, out, err = run_cli(capsys, "eval", "--class", "1A", "--r", "2",
                             "--tau", "0+1i")
    assert (code, out) == (2, "")
    assert err == ("error: component r=2 is outside the support "
                   "+-{1,7,11,13,17,19,23,29} mod 60\n")


def test_eval_bad_tau(capsys):
    code, _, err = run_cli(capsys, "eval", "--class", "1A", "--r", "1",
                           "--tau", "1-2i")
    assert code == 2
    code, _, err = run_cli(capsys, "eval", "--class", "1A", "--r", "1",
                           "--tau", "garbage")
    assert code == 2


def test_eval_completion_zero_shadow_matches_series(capsys):
    _, plain, _ = run_cli(capsys, "eval", "--class", "3A", "--r", "7",
                          "--tau", "0.1+0.9i")
    _, completed, _ = run_cli(capsys, "eval", "--class", "3A", "--r", "7",
                              "--tau", "0.1+0.9i", "--completion")

    def parse(text):
        parts = text.split(" = ", 1)[1].split()
        return complex(float(parts[0]), float(parts[1].rstrip("i")))

    assert abs(parse(plain) - parse(completed)) < 1e-9


@pytest.mark.parametrize("completion", [False, True])
@pytest.mark.parametrize("tau", ["0.25+60i", "0.25+130i"])
def test_eval_at_large_height(capsys, tau, completion):
    # e(-n tau) of the Eichler terms overflows at Im 60 and |q| underflows
    # to 0.0 at Im 130; the value itself is finite and near the polar term
    extra = ["--completion"] if completion else []
    code, out, err = run_cli(capsys, "eval", "--class", "1A", "--r", "1",
                             f"--tau={tau}", *extra)
    assert code == 0 and err == ""
    parts = out.split(" = ", 1)[1].split()
    value = complex(float(parts[0]), float(parts[1].rstrip("i")))
    assert math.isfinite(value.real) and math.isfinite(value.imag)
    polar = -2 * cmath.exp(-2j * cmath.pi * complex(tau.replace("i", "j"))
                           / 120)
    assert abs(value - polar) < 0.01 * abs(polar)


def _eval_value(out):
    parts = out.split(" = ", 1)[1].split()
    return complex(float(parts[0]), float(parts[1].rstrip("i")))


@pytest.mark.parametrize("completion", [False, True])
def test_eval_1a_huge_real_part(capsys, completion):
    # 1e300 is an integer: it is reduced mod 120 exactly before the
    # pull-back, so the value is the one at the reduced real part, and
    # e(-r^2 k/120) times the one at 0.01i
    extra = ["--completion"] if completion else []
    k = int(1e300) % 120
    for r in (1, 7):
        values = []
        for x in ("1e300", str(k), "0"):
            code, out, _ = run_cli(capsys, "eval", "--class", "1A",
                                   "--r", str(r), f"--tau={x}+0.01i", *extra)
            assert code == 0
            values.append(_eval_value(out))
        assert values[0] == values[1]
        phase = cmath.exp(-2j * cmath.pi * (r * r * k % 120) / 120)
        assert abs(values[0] - phase * values[2]) < 1e-12 * abs(values[2])


@pytest.mark.parametrize("completion", [False, True])
@pytest.mark.parametrize("tau", ["0.1+1e-320i", "0.25+5e-324i"])
def test_eval_1a_subnormal_height_exits_3(capsys, tau, completion):
    # the image of tau in F lies so high that q^(-1/120) overflows
    extra = ["--completion"] if completion else []
    code, out, err = run_cli(capsys, "eval", "--class", "1A", "--r", "1",
                             f"--tau={tau}", *extra)
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("completion", [False, True])
# the case ids keep the wording of the earlier error lines, so that the
# test names stay stable
@pytest.mark.parametrize("tau,named", [
    pytest.param("1e16+0.001i",
                 "below double precision: floor 2.4e+07 at a value of size "
                 "1.1e+23 (tol 1e-09 at tau = (1e+16+0.001j))",
                 id="1e16+0.001i-(in F, the image of tau = (1e+16+0.001j), "
                    "at tol "),
    pytest.param("1e300+5e-324i",
                 "the value overflows a double "
                 "(tol 1e-09 at tau = (1e+300+5e-324j))",
                 id="1e300+5e-324i-the value at tau = (1e+300+5e-324j) "
                    "overflows")])
def test_eval_pull_back_error_names_the_tau_given(capsys, tau, named,
                                                  completion):
    # the pull-back starts from Re tau reduced mod 120 (to 40 and to 0
    # here), but its error line names the point that was asked for
    extra = ["--completion"] if completion else []
    code, out, err = run_cli(capsys, "eval", "--class", "1A", "--r", "1",
                             f"--tau={tau}", *extra)
    assert code == 3 and out == ""
    assert err == f"error: {named}\n"


@pytest.mark.parametrize("group_class", ["1A", "2A", "3A"])
def test_eval_direct_summation_error_names_the_tau_given(capsys,
                                                         group_class):
    # the series is summed at Re tau reduced mod 120 (to 40 here), 1A on
    # its translation route, but the overflow line names the point that
    # was asked for
    code, out, err = run_cli(capsys, "eval", "--class", group_class, "--r",
                             "1", "--tau=1e16+1e6i")
    assert code == 3 and out == ""
    assert err == ("error: the value overflows a double "
                   "(tol 1e-09 at tau = (1e+16+1000000j))\n")


def test_eval_eichler_part_error_names_the_tau_and_tol(capsys):
    # pulled back from F, the series is the completion less its Eichler
    # part at tau; at Im tau = 1e-12 that line sum cannot meet its bound
    # within its cap, and says so before summing a term
    code, out, err = run_cli(capsys, "eval", "--class", "1A", "--r", "7",
                             "--tau=0.123456789+1e-12i")
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1
    assert "tau = (0.123456789+1e-12j)" in err and "tol 1e-09" in err


EXIT_3_ARGVS = [
    "--class 2A --r 1 --tau=0.001i",
    "--class 3A --r 7 --completion --tau=0.25+1e-12i",
    "--class 2A --r 7 --tau=0.1+1e-320i",
    "--class 1A --r 1 --tau=0.25+20000i",
    "--class 2A --r 1 --tau=1e16+1e6i",
    "--class 1A --r 1 --tau=1e300+5e-324i",
    "--class 1A --r 1 --completion --tau=0.1+1e-320i",
    "--class 1A --r 1 --tau=0.1+0.5i --tol 1e-300",
    "--class 1A --r 1 --tau=0.25+0.01i --tol 5e-324",
    "--class 1A --r 1 --tau=0.25+0.01i --tol 1e-15",
    "--class 1A --r 7 --tau=0.123456789+1e-12i",
    "--class 1A --r 1 --completion --tau=1e16+0.001i",
]


@pytest.mark.parametrize("argv", EXIT_3_ARGVS)
def test_eval_exit_3_line_gives_reason_then_tol_and_tau(capsys, argv):
    # truncation, overflow (of a series at tau or in F, and of the map to
    # F), a tol below double precision (at tau, in F, scaled to 0.0) and
    # the Eichler line sum: each exit-3 line is "error: <reason> (tol <tol>
    # at tau = <tau>)", with the tol and tau given, as Python prints them
    args = argv.split()
    tol = float(args[args.index("--tol") + 1]) if "--tol" in args else 1e-9
    tau = next(complex(a[len("--tau="):].replace("i", "j")) for a in args
               if a.startswith("--tau="))
    code, out, err = run_cli(capsys, "eval", *args)
    assert code == 3 and out == ""
    suffix = f" (tol {tol} at tau = {tau})\n"
    assert err.startswith("error: ") and err.endswith(suffix)
    reason = err[len("error: "):-len(suffix)]
    assert reason and "\n" not in reason
    assert "tol " not in reason and "tau" not in reason


def test_verify_numeric_lines_in_process(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "numeric")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    names = [f"completion identity r={r} at tau={tau}" for r in (1, 7)
             for tau in ("(0.1+0.8j)", "0.5j", "(0.25+0.95j)")]
    names += [f"transformation {cls} gamma={gamma}" for cls, gamma in [
        ("1A", "((1, 1), (0, 1))"), ("1A", "((0, -1), (1, 0))"),
        ("2A", "((1, 1), (0, 1))"), ("2A", "((1, 0), (2, 1))"),
        ("3A", "((1, 1), (0, 1))"), ("3A", "((1, 0), (3, 1))")]]
    assert len(lines) == 13 and lines[-1] == "12/12 checks passed"
    for line, name in zip(lines, names):
        head, _, res = line.partition(": residual ")
        assert head == f"[ok]   {name}" and float(res) < 1e-6
    # a check that cannot reach its tol exits 3 and names the tol that was
    # given and the check, not the tol/10 that its completions are summed to
    code, out, err = run_cli(capsys, "verify", "--suite", "numeric",
                             "--tol", "5e-15")
    assert code == 3 and out == "" and len(err.splitlines()) == 1
    assert "(tol 5e-15 in transformation 2A gamma=((1, 0), (2, 1)))" in err
    assert "5e-16" not in err


def test_verify_numeric_never_pulls_back(capsys, monkeypatch):
    # each check sums both of its sides at their own points: with the map
    # to F and the evaluator that pulls back through the law both broken,
    # every check still passes
    def broken(*args, **kwargs):
        raise AssertionError("a check reached the pull-back")

    for name in ("_to_fundamental_domain", "h_value"):
        monkeypatch.setattr(maass, name, broken)
    code, out, err = run_cli(capsys, "verify", "--suite", "numeric")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "12/12 checks passed"


def test_readme_error_lines(capsys):
    # each command README quotes with the "error:" line it writes, inline
    # or as an indented block: that line is all of its stderr
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quoted = re.findall(r"`((?:table|verify|eval) [^`]*)` writes\s+"
                        r"(?:`(error: [^`]*)`|(error: [^\n]*))", readme)
    assert len(quoted) >= 3
    for command, inline, block in quoted:
        code, out, err = run_cli(capsys, *shlex.split(command))
        assert (code in (2, 3), out, err) == (True, "", (inline or block)
                                               + "\n"), command


def test_closed_stdout_ends_quietly():
    # a reader that closes the pipe before the table is written (as
    # `| head -2` may) gets no traceback on stderr
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "e8umbral.cli", "table", "--component", "1",
         "--max-row", "29999"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


def _cli_env():
    """The environment of a cold CLI process, with stdout block-buffered
    when it is a regular file (and not unbuffered by the caller's
    PYTHONUNBUFFERED)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    return env


# (argv, exit code) of cold calls, each ending through cli.run's os._exit
PROCESS_CASES = [
    (["table", "--component", "1", "--max-row", "119999"], 0),
    (["verify", "--suite", "exact", "--order", "25", "--corrupt"], 1),
    (["table", "--component", "3", "--max-row", "5"], 2),
    (["eval", "--class", "2A", "--r", "1", "--tau=0.001i"], 3),
]


@pytest.mark.parametrize("to_file", [True, False], ids=["file", "pipe"])
@pytest.mark.parametrize("argv,code", PROCESS_CASES,
                         ids=["table", "corrupt", "usage", "exit3"])
def test_process_output_matches_main(capsys, tmp_path, argv, code, to_file):
    # os._exit skips the interpreter's own flush: the process must still
    # write every byte that main writes in process, to a block-buffered
    # regular file as to a pipe, with the same exit code
    want_code = main(list(argv))
    want_out, want_err = capsys.readouterr()
    assert want_code == code
    command = [sys.executable, "-m", "e8umbral.cli", *argv]
    if to_file:
        path = tmp_path / "out.txt"
        with open(path, "wb") as out:
            proc = subprocess.run(command, stdout=out, stderr=subprocess.PIPE,
                                  env=_cli_env(), timeout=120)
        got_out = path.read_bytes()
    else:
        proc = subprocess.run(command, capture_output=True, env=_cli_env(),
                              timeout=120)
        got_out = proc.stdout
    assert (got_out, proc.stderr, proc.returncode) == \
        (want_out.encode(), want_err.encode(), code)
    lines = got_out.decode().splitlines()
    if code == 0:
        assert len(lines) == 1002 and lines[-1].startswith("119999,")
    elif code == 1:
        assert sum("[FAIL]" in line for line in lines) == 1
    else:
        assert lines == [] and len(proc.stderr.splitlines()) == 1


def test_main_leaves_no_threads_or_exit_handlers():
    # what makes skipping teardown safe: no command starts a thread or
    # registers an atexit handler that os._exit would cut short
    argvs = [case[0] for case in PROCESS_CASES] + [
        ["table", "--component", "7", "--max-row", "479", "--format",
         "json"],
        ["verify", "--suite", "all"],
        ["eval", "--class", "1A", "--r", "1", "--completion",
         "--tau=0.25+0.01i"],
        ["eval", "--class", "3A", "--r", "7", "--tau=0.1+0.8i"],
        ["--help"],
    ]
    code = ("import atexit, contextlib, io, threading\n"
            "from e8umbral.cli import main\n"
            f"argvs = {argvs!r}\n"
            "for argv in argvs:\n"
            "    state = threading.active_count(), atexit._ncallbacks()\n"
            "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
            "            contextlib.redirect_stderr(io.StringIO()):\n"
            "        assert isinstance(main(argv), int), argv\n"
            "    assert (threading.active_count(),\n"
            "            atexit._ncallbacks()) == state, argv\n"
            "print(len(argvs))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_cli_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{len(argvs)}\n"


def test_run_ends_usage_errors_without_teardown():
    # run() ends a usage error through os._exit like every other code, so
    # an atexit handler registered before it never runs
    code = ("import atexit, sys\n"
            "from e8umbral.cli import run\n"
            "atexit.register(print, 'atexit handler ran')\n"
            "sys.argv[1:] = ['table', '--component', '3', '--max-row', '5']\n"
            "run()\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_cli_env(),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


def test_entry_point_is_run():
    # the installed script ends through run(), as python -m e8umbral.cli
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert 'e8umbral = "e8umbral.cli:run"' in pyproject.read_text()


def test_usage_error_exit_code(capsys):
    # the parser's usage errors and the handlers' share one exit
    code, out, err = run_cli(capsys, "table", "--component", "3",
                             "--max-row", "5")
    assert (code, out) == (2, "")
    assert err == ("error: argument --component: invalid choice '3' "
                   "(choose from 1, 7)\n")


def test_eval_tau_with_leading_minus(capsys):
    split = run_cli(capsys, "eval", "--class", "1A", "--r", "7",
                    "--tau", "-0.5+0.8i")
    joined = run_cli(capsys, "eval", "--class", "1A", "--r", "7",
                     "--tau=-0.5+0.8i")
    assert split == joined
    assert split[0] == 0
    # any value option takes the next token, whatever it starts with
    split = run_cli(capsys, "eval", "--class", "1A", "--r", "-1",
                    "--tau", "0.1+0.8i")
    joined = run_cli(capsys, "eval", "--class", "1A", "--r=-1",
                     "--tau=0.1+0.8i")
    assert split == joined
    assert split[0] == 0 and split[1].startswith("H[1A, r=59](")
    code, out, err = run_cli(capsys, "table", "--component", "1",
                             "--max-row", "-2")
    assert (code, out, err) == (2, "", "error: empty row range\n")


@pytest.mark.parametrize("argv", [["--help"], ["eval", "-h"],
                                  ["table", "--help"]])
def test_help_names_every_option(capsys, argv):
    # the usage text is drawn from the same table the parser reads
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    command = argv[0] if argv[0] in cli.COMMANDS else "table"
    for option in cli.COMMANDS[command][1]:
        assert option in out, option


@pytest.mark.parametrize("argv,code", [
    (["verify", "--suite", "numeric", "--tol", "0"], 2),
    (["verify", "--suite", "numeric", "--tol", "-1"], 2),
    (["verify", "--suite", "numeric", "--tol", "nan"], 2),
    (["eval", "--class", "1A", "--r", "1", "--tau", "0+1i", "--tol", "0"], 2),
    (["verify", "--suite", "exact", "--order", "-3"], 2),
    (["eval", "--class", "2A", "--r", "1", "--tau", "0.002i",
      "--completion"], 3),
    (["verify", "--suite", "exact", "--order", "100000"], 2),
    (["eval", "--class", "1A", "--r", "1", "--tau=nan+1i"], 2),
    (["eval", "--class", "1A", "--r", "1", "--tau=0.1+nani"], 2),
    (["eval", "--class", "3A", "--r", "1", "--tau=0.5+0.002i"], 3),
    (["eval", "--class", "1A", "--r", "1", "--tau=0.25+20000i"], 3),
    (["eval", "--class", "2A", "--r", "7", "--tau=0.1+1e-320i"], 3),
    (["eval", "--class", "1A", "--r", "1", "--tau=0.1+0.5i",
      "--tol", "1e-300"], 3),
    (["eval", "--class", "1A", "--r", "1", "--tau=0.1+0.5i",
      "--tol", "1e-300", "--completion"], 3),
    (["table", "--component", "7", "--max-row", "70"], 2),
    (["eval", "--class", "1A", "--r", "1", "--tau=0.25+0.01i",
      "--tol", "5e-324"], 3),
    (["eval", "--class", "1A", "--r", "1", "--tau=0.25+0.01i",
      "--tol", "1e-15"], 3),
    ([], 2),
    (["tabel", "--component", "1", "--max-row", "5"], 2),
    (["table", "--component", "1", "--max-row", "5", "--rows", "3"], 2),
    (["eval", "--class", "1A", "--r", "1", "--tau"], 2),
    (["eval", "--class", "1A", "--r", "1", "--tau=0+1i",
      "--completion=yes"], 2),
    (["eval", "--class", "4A", "--r", "1", "--tau=0+1i"], 2),
    (["table", "--component", "1", "--max-row", "5", "--format", "xml"], 2),
    (["eval", "--class", "1A", "--r", "x", "--tau=0+1i"], 2),
    (["eval", "--class", "1A", "--r", "1"], 2),
    # prefix abbreviation of option names is not accepted
    (["table", "--comp", "1", "--max-row", "5"], 2),
])
def test_bad_input_exits_with_one_line(capsys, argv, code):
    # the exit-3 cases are real: near a cusp a/c with N not dividing c (2A
    # at 0, 3A at 1/2) H_r is summed at tau itself, and at Im tau = 0.002
    # that needs more than the order-800 cap; 2A at 0.1+1e-320i is pulled
    # back (c = -2^55), and its value overflows a double; at Im tau = 20000
    # the 1A polar term q^(-1/120) overflows a double, and tol 1e-300 is
    # below the double precision of a value of size 2 (and tol 5e-324 at
    # 0.25+0.01i, scaled by |c tau + d|^(1/2) = 0.2 for the image of tau in
    # F, is 0.0; tol 1e-15 there is 2e-16, below the precision of a value of
    # size 2.8, and the line names the tol asked for).  The 7-component
    # table starts at row 71, so max-row 70 leaves no row.
    got = main(argv)
    out, err = capsys.readouterr()
    assert got == code
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    if code == 3 and "--tol" in argv:
        assert f"tol {argv[argv.index('--tol') + 1]} " in err


def test_eval_never_raises_across_heights(capsys):
    # from subnormal to huge Im tau, eval either answers or exits 3 with
    # one line; no exception escapes main.  Each case runs at a seeded
    # real part and at a huge one (cycling 1e300, -1e300, 10^6 + 7)
    rng = random.Random(11)
    heights = ("1e-320", "1e-300", "1e-5", "1e-3", "0.009", "0.0105", "0.02",
               "0.3", "1", "30", "60", "500", "13000", "14000", "1e6",
               "1e300")
    huge = itertools.cycle(("1e300", "-1e300", "1000007"))
    for cls in ("1A", "2A", "3A"):
        for r in ("1", "7", "-1", "53"):
            for height in heights:
                for extra in ([], ["--completion"]):
                    for x in (round(rng.uniform(-0.5, 0.5), 4), next(huge)):
                        argv = ["eval", "--class", cls, "--r", r,
                                f"--tau={x}+{height}i", *extra]
                        code = main(argv)
                        out, err = capsys.readouterr()
                        assert code in (0, 3), argv
                        want_lines = 1 if code == 3 else 0
                        assert len(err.splitlines()) == want_lines, argv


def test_eval_never_raises_at_extreme_heights_and_tols(capsys):
    # at Im tau = 1e308 and a tol of 1e-320 or below, both 1/tol and
    # 2 pi Im tau are inf, and the truncation order was once inf/inf = nan,
    # a ValueError out of main
    for cls in ("1A", "2A", "3A"):
        for height in ("5e-324", "1e-300", "1e308"):
            for tol in ("5e-324", "1e-320", "1e300"):
                for extra in ([], ["--completion"]):
                    argv = ["eval", "--class", cls, "--r", "1",
                            f"--tau=0+{height}i", "--tol", tol, *extra]
                    code = main(argv)
                    out, err = capsys.readouterr()
                    assert code in (0, 2, 3), argv
                    assert len(err.splitlines()) <= 1, argv


def test_import_does_not_load_scipy():
    # numpy and scipy are test-only dependencies: the package must run
    # without them, the numeric suite and both eval routes included.  Nor
    # does it load dataclasses or inspect, which cost a cold CLI call more
    # import time than the package itself
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import contextlib, io, sys, e8umbral\n"
            "from e8umbral.cli import main\n"
            "guarded = {'numpy', 'scipy', 'dataclasses', 'inspect'}\n"
            "loaded = guarded & set(sys.modules)\n"
            "assert not loaded, f'{loaded} imported'\n"
            "for argv in (['verify', '--suite', 'all'],\n"
            "             ['eval', '--class', '1A', '--r', '1',\n"
            "              '--completion', '--tau=0.25+0.01i'],\n"
            "             ['eval', '--class', '2A', '--r', '7',\n"
            "              '--tau=0.3+1i']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "    loaded = guarded & set(sys.modules)\n"
            "    assert not loaded, f'{argv} loaded {loaded}'\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_call_loads_no_argparse():
    # argparse, and the gettext and locale it imports, cost a cold call
    # about 8 ms, three times a near-cusp eval itself
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys\n"
            "from e8umbral.cli import main\n"
            "assert main(['eval', '--class', '1A', '--r', '1',\n"
            "             '--completion', '--tau=0.25+0.01i']) == 0\n"
            "print(sorted({'argparse', 'gettext', 'locale'} & "
            "set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_no_command_loads_fractions():
    # the exact engine carries exponents, orders and shifts, and the
    # indefinite-theta data its characteristics, as int numerators over
    # 120: importing the package, a table (csv and json), each verify
    # suite and an eval of 1A and of 2A (series and completion) load none
    # of fractions, decimal and numbers (about 2.5 ms of a cold call)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import contextlib, io, sys\n"
            "guarded = {'fractions', 'decimal', 'numbers'}\n"
            "import e8umbral\n"
            "from e8umbral.cli import main\n"
            "assert not guarded & set(sys.modules), 'import e8umbral'\n"
            "for argv in (['table', '--component', '7', '--max-row', '479'],\n"
            "             ['table', '--component', '1', '--max-row', '479',\n"
            "              '--format', 'json'],\n"
            "             ['verify', '--suite', 'exact', '--order', '25'],\n"
            "             ['verify', '--suite', 'numeric'],\n"
            "             ['verify', '--suite', 'all'],\n"
            "             ['eval', '--class', '1A', '--r', '7',\n"
            "              '--completion', '--tau=0.25+0.01i'],\n"
            "             ['eval', '--class', '1A', '--r', '1',\n"
            "              '--tau=0.25+0.01i'],\n"
            "             ['eval', '--class', '2A', '--r', '1',\n"
            "              '--tau=0.3+1i'],\n"
            "             ['eval', '--class', '2A', '--r', '7',\n"
            "              '--completion', '--tau=0.3+1i']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "    loaded = guarded & set(sys.modules)\n"
            "    assert not loaded, f'{argv} loaded {loaded}'\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_json_is_imported_only_where_it_is_written():
    # json costs a cold call import time, and only table --format json
    # writes it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import contextlib, io, sys\n"
            "from e8umbral import cli\n"
            "for argv in (['table', '--component', '1', '--max-row', '479'],\n"
            "             ['verify', '--suite', 'exact', '--order', '5'],\n"
            "             ['eval', '--class', '1A', '--r', '1',\n"
            "              '--tau=0.1+0.8i']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "    assert 'json' not in sys.modules, f'{argv} imported json'\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run([sys.executable, "-m", "e8umbral.cli", "table",
                           "--component", "1", "--max-row", "479",
                           "--format", "json"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["rows"]) == 5
