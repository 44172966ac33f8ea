"""The three workloads: the CLI argument lists they run, generated from a
seed, and the checks each operation's output must pass.

Every operation is one `e8umbral` CLI call.  An operation fails when the
call exits non-zero (or, in process, raises); the checks apply to the
operations that did not fail, and a check that does not hold makes the
run incorrect.
"""

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

from reference import APPENDIX, FIRST_ROW, expected_1a_2a, s_law_residuals

# compute cap of `table`, and the last appendix row of component 1
MAX_ROW = 29999
APPENDIX_ROW = 4559
EXACT_ORDERS = (25, 50, 75)
NUMERIC_HEIGHTS = (0.5, 1.0)
CUSP_HEIGHT = 0.03
# Im tau = 0.01 hits the order-800 cap of the series evaluation on every
# real part; its real part is fixed so that the failing operations do not
# depend on the seed.
FAULT_TAU = complex(0.25, 0.01)
# `eval` runs at its default tolerance; this is the error a value may have
# when its output line states no bound of its own.
EVAL_TOL = 1e-9
# half a unit in the 13th significant digit of a printed value
PRINT_REL = 5e-13


@dataclass
class Op:
    label: str
    argv: list
    check: object            # (stdout text) -> list of problems


@dataclass
class Workload:
    name: str
    ops: list
    # (tau, indices of H_1(tau), H_7(tau), H_1(-1/tau), H_7(-1/tau))
    s_pairs: list = field(default_factory=list)
    # (label, argv, expected exit code, expected number of [FAIL] lines)
    prechecks: list = field(default_factory=list)


# ----------------------------------------------------------------------
# output checks


def _value(text):
    return int(text) if "/" not in text else Fraction(text)


def _table_rows(stdout, fmt):
    if fmt == "csv":
        lines = stdout.strip().splitlines()
        if not lines or lines[0] != "exponent_numerator,1A,2A,3A":
            raise ValueError("unexpected csv header")
        rows = {}
        for line in lines[1:]:
            num, *vals = line.split(",")
            rows[int(num)] = tuple(_value(v) for v in vals)
        return rows
    doc = json.loads(stdout)
    return {row["exponent_numerator"]:
            tuple(_value(row["values"][n]) for n in ("1A", "2A", "3A"))
            for row in doc["rows"]}


def check_table(component, max_row, fmt):
    """Every row present; the appendix rows as published; c_1A = c_2A mod 4,
    c_1A = c_3A mod 6 and c_1A > 0 past the polar term; the 1A and 2A
    columns equal to the plain-integer mock theta series."""
    expected = expected_1a_2a(component, max_row)

    def check(stdout):
        try:
            rows = _table_rows(stdout, fmt)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable table: {exc}"]
        problems = []
        if sorted(rows) != sorted(expected):
            problems.append(f"rows {min(rows, default=None)}.."
                            f"{max(rows, default=None)} ({len(rows)}) "
                            f"instead of {FIRST_ROW[component]}..{max_row}")
        for num, published in APPENDIX[component].items():
            if num <= max_row and rows.get(num) != published:
                problems.append(f"row {num}: {rows.get(num)} != published "
                                f"{published}")
        for num, vals in sorted(rows.items()):
            c1, c2, c3 = vals
            if (c1 - c2) % 4 or (c1 - c3) % 6 or (num > 0 and c1 <= 0):
                problems.append(f"row {num}: {vals} breaks the congruences")
            if num in expected and (c1, c2) != expected[num]:
                problems.append(f"row {num}: (1A, 2A) = {(c1, c2)} but the "
                                f"mock theta series give {expected[num]}")
        return problems[:5]
    return check


_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed$")


def check_verify(min_checks):
    """All checks passed, and at least min_checks of them ran."""
    def check(stdout):
        lines = stdout.strip().splitlines()
        m = _SUMMARY.match(lines[-1]) if lines else None
        if not m:
            return ["no check summary"]
        passed, total = int(m.group(1)), int(m.group(2))
        if passed != total or total < min_checks or \
                any("[FAIL]" in line for line in lines):
            return [f"verify reported {passed}/{total} "
                    f"(needs all of at least {min_checks})"]
        return []
    return check


_FLOAT = r"[-+]?\d+(?:\.\d*)?(?:e[-+]?\d+)?"
_EVAL = re.compile(rf"^H\[(\w+), r=(\d+)\]\(.*?\) = ({_FLOAT}) ({_FLOAT})i")
_EST = re.compile(rf"error\D*?({_FLOAT})")


def parse_eval(stdout):
    """(class, r, value, error bound) from an `eval` output line."""
    m = _EVAL.match(stdout.strip())
    if not m:
        raise ValueError(f"unreadable eval output {stdout.strip()[:80]!r}")
    value = complex(float(m.group(3)), float(m.group(4)))
    est = _EST.search(stdout)
    err = float(est.group(1)) if est else EVAL_TOL
    err += PRINT_REL * (abs(value.real) + abs(value.imag))
    return m.group(1), int(m.group(2)), value, err


def check_eval(r):
    def check(stdout):
        try:
            cls, got_r, _, _ = parse_eval(stdout)
        except ValueError as exc:
            return [str(exc)]
        if (cls, got_r) != ("1A", r):
            return [f"eval answered for {cls} r={got_r}, asked 1A r={r}"]
        return []
    return check


def check_s_law(workload, outputs):
    """The S-law on every (tau, -1/tau) pair whose four evaluations all
    succeeded; outputs[i] is the stdout of op i, or None if it failed.
    Returns (problems, largest residual)."""
    problems = []
    worst = 0.0
    for tau, idx in workload.s_pairs:
        if any(outputs[i] is None for i in idx):
            continue
        vals = []
        for i in idx:
            try:
                _, _, v, err = parse_eval(outputs[i])
            except ValueError as exc:
                problems.append(str(exc))
                break
            vals.append((v, err))
        else:
            for r, (res, bound) in zip((1, 7), s_law_residuals(
                    tau, vals[:2], vals[2:])):
                worst = max(worst, res)
                if not res <= bound:
                    problems.append(f"S-law at tau={tau}, r={r}: residual "
                                    f"{res:.2e} > allowed {bound:.2e}")
    return problems, worst


# ----------------------------------------------------------------------
# argument lists


def _tau_arg(tau):
    return f"{tau.real!r}+{tau.imag!r}i"


def _point(rng, height):
    return complex(round(rng.uniform(-0.5, 0.5), 6), height)


def _eval_op(r, tau):
    return Op(f"eval 1A r={r} tau={_tau_arg(tau)}",
              ["eval", "--class", "1A", "--completion", "--r", str(r),
               f"--tau={_tau_arg(tau)}"], check_eval(r))


def _s_pair_ops(ops, pairs, tau):
    """Four `eval --completion` ops: r = 1, 7 at tau and at -1/tau."""
    start = len(ops)
    ops += [_eval_op(r, point) for point in (tau, -1 / tau) for r in (1, 7)]
    # the S-law is checked at the tau the program parsed
    pairs.append((complex(_tau_arg(tau).replace("i", "j")),
                  tuple(range(start, start + 4))))


def build(name, seed):
    rng = random.Random(seed)
    ops, pairs, prechecks = [], [], []
    if name == "exact":
        for comp in (1, 7):
            ops.append(Op(f"table c{comp} {MAX_ROW} csv",
                          ["table", "--component", str(comp),
                           "--max-row", str(MAX_ROW)],
                          check_table(comp, MAX_ROW, "csv")))
        ops.append(Op(f"table c1 {APPENDIX_ROW} json",
                      ["table", "--component", "1", "--max-row",
                       str(APPENDIX_ROW), "--format", "json"],
                      check_table(1, APPENDIX_ROW, "json")))
        for order in EXACT_ORDERS:
            ops.append(Op(f"verify exact {order}",
                          ["verify", "--suite", "exact", "--order",
                           str(order)], check_verify(1)))
        # a verifier that always passes cannot pass this workload
        prechecks.append(("verify exact 25 --corrupt",
                          ["verify", "--suite", "exact", "--order", "25",
                           "--corrupt"], 1, 1))
    elif name == "numeric":
        ops.append(Op("verify numeric", ["verify", "--suite", "numeric"],
                      check_verify(12)))
        # fails 6 of 12 checks: cancellation in maass.indefinite_theta
        ops.append(Op("verify numeric tol 1e-12",
                      ["verify", "--suite", "numeric", "--tol", "1e-12"],
                      check_verify(12)))
        for height in NUMERIC_HEIGHTS:
            _s_pair_ops(ops, pairs, _point(rng, height))
    elif name == "near-cusp":
        _s_pair_ops(ops, pairs, _point(rng, CUSP_HEIGHT))
        # both components fail at FAULT_TAU; its S-image evaluates
        _s_pair_ops(ops, pairs, FAULT_TAU)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, ops, pairs, prechecks)


def check_precheck(rc, stdout, want_rc, want_fails):
    fails = sum("[FAIL]" in line for line in stdout.splitlines())
    if rc != want_rc or fails != want_fails:
        return [f"exit {rc} with {fails} [FAIL] lines, expected exit "
                f"{want_rc} with {want_fails}"]
    return []
