"""Command-line interface: coefficient tables, verification suites, and
point evaluation of the (completed) components.

Exit codes: 0 success, 1 verification failure, 2 usage error (one line
on stderr), 3 a numeric evaluation, of the series alone or of the
completion, that cannot reach the requested tolerance (one line on
stderr).  Exponents are serialized as integer numerators over the
declared denominator 120, never as floats, so table output is
byte-stable across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .characters import CLASSES, SUPPORT_POS, all_trace_ids, h_component, \
    trace_closed, trace_direct
from .maass import ConvergenceError
from .mocktheta import identity_suite
from .theta import thetanullwerte_class_check

CLASS_NAMES = ("1A", "2A", "3A")

# largest exponent numerator cmd_table will compute; the appendix range is
# 4631 and the exact engine stays fast well past this
MAX_ROW_BUDGET = 30000


def _row_numerators(component: int, max_row: int) -> list[int]:
    start = -1 if component == 1 else 71
    return list(range(start, max_row + 1, 120))


def _format_value(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def cmd_table(args) -> int:
    component = args.component
    max_row = args.max_row
    if max_row > MAX_ROW_BUDGET:
        print(f"error: max-row {max_row} exceeds compute budget "
              f"{MAX_ROW_BUDGET}", file=sys.stderr)
        return 2
    nums = _row_numerators(component, max_row)
    if not nums:
        print("error: empty row range", file=sys.stderr)
        return 2
    order = Fraction(nums[-1], 120) + Fraction(1, 120)
    series = {name: h_component(CLASSES[name], component, order)
              for name in CLASS_NAMES}
    rows = []
    for num in nums:
        exp = Fraction(num, 120)
        rows.append((num, {name: series[name].coefficient(exp)
                           for name in CLASS_NAMES}))
    out = sys.stdout
    if args.format == "csv":
        out.write("exponent_numerator," + ",".join(CLASS_NAMES) + "\n")
        for num, vals in rows:
            out.write(f"{num}," + ",".join(_format_value(vals[n])
                                           for n in CLASS_NAMES) + "\n")
    else:
        doc = {
            "grading_denominator": 120,
            "component": component,
            "rows": [
                {"exponent_numerator": num,
                 "values": {n: _format_value(vals[n]) for n in CLASS_NAMES}}
                for num, vals in rows
            ],
        }
        json.dump(doc, out, indent=2, sort_keys=False)
        out.write("\n")
    return 0


def _exact_checks(order: int, corrupt: bool):
    checks = []
    reports = identity_suite(order)
    if corrupt and reports:
        # negative-control hook: flip the verdict of the first identity
        first = reports[0]
        from .mocktheta import IdentityReport
        reports[0] = IdentityReport(first.name + " [corrupted]", first.order,
                                    False, (Fraction(5), Fraction(1),
                                            Fraction(2)))
    for rep in reports:
        checks.append((str(rep), rep.verified))

    ok = True
    detail = []
    for tid in all_trace_ids():
        c = trace_closed(tid, order)
        d = trace_direct(tid, order)
        diff = c.first_difference(d, order)
        if diff is not None:
            ok = False
            detail.append(f"{tid} first discrepancy at q^({diff[0]})")
    label = (f"[ok]   closed vs direct route, all 30 trace functions "
             f"(order {order})" if ok else
             "[FAIL] closed vs direct route: " + "; ".join(detail))
    checks.append((label, ok))

    scan = thetanullwerte_class_check(30)
    checks.append((
        f"[ok]   theta-constant exponent scan base 30 empty "
        f"({scan.pairs_checked} pairs)" if scan.empty else
        f"[FAIL] theta-constant scan hits: {scan.hits}", scan.empty))
    return checks


def _numeric_checks(tol: float):
    from .characters import CLASS_1A, CLASS_2A, CLASS_3A
    from .maass import tau1_identity_check, transform_check

    jobs = []
    for r in (1, 7):
        for tau in (0.1 + 0.8j, 0.5j, 0.25 + 0.95j):
            jobs.append((f"completion identity r={r} at tau={tau}",
                         lambda r=r, tau=tau:
                         tau1_identity_check(tau, r, tol)))
    gens = {CLASS_1A: (((1, 1), (0, 1)), ((0, -1), (1, 0))),
            CLASS_2A: (((1, 1), (0, 1)), ((1, 0), (2, 1))),
            CLASS_3A: (((1, 1), (0, 1)), ((1, 0), (3, 1)))}
    for cls, pair in gens.items():
        for gamma in pair:
            jobs.append((f"transformation {cls.name} gamma={gamma}",
                         lambda cls=cls, gamma=gamma:
                         transform_check(cls, gamma, 0.2 + 1.1j, tol)))

    checks = []
    for name, job in jobs:
        res = job()
        ok = res < tol
        mark = "[ok]  " if ok else "[FAIL]"
        checks.append((f"{mark} {name}: residual {res:.3e}", ok))
    return checks


def cmd_verify(args) -> int:
    checks = []
    if args.suite in ("exact", "all"):
        checks.extend(_exact_checks(args.order, args.corrupt))
    if args.suite in ("numeric", "all"):
        checks.extend(_numeric_checks(args.tol))
    failed = 0
    for line, ok in checks:
        print(line)
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def _parse_tau(text: str) -> complex:
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        value = complex(cleaned)
    except ValueError as exc:
        raise ValueError(f"cannot parse tau from {text!r}") from exc
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"tau must be finite, not {text!r}")
    if value.imag <= 0:
        raise ValueError("tau must have positive imaginary part")
    return value


def cmd_eval(args) -> int:
    from .maass import completion_value, component_value
    try:
        tau = _parse_tau(args.tau)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    r = args.r % 60
    if r not in SUPPORT_POS and -r % 60 not in SUPPORT_POS:
        print(f"error: component r={args.r} is outside the support "
              f"+-{{1,7,11,13,17,19,23,29}} mod 60", file=sys.stderr)
        return 2
    cls = CLASSES[args.group_class]
    tol = args.tol
    if args.completion:
        value = completion_value(cls, r, tau, tol)
        est = tol
        kind = "completed"
    else:
        value, est = component_value(cls, r, tau, tol, tol)
        kind = "series"
    print(f"H[{args.group_class}, r={r}]({args.tau}) = "
          f"{value.real:+.12e} {value.imag:+.12e}i   "
          f"({kind}; est. error <= {max(est, 0.0):.1e})")
    return 0


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, not {text!r}")
    return value


def _order(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 0, not {text!r}")
    if value > MAX_ROW_BUDGET // 120:
        raise argparse.ArgumentTypeError(
            f"order {value} exceeds compute budget {MAX_ROW_BUDGET // 120}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="e8umbral",
        description="Umbral McKay-Thompson series for the E8^3 root "
                    "system: tables, verification, evaluation.")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="print appendix-style coefficient tables")
    t.add_argument("--component", type=int, choices=(1, 7), required=True)
    t.add_argument("--max-row", type=int, required=True,
                   help="largest exponent numerator (over 120) to print")
    t.add_argument("--format", choices=("csv", "json"), default="csv")
    t.set_defaults(func=cmd_table)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--suite", choices=("exact", "numeric", "all"),
                   default="all")
    v.add_argument("--order", type=_order, default=25,
                   help="truncation order for the exact identities")
    v.add_argument("--tol", type=_tolerance, default=1e-6,
                   help="tolerance for the numeric residuals")
    v.add_argument("--corrupt", action="store_true",
                   help=argparse.SUPPRESS)   # negative-control test hook
    v.set_defaults(func=cmd_verify)

    ev = sub.add_parser("eval", help="evaluate one component at a point")
    ev.add_argument("--class", dest="group_class", choices=CLASS_NAMES,
                    required=True)
    ev.add_argument("--r", type=int, required=True)
    ev.add_argument("--tau", required=True, help='complex point "x+yi"')
    ev.add_argument("--completion", action="store_true",
                    help="add the shadow Eichler integral")
    ev.add_argument("--tol", type=_tolerance, default=1e-9)
    ev.set_defaults(func=cmd_eval)
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # a --tau value such as -0.5+0.04i starts with "-", which argparse
    # would read as an option: attach it as --tau=VALUE
    for i in range(len(argv) - 1):
        if argv[i] == "--tau":
            argv[i:i + 2] = [f"--tau={argv[i + 1]}"]
            break
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
