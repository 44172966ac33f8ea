"""Command-line interface: coefficient tables, verification suites, and
point evaluation of the (completed) components.

`COMMANDS` is the grammar: options by exact name, a value as the next
argument (even "-1") or after "="; -h or --help prints it.  Exit codes: 0
success, 1 verification failure (or stdout closed by its reader before the
output was written, which prints nothing), 2 usage error, 3 a numeric
evaluation, of the series alone or of the completion, that cannot reach
the requested tolerance or whose value overflows a double (the reason,
then the tol and the tau or check asked for).  Exit 2 and 3 write one line
"error: <reason>" on stderr.  main(argv) returns every code, and run()
alone ends the process.  Exponents are serialized as integer numerators
over the declared denominator 120, never as floats, so table output is
byte-stable across runs.
"""

import math
import os
import sys

from .characters import CLASSES, FAMILIES, _closed_data, _direct_data, \
    all_trace_ids, component_family, h_component
from .maass import NumericsError, h_value, tau1_identity_check, \
    transform_check
from .mocktheta import IdentityReport, compare_data, identity_suite
from .qseries import DEN
from .theta import thetanullwerte_class_check

# largest --max-row of cmd_table, and DEN times the largest --order: the
# appendix ends at row 4559; exact verify at order 1000 takes 0.25 s cold
MAX_ROW_BUDGET = 120000


class UsageError(ValueError):
    """A command line the CLI cannot run: one line on stderr, exit 2."""


def cmd_table(component: int, max_row: int, fmt: str) -> int:
    """Coefficient rows of component 1 or 7, as csv or json."""
    if max_row > MAX_ROW_BUDGET:
        raise UsageError(f"max-row {max_row} exceeds compute budget "
                         f"{MAX_ROW_BUDGET}")
    nums = range(FAMILIES[component].lead, max_row + 1, DEN)
    if not nums:
        raise UsageError("empty row range")
    # each series is known to order, the least integer past the last row
    order = nums[-1] // DEN + 1
    series = {name: h_component(cls, component, order).coeffs
              for name, cls in CLASSES.items()}
    # a cell is its int coefficient as a string, in csv and json alike
    rows = [(num, {n: str(series[n].get(num, 0)) for n in CLASSES})
            for num in nums]
    if fmt == "csv":
        lines = ["exponent_numerator," + ",".join(CLASSES)]
        lines += [f"{num}," + ",".join(vals.values()) for num, vals in rows]
        text = "\n".join(lines)
    else:
        import json   # here, not at the top: no other command writes json
        doc = {
            "grading_denominator": DEN,
            "component": component,
            "rows": [
                {"exponent_numerator": num, "values": vals}
                for num, vals in rows
            ],
        }
        text = json.dumps(doc, indent=2, sort_keys=False)
    # one write: on an unbuffered stdout every write is a system call
    sys.stdout.write(text + "\n")
    return 0


def _exact_checks(order: int, corrupt: bool) -> list[IdentityReport]:
    reports = identity_suite(order)
    for i, tid in enumerate(all_trace_ids()):
        name, printed = (f"closed vs direct route, {tid.group_class.name} "
                         f"a={tid.coset_a}", _closed_data(tid))
        if corrupt and i == 0:   # negative control: a printed shift off by 1
            name, printed = name + " [corrupted]", printed._replace(
                shift=printed.shift + 1)
        reports.append(compare_data(name, printed, _direct_data(tid)))
    hits, pairs = thetanullwerte_class_check(30)
    # a hit (n, r, t): theta0_(n,r) lies in the class t/120 mod 1
    reports.append(IdentityReport(
        f"theta-constant exponent scan base 30 empty ({pairs} pairs)", None,
        next(((f"{r * r}/{4 * n}", f"theta0_({n},{r})", f"{t}/{DEN}")
              for n, r, t in hits), None)))
    return reports


def _numeric_checks(tol: float) -> list[IdentityReport]:
    reports = []

    def check(name, residual, *args):
        try:
            res = residual(*args, tol)
        except NumericsError as exc:
            raise type(exc)(f"{exc} (tol {tol} in {name})") from None
        reports.append(IdentityReport(name, None, None, res, tol))

    for r in FAMILIES:
        for tau in (0.1 + 0.8j, 0.5j, 0.25 + 0.95j):
            check(f"completion identity r={r} at tau={tau}",
                  tau1_identity_check, tau, r)
    for cls in CLASSES.values():
        for gamma in cls.check_gammas:
            check(f"transformation {cls.name} gamma={gamma}",
                  transform_check, cls, gamma, 0.2 + 1.1j)
    return reports


def cmd_verify(suite: str, order: int, tol: float, corrupt: bool) -> int:
    """The exact, numeric or all verification suites."""
    reports = []
    if suite in ("exact", "all"):
        reports += _exact_checks(order, corrupt)
    if suite in ("numeric", "all"):
        reports += _numeric_checks(tol)
    if corrupt and suite == "numeric":
        # negative control: the first check's residual judged against tol 0
        reports[0] = reports[0]._replace(
            name=reports[0].name + " [corrupted]", tol=0.0)
    failed = sum(not rep.verified for rep in reports)
    lines = [*map(str, reports),
             f"{len(reports) - failed}/{len(reports)} checks passed"]
    # one write: on an unbuffered stdout every write is a system call
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if failed == 0 else 1


def _parse_tau(text: str) -> complex:
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        value = complex(cleaned)
    except ValueError as exc:
        raise UsageError(f"cannot parse tau from {text!r}") from exc
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise UsageError(f"tau must be finite, not {text!r}")
    if value.imag <= 0:
        raise UsageError("tau must have positive imaginary part")
    return value


def cmd_eval(group_class: str, r: int, tau: str, completion: bool,
             tol: float) -> int:
    """H[class, r](tau), class 1A, 2A or 3A, tau as x+yi."""
    point = _parse_tau(tau)
    if component_family(r) is None:
        support = sorted(s for f in FAMILIES.values() for s in f.members)
        raise UsageError(f"component r={r} is outside the support "
                         f"+-{{{','.join(map(str, support))}}} mod 60")
    r %= 60
    value, est = h_value(CLASSES[group_class], r, point, tol, completion)
    kind = "completed" if completion else "series"
    print(f"H[{group_class}, r={r}]({tau}) = "
          f"{value.real:+.12e} {value.imag:+.12e}i   "
          f"({kind}; est. error <= {est:.1e})")
    return 0


def _one_of(*values):
    def convert(text: str):
        for value in values:
            if text == str(value):
                return value
        raise UsageError(f"invalid choice {text!r} (choose from "
                         f"{', '.join(map(str, values))})")
    return convert


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise UsageError(f"must be a finite number > 0, not {text!r}")
    return value


def _order(text: str) -> int:
    value = int(text)
    if not 0 <= value <= MAX_ROW_BUDGET // DEN:
        raise UsageError(f"must be an integer from 0 to the compute budget "
                         f"{MAX_ROW_BUDGET // DEN}, not {text!r}")
    return value


REQUIRED = object()
# command -> (handler, options); option -> (handler parameter, converter,
# default), and a flag has converter None.  eval prints --tau as given.
COMMANDS = {
    "table": (cmd_table, {
        "--component": ("component", _one_of(*FAMILIES), REQUIRED),
        "--max-row": ("max_row", int, REQUIRED),
        "--format": ("fmt", _one_of("csv", "json"), "csv")}),
    "verify": (cmd_verify, {
        "--suite": ("suite", _one_of("exact", "numeric", "all"), "all"),
        "--order": ("order", _order, 25),
        "--tol": ("tol", _tolerance, 1e-6),
        "--corrupt": ("corrupt", None, False)}),   # negative-control hook
    "eval": (cmd_eval, {
        "--class": ("group_class", _one_of(*CLASSES), REQUIRED),
        "--r": ("r", int, REQUIRED),
        "--tau": ("tau", str, REQUIRED),
        "--completion": ("completion", None, False),
        "--tol": ("tol", _tolerance, 1e-9)}),
}


def _print_help() -> int:
    print("usage: e8umbral COMMAND [OPTION VALUE | OPTION=VALUE | FLAG]...")
    for name, (handler, options) in COMMANDS.items():
        usage = [f"{opt} {dest.upper()}" if default is REQUIRED else
                 f"[{opt}]" if convert is None else f"[{opt} {default}]"
                 for opt, (dest, convert, default) in options.items()]
        print(f"\ne8umbral {name} {' '.join(usage)}\n    {handler.__doc__}")
    return 0


def parse_args(argv):
    """(handler, its keyword arguments) for a command line."""
    if {"-h", "--help"} & set(argv):
        return _print_help, {}
    if not argv or argv[0] not in COMMANDS:
        raise UsageError(f"expected a command ({', '.join(COMMANDS)})"
                         + (f", not {argv[0]!r}" if argv else ""))
    handler, options = COMMANDS[argv[0]]
    values = {dest: default for dest, _, default in options.values()}
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, text = token.partition("=")
        if name not in options or eq and options[name][1] is None:
            raise UsageError(f"unrecognized argument {token!r}")
        dest, convert, _ = options[name]
        if convert is None:
            values[dest] = True
        elif not eq and (text := next(tokens, None)) is None:
            raise UsageError(f"argument {name}: expected a value")
        else:
            try:
                values[dest] = convert(text)
            except ValueError as exc:   # a UsageError, or int's or float's
                raise UsageError(f"argument {name}: {exc}") from None
    for name, (dest, _, _) in options.items():
        if values[dest] is REQUIRED:
            raise UsageError(f"argument {name} is required")
    return handler, values


def main(argv=None) -> int:
    """Run a command line (by default sys.argv[1:]) and return its exit
    code: a usage error, from the parser or the handler, returns 2 and a
    numerics error 3, each after one line "error: <reason>" on stderr."""
    try:
        handler, args = parse_args(list(sys.argv[1:] if argv is None
                                        else argv))
        return handler(**args)
    except (UsageError, NumericsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 3


def run():
    """The process entry point and its only exit: main(), then flush
    stdout and stderr and end every call at once with os._exit, skipping
    interpreter teardown (the final garbage collection and the clearing of
    every loaded module).

    Nothing needs that teardown: the CLI writes only stdout and stderr,
    opens no files, starts no threads and registers no atexit handlers.
    A stdout closed by its reader, found by a handler's write or by a
    flush, exits 1 with nothing on stderr.  An uncaught exception ends the
    normal way.
    """
    try:
        code = main()
    except BrokenPipeError:
        # the reader closed stdout early: exit 1 as Python does on EPIPE
        code = 1
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:
            code = 1
    os._exit(code)


if __name__ == "__main__":
    run()
