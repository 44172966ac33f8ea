"""Benchmark of the e8umbral CLI.

    python3 bench/run.py --workload exact|numeric|near-cusp --seed N
                         --seconds S --trace 0|1

Run from the root of a source checkout; the package is used from its
`src/` directory.  With --trace 0 each operation is a fresh
`python -m e8umbral.cli ...` process, the cost a CLI user pays per call,
and the end-to-end metrics are reported, in the seconds of a reference
machine: calibration processes run between the operations measure how
fast the shared machine runs (see Clock).  With --trace 1 the same
operations run in this process through `e8umbral.cli.main(argv)`, once
plain and once traced, and the per-layer metrics are reported together
with the tracing overhead.  Either way the whole rounds of the workload's
operations that come nearest to --seconds run, every output is checked, and
the last line printed is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import namedtuple
from pathlib import Path

import tracer
import workloads

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MB"))
SETUP_REPEATS = 5
# A fixed amount of stdlib-only work, timed as its own process; see Clock.
# It touches 64 MiB of fresh memory, as a process that loads numpy and scipy
# does, then multiplies truncated power series with Fraction coefficients,
# as the q-series engine does.
CALIBRATION = """
memory = bytearray(64 << 20)
for i in range(0, len(memory), 4096):
    memory[i] = 1
from fractions import Fraction
N = 160
def mul(a, b):
    c = [Fraction(0)] * N
    for i, x in enumerate(a):
        if x:
            for j in range(N - i):
                c[i + j] += x * b[j]
    return c
p = [Fraction(1)] + [Fraction(0)] * (N - 1)
for n in range(1, 12):
    f = [Fraction(0)] * N
    f[0], f[n] = Fraction(1), Fraction(-1, n)
    p = mul(p, f)
"""
# Reported times are in seconds of a reference machine on which one
# calibration process takes CAL_REF_S of wall time: a round figure near its
# time on the 2-core shared VM of the reference figures in README.md.
CAL_REF_S = 0.2
# calibration time kept at this share of the time measured
CAL_SHARE = 0.25
# a timed call is scaled by the calibrations that start this near it
CAL_WINDOW_S = 6.0
# calls still running this long after start are killed (and count as
# failed), so that a hung program cannot keep the run past 180 s
RUN_DEADLINE = time.monotonic() + 170.0

Call = namedtuple("Call", "rc out err start wall cpu rss_mb")


class Run:
    """Outcome of every operation attempted in one benchmark run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.max_s_residual = 0.0

    def check_round(self, results):
        """Count and check one round; results[i] = (rc, stdout) of op i."""
        outputs = []
        for op, (rc, out) in zip(self.workload.ops, results):
            self.attempted += 1
            if rc != 0:
                self.failed += 1
                outputs.append(None)
                continue
            outputs.append(out)
            self.problems += [f"{op.label}: {p}" for p in op.check(out)]
        problems, worst = workloads.check_s_law(self.workload, outputs)
        self.problems += problems
        self.max_s_residual = max(self.max_s_residual, worst)


def child_env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("E8UMBRAL_THREADS", None)       # measure the default pool
    # an installed package has its bytecode cached; so does this checkout
    # after the first import
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv, env, cwd):
    """Run argv to its end and return its Call."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=cwd)
    killer = threading.Timer(max(RUN_DEADLINE - time.monotonic(), 0.0),
                             proc.kill)
    killer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Call(proc.returncode, out.decode(), err[0].decode(), start, wall,
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def run_prechecks(workload, run, env, root):
    for label, args, want_rc, want_fails in workload.prechecks:
        call = spawn([sys.executable, "-m", "e8umbral.cli"] + args, env,
                     root)
        run.problems += [f"{label}: {p}" for p in
                         workloads.check_precheck(call.rc, call.out, want_rc,
                                                  want_fails)]


def check_import_location(env, root):
    """Import once (this also writes the bytecode caches) and make sure the
    package comes from this checkout."""
    call = spawn(
        [sys.executable, "-c", "import e8umbral; print(e8umbral.__file__)"],
        env, root)
    expected = root / "src" / "e8umbral" / "__init__.py"
    if call.rc != 0 or Path(call.out.strip()).resolve() != expected.resolve():
        sys.exit(f"e8umbral does not import from {expected}: "
                 f"{call.err[-300:]}")


class Clock:
    """Scales times measured on a shared machine to a reference speed.

    The other tenants of the host slow every process down, by up to 1.7x,
    for seconds to minutes at a time.  A fixed amount of stdlib-only work
    (CALIBRATION), run as its own process between the timed calls, slows
    down with them: it meets the same processors and scheduler, and the
    program under test cannot change it.  Calibrations follow the timed
    calls in proportion to the time measured, and each call is scaled by
    the calibrations near it in time.
    """

    def __init__(self, env, root):
        self.env, self.root = env, root
        self.samples = []
        self.measured = 0.0
        self.log = []

    def calibrate(self):
        call = spawn([sys.executable, "-I", "-c", CALIBRATION], self.env,
                     self.root)
        if call.rc != 0:
            sys.exit(f"calibration run failed: {call.err[-300:]}")
        self.samples.append(call)

    def spawn(self, argv, label):
        """Run argv as spawn() does, then calibrate while the calibration
        time is below CAL_SHARE of the time measured so far."""
        call = spawn(argv, self.env, self.root)
        self.measured += call.wall
        while sum(c.wall for c in self.samples) < CAL_SHARE * self.measured:
            self.calibrate()
        self.log.append((label, call))
        return call

    def factor(self, call):
        """Reference seconds per measured second while `call` ran: from
        the calibrations that started within CAL_WINDOW_S of it, or else
        the last one before it and the first one after it."""
        near = [c.wall for c in self.samples
                if call.start - CAL_WINDOW_S <= c.start
                <= call.start + call.wall + CAL_WINDOW_S]
        if not near:
            near = ([c.wall for c in self.samples if c.start < call.start][-1:]
                    + [c.wall for c in self.samples
                       if c.start > call.start][:1])
        return CAL_REF_S / statistics.fmean(near)

    def rows(self):
        """(label, call) of every timed and calibration call, in order."""
        return sorted([("calibration", c) for c in self.samples] + self.log,
                      key=lambda row: row[1].start)


def write_calls(path, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write("label\tstart_s\twall_s\tcpu_s\n")
        for label, c in rows:
            f.write(f"{label}\t{c.start:.6f}\t{c.wall:.6f}\t{c.cpu:.6f}\n")


def whole_rounds(seconds):
    """Yield round numbers 0, 1, ... until the rounds run total nearest to
    `seconds`; at least one round runs, and a round always finishes."""
    start = time.perf_counter()
    done = 0
    while True:
        yield done
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done / 2 >= seconds:
            return


def measure_cold(workload, seconds, root):
    env = child_env(root)
    check_import_location(env, root)
    clock = Clock(env, root)
    clock.calibrate()
    setups = [clock.spawn([sys.executable, "-c", "import e8umbral"], "setup")
              for _ in range(SETUP_REPEATS)]
    run = Run(workload)
    run_prechecks(workload, run, env, root)
    clock.calibrate()
    rounds = []
    for _ in whole_rounds(seconds):
        calls = [clock.spawn([sys.executable, "-m", "e8umbral.cli"]
                             + op.argv, op.label) for op in workload.ops]
        run.check_round([(c.rc, c.out) for c in calls])
        rounds.append(calls)
    write_calls(root / "bench" / "out" / f"calls-{workload.name}.tsv",
                clock.rows())

    def summary(wall, cpu):
        """The time metrics from wall(call) and cpu(call)."""
        per_op = [statistics.fmean(map(wall, calls))
                  for calls in zip(*rounds)]
        return per_op, {
            "setup_s": statistics.median(map(wall, setups)),
            "wall_s": statistics.fmean(sum(map(wall, calls))
                                       for calls in rounds),
            "op_p50_s": statistics.median(per_op),
            "cpu_s": statistics.fmean(sum(map(cpu, calls))
                                      for calls in rounds),
        }

    per_op, measured = summary(lambda c: c.wall, lambda c: c.cpu)
    for op, wall in zip(workload.ops, per_op):
        print(f"  {op.label:<58} wall {wall:7.3f} s measured")
    for name, value in measured.items():
        print(f"  {name:<34} {value:14.6g} s measured")
    factors = [clock.factor(c) for _, c in clock.log]
    print(f"  {len(clock.samples)} calibration runs, mean "
          f"{statistics.fmean(c.wall for c in clock.samples):.4f} s; "
          f"times scaled by {min(factors):.4f} to {max(factors):.4f}")
    _, metrics = summary(lambda c: c.wall * clock.factor(c),
                         lambda c: c.cpu * clock.factor(c))
    metrics["peak_rss_mb"] = max(c.rss_mb for calls in rounds
                                 for c in calls)
    return run, metrics, dict(END_TO_END), f"{len(rounds)} round(s)"


# ----------------------------------------------------------------------
# in-process (traced) runs


def load_package(root):
    sys.path.insert(0, str(root / "src"))
    import e8umbral
    import e8umbral.cli
    if Path(e8umbral.__file__).resolve() != \
            (root / "src" / "e8umbral" / "__init__.py").resolve():
        sys.exit(f"e8umbral imported from {e8umbral.__file__}, not {root}")
    modules = {name: sys.modules[f"e8umbral.{name}"]
               for name in tracer.LAYERS}
    return e8umbral, modules


def package_caches(modules):
    """The lru caches of the package, cleared before each operation so that
    one operation never reuses another's results, as in separate
    processes."""
    return [obj for mod in modules.values() for obj in vars(mod).values()
            if callable(getattr(obj, "cache_clear", None))]


def inprocess_round(workload, cli, caches):
    results = []
    start = time.perf_counter()
    for op in workload.ops:
        for cache in caches:
            cache.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:                   # the CLI's traceback exit
            rc = 1
            err.write(traceback.format_exc())
        results.append((rc, out.getvalue()))
    return results, time.perf_counter() - start


def measure_traced(workload, seconds, root):
    env = child_env(root)
    check_import_location(env, root)
    imports = tracer.import_metrics(sys.executable, env, root)
    package, modules = load_package(root)
    cli = modules["cli"]
    caches = package_caches(modules)
    run = Run(workload)
    run_prechecks(workload, run, env, root)
    plain_walls, traced_walls, per_round = [], [], []
    for _ in whole_rounds(seconds):
        results, wall = inprocess_round(workload, cli, caches)
        run.check_round(results)
        plain_walls.append(wall)
        spans = tracer.Tracer()
        undo = spans.install(package, modules)
        try:
            results, wall = inprocess_round(workload, cli, caches)
        finally:
            spans.uninstall(undo)
        run.check_round(results)
        traced_walls.append(wall)
        per_round.append(tracer.layer_metrics(spans.spans))
    spans.write_spans(root / "bench" / "out" / f"spans-{workload.name}.tsv")
    metrics = {name: statistics.median(r.get(name, 0.0) for r in per_round)
               for name, _ in tracer.PER_LAYER}
    metrics.update(imports)
    metrics.update(tracer.source_lines(root / "src"))
    plain, traced = (statistics.median(plain_walls),
                     statistics.median(traced_walls))
    metrics["trace.overhead_s"] = traced - plain
    print(f"  tracing overhead: traced {traced:.3f} s - untraced "
          f"{plain:.3f} s = {traced - plain:+.3f} s "
          f"({len(spans.spans)} spans in the last traced round)")
    return (run, metrics, dict(tracer.PER_LAYER),
            f"{len(per_round)} untraced + traced round pair(s)")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("exact", "numeric", "near-cusp"))
    p.add_argument("--seed", type=int, default=1412)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    root = Path.cwd()
    if not (root / "src" / "e8umbral" / "cli.py").is_file():
        sys.exit(f"no e8umbral source under {root / 'src'}; run from the "
                 "root of a checkout")
    workload = workloads.build(args.workload, args.seed)
    measure = measure_traced if args.trace else measure_cold
    print(f"workload {workload.name}, seed {args.seed}, "
          f"{len(workload.ops)} operations per round")
    run, metrics, units, how = measure(workload, args.seconds, root)
    print(f"  {how}; {run.attempted} operations attempted, "
          f"{run.failed} failed")
    if workload.s_pairs:
        print(f"  largest S-law residual {run.max_s_residual:.2e}")
    for problem in run.problems:
        print(f"  CHECK FAILED {problem}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
