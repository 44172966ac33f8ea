"""Per-layer measurement of the e8umbral package from outside it.

`Tracer.install` wraps every public function of the seven package modules,
in every namespace of the package that binds it, and the public methods of
`QSeries` on the class.  Each call records a span: name, layer (module),
start, end, parent span and thread.  Spans stay in memory until
`write_spans`.  `layer_metrics` turns them into per-layer time, self time
and work counts.  `import_metrics` and `source_lines` give the set-up and
size breakdown.
"""

import itertools
import json
import statistics
import subprocess
import threading
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("qseries", "lattice", "characters", "mocktheta", "theta", "maass",
          "cli")

# QSeries methods that count as its public surface besides plain names
_QSERIES_OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__",
                      "__mul__", "__rmul__", "__neg__", "__pow__", "__eq__"}

# metric stem -> functions timed together; a call nested inside another
# call of the same group is counted but its time is not added twice
GROUPS = {
    "qseries.mul": ("qseries.QSeries.__mul__",),
    "qseries.add": ("qseries.QSeries.__add__",),
    "qseries.invert": ("qseries.QSeries.invert",),
    "qseries.pochhammer": ("qseries.pochhammer", "qseries.euler_product"),
    "lattice.enumerate": ("lattice.enumerate_coset_cone",),
    "characters.trace_closed": ("characters.trace_closed",),
    "characters.trace_direct": ("characters.trace_direct",),
    "characters.h_component": ("characters.h_component",),
    "mocktheta.ramanujan_series": ("mocktheta.ramanujan_series",),
    "mocktheta.double_sums": ("mocktheta.zwegers_triple_sum",
                              "mocktheta.hecke_double_sum"),
    "mocktheta.identity_suite": ("mocktheta.identity_suite",),
    "theta.nullwerte": ("theta.thetanullwerte_class_check",),
    "theta.shadow": ("theta.shadow_component", "theta.shadow_vector"),
    "maass.series_value": ("maass.series_value",),
    "maass.indefinite_theta": ("maass.indefinite_theta",),
    "maass.r_function": ("maass.r_function",),
    "maass.eichler": ("maass.eichler_quadrature",),
    "maass.completion_value": ("maass.completion_value",),
    "maass.tau1_identity_check": ("maass.tau1_identity_check",),
    "maass.transform_check": ("maass.transform_check",),
}
_GROUP_OF = {fn: stem for stem, fns in GROUPS.items() for fn in fns}


# work counted per call, from the arguments and the result; summed over
# calls, except the metrics in _MAXIMA
WORK = {
    "qseries.QSeries.__mul__": lambda args, result: {
        "qseries.mul_out_terms": len(getattr(result, "coeffs", ()))},
    "lattice.enumerate_coset_cone": lambda args, result: {
        "lattice.points": len(result)},
    "maass.series_value": lambda args, result: {
        "maass.series_value_terms": len(args[0].coeffs),
        "maass.max_order": float(args[0].order)},
}
_MAXIMA = {"maass.max_order"}

# (name, unit) of every per-layer metric, in report order; lower is better
PER_LAYER = (
    [("import.total_s", "s"), ("import.scipy_s", "s"),
     ("import.numpy_s", "s"),
     ("cli.self_s", "s"), ("cli.numeric_jobs_s", "s"),
     ("qseries.mul_calls", "count"), ("qseries.mul_s", "s"),
     ("qseries.mul_out_terms", "count"), ("qseries.add_calls", "count"),
     ("qseries.add_s", "s"), ("qseries.invert_calls", "count"),
     ("qseries.invert_s", "s"), ("qseries.pochhammer_calls", "count"),
     ("qseries.pochhammer_s", "s"), ("qseries.self_s", "s"),
     ("lattice.enumerate_calls", "count"), ("lattice.enumerate_s", "s"),
     ("lattice.points", "count"),
     ("characters.trace_closed_calls", "count"),
     ("characters.trace_closed_s", "s"), ("characters.trace_direct_s", "s"),
     ("characters.h_component_s", "s"), ("characters.self_s", "s"),
     ("mocktheta.ramanujan_series_s", "s"), ("mocktheta.double_sums_s", "s"),
     ("mocktheta.identity_suite_s", "s"), ("mocktheta.self_s", "s"),
     ("theta.nullwerte_s", "s"), ("theta.shadow_s", "s"),
     ("theta.self_s", "s"),
     ("maass.series_value_calls", "count"),
     ("maass.series_value_terms", "count"), ("maass.series_value_s", "s"),
     ("maass.max_order", "order"),
     ("maass.indefinite_theta_calls", "count"),
     ("maass.indefinite_theta_s", "s"), ("maass.r_function_calls", "count"),
     ("maass.r_function_s", "s"), ("maass.eichler_s", "s"),
     ("maass.completion_value_s", "s"),
     ("maass.tau1_identity_check_s", "s"), ("maass.transform_check_s", "s"),
     ("maass.self_s", "s"),
     ("src.lines", "lines")]
    + [(f"{layer}.src_lines", "lines") for layer in LAYERS]
    + [("trace.overhead_s", "s")])


class Tracer:
    """Records a span around each call of a wrapped function."""

    def __init__(self):
        self.spans = []      # (id, name, start, end, parent, thread, nested,
                             #  cross_thread, work)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            is_main = threading.get_ident() == self._main
            local.stack = self._main_stack if is_main else []
            local.active = defaultdict(int)
        return local.stack, local.active

    def wrap(self, fn, name):
        group = _GROUP_OF.get(name, name)
        work = WORK.get(name)
        tracer = self

        def traced(*args, **kwargs):
            stack, active = tracer._state()
            cross = False
            if stack:
                parent = stack[-1]
            elif stack is tracer._main_stack:
                parent = -1
            else:
                # a pool thread's job: its cause is the main thread's span
                cross = True
                try:
                    parent = tracer._main_stack[-1]
                except IndexError:
                    parent = -1
            sid = next(tracer._ids)
            nested = active[group] > 0
            stack.append(sid)
            active[group] += 1
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                active[group] -= 1
                stack.pop()
                tracer.spans.append((
                    sid, name, start, end, parent, threading.get_ident(),
                    nested, cross,
                    work(args, result) if work and result is not None
                    else None))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package, modules):
        """Wrap the package's public functions; returns the undo list."""
        wrappers = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or \
                        not callable(obj) or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrappers[obj] = self.wrap(obj, f"{layer}.{attr}")
        undo = []
        qseries = modules["qseries"].QSeries
        for attr, obj in list(vars(qseries).items()):
            if attr.startswith("_") and attr not in _QSERIES_OPERATORS:
                continue
            if isinstance(obj, classmethod):
                fn = obj.__func__
                wrapped = classmethod(wrappers.setdefault(
                    fn, self.wrap(fn, f"qseries.QSeries.{fn.__name__}")))
            elif callable(obj):
                wrapped = wrappers.setdefault(
                    obj, self.wrap(obj, f"qseries.QSeries.{obj.__name__}"))
            else:
                continue
            undo.append((qseries, attr, obj))
            setattr(qseries, attr, wrapped)
        for mod in [package] + list(modules.values()):
            for attr, obj in list(vars(mod).items()):
                try:
                    wrapped = wrappers.get(obj)
                except TypeError:          # unhashable module attribute
                    continue
                if wrapped is not None:
                    undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped)
        return undo

    @staticmethod
    def uninstall(undo):
        for owner, attr, obj in reversed(undo):
            setattr(owner, attr, obj)

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write("id\tparent\tthread\tname\tstart_s\tend_s\twork\n")
            t0 = min((s[2] for s in self.spans), default=0.0)
            for sid, name, start, end, parent, thread, _, _, work in \
                    sorted(self.spans):
                f.write(f"{sid}\t{parent}\t{thread}\t{name}\t"
                        f"{start - t0:.6f}\t{end - t0:.6f}\t"
                        f"{'' if work is None else json.dumps(work)}\n")


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans):
    """Per-layer time, self time and work counts from one traced round."""
    children = defaultdict(list)
    for s in spans:
        if s[4] >= 0:
            children[s[4]].append((s[2], s[3]))
    m = defaultdict(float)
    m.update((name, 0) for name, unit in PER_LAYER if unit != "s")
    for sid, name, start, end, _, _, nested, cross, work in spans:
        layer = name.split(".", 1)[0]
        kids = [(max(a, start), min(b, end)) for a, b in children[sid]]
        m[f"{layer}.self_s"] += (end - start) - _covered(kids)
        if cross:
            m["cli.numeric_jobs_s"] += end - start
        stem = _GROUP_OF.get(name)
        if stem is None:
            continue
        m[f"{stem}_calls"] += 1
        if not nested:
            m[f"{stem}_s"] += end - start
        for metric, value in (work or {}).items():
            m[metric] = max(m[metric], value) if metric in _MAXIMA \
                else m[metric] + value
    return dict(m)


def import_metrics(python, env, cwd, repeats=3):
    """import.* from `python -X importtime -c "import e8umbral"` in fresh
    processes, median of repeats: the whole import, and the part of it
    spent importing scipy and numpy."""
    runs = [_import_once(python, env, cwd) for _ in range(repeats)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def _import_once(python, env, cwd):
    proc = subprocess.run([python, "-X", "importtime", "-c",
                           "import e8umbral"], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import e8umbral failed: {proc.stderr[-300:]}")
    entries = []
    for line in proc.stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].lstrip()
        depth = (len(parts[2]) - len(name) - 1) // 2
        entries.append((depth, name, int(parts[1]) * 1e-6))
    total = 0.0
    first = {"scipy": 0.0, "numpy": 0.0}
    owner_at = {}
    # lines come after the imports they trigger: walk backwards so that
    # each entry's parent is seen before it.  A package's cost is the
    # cumulative time of its modules imported from outside both packages.
    for depth, name, cumulative in reversed(entries):
        if depth == 0 and name == "e8umbral":
            total = cumulative
        owner = owner_at.get(depth - 1)
        if owner is None:
            owner = next((p for p in first
                          if name == p or name.startswith(p + ".")), None)
            if owner is not None:
                first[owner] += cumulative
        owner_at[depth] = owner
    return {"import.total_s": total, "import.scipy_s": first["scipy"],
            "import.numpy_s": first["numpy"]}


def source_lines(src):
    """src.lines over src/e8umbral/*.py, and <module>.src_lines."""
    files = sorted(Path(src, "e8umbral").glob("*.py"))
    lines = {f.stem: len(f.read_text().splitlines()) for f in files}
    out = {"src.lines": sum(lines.values())}
    out.update({f"{layer}.src_lines": lines.get(layer, 0)
                for layer in LAYERS})
    return out
