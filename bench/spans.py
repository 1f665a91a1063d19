"""Span tracing around the public functions of each ``tradeoff`` module.

The wrappers live here, in the benchmark, and are installed only for the
traced run.  A function is patched under every name a caller can look it up
by: a method on its class, and a module-level function in every ``tradeoff``
module that holds it (``cli`` imports ``build_kansa``, ``p_greedy`` and
``reports_to_csv`` by name; ``kernels`` and ``expansion`` import
``vandermonde`` by name).

A span records its name, start, end, parent span and job id; spans stay in
memory and are written out when the run ends.  ``busy_s`` of a name is the
time covered by its outermost spans (a nested call of the same name adds
nothing), ``self_s`` is span time minus the time of direct child spans, and
``calls`` counts every span.  Counts of work are recorded at the same
boundaries as exact integers.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _size(x) -> int:
    # every caller passes a sized sequence; anything else counts as zero
    return len(x) if hasattr(x, "__len__") else 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.job_id = -1
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.depth: Counter = Counter()
        self._stack: list[list] = []   # [span id, name, child time]

    def open(self, name: str):
        sid = len(self.start)
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(self._ids[name])
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.job.append(self.job_id)
        self.end.append(float("nan"))
        self._stack.append([sid, name, 0.0])
        self.depth[name] += 1
        self.start.append(perf_counter())

    def close(self):
        t = perf_counter()
        sid, name, child = self._stack.pop()
        self.end[sid] = t
        dur = t - self.start[sid]
        self.depth[name] -= 1
        self.calls[name] += 1
        self.self_time[name] += dur - child
        if not self.depth[name]:
            self.busy[name] += dur
        if self._stack:
            self._stack[-1][2] += dur

    @contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def write(self, path):
        """Write every span: name id, parent span, job id, start, end."""
        np.savez_compressed(
            path, name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            names=np.array(json.dumps(self.names)))


# ---------------------------------------------------------------------------
# counts recorded at the wrapped boundaries: (tracer, args, kwargs, result)

def _count_cross(t, args, kwargs, result):
    a, b = _size(_arg(args, kwargs, 1, "set_a")), _size(_arg(args, kwargs, 2, "set_b"))
    t.counts["kernels.cross.entries"] += a * b
    t.counts["kernels.cross.functionals_in"] += a + b


def _count_size(key: str, i: int, name: str):
    """Hook adding the length of argument ``i`` (``name``) to ``key``."""
    def hook(t, args, kwargs, result):
        t.counts[key] += _size(_arg(args, kwargs, i, name))
    return hook


def _count_factor(t, args, kwargs, result):
    n = result.n
    t.counts["linalg.factor_spd.flops"] += n ** 3 // 3   # Cholesky, from the shape
    t.counts["linalg.factor_spd.jittered"] += int(result.jitter > 0.0)


def _count_solve(t, args, kwargs, result):
    shape = np.shape(_arg(args, kwargs, 1, "b"))
    t.counts["linalg.solve.rhs_cols"] += shape[1] if len(shape) > 1 else 1


def _count_svd(t, args, kwargs, result):
    m, n = np.shape(_arg(args, kwargs, 0, "a"))
    p, q = max(m, n), min(m, n)
    # thin SVD with U, S, V by Golub-Reinsch: 14 p q^2 + 8 q^3 (Golub & Van Loan)
    t.counts["linalg.svd.flops"] += 14 * p * q * q + 8 * q ** 3


def _count_context(t, args, kwargs, result):
    if t.depth["greedy.p_greedy"]:
        t.counts["greedy.contexts"] += 1


def _count_greedy(t, args, kwargs, result):
    t.counts["greedy.steps"] += len(result.selected)


def _count_csv(t, args, kwargs, result):
    t.counts["report.reports_to_csv.bytes"] += len(result.encode())


_CHEB = ("cheb_lagrangians", "cheb_bump_min", "cheb_power_addone", "cheb_power_one_term")
_CLOSED_FORM = ("poly_power", "poly_lagrangian_seminorm", "ctd_power",
                "ctd_lagrangian_norm", "taylor_power", "taylor_lagrangian_norm",
                "ortho_power_and_bump")

# (defining module, attribute path, span name, count hook)
TARGETS = [
    *[("tradeoff.kernels", f"{cls}.{meth}", f"kernels.{meth}", hook)
      for cls in ("MaternSobolevKernel", "ChebWeightKernel")
      for meth, hook in (("cross", _count_cross),
                         ("diag", _count_size("kernels.diag.entries", 1, "fset")),
                         ("apply", None))],
    ("tradeoff.linalg", "factor_spd", "linalg.factor_spd", _count_factor),
    ("tradeoff.linalg", "SpdFactor.solve", "linalg.solve", _count_solve),
    ("tradeoff.linalg", "SpdFactor.inverse_diagonal", "linalg.inverse_diagonal", None),
    ("tradeoff.linalg", "svd", "linalg.svd", _count_svd),
    ("tradeoff.kernel_recovery", "PowerContext.__init__",
     "kernel_recovery.PowerContext", _count_context),
    ("tradeoff.kernel_recovery", "PowerContext.power_batch",
     "kernel_recovery.power_batch",
     _count_size("kernel_recovery.power_batch.evals", 1, "mus")),
    ("tradeoff.kernel_recovery", "PowerContext.power_squared",
     "kernel_recovery.power_squared", None),
    ("tradeoff.kernel_recovery", "PowerContext.lagrangian_norm_squared",
     "kernel_recovery.lagrangian_norm_squared", None),
    ("tradeoff.kernel_recovery", "tradeoff_report", "kernel_recovery.tradeoff_report", None),
    ("tradeoff.unsymmetric", "build_kansa", "unsymmetric.build_kansa", None),
    ("tradeoff.unsymmetric", "kansa_power_squared_batch",
     "unsymmetric.kansa_power_squared_batch",
     _count_size("unsymmetric.kansa_power_squared_batch.evals", 1, "mus")),
    ("tradeoff.unsymmetric", "pseudo_lagrangian_norms",
     "unsymmetric.pseudo_lagrangian_norms", None),
    ("tradeoff.greedy", "p_greedy", "greedy.p_greedy", _count_greedy),
    *[("tradeoff.expansion", f, "expansion.cheb", None) for f in _CHEB],
    *[("tradeoff.expansion", f, "expansion.closed_form", None) for f in _CLOSED_FORM],
    ("tradeoff.functionals", "vandermonde", "functionals.vandermonde", None),
    ("tradeoff.functionals", "FunctionalSet.from_json", "functionals.from_json", None),
    ("tradeoff.report", "reports_to_csv", "report.reports_to_csv", _count_csv),
]

def _wrapper(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result
    return wrapped


def _tradeoff_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if (n == "tradeoff" or n.startswith("tradeoff.")) and m is not None]


@contextmanager
def installed(tracer: Tracer):
    """Patch every target under every name that holds it; restore on exit."""
    patches = []   # (owner, attribute, original attribute value)
    for module_name, path, name, hook in TARGETS:
        owner = importlib.import_module(module_name)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        if cls_path:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(_wrapper(tracer, name, raw.__func__, hook))
            else:
                new = _wrapper(tracer, name, raw, hook)
            patches.append((owner, attr, raw))
            setattr(owner, attr, new)
            continue
        fn = getattr(owner, attr)
        new = _wrapper(tracer, name, fn, hook)
        for module in _tradeoff_modules():
            for key, value in list(vars(module).items()):
                if value is fn:
                    patches.append((module, key, fn))
                    setattr(module, key, new)
    try:
        yield patches
    finally:
        for owner, attr, raw in reversed(patches):
            setattr(owner, attr, raw)


def unpatched_references(patches) -> list[str]:
    """Names in ``tradeoff`` modules that still hold a function ``installed``
    replaced; while the tracer is installed this must be empty."""
    originals = {id(raw) for owner, _, raw in patches if not isinstance(owner, type)}
    return [f"{m.__name__}.{key}" for m in _tradeoff_modules()
            for key, value in vars(m).items() if id(value) in originals]


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

CLI_COMMANDS = ("fig1", "kansa", "identities", "greedy", "audit")


def layer_metrics(t: Tracer, *, evals: int, plain_run_s: float, traced_run_s: float,
                  cpu_s: float, wall_s: float, setup: dict, bytes_written: int) -> dict:
    """Every per-layer metric except ``cli.parallel2_speedup``, which a
    separate process measures.  ``evals`` is the workload's request count."""
    v = {}

    def span(name, *fields):
        for f in fields:
            if f == "calls":
                v[f"{name}.calls"] = t.calls[name]
            elif f == "busy_s":
                v[f"{name}.busy_s"] = t.busy[name]
            elif f == "self_s":
                v[f"{name}.self_s"] = t.self_time[name]
            else:
                v[f"{name}.{f}"] = t.counts[f"{name}.{f}"]

    span("kernels.cross", "calls", "busy_s", "entries", "functionals_in")
    span("kernels.diag", "calls", "busy_s", "entries")
    span("kernels.apply", "calls", "busy_s")
    v["kernels.entries_per_eval"] = (
        t.counts["kernels.cross.entries"] + t.counts["kernels.diag.entries"]) / evals
    span("linalg.factor_spd", "calls", "busy_s", "flops", "jittered")
    span("linalg.solve", "calls", "busy_s", "rhs_cols")
    span("linalg.svd", "calls", "busy_s", "flops")
    span("linalg.inverse_diagonal", "busy_s")
    factors = t.calls["linalg.factor_spd"]
    v["linalg.evals_per_factor"] = evals / factors if factors else 0.0
    span("kernel_recovery.PowerContext", "calls", "busy_s", "self_s")
    span("kernel_recovery.power_batch", "calls", "evals", "busy_s", "self_s")
    span("kernel_recovery.power_squared", "calls", "busy_s", "self_s")
    span("kernel_recovery.lagrangian_norm_squared", "calls", "busy_s")
    span("kernel_recovery.tradeoff_report", "busy_s", "self_s")
    span("unsymmetric.build_kansa", "busy_s", "self_s")
    span("unsymmetric.kansa_power_squared_batch", "calls", "evals", "busy_s", "self_s")
    span("unsymmetric.pseudo_lagrangian_norms", "busy_s")
    span("greedy.p_greedy", "busy_s", "self_s")
    steps = t.counts["greedy.steps"]
    v["greedy.steps"] = steps
    v["greedy.contexts_per_step"] = t.counts["greedy.contexts"] / steps if steps else 0.0
    span("expansion.cheb", "calls", "busy_s")
    span("expansion.closed_form", "calls", "busy_s")
    span("functionals.vandermonde", "calls", "busy_s")
    span("functionals.from_json", "busy_s")
    span("report.reports_to_csv", "busy_s", "bytes")
    for command in CLI_COMMANDS:
        span(f"cli.{command}", "busy_s", "self_s")
    v["cli.bytes_written"] = bytes_written
    v["setup.import_s"] = setup["import_s"]
    v["setup.inputs_s"] = setup["inputs_s"]
    v["process.cpu_s"] = cpu_s
    v["process.cpu_util"] = cpu_s / wall_s
    v["trace.run_s"] = traced_run_s
    v["trace.untraced_run_s"] = plain_run_s
    v["trace.overhead_s"] = traced_run_s - plain_run_s
    # self times telescope to the root spans, so this is the share of the
    # traced run the spans account for
    v["trace.self_coverage"] = sum(t.self_time.values()) / traced_run_s
    v["trace.spans"] = len(t.start)
    return v
