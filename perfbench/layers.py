"""Per-layer counters and self times, recorded from outside the program.

``LayerTrace.install`` wraps public functions of the conefix modules and
patches each wrapper in where callers look the name up: every conefix module
global bound to the original function object, and the class attribute for
methods.  Nothing under ``src/`` changes, and ``uninstall`` puts every
original back.

A span is opened at each wrapped call.  Its self time is its duration minus
the durations of the spans opened inside it.  The benchmark makes millions
of calls in a traced pass, so spans are folded into per-name totals as they
close instead of being kept one by one.

``MemoryProbe`` is the second, separate instrument: tracemalloc switched on
only for the duration of each ``is_c_sequence`` call, reporting the largest
peak any one call reached.  It runs in a pass of its own so that its cost
does not leak into the self times above.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
import weakref
from collections import defaultdict

__all__ = ["SPANS", "LayerTrace", "MemoryProbe", "layer_metrics"]

# span name -> (module, attribute) pairs; "Class.method" patches the class
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli.main": (("conefix.cli", "main"),),
    "scenarios.run_scenario": (("conefix.scenarios", "run_scenario"),),
    "scenarios.serialize": (("conefix.scenarios", "ScenarioRun.to_json"),
                            ("conefix.scenarios", "ScenarioRun.to_csv")),
    "fixed_point.picard_solve": (("conefix.fixed_point", "picard_solve"),),
    "fixed_point.harness": tuple(
        ("conefix.fixed_point", name) for name in (
            "uniform_limit_harness", "pointwise_limit_harness",
            "subdomain_limit_harness", "fixed_point_cluster_check")),
    "fixed_point.checkers": tuple(
        ("conefix.fixed_point", name) for name in (
            "verify_contraction", "check_pointwise_convergence",
            "check_uniform_convergence", "check_equicontinuity",
            "property_g_check", "property_h_check",
            "h_limit_implies_g_limit_check", "g_limit_uniqueness_check",
            "equicontinuous_pointwise_check")),
    "spaces.distance": tuple(
        ("conefix.spaces", f"{cls}.distance")
        for cls in ("IntervalUT2Space", "PlaneR2Space", "BieleckiPairSpace")),
    "spaces.is_c_sequence": (("conefix.spaces", "is_c_sequence"),),
    "algebra.cone_compare": (("conefix.algebra", "cone_compare"),),
    "algebra.spectral_radius": (("conefix.algebra", "spectral_radius"),),
    "applications.coupled_solve": (("conefix.applications", "coupled_solve"),),
    "applications.verify_condition": (("conefix.applications", "verify_condition"),),
    "applications.ode_certify": (("conefix.applications", "ode_certify"),),
    "applications.ode_solve": (("conefix.applications", "ode_solve"),),
    "applications.ode_sequence_harness": (("conefix.applications", "ode_sequence_harness"),),
    "grid.cumulative_trapezoid_from": (("conefix.grid", "cumulative_trapezoid_from"),),
}

COUNTERS = (
    "scenarios.payload_bytes",
    "fixed_point.picard_solve.iterations",
    "fixed_point.member_memo.lookups",
    "fixed_point.member_memo.distinct",
    "spaces.is_c_sequence.entries_x_probes",
    "applications.verify_condition.samples",
    "applications.ode_solve.sweeps",
    "grid.cumulative_trapezoid_from.bytes_computed",
)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _resolve(module: str, attr: str):
    """(owner object, attribute name, original) or None when absent."""
    owner = sys.modules.get(module)
    if owner is None:
        return None
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class _Patches:
    """Attribute replacements with a reliable undo."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module: str, attr: str, make_wrapper) -> None:
        found = _resolve(module, attr)
        if found is None:
            return
        owner, attr, original = found
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self.set(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "conefix" or mod_name.startswith("conefix.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, name, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class LayerTrace:
    """Call counts, self times and work counters for the spans in SPANS."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._radius_args: set = set()
        self._member_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._patches = _Patches()

    def _span(self, name: str, fn, after=None):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # work counters, read from arguments and results at the span boundary

    def _after_picard(self, args, kwargs, result) -> None:
        self.counts["fixed_point.picard_solve.iterations"] += result.iterations

    def _after_serialize(self, args, kwargs, result) -> None:
        self.counts["scenarios.payload_bytes"] += len(result.encode())

    def _after_probe(self, args, kwargs, result) -> None:
        cfg = _arg(args, kwargs, 1, "cfg")
        entries = cfg.horizon - cfg.start + 1
        self.counts["spaces.is_c_sequence.entries_x_probes"] += entries * len(cfg.probes)

    def _after_radius(self, args, kwargs, result) -> None:
        # the power budget n_max is the same at every call site
        k = _arg(args, kwargs, 0, "k")
        self._radius_args.add((type(k).__name__, k.first, k.second))

    def _after_condition(self, args, kwargs, result) -> None:
        self.counts["applications.verify_condition.samples"] += result.samples

    def _after_ode_solve(self, args, kwargs, result) -> None:
        self.counts["applications.ode_solve.sweeps"] += result.iterations

    def _after_trapezoid(self, args, kwargs, result) -> None:
        # computed, not measured: the float64 samples read plus as many written
        self.counts["grid.cumulative_trapezoid_from.bytes_computed"] += 2 * result.nbytes

    def _member_counter(self, fn):
        seen = self._member_seen
        counts = self.counts

        def member(family, n):
            counts["fixed_point.member_memo.lookups"] += 1
            indices = seen.get(family)
            if indices is None:
                indices = seen[family] = set()
            if n not in indices:
                indices.add(n)
                counts["fixed_point.member_memo.distinct"] += 1
            return fn(family, n)

        member.__wrapped__ = fn
        return member

    def install(self) -> None:
        hooks = {
            "fixed_point.picard_solve": self._after_picard,
            "scenarios.serialize": self._after_serialize,
            "spaces.is_c_sequence": self._after_probe,
            "algebra.spectral_radius": self._after_radius,
            "applications.verify_condition": self._after_condition,
            "applications.ode_solve": self._after_ode_solve,
            "grid.cumulative_trapezoid_from": self._after_trapezoid,
        }
        for name, sites in SPANS.items():
            for module, attr in sites:
                self._patches.patch_function(
                    module, attr, lambda fn, n=name: self._span(n, fn, hooks.get(n)))
        self._patches.patch_function("conefix.fixed_point", "MapFamily.member",
                                     self._member_counter)

    def uninstall(self) -> None:
        self._patches.undo()

    def snapshot(self) -> dict[str, float]:
        """Flat name -> value map of everything recorded so far; a counter
        whose layer did no work reads 0."""
        out: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        for name in SPANS:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        out.update(self.counts)
        out["algebra.spectral_radius.distinct_args"] = len(self._radius_args)
        lookups = self.counts.get("fixed_point.member_memo.lookups", 0)
        distinct = self.counts.get("fixed_point.member_memo.distinct", 0)
        out["fixed_point.member_memo.hit_ratio"] = 1.0 - distinct / lookups if lookups else 0.0
        return out


class MemoryProbe:
    """Largest tracemalloc peak reached inside any one is_c_sequence call."""

    def __init__(self) -> None:
        self.peak_bytes = 0
        self._patches = _Patches()

    def _wrap(self, fn):
        def probed(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        probed.__wrapped__ = fn
        return probed

    def install(self) -> None:
        self._patches.patch_function("conefix.spaces", "is_c_sequence", self._wrap)

    def uninstall(self) -> None:
        self._patches.undo()


def layer_metrics(trace: dict[str, float], peak_bytes: int,
                  overhead_s: float) -> dict[str, float]:
    """Every per-layer metric the benchmark reports."""
    out = dict(trace)
    out["spaces.is_c_sequence.peak_alloc_mb"] = peak_bytes / 2**20
    out["trace.overhead_s"] = overhead_s
    return out
