"""Layer spans for the traced run, recorded from outside the program.

Every function and method defined in a ``repro.<layer>`` package is
replaced by a wrapper that opens a span when control crosses into that
layer from another layer (or from outside ``repro``).  A call that stays
inside the current layer pays one comparison and goes straight through.

A layer's self time is the time spent inside its spans minus the time its
nested spans of other layers took.  Time in code outside ``repro``
(builtins, ``json``, numpy) counts for the layer that called it.  Time in
no span at all (the benchmark's own code) is ``unattributed``.

Counts are taken at named functions (:data:`COUNTED`); inclusive times at
others (:data:`TIMED`).  A target that no longer exists is reported on
stderr and reads 0, so renaming a function never breaks a run.

Generator functions and properties are left alone: a generator's body
runs in the frame that resumes it, and properties are one-line accessors
whose few nanoseconds are charged to the caller.
"""

import functools
import importlib
import inspect
import pkgutil
import sys
import types
from time import perf_counter

#: layers with no functions of their own in the workloads still report 0
LAYERS = ("accounting", "analysis", "apps", "check", "cluster", "core",
          "experiments", "faults", "hw", "kernel", "obs", "par", "powercap",
          "sidechannel", "sim", "userspace")

#: call counts at layer boundaries: metric -> "module:qualname" targets
COUNTED = {
    "kernel.reschedules": ["repro.kernel.cfs:CoreScheduler.reschedule"],
    "sim.events": ["repro.sim.engine:Simulator.at",
                   "repro.sim.engine:Simulator.call_later",
                   "repro.sim.engine:Simulator.call_soon"],
    "sim.boots": ["repro.sim.engine:Simulator.__init__"],
    "hw.accel_dispatches": ["repro.hw.accel:CommandEngine.dispatch"],
    "sidechannel.dtw_calls": ["repro.sidechannel.dtw:dtw_distance"],
    "powercap.ticks": ["repro.powercap.controller:PowerCapController._tick"],
    "obs.samples": ["repro.obs.timeline:Series.append"],
}

#: inclusive host seconds spent in named functions: metric -> targets
TIMED = {
    "sidechannel.dtw_s": ["repro.sidechannel.dtw:dtw_distance"],
    "obs.flight_s": ["repro.obs.flight:FlightRecorder.snapshot",
                     "repro.obs.flight:FlightRecorder.flush"],
    "obs.export_s": ["repro.obs.openmetrics:export_openmetrics",
                     "repro.obs.exporters:export_timeline_jsonl",
                     "repro.obs.exporters:export_chrome_trace",
                     "repro.obs.exporters:export_events_jsonl"],
}

_OUTSIDE = -1
_KEPT_DUNDERS = ("__init__", "__call__")


def _layer_of(module_name):
    parts = module_name.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return None
    return parts[1]


def dtw_band_cells(n, m, window):
    """Cells ``repro.sidechannel.dtw.dtw_distance`` fills for these sizes."""
    if window is None:
        window = max(n, m)
    window = max(window, abs(n - m))
    return sum(min(m, i + window) - max(1, i - window) + 1
               for i in range(1, n + 1))


class LayerTracer:
    """Install with :meth:`install`, run the workload, read :meth:`report`."""

    def __init__(self):
        self.index = {layer: i for i, layer in enumerate(LAYERS)}
        self.self_s = [0.0] * len(LAYERS)
        self.top_s = 0.0            # time inside outermost spans
        self.counts = {name: 0 for name in COUNTED}
        self.timed = {name: 0.0 for name in TIMED}
        self.dtw_cells = 0
        # [current layer index]; a list cell so wrappers share it cheaply
        self._current = [_OUTSIDE]
        # per open span: time its nested spans of other layers took
        self._child = []

    # -- wrapping ---------------------------------------------------------------

    def _span_wrapper(self, fn, layer):
        current = self._current
        child = self._child
        self_s = self.self_s
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if current[0] == layer:
                return fn(*args, **kwargs)
            outer = current[0]
            current[0] = layer
            child.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[layer] += elapsed - child.pop()
                current[0] = outer
                if child:
                    child[-1] += elapsed
                else:
                    tracer.top_s += elapsed

        return wrapper

    def _count_wrapper(self, fn, metric):
        counts = self.counts
        cells = metric == "sidechannel.dtw_calls"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            if cells:
                window = kwargs.get("window", args[2] if len(args) > 2
                                    else None)
                tracer.dtw_cells += dtw_band_cells(len(args[0]), len(args[1]),
                                                   window)
            return fn(*args, **kwargs)

        return wrapper

    def _time_wrapper(self, fn, metric):
        timed = self.timed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                timed[metric] += perf_counter() - start

        return wrapper

    def install(self):
        """Import every ``repro`` module and wrap its functions in place.

        Call before the workload boots anything: instances look methods up
        on their class, so they see the wrappers, and module-level
        ``from x import f`` bindings are rebound across all modules.
        """
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "repro" or name.startswith("repro.")]

        # "module:qualname" -> [(kind, metric)]; timers go innermost so a
        # count's own bookkeeping never lands in a timed metric
        extra = {}
        for metric, targets in TIMED.items():
            for target in targets:
                extra.setdefault(target, []).append(("time", metric))
        for metric, targets in COUNTED.items():
            for target in targets:
                extra.setdefault(target, []).append(("count", metric))
        found = set()

        def wrap(fn, layer, key):
            wrapped = self._span_wrapper(fn, layer)
            for kind, metric in extra.get(key, ()):
                found.add(key)
                if kind == "count":
                    wrapped = self._count_wrapper(wrapped, metric)
                else:
                    wrapped = self._time_wrapper(wrapped, metric)
            return wrapped

        replaced = {}   # id(original function) -> wrapper
        for module in modules:
            layer_name = _layer_of(module.__name__)
            if layer_name not in self.index:
                continue
            layer = self.index[layer_name]
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    if _traceable(obj):
                        replaced[id(obj)] = wrap(
                            obj, layer, "{}:{}".format(module.__name__, name))
                elif isinstance(obj, type):
                    self._wrap_class(obj, layer, module.__name__, wrap)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in replaced:
                    setattr(module, name, replaced[id(obj)])
        for key in sorted(set(extra) - found):
            print("perfbench: trace target {} not found; its metric reads "
                  "0".format(key), file=sys.stderr)
        return self

    def _wrap_class(self, cls, layer, module_name, wrap):
        for name, attr in list(vars(cls).items()):
            if name.startswith("__") and name not in _KEPT_DUNDERS:
                continue
            key = "{}:{}.{}".format(module_name, cls.__qualname__, name)
            if isinstance(attr, staticmethod):
                if _traceable(attr.__func__):
                    setattr(cls, name,
                            staticmethod(wrap(attr.__func__, layer, key)))
            elif isinstance(attr, classmethod):
                if _traceable(attr.__func__):
                    setattr(cls, name,
                            classmethod(wrap(attr.__func__, layer, key)))
            elif isinstance(attr, types.FunctionType) and _traceable(attr):
                setattr(cls, name, wrap(attr, layer, key))

    # -- results ----------------------------------------------------------------

    def reset(self):
        """Forget what set-up recorded (call between spans)."""
        self.self_s[:] = [0.0] * len(LAYERS)
        self.top_s = 0.0
        # in place: the wrappers hold these dicts
        self.counts.update(dict.fromkeys(self.counts, 0))
        self.timed.update(dict.fromkeys(self.timed, 0.0))
        self.dtw_cells = 0

    def report(self, wall_s):
        """Per-layer metrics for a traced pass that took ``wall_s``."""
        out = {}
        for layer, i in self.index.items():
            out[layer + ".self_s"] = self.self_s[i]
        out.update(self.counts)
        out.update(self.timed)
        out["sidechannel.dtw_cells"] = self.dtw_cells
        out["trace.unattributed_s"] = wall_s - self.top_s
        return out


def _traceable(fn):
    """False for generators and coroutines: their bodies run later."""
    return not (inspect.isgeneratorfunction(fn)
                or inspect.iscoroutinefunction(fn)
                or inspect.isasyncgenfunction(fn))
