"""Per-layer tracing of one nlwaves CLI invocation, from outside the package.

A layer is an nlwaves module: kernels, spectral, dynamics, lattice,
convergence and cli.  Every public function of those modules, the public
methods of their classes and the ``Field`` arithmetic are wrapped in a span
named after the layer that defines them.  A layer's self time is the time
during which one of its spans is the innermost open span, so time moves
between layers, rather than vanishing, when a refactor removes a function
from the hot path.  Calls at the ``numpy.fft`` boundary are counted (calls
and transform points) but not timed: FFT time stays in the calling layer.

Self time is also split by phase: ``setup`` before the first time step,
``step`` from then until the last integrator returns, ``output`` after it.
Observers passed to the integrators are wrapped too, and a clock observer
is added in front of them; the interval between two clock ticks minus the
observer time inside it is the duration of one time step.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

from launch import rebind

LAYERS = ("kernels", "spectral", "dynamics", "lattice", "convergence", "cli")

#: members wrapped besides the public methods of each class
EXTRA_MEMBERS = {
    "Field": ("__init__", "__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "spectrum"),
    "Grid": ("__init__",),
}

#: file writers count as the cli layer, where the output phase is measured
LAYER_OVERRIDES = {"write_field_csv": "cli", "write_chain_csv": "cli"}

INTEGRATORS = ("dynamics.integrate", "lattice.integrate_chain")
DIAGNOSTICS = ("dynamics.energy", "dynamics.breakdown_monitor")
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: (layer, name, start_ns)
        self.last_ns = _now()
        self.integrating = 0
        self.first_step_ns = None  # monotonic, for the parent's set-up clock
        self.step_ns = 0
        self.self_ns = defaultdict(int)  # (layer, phase) -> ns
        self.tail_ns = defaultdict(int)  # self time since the last integrator returned
        self.entries = Counter()  # layer -> calls entering it from another layer
        self.calls = Counter()  # span name -> calls
        self.fft_calls = 0
        self.fft_points = 0
        self.observer_ns = 0
        self.diagnostics_ns = 0
        self.norm_ns = 0
        self.snapshots = 0
        self.step_durations = defaultdict(list)  # layer -> ns per time step

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        import numpy.fft

        for name in FFT_FUNCTIONS:
            setattr(numpy.fft, name, self._count_fft(getattr(numpy.fft, name)))
        modules = {layer: sys.modules[f"nlwaves.{layer}"] for layer in LAYERS}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    owner = LAYER_OVERRIDES.get(name, layer)
                    rebind(obj, self._wrap(owner, f"{layer}.{name}", obj))
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)

    def _wrap_class(self, layer: str, cls) -> None:
        members = [n for n in vars(cls) if not n.startswith("_")]
        members += EXTRA_MEMBERS.get(cls.__name__, ())
        for name in members:
            raw = inspect.getattr_static(cls, name)
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(raw, classmethod):
                setattr(cls, name, classmethod(self._wrap(layer, qual, raw.__func__)))
            elif isinstance(raw, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(layer, qual, raw.__func__)))
            elif isinstance(raw, property) and name in EXTRA_MEMBERS.get(cls.__name__, ()):
                setattr(cls, name, property(self._wrap(layer, qual, raw.fget)))
            elif inspect.isfunction(raw):
                setattr(cls, name, self._wrap(layer, qual, raw))

    # -- spans ----------------------------------------------------------------

    def _attribute(self, now: int) -> None:
        """Charge the time since the last span event to the innermost span."""
        elapsed = now - self.last_ns
        self.last_ns = now
        if not self.stack:
            return
        layer = self.stack[-1][0]
        if self.integrating:
            self.self_ns[(layer, "step")] += elapsed
        elif self.first_step_ns is None:
            self.self_ns[(layer, "setup")] += elapsed
        else:
            self.tail_ns[layer] += elapsed

    def _wrap(self, layer: str, name: str, fn):
        if name in INTEGRATORS:
            return self._wrap_integrator(layer, name, fn)
        tracer = self
        stack = self.stack

        def span(*args, **kwargs):
            start = _now()
            tracer._attribute(start)
            if not stack or stack[-1][0] != layer:
                tracer.entries[layer] += 1
            tracer.calls[name] += 1
            stack.append((layer, name, start))
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                tracer._attribute(end)
                stack.pop()
                if stack:
                    parent = stack[-1]
                    if name in DIAGNOSTICS and parent[1].endswith(".observer"):
                        tracer.diagnostics_ns += end - start
                    elif name == "spectral.sobolev_norm" and parent[0] == "convergence":
                        tracer.norm_ns += end - start

        return span

    def _wrap_integrator(self, layer: str, name: str, fn):
        signature = inspect.signature(fn)
        inner = None

        def integrator(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            observers = tuple(bound.arguments.get("observers", ()))
            ticks = []
            bound.arguments["observers"] = (self._clock(ticks),) + tuple(
                self._wrap_observer(o) for o in observers
            )
            self._attribute(_now())
            start = time.monotonic_ns()
            if self.first_step_ns is None:
                self.first_step_ns = start
            for tail_layer, ns in self.tail_ns.items():
                self.self_ns[(tail_layer, "step")] += ns
            self.tail_ns.clear()
            self.integrating += 1
            try:
                return inner(*bound.args, **bound.kwargs)
            finally:
                self.integrating -= 1
                self.step_ns += time.monotonic_ns() - start
                self.step_durations[layer] += [
                    (t1 - t0) - (o1 - o0)
                    for (t0, o0), (t1, o1) in zip(ticks, ticks[1:])
                ]
                self.snapshots += sum(
                    len(o.times) for o in observers if isinstance(getattr(o, "times", None), list)
                )
                self.last_ns = _now()  # this bookkeeping is no layer's time

        inner = self._wrap(layer, name + ".span", fn)
        return integrator

    def _clock(self, ticks):
        def tick(_state):
            ticks.append((_now(), self.observer_ns))

        return tick

    def _wrap_observer(self, observer):
        module = getattr(observer, "__module__", "") or ""
        layer = module.rpartition(".")[2] if module.startswith("nlwaves.") else "cli"
        timed = self._wrap(layer, f"{layer}.observer", observer)

        def observe(state):
            start = _now()
            try:
                timed(state)
            finally:
                self.observer_ns += _now() - start

        return observe

    def _count_fft(self, fn):
        def counted(a, n=None, axis=-1, *args, **kwargs):
            shape = getattr(a, "shape", None) or (len(a),)
            length = shape[axis]
            if n is None:
                n = 2 * (length - 1) if fn.__name__ in ("irfft", "hfft") else length
            transforms = 1
            for i, dim in enumerate(shape):
                if i != axis % len(shape):
                    transforms *= dim
            self.fft_calls += 1
            self.fft_points += transforms * n
            return fn(a, n, axis, *args, **kwargs)

        return counted

    # -- record ---------------------------------------------------------------

    def record(self) -> dict:
        for layer, ns in self.tail_ns.items():
            self.self_ns[(layer, "output")] += ns
        self.tail_ns.clear()
        self_ns = {layer: {} for layer in LAYERS}
        for (layer, phase), ns in self.self_ns.items():
            self_ns.setdefault(layer, {})[phase] = ns
        steps = {}
        for layer, durations in self.step_durations.items():
            p99 = statistics.quantiles(durations, n=100)[98] if len(durations) > 1 else durations[0]
            steps[layer] = {"count": len(durations), "p50_ns": statistics.median(durations), "p99_ns": p99}
        return {
            "first_step_ns": self.first_step_ns,
            "step_ns": self.step_ns,
            "self_ns": self_ns,
            "entries": dict(self.entries),
            "calls": dict(self.calls),
            "fft_calls": self.fft_calls,
            "fft_points": self.fft_points,
            "diagnostics_ns": self.diagnostics_ns,
            "norm_ns": self.norm_ns,
            "snapshots": self.snapshots,
            "steps": steps,
        }
