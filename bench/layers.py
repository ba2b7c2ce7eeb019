"""Per-layer tracing from outside the simulator.

Timing wrappers are installed on the public functions and methods of each
module (`netconfig`, `kernel`, `model`, `lte_nodes`, `traffic`, `trace`,
`cli`) through module and class attributes, and removed afterwards; the
simulator's source is not touched. A span's self time is its duration
minus the durations of the wrapped spans it encloses, so the self times of
one run add up to the time spent inside the outermost span.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import time
from collections import Counter, defaultdict

from lteadv_sim import cli, kernel, model, netconfig, trace

HANDLER = None  # span key of handle_message wrappers: the module's type_name


class Spans:
    """Call counts and total / self seconds per span key."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self._stack: list = []  # per open span: seconds spent in child spans

    def wrap(self, fn, key):
        """Return fn wrapped in a span named `key`, or, for HANDLER,
        named "lte_nodes.<type_name>" of the module handling the event."""
        stack, clock = self._stack, time.perf_counter
        calls, total_s, self_s = self.calls, self.total_s, self.self_s

        @functools.wraps(fn)
        def span(*args, **kwargs):
            k = key if key is not HANDLER else "lte_nodes." + args[0].type_name
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                calls[k] += 1
                total_s[k] += dt
                self_s[k] += dt - inner

        return span


def _module_classes(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _module_classes(sub)


def targets() -> list[tuple[object, str, object]]:
    """(owner, attribute, span key) of every wrapped public entry point."""
    out = [
        (netconfig, "parse", "netconfig.parse"),
        (netconfig, "validate", "netconfig.validate"),
        (netconfig, "build", "netconfig.build"),
        (kernel.Simulator, "__init__", "kernel.simulator_init"),
        (kernel.Simulator, "run", "kernel.run"),
        (model, "send", "model.send"),
        (model, "send_direct", "model.send_direct"),
        (model.SimpleModule, "schedule_self", "model.schedule_self"),
        (trace.PaperTraceSink, "record", "trace.sink.paper"),
        (trace.StructuredTraceSink, "record", "trace.sink.structured"),
        (trace.CollectingSink, "record", "trace.sink.collect"),
        (trace, "summarize", "trace.summarize"),
        (trace, "generator_on", "trace.generator_on"),
        (cli, "main", "cli.main"),
    ]
    for cls in dict.fromkeys(_module_classes(model.ModuleNode)):
        if "handle_message" in vars(cls):
            out.append((cls, "handle_message", HANDLER))
    return out


class GcPauses:
    """gc.callbacks hook: number of collections and seconds spent in them."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._t0 = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.collections += 1
            self.pause_s += time.perf_counter() - self._t0


@contextlib.contextmanager
def installed(spans: Spans, pauses: GcPauses):
    """Wrap every target in a span and hook the GC; restore the original
    attributes and unhook on exit, whatever happens inside."""
    originals = []
    gc.callbacks.append(pauses)
    try:
        for owner, name, key in targets():
            original = vars(owner)[name]
            originals.append((owner, name, original))
            setattr(owner, name, spans.wrap(original, key))
        yield
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)
        gc.callbacks.remove(pauses)


class FesSampler:
    """Sink that reads len(sim.fes) at every event, counts events at the
    same t_ns as the event before, and counts events per (node, type),
    where node is the declared node name without its index."""

    def __init__(self, sim) -> None:
        self._fes = sim.fes
        self.events = 0
        self.fes_len_sum = 0
        self.fes_len_max = 0
        self.ties = 0
        self._last_t = None
        self.by_node_type: Counter = Counter()

    def record(self, rec) -> None:
        n = len(self._fes)
        self.events += 1
        self.fes_len_sum += n
        if n > self.fes_len_max:
            self.fes_len_max = n
        if rec.t_ns == self._last_t:
            self.ties += 1
        self._last_t = rec.t_ns
        node = rec.path.split(".")[1].split("[")[0]
        self.by_node_type[(node, rec.type_name)] += 1
