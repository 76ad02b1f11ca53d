"""Outside-in tracing of the siegellift package.

The tracer wraps functions of each package module from here, without
editing the package: every module-level name that refers to a wrapped
function is rebound (``predictor`` and ``cli`` import with ``from ...
import``, so each copy is replaced), and a few render methods and the
``LocalFactor`` constructor hook are replaced on their classes.  Spans are
kept in memory, one stack per thread, and written out by the caller.

A span's self time is its duration minus the time of the child spans
opened on the same thread.  The tracer's own bookkeeping around a call is
charged to no layer: it is part of ``trace.overhead_s``.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import threading
from collections import namedtuple
from fractions import Fraction
from time import perf_counter

#: Package module -> layer name (metric names may not start with "_").
LAYERS = {
    "_primes": "primes",
    "modform": "modform",
    "heckechar": "heckechar",
    "localfactor": "localfactor",
    "archimedean": "archimedean",
    "predictor": "predictor",
    "cli": "cli",
}

#: Private functions wrapped besides every public one, by module.
PRIVATE = {
    "modform": ("_ap_charsum",),
    "predictor": ("_run_prime_tasks",),
    "cli": ("_to_json", "_factor_rows", "_emit"),
}

#: Function name -> item name, where the metric groups functions.
ITEMS = {
    "_ap_charsum": "ap",
    "point_count": "ap",
    "degree5_factor": "degree5",
    "dirichlet_coeffs": "dirichlet",
    "_run_prime_tasks": "pool",
    "_to_json": "render",
    "_factor_rows": "render",
    "_emit": "render",
}

#: Methods on package classes that render output; charged to cli.render.
RENDER_METHODS = ("to_json", "to_text", "__str__")


def _freeze(value):
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


#: One span: command id, span id, parent span id, thread, layer, item,
#: start, end and self time (seconds).
Span = namedtuple("Span", "cmd sid parent thread layer item start end self_s")


class Tracer:
    """Install with :meth:`install`, run commands between
    :meth:`begin_command` calls, then :meth:`uninstall`."""

    def __init__(self, package):
        self.package = package
        self.modules = {
            name: importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS
        }
        self.spans: list = []  # Span fields, as plain tuples
        self.pools: list = []  # (pool span id, jobs)
        self.book_s = 0.0  # tracer bookkeeping inside traced calls
        self.cmd = 0
        self.ap_hits = 0
        self.ap_misses = 0
        self.ap_max_p = 0
        self.lf_calls = 0
        self.lf_repeats = 0
        self.max_coeff_bits = 0
        self.nonintegral = 0
        self._seen: set = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list = []

    # -- commands -----------------------------------------------------------

    def begin_command(self) -> None:
        """Give the next command its own id and a cold a_p cache."""
        self._drain_ap_cache()
        self.cmd += 1
        self._seen = set()

    def _drain_ap_cache(self) -> None:
        cache = self.modules["modform"]._ap_good_cached
        if self.cmd:  # a traced command ran since the last drain
            info = cache.cache_info()
            self.ap_hits += info.hits
            self.ap_misses += info.misses
        cache.cache_clear()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrapped = {}
        for mod_name, module in self.modules.items():
            layer = LAYERS[mod_name]
            for name, fn in vars(module).items():
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                if name.startswith("_") and name not in PRIVATE.get(mod_name, ()):
                    continue
                wrapped[fn] = self._wrap(fn, layer, ITEMS.get(name, name))
            for cls in vars(module).values():
                if inspect.isclass(cls) and cls.__module__ == module.__name__:
                    self._wrap_methods(cls, mod_name)
        for module in [self.package, *self.modules.values()]:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(module, name, wrapped[value])

    def uninstall(self) -> None:
        self._drain_ap_cache()
        while self._undo:
            target, name, original = self._undo.pop()
            setattr(target, name, original)

    def _set(self, target, name, value) -> None:
        self._undo.append((target, name, vars(target)[name]))
        setattr(target, name, value)

    def _wrap_methods(self, cls, mod_name: str) -> None:
        for name in RENDER_METHODS:
            method = vars(cls).get(name)
            if inspect.isfunction(method) and method.__module__ == cls.__module__:
                self._set(cls, name, self._wrap(method, "cli", "render"))
        if mod_name == "localfactor" and cls.__name__ == "LocalFactor":
            self._set(cls, "__post_init__", self._wrap_factor_init(vars(cls)["__post_init__"]))

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, fn, args, kwargs, layer, item, parent=None, sid=None):
        """Run fn inside a span; parent defaults to the thread's open span."""
        b0 = perf_counter()
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][0]
        frame = [sid or next(self._ids), 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append(
                (self.cmd, frame[0], parent, threading.get_ident(), layer, item,
                 t0, t1, t1 - t0 - frame[1])
            )
            b1 = perf_counter()
            if stack:
                stack[-1][1] += b1 - b0
            self.book_s += (t0 - b0) + (b1 - t1)

    def _wrap(self, fn, layer: str, item: str):
        if layer == "localfactor":
            return self._wrap_localfactor(fn, item)
        if item == "ap":
            return self._wrap_ap(fn)
        if item == "pool":
            return self._wrap_pool(fn)
        span = self._span

        def traced(*args, **kwargs):
            return span(fn, args, kwargs, layer, item)

        return traced

    def _book(self, b0: float) -> None:
        """Charge bookkeeping done outside a span, since b0, to no layer."""
        dt = perf_counter() - b0
        stack = self._stack()
        if stack:
            stack[-1][1] += dt
        self.book_s += dt

    def _wrap_ap(self, fn):
        def traced(curve, p, *args, **kwargs):
            b0 = perf_counter()
            self.ap_max_p = max(self.ap_max_p, p)
            self._book(b0)
            return self._span(fn, (curve, p) + args, kwargs, "modform", "ap")

        return traced

    def _wrap_localfactor(self, fn, item: str):
        name = fn.__name__

        def traced(*args, **kwargs):
            b0 = perf_counter()
            key = (name, _freeze(args), tuple(sorted(kwargs.items())))
            try:
                repeated = key in self._seen
                self._seen.add(key)
            except TypeError:  # an argument that cannot be hashed
                repeated = False
            self.lf_calls += 1
            self.lf_repeats += repeated
            label = item
            if name == "combine":
                mode = args[2] if len(args) > 2 else kwargs["mode"]
                label = f"combine.{mode.value}"
            self._book(b0)
            return self._span(fn, args, kwargs, "localfactor", label)

        return traced

    def _wrap_factor_init(self, fn):
        def traced(factor):
            self._span(fn, (factor,), {}, "localfactor", "LocalFactor")
            b0 = perf_counter()
            for c in factor.coeffs:
                if isinstance(c, Fraction):
                    self.nonintegral += 1
                    break
                self.max_coeff_bits = max(self.max_coeff_bits, c.bit_length())
            self._book(b0)

        return traced

    def _wrap_pool(self, fn):
        span = self._span

        def traced(tasks, jobs):
            # tasks name the pool span as parent, whichever thread runs them
            sid = next(self._ids)
            self.pools.append((sid, jobs))
            tasks = [
                (p, lambda task=task: span(task, (), {}, "predictor", "task", parent=sid))
                for p, task in tasks
            ]
            return span(fn, (tasks, jobs), {}, "predictor", "pool", sid=sid)

        return traced


def layer_metrics(tracer: Tracer, output_bytes: int, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass at --jobs 1."""
    out = {}
    items: dict = {}
    for layer in LAYERS.values():
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    for s in map(Span._make, tracer.spans):
        out[f"{s.layer}.self_s"] += s.self_s
        out[f"{s.layer}.calls"] += 1
        acc = items.setdefault(f"{s.layer}.{s.item}", [0.0, 0])
        acc[0] += s.self_s
        acc[1] += 1
    total_self = sum(out[f"{layer}.self_s"] for layer in LAYERS.values())
    for name in (
        "modform.ap",
        "localfactor.power_sums",
        "localfactor.from_power_sums",
        "localfactor.plethysm",
        "localfactor.combine.tensor",
        "localfactor.combine.sum",
        "localfactor.exact_divide",
        "heckechar.induced_factor",
        "heckechar.prime_above",
        "predictor.verify_identity",
        "predictor.degree5",
        "predictor.dirichlet",
        "cli.render",
    ):
        out[f"{name}.self_s"] = items.get(name, (0.0, 0))[0]
    for name in ("heckechar.splitting", "primes.is_prime"):
        out[f"{name}.calls"] = items.get(name, (0.0, 0))[1]
    looked_up = tracer.ap_hits + tracer.ap_misses
    out.update({
        "modform.ap.count": tracer.ap_misses,
        "modform.ap.cache_hit_ratio": tracer.ap_hits / looked_up if looked_up else 0.0,
        "modform.ap.max_p": tracer.ap_max_p,
        "localfactor.repeat_ratio": tracer.lf_repeats / tracer.lf_calls if tracer.lf_calls else 0.0,
        "localfactor.max_coeff_bits": tracer.max_coeff_bits,
        "localfactor.nonintegral_results": tracer.nonintegral,
        "cli.output_bytes": output_bytes,
        "trace.wall_s": wall_s,
        "trace.accounted_ratio": (total_self + tracer.book_s) / wall_s,
    })
    return out


def pool_metrics(tracer: Tracer) -> dict:
    """Pool metrics of one traced pass at --jobs 2: the share of worker
    capacity spent in tasks, and the time the calling thread waits."""
    spans = {s.sid: s for s in map(Span._make, tracer.spans)}
    done: dict = {}
    inline: dict = {}
    for s in spans.values():
        if s.item == "task":
            done[s.parent] = done.get(s.parent, 0.0) + (s.end - s.start)
            if s.thread == spans[s.parent].thread:
                inline[s.parent] = inline.get(s.parent, 0.0) + (s.end - s.start)
    busy = capacity = wait = 0.0
    for sid, jobs in tracer.pools:
        pool = spans[sid]
        busy += done.get(sid, 0.0)
        capacity += (pool.end - pool.start) * jobs
        wait += (pool.end - pool.start) - inline.get(sid, 0.0)
    return {
        "predictor.pool.busy_ratio": busy / capacity if capacity else 0.0,
        "predictor.pool.wait_s": wait,
    }
