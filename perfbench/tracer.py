"""Layer tracer for the benchmark's traced run.

Every public function and method of the traced lsdioph modules, and the
methods of stdlib `fractions.Fraction` (which carries `Magnitude`'s
exponents), is replaced by a wrapper for the duration of the run.  A call
opens a span only when it crosses into another layer; a call from a layer
into itself (`LiteralWhite` delegating to `AvoidanceWhite.propose`, module
helpers calling each other) only counts, so re-entry is never double
counted.  A span's self time is its duration minus the spans it caused, so
the layers' self times add up to the traced wall time.

Spans are aggregated in memory per (caller layer, layer) edge as they close
and written out once, by `write`, after the run.  Time the parent process
spends waiting on `--threads` worker processes is its own layer,
`dimension.pool_wait`; workers restore the original functions right after
the fork and run untraced.
"""

from __future__ import annotations

import concurrent.futures
import fractions
import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "game", "strategy", "approx", "geom", "linalg", "dimension", "series", "field")
FRACTIONS = "fractions"
POOL = "dimension.pool_wait"
ROOT = "bench"

# Dunders that are bookkeeping, not work a layer does for its caller.
_SKIP = {
    "__repr__", "__hash__", "__setattr__", "__delattr__", "__getattr__",
    "__getattribute__", "__reduce__", "__reduce_ex__", "__getstate__", "__setstate__",
    "__copy__", "__deepcopy__", "__init_subclass__", "__class_getitem__", "__subclasshook__",
    "__post_init__", "__format__", "__sizeof__", "__dir__",
}

# (layer, qualified name) -> exact call counter
COUNTERS = {
    ("cli", "main"): "cli.commands",
    ("field", "Poly.__init__"): "field.poly_new",
    ("field", "Poly.__divmod__"): "field.poly_divmod",
    ("field", "Magnitude.__init__"): "field.magnitude_new",
    (FRACTIONS, "Fraction.__new__"): "fractions.new",
    ("series", "LaurentSeries.__mul__"): "series.laurent_mul",
    ("series", "RationalFn.__init__"): "series.rational_new",
    ("linalg", "det"): "linalg.det_calls",
    ("geom", "successive_minima"): "geom.minima_calls",
    ("dimension", "box_count_bad"): "dimension.boxcount_calls",
}

# (layer, qualified name) -> tag.  A tag's inclusive time and call count
# cover only its outermost calls.
TAGS = {
    ("strategy", "AvoidanceWhite.propose"): "strategy.white_move",
    ("strategy", "LiteralWhite.propose"): "strategy.white_move",
    ("strategy", "certify_bad"): "strategy.certify",
    ("approx", "badness_constant"): "approx.badness",
    ("approx", "dirichlet_witness"): "approx.dirichlet",
    ("geom", "successive_minima"): "geom.minima",
    ("linalg", "det"): "linalg.det",
    ("dimension", "box_count_bad"): "dimension.boxcount",
}

# Vectors yielded by the height-class enumerator are counted against the
# innermost of these tags that is open when the enumeration starts.
VECTOR_SOURCE = ("approx", "iter_height_class")
VECTOR_COUNTERS = {
    "strategy.white_move": "strategy.danger_scan_vectors",
    "strategy.certify": "strategy.certify_vectors",
    "approx.badness": "approx.badness_vectors",
}


# Inclusive time (outermost spans) is reported for these layers; geom and
# linalg are also timed as one group.
INCLUSIVE_METRICS = ("strategy", "approx", "geom_linalg", "dimension")
_INCLUSIVE_KEYS = {"geom": ("geom", "geom_linalg"), "linalg": ("linalg", "geom_linalg")}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # open spans, innermost last: [layer, time covered by child spans]
        self.stack = [[ROOT, 0.0]]
        self.self_s = defaultdict(float)
        self.open = defaultdict(int)  # open spans per layer or layer group
        self.inclusive_s = defaultdict(float)  # outermost spans only
        self.edges = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, layer) -> [spans, total, self]
        self.counts = defaultdict(int)
        self.tag_depth = defaultdict(int)
        self.tag_s = defaultdict(float)
        self.tag_calls = defaultdict(int)
        self.vector_tags = []
        self._saved = []  # (owner, name, original attribute) to restore

    # --- span bookkeeping -------------------------------------------------

    def _open(self, layer):
        frame = [layer, 0.0]
        self.stack.append(frame)
        for key in _INCLUSIVE_KEYS.get(layer, (layer,)):
            self.open[key] += 1
        return frame

    def _close(self, frame, dt):
        self.stack.pop()
        layer = frame[0]
        for key in _INCLUSIVE_KEYS.get(layer, (layer,)):
            self.open[key] -= 1
            if not self.open[key]:
                self.inclusive_s[key] += dt
        parent = self.stack[-1]
        parent[1] += dt
        own = dt - frame[1]
        self.self_s[layer] += own
        edge = self.edges[(parent[0], layer)]
        edge[0] += 1
        edge[1] += dt
        edge[2] += own

    def wrap(self, fn, layer, name):
        """Wrap `fn`, which belongs to `layer` under the qualified `name`."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer, name)
        counter = COUNTERS.get((layer, name))
        tag = TAGS.get((layer, name))
        stack, clock, counts = self.stack, self.clock, self.counts

        def call(args, kwargs):
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = self._open(layer)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, clock() - t0)

        if tag is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if counter is not None:
                    counts[counter] += 1
                if stack[-1][0] == layer:
                    return fn(*args, **kwargs)
                return call(args, kwargs)

            return wrapper

        depth = self.tag_depth

        @functools.wraps(fn)
        def tagged(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            outermost = depth[tag] == 0
            depth[tag] += 1
            if tag in VECTOR_COUNTERS:
                self.vector_tags.append(tag)
            t0 = clock()
            try:
                return call(args, kwargs)
            finally:
                if outermost:
                    self.tag_s[tag] += clock() - t0
                    self.tag_calls[tag] += 1
                depth[tag] -= 1
                if tag in VECTOR_COUNTERS:
                    self.vector_tags.pop()

        return tagged

    def _wrap_generator(self, fn, layer, name):
        stack, clock, counts = self.stack, self.clock, self.counts
        counting = (layer, name) == VECTOR_SOURCE

        def resume(gen, cross, counter):
            while True:
                if cross:
                    frame = self._open(layer)
                    t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    if cross:
                        self._close(frame, clock() - t0)
                if counter is not None:
                    counts[counter] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            cross = stack[-1][0] != layer
            counter = None
            if counting and self.vector_tags:
                counter = VECTOR_COUNTERS[self.vector_tags[-1]]
            if not cross and counter is None:
                return gen
            return resume(gen, cross, counter)

        return wrapper

    def pool_wait(self, fn):
        """Run fn() as a span of the pool-wait layer."""
        frame = self._open(POOL)
        t0 = self.clock()
        try:
            return fn()
        finally:
            self._close(frame, self.clock() - t0)

    # --- installation -----------------------------------------------------

    def _set(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap_class(self, cls, layer):
        for name, raw in list(vars(cls).items()):
            if name in _SKIP or (name.startswith("_") and not name.startswith("__")):
                continue
            qual = f"{cls.__name__}.{name}"
            if isinstance(raw, staticmethod):
                self._set(cls, name, staticmethod(self.wrap(raw.__func__, layer, qual)))
            elif isinstance(raw, classmethod):
                self._set(cls, name, classmethod(self.wrap(raw.__func__, layer, qual)))
            elif inspect.isfunction(raw):
                self._set(cls, name, self.wrap(raw, layer, qual))

    def install(self):
        """Wrap the layers' public functions and methods, and the pool."""
        modules = {layer: importlib.import_module(f"lsdioph.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self.wrap(obj, layer, name)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        self._wrap_class(fractions.Fraction, FRACTIONS)
        # rebind every module-level reference, including `from x import f`
        loaded = [m for n, m in sys.modules.items() if n == "lsdioph" or n.startswith("lsdioph.")]
        for mod in loaded:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(mod, name, replaced[obj])
        self._set_pool()
        _register_fork_hook()
        _INSTALLED.append(self)

    def _set_pool(self):
        tracer = self
        # reading the attribute also caches it in the module's namespace
        base = concurrent.futures.ProcessPoolExecutor

        class TimedPool(base):
            def map(self, fn, *iterables, **kwargs):
                results = tracer.pool_wait(lambda: super(TimedPool, self).map(fn, *iterables, **kwargs))
                while True:
                    try:
                        yield tracer.pool_wait(lambda: next(results))
                    except StopIteration:
                        return

            def shutdown(self, *args, **kwargs):
                return tracer.pool_wait(lambda: super(TimedPool, self).shutdown(*args, **kwargs))

        self._set(concurrent.futures, "ProcessPoolExecutor", TimedPool)

    def uninstall(self):
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)
        if self in _INSTALLED:
            _INSTALLED.remove(self)

    # --- results ----------------------------------------------------------

    def metrics(self):
        out = {}
        for layer in LAYERS + (FRACTIONS,):
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
        out["dimension.pool_wait_s"] = self.self_s.get(POOL, 0.0)
        for key in INCLUSIVE_METRICS:
            out[f"{key}.inclusive_s"] = self.inclusive_s.get(key, 0.0)
        for tag in sorted(set(TAGS.values())):
            out[f"{tag}_s"] = self.tag_s.get(tag, 0.0)
        out["strategy.white_moves"] = self.tag_calls.get("strategy.white_move", 0)
        for name in sorted(set(COUNTERS.values()) | set(VECTOR_COUNTERS.values())):
            out[name] = self.counts.get(name, 0)
        return out

    def write(self, path, extra=None):
        record = {
            "inclusive_s": dict(sorted(self.inclusive_s.items())),
            "edges": [
                {"parent": p, "layer": l, "spans": n, "total_s": tot, "self_s": own}
                for (p, l), (n, tot, own) in sorted(self.edges.items())
            ],
            "metrics": self.metrics(),
            **(extra or {}),
        }
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)


# Tracers currently installed in this process.  Fork hooks cannot be
# unregistered, so the hook is registered once and consults this list.
_INSTALLED = []


def _untrace_after_fork():
    for tracer in list(_INSTALLED):
        tracer.uninstall()


def _register_fork_hook():
    if not getattr(_register_fork_hook, "done", False):
        os.register_at_fork(after_in_child=_untrace_after_fork)
        _register_fork_hook.done = True
