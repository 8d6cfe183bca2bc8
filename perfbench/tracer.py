"""Per-layer spans recorded from outside the package.

A layer is one module of the package.  A span is one call that crosses a
layer boundary, or one call made by the benchmark.  Cross-layer calls are
found by scanning each layer's namespace for functions defined in a sibling
layer (the names bound by ``from .partitions import ...``); those bindings
are replaced by timing wrappers while the tracer runs and restored after.
Calls inside one module are not wrapped, so they count as that layer's self
time.  Span times are wall times (perf_counter), as measured.  Nothing under
the package's source tree is modified.
"""

from __future__ import annotations

import importlib
from time import perf_counter

PACKAGE = "laddercrystal"
LAYERS = ("partitions", "rimhooks", "jm", "crystal", "regular", "graph")
# Counted, never timed: check_ell runs about a million times per sweep.
CHECK_ELL = ("partitions", "check_ell")
# Counted inside regular too, for the reg_class yield (members per partition regularized).
REGULARIZE = ("regular", "regularize")


def _owner(obj) -> str | None:
    """The layer that defines a function (lru_cache wrappers included), else None."""
    if isinstance(obj, type) or not callable(obj):
        return None
    module = getattr(obj, "__module__", None) or ""
    prefix, _, layer = module.rpartition(".")
    return layer if prefix == PACKAGE and layer in LAYERS else None


class Api:
    """The package's public functions by name, each a span when traced."""

    def __init__(self, tracer: Tracer | None = None):
        self._tracer = tracer
        self._index = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(module).items():
                if not name.startswith("_") and _owner(obj) == layer:
                    self._index[name] = (layer, obj)

    def __getattr__(self, name: str):
        layer, fn = self._index[name]
        if self._tracer is not None:
            fn = self._tracer.span(layer, fn)
        setattr(self, name, fn)
        return fn


class Tracer:
    def __init__(self):
        self.modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.check_ell_calls = 0
        self.regularize_calls = 0
        self.caches = {
            f"{layer}.{name}": obj
            for layer, module in self.modules.items()
            for name, obj in vars(module).items()
            if _owner(obj) == layer and hasattr(obj, "cache_info")
        }
        self._open: list[float] = []  # child time accumulated by each open span
        self._patched: list[tuple] = []
        self._last_exc: BaseException | None = None
        self._last_exc_layers: set[str] = set()

    def span(self, layer: str, fn):
        open_spans = self._open

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._error(layer, exc)
                raise
            finally:
                elapsed = perf_counter() - start
                child = open_spans.pop()
                self.calls[layer] += 1
                self.self_s[layer] += elapsed - child
                if open_spans:
                    open_spans[-1] += elapsed

        return traced

    def _error(self, layer: str, exc: BaseException) -> None:
        """Count each exception once per layer it escapes."""
        if exc is not self._last_exc:
            self._last_exc, self._last_exc_layers = exc, set()
        if layer not in self._last_exc_layers:
            self._last_exc_layers.add(layer)
            self.errors[layer] += 1

    def _counter(self, attr: str, fn):
        def counted(*args, **kwargs):
            setattr(self, attr, getattr(self, attr) + 1)
            return fn(*args, **kwargs)

        return counted

    def start(self) -> None:
        for layer, module in self.modules.items():
            for name, obj in list(vars(module).items()):
                owner = _owner(obj)
                if owner is None:
                    continue
                if (owner, name) == CHECK_ELL:
                    wrapper = self._counter("check_ell_calls", obj)
                elif owner != layer:
                    wrapper = self.span(owner, obj)
                elif (layer, name) == REGULARIZE:
                    wrapper = self._counter("regularize_calls", obj)
                else:
                    continue
                setattr(module, name, wrapper)
                self._patched.append((module, name, obj))

    def stop(self) -> None:
        for module, name, obj in reversed(self._patched):
            setattr(module, name, obj)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.errors"] = self.errors[layer]
        out["partitions.check_ell.calls"] = self.check_ell_calls
        for name, fn in self.caches.items():
            info = fn.cache_info()
            lookups = info.hits + info.misses
            out[f"cache.{name}.hit_ratio"] = info.hits / lookups if lookups else 0.0
            out[f"cache.{name}.entries"] = info.currsize
        return out
