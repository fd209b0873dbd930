"""Outside-in span tracer for the coherent2d package.

The program carries no instrumentation of its own, so the tracer wraps its
layer callables from outside. For each entry of ``LAYERS`` it resolves the
object once, finds every alias of that object by identity across all
``coherent2d.*`` module namespaces (``expansion.gauss_laguerre``,
``cli.make_grid``, ``dynamics.coherent_2d``, ...) and replaces each alias
with one timing wrapper; class methods are patched on the class. A layer
that no longer exists is reported as missing, never as zero.

Spans (id, name, start, end, parent id, op id) are kept in memory and
written out by the caller at the end of the run. A layer's self time is its
span's duration minus the durations of its child spans; the calls are
single-threaded and nest, so children never overlap. Only the callables
listed here are traced: per-mode kernels such as ``log_factorial`` or
``coeff_elliptic`` run 1e5 times per op and would cost more to time than
they take, so their time stays in their caller's self time.

Everything runs in one thread with no queues, so no layer has a waiting
time to report.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "coherent2d"
ROOT = "cli"

# Traced callables as "module.function", "module.Class" (construction) or
# "module.Class.method".
LAYERS = (
    "specialfn.gauss_laguerre",
    "specialfn.verify_laguerre_integral",
    "expansion.coeff_quadrature",
    "expansion.build_table",
    "observables.compute_report",
    "observables.marginals",
    "observables.partial_moment_identities",
    "states.make_grid",
    "states.coherent_2d",
    "dynamics.trace_orbit",
    "dynamics.evolve_closed_form",
    "dynamics.aligned_max_difference",
    "dynamics.SpectralEvolver",
    "dynamics.SpectralEvolver.at",
)

# Per-op counters the hooks below record.
COUNTERS = (
    "specialfn.gauss_laguerre.distinct_orders",
    "expansion.build_table.entries",
    "dynamics.SpectralEvolver.fields",
    "dynamics.grid_points_synthesized",
)

_COMPLEX_BYTES = np.dtype(complex).itemsize


def _array_bytes(obj) -> int:
    """Bytes of the numpy arrays held directly or in dicts/lists/tuples."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_array_bytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(v) for v in obj)
    return 0


def _rule_order(tracer, args, kwargs, result):
    tracer.orders[tracer.op].add(int(args[0] if args else kwargs["order"]))


def _table_entries(tracer, args, kwargs, result):
    tracer.count("expansion.build_table.entries", len(result))


def _evolver_fields(tracer, args, kwargs, result):
    evolver = args[0]
    grid = kwargs["grid"] if "grid" in kwargs else args[2]
    held = sum(_array_bytes(v) for v in vars(evolver).values())
    tracer.count("dynamics.SpectralEvolver.fields", held / (_COMPLEX_BYTES * grid.values.size))


def _points_synthesized(tracer, args, kwargs, result):
    tracer.count("dynamics.grid_points_synthesized", result.values.size)


# Counters recorded after a call returns, outside its span.
_HOOKS = {
    "specialfn.gauss_laguerre": _rule_order,
    "expansion.build_table": _table_entries,
    "dynamics.SpectralEvolver": _evolver_fields,
    "dynamics.SpectralEvolver.at": _points_synthesized,
}


class Tracer:
    """Span recorder that patches the package's layers in and out."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.orders: dict[int, set] = defaultdict(set)
        self.missing: list[str] = []
        self.hook_errors: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    def count(self, name: str, value: float) -> None:
        self.counters[(self.op, name)] += value

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.op))

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if hook is not None:
                try:
                    hook(tracer, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    tracer.hook_errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every alias of every layer; record layers that do not exist."""
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        self.missing = []
        for layer in LAYERS:
            module_name, attr, *method = layer.split(".")
            obj = getattr(sys.modules.get(f"{PACKAGE}.{module_name}"), attr, None)
            if method or inspect.isclass(obj):
                name = method[0] if method else "__init__"
                fn = obj.__dict__.get(name) if inspect.isclass(obj) else None
                if not callable(fn):
                    self.missing.append(layer)
                    continue
                self._patch(obj, name, self._wrap(layer, fn))
            elif callable(obj):
                wrapper = self._wrap(layer, obj)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is obj:
                            self._patch(module, key, wrapper)
            else:
                self.missing.append(layer)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def op_profiles(spans, counters, orders, ops) -> dict[int, dict[str, float]]:
    """Per-op values of every span-derived and counted metric.

    For each traced op: ``<layer>.calls``, ``<layer>.self_s``,
    ``<layer>.total_s`` (inclusive time) for every layer seen, the counters,
    and ``specialfn.gauss_laguerre.distinct_orders``.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        child_time[parent] += end - start
    profiles: dict[int, dict[str, float]] = {op: defaultdict(float) for op in ops}
    for span_id, name, start, end, _, op in spans:
        if op not in profiles:
            continue
        profile = profiles[op]
        profile[f"{name}.calls"] += 1
        profile[f"{name}.total_s"] += end - start
        profile[f"{name}.self_s"] += end - start - child_time[span_id]
    for (op, name), value in counters.items():
        if op in profiles:
            profiles[op][name] += value
    for op, seen in orders.items():
        if op in profiles:
            profiles[op]["specialfn.gauss_laguerre.distinct_orders"] = len(seen)
    return profiles
