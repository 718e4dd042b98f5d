"""In-memory call tracer for the jetlag package, installed from outside it.

``Tracer.install()`` replaces every binding of every public function of the
traced modules -- the defining module's attribute and each ``from .x import
y`` copy in the other modules -- with a wrapper that records a span (name,
start, end, parent span, job id) and per-name counts.  Closures the program
builds at run time (the nonlinear connection's ``m_at``/``n_at``, a linear
connection pack's ``coefficients_at`` and the assembled Lagrangian's field)
are wrapped as they are returned.  ``Tracer.remove()`` restores every
original binding.

Self time is a span's duration minus the time its direct child spans
cover.  Span stacks are kept per thread; the counts are exact when the
program runs one worker, its default with JETLAG_THREADS unset.  For the names in ``REPEAT_ARG`` the tracer also counts calls whose
point argument, dual seeds included, was already seen in the same job.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import types
from array import array

# Modules whose public functions are wrapped.  ``scalars`` is left out: its
# public functions are per-arithmetic-operation helpers whose wrapping would
# dominate every other cost; ``errors`` defines no functions.
TRACED_MODULES = (
    "calculus", "cartan", "cli", "config", "connection", "curvature", "dsl",
    "extremal", "fields", "jet_core", "metric_engine", "parallel",
    "regularity", "report", "verify",
)

# Traced name -> index of the positional argument holding the point.
REPEAT_ARG = {
    "regularity.hessian_blocks": 1,
    "connection.spray_data": 2,
    "metric_engine.h_christoffel_values": 1,
    "cartan.coefficients_at": 0,
}

# Spans beyond this many are counted but not kept.
MAX_KEPT_SPANS = 100_000


def freeze(value):
    """Hashable image of a point argument that keeps every dual seed."""
    kind = type(value)
    if kind is float or isinstance(value, (int, float)):
        return value
    if kind is tuple or kind is list:
        return tuple(freeze(e) for e in value)
    if kind.__name__ == "JetPoint":
        return (freeze(value.t), freeze(value.x), freeze(value.v))
    if kind.__name__ == "Dual":
        return ("D", freeze(value.re), freeze(value.du))
    if kind.__name__ == "HyperDual":
        return ("H", freeze(value.re), freeze(value.e1), freeze(value.e2), freeze(value.e12))
    raise TypeError(f"cannot key a point argument of type {kind.__name__}")


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []  # [span_id, child_seconds]


class Tracer:
    """Wraps the jetlag package in place; one instance per process."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.repeats: list[int] = []
        self.self_s: list[float] = []
        self.job = -1
        self.next_span = 0
        # Kept spans, columnar: span id, name id, start, end, parent id, job.
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_job = array("i")
        self._local = _ThreadState()
        self._lock = threading.Lock()
        self._seen: dict[int, set] = {}
        self._originals: dict[int, object] = {}   # id(original) -> original
        self._patched: list[tuple] = []           # (module, attr, original)
        self.installed = False

    # --- bookkeeping -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        sid = self.ids.get(name)
        if sid is None:
            sid = len(self.names)
            self.ids[name] = sid
            self.names.append(name)
            self.calls.append(0)
            self.repeats.append(0)
            self.self_s.append(0.0)
        return sid

    def start_job(self, job: int) -> None:
        self.job = job
        self._seen = {}

    def reset(self) -> None:
        """Zero every count and drop the kept spans (names stay)."""
        for sid in range(len(self.names)):
            self.calls[sid] = 0
            self.repeats[sid] = 0
            self.self_s[sid] = 0.0
        self.next_span = 0
        for col in (self.span_id, self.span_name, self.span_start,
                    self.span_end, self.span_parent, self.span_job):
            del col[:]

    def counts(self) -> dict:
        return {name: self.calls[sid] for sid, name in enumerate(self.names)}

    # --- wrapping --------------------------------------------------------

    def wrap(self, fn, name: str):
        sid = self._name_id(name)
        repeat_arg = REPEAT_ARG.get(name)
        hook = _RESULT_HOOKS.get(name)
        local = self._local
        clock = time.perf_counter
        calls, self_s = self.calls, self.self_s
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[sid] += 1
            if repeat_arg is not None:
                tracer._note_point(sid, args[repeat_arg])
            stack = local.stack
            span = tracer.next_span
            tracer.next_span = span + 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[sid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if span < MAX_KEPT_SPANS:
                    tracer._keep(span, sid, start, end, parent)
            if hook is not None:
                hook(tracer, result)
            return result

        traced.__jetlag_traced__ = fn
        return traced

    def _note_point(self, sid: int, point) -> None:
        key = freeze(point)
        with self._lock:
            seen = self._seen.setdefault(sid, set())
            if key in seen:
                self.repeats[sid] += 1
            else:
                seen.add(key)

    def _keep(self, span, sid, start, end, parent) -> None:
        with self._lock:
            self.span_id.append(span)
            self.span_name.append(sid)
            self.span_start.append(start)
            self.span_end.append(end)
            self.span_parent.append(parent)
            self.span_job.append(self.job)

    def wrap_attr(self, obj, attr: str, name: str) -> None:
        fn = getattr(obj, attr)
        if not hasattr(fn, "__jetlag_traced__"):
            object.__setattr__(obj, attr, self.wrap(fn, name))

    def _modules(self):
        pkg = self.package.__name__
        for short in TRACED_MODULES:
            yield short, importlib.import_module(f"{pkg}.{short}")

    def _all_package_modules(self):
        prefix = self.package.__name__ + "."
        return [m for key, m in list(sys.modules.items())
                if m is not None and (key == self.package.__name__ or key.startswith(prefix))]

    def install(self) -> None:
        """Wrap every binding of every public function of TRACED_MODULES."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short, module in self._modules():
            for attr, value in vars(module).items():
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or value.__module__ != module.__name__):
                    continue
                wrappers[id(value)] = self.wrap(value, f"{short}.{attr}")
                self._originals[id(value)] = value
        for module in self._all_package_modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and self._originals[id(value)] is value:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))
        self.installed = True
        missed = self.unpatched_bindings()
        if missed:
            self.remove()
            raise RuntimeError(f"tracer left bindings unwrapped: {missed}")

    def unpatched_bindings(self) -> list:
        """Names through which package code can still reach an original
        function: module globals, and containers or closures held by them."""
        missed = []
        for module in self._all_package_modules():
            for attr, value in vars(module).items():
                if hasattr(value, "__jetlag_traced__"):
                    continue
                for inner in _reachable(value):
                    if id(inner) in self._originals and self._originals[id(inner)] is inner:
                        missed.append(f"{module.__name__}.{attr}")
        return sorted(set(missed))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self._originals.clear()
        self.installed = False

    # --- output ----------------------------------------------------------

    def spans_json(self) -> dict:
        return {
            "names": list(self.names),
            "columns": ["span", "name", "start_s", "end_s", "parent", "job"],
            "spans": [
                [self.span_id[k], self.span_name[k], self.span_start[k],
                 self.span_end[k], self.span_parent[k], self.span_job[k]]
                for k in range(len(self.span_id))
            ],
            "spans_total": self.next_span,
            "spans_kept": len(self.span_id),
        }


def _reachable(value):
    """The value itself, items of dict/list/tuple containers, and the cells
    of a function's closure (one level deep)."""
    yield value
    if isinstance(value, dict):
        yield from value.values()
    elif isinstance(value, (list, tuple, set, frozenset)):
        yield from value
    elif isinstance(value, types.FunctionType) and value.__closure__:
        for cell in value.__closure__:
            try:
                yield cell.cell_contents
            except ValueError:  # empty cell
                continue


def _wrap_connection(tracer, conn) -> None:
    tracer.wrap_attr(conn, "m_at", "connection.m_at")
    tracer.wrap_attr(conn, "n_at", "connection.n_at")


def _wrap_pack(tracer, pack) -> None:
    tracer.wrap_attr(pack, "coefficients_at", "cartan.coefficients_at")


def _wrap_lagrangian(tracer, instance) -> None:
    tracer.wrap_attr(instance.L, "field", "fields.lagrangian")


# Closures built at run time, wrapped as the function that builds them returns.
_RESULT_HOOKS = {
    "config.assemble": _wrap_lagrangian,
    "connection.canonical_nonlinear_connection": _wrap_connection,
    "connection.metric_pair_connection": _wrap_connection,
    "connection.zero_connection": _wrap_connection,
    "cartan.cartan_connection": _wrap_pack,
    "cartan.berwald_connection": _wrap_pack,
}

