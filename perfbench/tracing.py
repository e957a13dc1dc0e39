"""Span tracing of polyverse's public functions, installed from outside.

``Tracer.install`` wraps every public function, every constructor and every
public method of the layer modules.  A wrapper replaces the original in its
defining module, in every polyverse module that imported it by name, and on
the class for methods and constructors.  Each wrapped call records one
span (name, start, end, parent span, op id) into flat in-memory arrays;
``write`` stores them when the run ends.  Self time is a span's duration
minus the durations of its child spans.

``label_key`` and ``check_label`` are recursive and called per label node, so
they are counted but not timed, and counted in a pass of their own: a
span, or even a counter, per node would cost more than the work it
measures and would show up as the callers' self time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("finset", "poly", "poly2", "internalcat", "naturalmodel", "interchange", "cli", "suites", "generators")
COUNT_ONLY = {"finset.label_key", "finset.check_label"}

# the op id of spans that are not recorded (verdict checking)
OFF = -1
SETUP = 0


def _polyverse_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "polyverse" or name.startswith("polyverse.")]


class Tracer:
    def __init__(self):
        self.op = OFF
        self.names: list = []
        self.name_ids: dict = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counters = defaultdict(int)
        self._stack: list = []
        self._child_s: list = []
        self._restore: list = []
        self.epoch = perf_counter()

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name: str) -> int:
        idx = len(self.span_name)
        self.span_name.append(self.name_ids[name])
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._child_s.append(0.0)
        return idx

    def _close(self, name: str, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        child = self._child_s.pop()
        self.span_start[idx] = t0 - self.epoch
        self.span_end[idx] = t1 - self.epoch
        duration = t1 - t0
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        if self._child_s:
            self._child_s[-1] += duration

    def _span_wrapper(self, name: str, fn, post=None):
        tracer = self
        self._name_id(name)

        def traced(*args, **kwargs):
            if tracer.op == OFF:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            idx = tracer._open(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, idx, t0, perf_counter())
            if post is not None:
                post(tracer, args, result)
            return result

        return traced

    def _generator_wrapper(self, name: str, fn):
        """One span per resumption, so the body's work is timed where it
        runs and nests under whoever is consuming the generator."""
        tracer = self
        self._name_id(name)

        def traced(*args, **kwargs):
            if tracer.op == OFF:
                yield from fn(*args, **kwargs)
                return
            tracer.calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                idx = tracer._open(name)
                t0 = perf_counter()
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(name, idx, t0, perf_counter())
                yield value

        return traced

    def _count_wrapper(self, name: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.op != OFF:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def _wrap(self, name: str, fn):
        if (name in COUNT_ONLY) != self._counting:
            return fn
        if name in COUNT_ONLY:
            return self._count_wrapper(name, fn)
        if inspect.isgeneratorfunction(fn):
            return self._generator_wrapper(name, fn)
        return self._span_wrapper(name, fn, POST_HOOKS.get(name))

    def _replace(self, owner, attr: str, new) -> None:
        if new is owner.__dict__[attr]:
            return
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, counting: bool = False) -> None:
        """Wrap the span-recording functions, or with ``counting`` only the
        functions in ``COUNT_ONLY``, whose counting would otherwise add to
        their callers' self time."""
        self._counting = counting
        modules = _polyverse_modules()
        for layer in LAYERS:
            mod = importlib.import_module(f"polyverse.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for m in modules:
                        for alias, value in list(vars(m).items()):
                            if value is obj:
                                self._replace(m, alias, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(f"{layer}.{attr}", obj)

    def _install_class(self, name: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr == "__init__":
                self._replace(cls, attr, self._wrap(name, member))
            elif attr.startswith("_"):
                continue
            elif isinstance(member, staticmethod):
                wrapped = self._wrap(f"{name}.{attr}", member.__func__)
                if wrapped is not member.__func__:
                    self._replace(cls, attr, staticmethod(wrapped))
            elif inspect.isfunction(member):
                self._replace(cls, attr, self._wrap(f"{name}.{attr}", member))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def write(self, path: str, op_names: list) -> None:
        """Header line of JSON, then the five span columns as raw arrays."""
        header = {
            "names": self.names,
            "ops": ["setup"] + op_names,
            "spans": len(self.span_name),
            "columns": [
                ["name", self.span_name.typecode], ["parent", self.span_parent.typecode],
                ["op", self.span_op.typecode], ["start", self.span_start.typecode],
                ["end", self.span_end.typecode],
            ],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.span_name, self.span_parent, self.span_op, self.span_start, self.span_end):
                column.tofile(fh)


def _count_elements(tracer, args, result):
    tracer.counters["finset.FinSet.elements"] += len(args[0].elements)


def _count_bytes_out(tracer, args, result):
    tracer.counters["interchange.bytes_out"] += len(result.encode("utf-8"))


def _count_bytes_in(tracer, args, result):
    tracer.counters["interchange.bytes_in"] += len(args[0].encode("utf-8"))


def _count_records(tracer, args, result):
    tracer.counters["suites.records"] += len(result.records)
    tracer.counters["suites.skipped"] += result.skipped


POST_HOOKS = {
    "finset.FinSet": _count_elements,
    "interchange.dumps": _count_bytes_out,
    "interchange.loads": _count_bytes_in,
    "suites.run_suite": _count_records,
}
