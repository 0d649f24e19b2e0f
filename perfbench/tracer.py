"""Span tracer for the benchmark's traced pass.

`Tracer` wraps every public function of the given modules, and every
public plain method of the classes they define, as the function is bound
in each module that holds it (``validate`` lives in ``sring`` but is also
bound in ``catalog``, ``construct`` and ``cli``).  Each call records one
span: function, parent span, start, end and the exception type it
raised, if any.  Spans are kept in flat arrays so a traced catalog run of
a few million calls stays small; `summary` folds them into per-function
calls, total and self seconds and raises by exception type.

Leaving the ``with`` block restores every patched attribute, so the
wrappers can never leak into an untraced measurement.
"""

from __future__ import annotations

import inspect
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self, modules, extra_bindings=(), keep_results=()):
        """Trace the public functions defined in `modules`; rebind them in
        those modules and in `extra_bindings` (e.g. the package that
        re-exports them).  Return values of the functions named in
        `keep_results` are kept in `results`, by span index."""
        self._modules = list(modules)
        self._bindings = self._modules + list(extra_bindings)
        self._keep = set(keep_results)
        self.results: dict[int, object] = {}
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.exc_names: list[str] = []
        self._exc_ids: dict[type, int] = {}
        self.func = array("i")
        self.parent = array("i")
        self.exc = array("h")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------

    def _targets(self):
        """(name, owner, attribute, function) for every function to wrap."""
        for mod in self._modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in sorted(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield f"{short}.{name}", mod, name, obj
                elif inspect.isclass(obj):
                    for mname, meth in sorted(vars(obj).items()):
                        if not mname.startswith("_") and inspect.isfunction(meth):
                            yield f"{short}.{name}.{mname}", obj, mname, meth

    def __enter__(self):
        wrapped = {}
        for name, owner, attr, fn in self._targets():
            w = self._wrap(self._fid(name), fn, name in self._keep)
            wrapped[id(fn)] = (fn, w)
            if inspect.isclass(owner):
                self._patch(owner, attr, w)
        for mod in self._bindings:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        return self

    def __exit__(self, *exc_info):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _fid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _exc_id(self, tp: type) -> int:
        if tp not in self._exc_ids:
            self._exc_ids[tp] = len(self.exc_names)
            self.exc_names.append(tp.__name__)
        return self._exc_ids[tp]

    # -- spans ----------------------------------------------------------

    def _wrap(self, fid: int, fn, keep: bool):
        func, parent, exc, start, end = self.func, self.parent, self.exc, self.start, self.end
        stack, results = self._stack, self.results
        exc_id = self._exc_id
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(func)
            func.append(fid)
            parent.append(stack[-1])
            exc.append(-1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                r = fn(*args, **kwargs)
                if keep:
                    results[i] = r
                return r
            except BaseException as e:
                exc[i] = exc_id(type(e))
                raise
            finally:
                end[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    @contextmanager
    def span(self, name: str):
        """A span for the benchmark's own operations; calls made inside
        become its children."""
        fid = self._fid(name)
        i = len(self.func)
        self.func.append(fid)
        self.parent.append(self._stack[-1])
        self.exc.append(-1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            yield i
        except BaseException as e:
            self.exc[i] = self._exc_id(type(e))
            raise
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    # -- summary --------------------------------------------------------

    def summary(self) -> "TraceSummary":
        return TraceSummary(self)


class TraceSummary:
    """Per-span arrays and per-function aggregates of a finished trace."""

    def __init__(self, tr: Tracer):
        self.names = list(tr.names)
        self.exc_names = list(tr.exc_names)
        self.results = dict(tr.results)
        self.func = np.frombuffer(tr.func, dtype=np.int32).copy()
        self.parent = np.frombuffer(tr.parent, dtype=np.int32).copy()
        self.exc = np.frombuffer(tr.exc, dtype=np.int16).copy()
        self.dur = np.frombuffer(tr.end, dtype=np.float64) - np.frombuffer(tr.start, dtype=np.float64)
        n, k = len(self.func), len(self.names)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent], minlength=n)
        self.self_dur = self.dur - child
        self.calls = np.bincount(self.func, minlength=k)
        self.total = np.bincount(self.func, weights=self.dur, minlength=k)
        self.self_total = np.bincount(self.func, weights=self.self_dur, minlength=k)

    @property
    def spans(self) -> int:
        return len(self.func)

    def mask(self, name: str, under: str | None = None) -> np.ndarray:
        """Spans of function `name`, optionally only those below a span of
        `under` (an operation name given to `Tracer.span`)."""
        if name not in self.names:
            return np.zeros(len(self.func), dtype=bool)
        m = self.func == self.names.index(name)
        if under is not None:
            m &= self.ancestor_is(under)
        return m

    def ancestor_is(self, name: str) -> np.ndarray:
        """Whether some ancestor of each span (or the span itself) is `name`."""
        if name not in self.names:
            return np.zeros(len(self.func), dtype=bool)
        target = self.names.index(name)
        hit = self.func == target
        up = self.parent.copy()
        while True:
            live = up >= 0
            if not live.any():
                return hit
            hit[live] |= self.func[up[live]] == target
            up[live] = self.parent[up[live]]

    def count(self, name: str, under: str | None = None) -> int:
        return int(self.mask(name, under).sum())

    def raised(self, name: str, exc_name: str | None = None, under: str | None = None) -> int:
        """Calls of `name` that raised (an exception of type `exc_name`)."""
        m = self.mask(name, under)
        if exc_name is None:
            return int((m & (self.exc >= 0)).sum())
        if exc_name not in self.exc_names:
            return 0
        return int((m & (self.exc == self.exc_names.index(exc_name))).sum())

    def seconds(self, name: str) -> float:
        return float(self.dur[self.mask(name)].sum())

    def self_seconds(self, name: str) -> float:
        return float(self.self_dur[self.mask(name)].sum())

    def returned(self, name: str) -> list:
        """Return values kept for `name`, in call order."""
        return [self.results[i] for i in np.flatnonzero(self.mask(name)) if i in self.results]

    def durations(self, name: str) -> np.ndarray:
        return self.dur[self.mask(name)]

    def table(self) -> list[tuple[str, int, float, float, dict[str, int]]]:
        """(name, calls, total s, self s, raises by exception type) for every
        called function, by self time."""
        raises: dict[int, dict[str, int]] = {}
        hit = self.exc >= 0
        for f, e in zip(self.func[hit].tolist(), self.exc[hit].tolist()):
            by_type = raises.setdefault(f, {})
            by_type[self.exc_names[e]] = by_type.get(self.exc_names[e], 0) + 1
        rows = [
            (name, int(self.calls[i]), float(self.total[i]), float(self.self_total[i]), raises.get(i, {}))
            for i, name in enumerate(self.names)
            if self.calls[i]
        ]
        return sorted(rows, key=lambda r: -r[3])
