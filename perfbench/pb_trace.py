"""In-memory span tracing, installed from outside the program.

:class:`Tracer` wraps public functions and methods of the ``repro``
layers at run time and records one span per call: name, start, end, the
span that was open on the same thread when the call began (its parent)
and the thread.  Generators are traced per resume, so a span covers only
the time the consumer actually spends inside the generator.  Calls the
tracer sees nested inside a span of the same name (a wrapped method
calling another wrapped overload) are recorded but not counted twice in
:func:`summarize`.

A span's self time is its duration minus the part of that interval
covered by its children.  Work done on another thread never counts as a
child: it has its own root span there.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager

# span tuple fields
NAME, START, END, PARENT, THREAD, SID, NESTED = range(7)


class Tracer:
    """Records spans and counts; patches functions to produce them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> tuple:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        nested = any(frame[1] == name for frame in stack)
        sid = next(self._ids)
        stack.append((sid, name))
        return sid, parent, nested, self.clock()

    def _exit(self, name: str, token: tuple) -> None:
        sid, parent, nested, start = token
        end = self.clock()
        self._stack().pop()
        self.spans.append((name, start, end, parent,
                           threading.get_ident(), sid, nested))

    @contextmanager
    def span(self, name: str):
        token = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, token)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def top_level(self, name: str) -> bool:
        """Whether no span called ``name`` is open on this thread."""
        return all(frame[1] != name for frame in self._stack())

    # -- wrapping ------------------------------------------------------
    def wrap(self, fn, name: str, count=None):
        """``fn`` traced as ``name``.

        ``count(args, kwargs)`` (optional) returns how many units of work
        the call does; top-level calls add it to ``counts[name]``.
        Generator functions, and functions returning iterators that are
        generators, are traced per resume.
        """
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if count is not None and tracer.top_level(name):
                    tracer.count(name, count(args, kwargs))
                return tracer._traced_iter(fn(*args, **kwargs), name)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None and tracer.top_level(name):
                tracer.count(name, count(args, kwargs))
            token = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(name, token)
            if inspect.isgenerator(out):
                return tracer._traced_iter(out, name)
            return out
        return wrapper

    def _traced_iter(self, gen, name: str):
        """Forward a generator, one span per resume; close propagates."""
        done = False
        try:
            while True:
                token = self._enter(name)
                try:
                    item = next(gen)
                except StopIteration as stop:
                    done = True
                    return stop.value
                finally:
                    self._exit(name, token)
                yield item
        finally:
            if not done:
                with self.span(name):
                    gen.close()

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` (module or class) with a traced wrapper.

        Class attributes keep their descriptor kind (classmethod,
        staticmethod); an inherited method is shadowed on ``owner`` and
        the shadow is removed again by :meth:`restore`.
        """
        had_own = attr in vars(owner)
        raw = vars(owner).get(attr)
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self.wrap(raw.__func__, name, count))
        else:
            new = self.wrap(getattr(owner, attr), name, count)
        self._patches.append((owner, attr, raw, had_own))
        setattr(owner, attr, new)

    def patch_everywhere(self, fn, name: str, prefix: str = "repro") -> None:
        """Trace ``fn`` under every module-level name bound to it.

        ``from x import f`` copies the binding, so each importing module
        of the ``prefix`` package is patched where it holds ``fn``.
        """
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == prefix
                                      or mod_name.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, name)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- output --------------------------------------------------------
    def dump(self, path: str, extra: dict | None = None) -> None:
        payload = {"fields": ["name", "start", "end", "parent", "thread",
                              "sid", "nested"],
                   "spans": self.spans, "counts": dict(self.counts)}
        if extra:
            payload.update(extra)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f)


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    payload["spans"] = [tuple(s) for s in payload["spans"]]
    return payload


def _covered(intervals: list[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> dict:
    """Self time of every span: duration minus its children's cover."""
    children: dict = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    return {s[SID]: (s[END] - s[START])
            - _covered(children.get(s[SID], []), s[START], s[END])
            for s in spans}


def summarize(spans) -> dict:
    """Per name: calls, total and self seconds of its top-level spans.

    A span nested inside a same-named span (on the same thread) adds no
    calls or total time of its own, but its self time still counts,
    since its parent's self time already excludes it.
    """
    selfs = self_times(spans)
    out: dict = {}
    for s in spans:
        entry = out.setdefault(s[NAME], {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0})
        entry["self_s"] += selfs[s[SID]]
        if not s[NESTED]:
            entry["calls"] += 1
            entry["total_s"] += s[END] - s[START]
    return out


def merge_summaries(summaries) -> dict:
    """Add :func:`summarize` outputs (e.g. one per process)."""
    out: dict = {}
    for summary in summaries:
        for name, entry in summary.items():
            into = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0})
            for key, value in entry.items():
                into[key] += value
    return out
