"""Spans around toricg's public functions, recorded in memory.

``install(tracer)`` replaces every public function of every toricg module
by a wrapper that opens a span on entry and closes it on exit, and rebinds
each name another module imported directly (``nestohedra.toric_g_from_gamma``,
``toricg.g_contrib``, the values of ``verification.SUITES``) to the same
wrapper.  A function that returns an iterator gets a span for each resume
of that iterator, parented to the span of whoever asked for the next item,
and each item yielded counts once in ``items``.

A span is ``[name, start_ns, end_ns, parent_index, items]``.  Self time
(duration minus the time covered by child spans) and the per-name totals
are accumulated as spans close, so the statistics stay exact when the
in-memory span list reaches its cap and later spans are only counted.
"""

from __future__ import annotations

import functools
import inspect
import json
from math import factorial
from time import perf_counter_ns

SPAN_CAP = 100_000
MODULES = ("words", "perms", "parking", "compat", "polyvec", "series",
           "nestohedra", "verification", "config", "cli")


class Tracer:
    def __init__(self):
        self.stack: list[list] = []   # [span index, name, start_ns, child_ns]
        self.spans: list[list] = []
        self.dropped = 0
        # name -> [calls, items, self_ns]; b_permutations also keeps the
        # number of ground-set permutations it scanned under "scanned".
        self.stats: dict[str, list[int]] = {}
        self.scanned = 0

    def call(self, name: str) -> None:
        self.stats.setdefault(name, [0, 0, 0])[0] += 1

    def enter(self, name: str) -> None:
        parent = self.stack[-1][0] if self.stack else -1
        now = perf_counter_ns()
        if len(self.spans) < SPAN_CAP:
            index = len(self.spans)
            self.spans.append([name, now, now, parent, 0])
        else:
            index = -1
            self.dropped += 1
        self.stack.append([index, name, now, 0])

    def leave(self, items: int) -> None:
        index, name, start, child = self.stack.pop()
        now = perf_counter_ns()
        duration = now - start
        stat = self.stats.setdefault(name, [0, 0, 0])
        stat[1] += items
        stat[2] += duration - child
        if self.stack:
            self.stack[-1][3] += duration
        if index >= 0:
            span = self.spans[index]
            span[2] = now
            span[4] = items

    def summary(self) -> dict:
        return {"stats": self.stats, "scanned": self.scanned,
                "spans": len(self.spans), "dropped": self.dropped}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _traced_iter(tracer: Tracer, name: str, it):
    while True:
        tracer.enter(name)
        try:
            item = next(it)
        except StopIteration:
            tracer.leave(0)
            return
        except BaseException:
            tracer.leave(0)
            raise
        tracer.leave(1)
        yield item


def _wrap(tracer: Tracer, name: str, fn):
    counts_scan = name == "nestohedra.b_permutations"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.call(name)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.leave(0)
            raise
        if hasattr(result, "__next__") and iter(result) is result:
            tracer.leave(0)
            return _traced_iter(tracer, name, result)
        tracer.leave(len(result) if isinstance(result, (list, tuple)) else 1)
        if counts_scan:
            tracer.scanned += factorial(args[0].ground_size)
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    import importlib

    import toricg

    modules = [importlib.import_module(f"toricg.{m}") for m in MODULES]
    wrappers = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrappers[obj] = _wrap(tracer, f"{short}.{attr}", obj)
    for mod in [toricg, *modules]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
    suites = importlib.import_module("toricg.verification").SUITES
    for key, fn in suites.items():
        suites[key] = wrappers.get(fn, fn)
