"""In-memory span tracer for the benchmark's traced runs.

A span is one call across a layer boundary: its name, start and end
(``time.perf_counter`` seconds), the index of the span that was open when it
started (its parent, -1 at top level), and the positional and keyword
arguments of the call.  All spans of one traced job share the tracer's run
id.  Spans stay in memory until the job ends; ``write_jsonl`` writes them
out (without the arguments).

The program under test is not modified: ``Tracer.patched`` replaces each
named public function of ``abckit`` with a recording wrapper wherever a
module of the package holds a reference to it (module attributes and
module-level registry dicts), and puts the originals back on exit.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter

# span record layout (lists, for speed on hot paths)
NAME, START, END, PARENT, ARGS, KWARGS = range(6)


class Tracer:
    """Records spans for one traced job."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, (), {}]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        try:
            yield
        finally:
            rec[END] = perf_counter()
            stack.pop()

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, args, kwargs]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, targets):
        """Trace every reference to the given functions inside ``abckit``.

        ``targets`` is an iterable of ``(layer, function)`` pairs; the span
        name is ``"<layer>.<function.__name__>"``.
        """
        modules = [
            m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "abckit" or k.startswith("abckit."))
        ]
        undo = []
        try:
            for layer, fn in targets:
                wrapper = self.wrap(fn, f"{layer}.{fn.__name__}")
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            undo.append((vars(mod), attr, fn))
                            setattr(mod, attr, wrapper)
                        elif type(value) is dict:
                            for key, item in value.items():
                                if item is fn:
                                    undo.append((value, key, fn))
                                    value[key] = wrapper
            yield self
        finally:
            for where, key, fn in reversed(undo):
                where[key] = fn

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps({
                    "name": rec[NAME], "start": rec[START], "end": rec[END],
                    "parent": rec[PARENT], "run": self.run_id,
                }) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out
