"""Spans recorded from the benchmark's side of each call into coverdist.

A Recorder replaces chosen module functions with wrappers that record a
span (name, start, end, parent span, operation id) around each call. The
program's modules call each other through module attributes, so a wrapper
on ring.factor_ideal also sees the calls system.validate makes. Spans stay
in memory until the run ends.
"""

import functools
import time
from collections import defaultdict


class Recorder:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []

    def begin(self, name):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def end(self, rec):
        rec["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr, name=None, on_return=None, rename=None):
        """Record a span around every call of module.attr.

        rename(args, kwargs) may choose the span name per call; on_return
        (args, kwargs, result) runs after the span has closed.
        """
        orig = getattr(module, attr)  # a missing layer fails the traced run
        name = name or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            rec = self.begin(rename(args, kwargs) if rename else name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.end(rec)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, orig))

    def unwrap_all(self):
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)


def duration(span):
    return span["end"] - span["start"]


def self_times(spans):
    """Total self time per span name: duration minus that of direct children."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += duration(s)
    out = defaultdict(float)
    for s in spans:
        out[s["name"]] += duration(s) - child[s["id"]]
    return dict(out)


def nesting_errors(spans):
    """Spans whose children lie outside them or add up to more than they last."""
    by_id = {s["id"]: s for s in spans}
    child = defaultdict(float)
    errors = []
    for s in spans:
        p = by_id.get(s["parent"])
        if p is None:
            continue
        child[p["id"]] += duration(s)
        if s["start"] < p["start"] or s["end"] > p["end"] or s["op"] != p["op"]:
            errors.append(f"span {s['id']} {s['name']} lies outside its parent {p['name']}")
    for pid, total in child.items():
        if total > duration(by_id[pid]):
            errors.append(f"children of span {pid} {by_id[pid]['name']} outlast it")
    return errors
