"""In-memory span tracer for the benchmark's traced run.

The tracer replaces public functions and methods of the `neuralbandit`
modules with timing wrappers, keeps every span in memory while the run
goes, and restores the originals afterwards.  A span is
(id, name, start, end, parent id, rep id, thread id); parent 0 means the
span has no parent.  A span started on a thread with no open span takes
the open root span (`run_root`) as its parent, so the repetitions a thread
pool runs hang under `harness.run_experiment`.

Self time is a span's duration minus the part of its interval that its
child spans cover (their union, so children overlapping in parallel
threads are not counted twice).
"""

import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open_root = 0
        self._restore = []
        self.installed = set()  # every span name patch() has installed

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, on_call=None, rep_arg=None):
        """Return fn wrapped in a span called name.

        on_call(args, kwargs) runs before fn, untimed.  rep_arg names the
        positional index of a repetition id that tags this span and its
        descendants on the same thread.
        """
        tracer = self
        local = self._local

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._open_root
            rep = getattr(local, "rep", -1)
            if rep_arg is not None:
                rep = args[rep_arg] if len(args) > rep_arg else kwargs["rep"]
                local.rep = rep
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if rep_arg is not None:
                    local.rep = -1
                tracer.spans.append((sid, name, start, end, parent, rep,
                                     threading.get_ident()))

        return traced

    def patch(self, owner, attr, name, **wrap_kwargs):
        """Replace owner.attr (a module function or a class's own method)."""
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(name, original, **wrap_kwargs))
        self._restore.append((owner, attr, original))
        self.installed.add(name)

    def restore(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def run_root(self, name, fn, *args, **kwargs):
        """Call fn inside a root span that worker-thread spans attach to."""
        sid = next(self._ids)
        stack = self._stack()
        stack.append(sid)
        self._open_root = sid
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self._open_root = 0
            self.spans.append((sid, name, start, end, 0, -1, threading.get_ident()))

    def write(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for sid, name, start, end, parent, rep, thread in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "rep": rep,
                                     "thread": thread}) + "\n")


def _union_length(intervals):
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans):
    """Per span name: calls, total seconds, self seconds and all durations."""
    children = defaultdict(list)
    for sid, name, start, end, parent, rep, thread in spans:
        if parent:
            children[parent].append((start, end))
    out = {}
    for sid, name, start, end, parent, rep, thread in spans:
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                      "durations": [], "threads": set()})
        duration = end - start
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += duration - _union_length(children.get(sid, ()))
        entry["durations"].append(duration)
        entry["threads"].add(thread)
    return out
