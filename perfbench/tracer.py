"""Outside-in tracer for the photonam CLI.

Run as a script, it wraps every public function of every ``photonam``
module in a timing span, runs ``photonam.cli.main(argv)`` and writes the
spans to a JSON file when the command ends:

    PYTHONPATH=src python perfbench/tracer.py spans.json observables b.pnam --json

Modules import each other's functions with ``from .grids import ...``, so
the wrapper is rebound in every ``photonam`` namespace that holds the same
function object.  ``ThreadPoolExecutor`` is rebound the same way: work
submitted to a pool records the span that submitted it as its parent, and
the pool records its wall time and worker count.

A span records its name, start, end, parent span and thread.  On the main
thread it also records the tracemalloc peak above its starting size;
tracemalloc keeps one peak per process, which cannot be split between
threads running at the same time, so spans on pool workers carry no peak.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import pkgutil
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

#: span names folded into one layer metric
ALIASES = {
    "fileio.write_wavefunction": "fileio.write",
    "fileio.write_rs_field": "fileio.write",
    "fileio.write_real_field": "fileio.write",
}

#: functions whose byte count is the size of the file named by their first argument
FILE_FUNCTIONS = {"fileio.read", "fileio.write"}


def _array_bytes(args, kwargs, result):
    """Bytes of every ndarray argument and result, computed from array sizes."""
    total = 0
    for value in itertools.chain(args, kwargs.values(), (result,)):
        nbytes = getattr(value, "nbytes", None)
        if isinstance(nbytes, int):
            total += nbytes
    return total


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


class Tracer:
    """Collects spans in memory; one instance per traced process."""

    def __init__(self):
        self.spans = []
        self.pools = []
        self.main_thread = threading.get_ident()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Id of the innermost open span on this thread (or the submitting span)."""
        stack = self._stack()
        return stack[-1]["id"] if stack else getattr(self._local, "inherited", None)

    def _open(self, name):
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        span = {"id": span_id, "parent": self.current(), "name": name,
                "thread": threading.get_ident(), "thread_root": not stack}
        if span["thread"] == self.main_thread:
            # the peak since the last event belongs to the innermost open span;
            # both read 0 while tracemalloc is not tracing
            current, peak = tracemalloc.get_traced_memory()
            if stack:
                stack[-1]["_max"] = max(stack[-1]["_max"], peak)
            tracemalloc.reset_peak()
            span["_base"] = span["_max"] = current
        stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if "_base" in span:
            _, peak = tracemalloc.get_traced_memory()
            span["_max"] = max(span["_max"], peak)
            tracemalloc.reset_peak()
            if stack:
                stack[-1]["_max"] = max(stack[-1]["_max"], span["_max"])
            span["peak_mb"] = (span.pop("_max") - span.pop("_base")) / 1e6
        self.spans.append(span)

    def wrap(self, name, fn):
        """Return `fn` wrapped in a span called `name`."""
        name = ALIASES.get(name, name)
        count_bytes = _file_bytes if name in FILE_FUNCTIONS else _array_bytes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span["bytes"] = count_bytes(args, kwargs, result)
            return result

        return traced

    def _adopt(self, parent, fn, *args, **kwargs):
        self._local.inherited = parent
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.inherited = None

    def pool_class(self):
        """A ThreadPoolExecutor that links worker spans to the submitting span."""
        tracer = self

        class TracedThreadPoolExecutor(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._record = {"workers": self._max_workers, "start": time.perf_counter(), "end": None}
                tracer.pools.append(self._record)

            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer._adopt, tracer.current(), fn, *args, **kwargs)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                if self._record["end"] is None:
                    self._record["end"] = time.perf_counter()

        return TracedThreadPoolExecutor


def install(tracer, package="photonam"):
    """Wrap every public function of `package`'s modules; return an undo callable."""
    root = importlib.import_module(package)
    modules = [root] + [importlib.import_module(f"{package}.{info.name}")
                        for info in pkgutil.iter_modules(root.__path__)]
    wrapped = {}
    for mod in modules[1:]:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                wrapped[id(obj)] = (obj, tracer.wrap(f"{short}.{name}", obj))
    pool = tracer.pool_class()
    undo = []
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            entry = wrapped.get(id(obj))
            if entry is not None and entry[0] is obj:
                undo.append((mod, name, obj))
                setattr(mod, name, entry[1])
            elif obj is ThreadPoolExecutor:
                undo.append((mod, name, obj))
                setattr(mod, name, pool)

    def uninstall():
        for mod, name, obj in undo:
            setattr(mod, name, obj)

    return uninstall


# ---------------------------------------------------------------------------
# reduction of spans to per-layer statistics

def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Map span id -> duration minus the part of it its child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        clipped = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                   for c in children.get(s["id"], ())]
        out[s["id"]] = (s["end"] - s["start"]) - _covered([iv for iv in clipped if iv[1] > iv[0]])
    return out


def summarize(spans):
    """Per span name: calls, self_s, total_s, bytes, peak_mb, mb_per_s.

    `total_s` sums the spans of a name that have no ancestor of the same
    name, so recursion is not counted twice.
    """
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)
    stats = {}
    for s in spans:
        st = stats.setdefault(s["name"], {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                          "bytes": 0, "peak_mb": 0.0})
        st["calls"] += 1
        st["self_s"] += own[s["id"]]
        st["bytes"] += s.get("bytes", 0)
        st["peak_mb"] = max(st["peak_mb"], s.get("peak_mb", 0.0))
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] != s["name"]:
            parent = by_id.get(parent["parent"])
        if parent is None:
            st["total_s"] += s["end"] - s["start"]
    for st in stats.values():
        st["mb_per_s"] = st["bytes"] / st["self_s"] / 1e6 if st["self_s"] > 0 else 0.0
    return stats


def pool_busy_share(spans, pools, main_thread):
    """Time pool workers spent in spans over pool wall time times workers."""
    busy = sum(s["end"] - s["start"] for s in spans
               if s["thread_root"] and s["thread"] != main_thread)
    capacity = sum((p["end"] - p["start"]) * p["workers"] for p in pools if p["end"] is not None)
    return busy / capacity if capacity > 0 else 0.0


# ---------------------------------------------------------------------------

def main(argv):
    """Trace one CLI command: ``tracer.py SPANS_JSON CLI_ARGS...``."""
    out_path, cli_argv = argv[0], argv[1:]
    start = time.perf_counter()
    import photonam.cli
    import_s = time.perf_counter() - start

    tracer = Tracer()
    install(tracer)
    tracemalloc.start()
    rc = 1
    try:
        rc = photonam.cli.main(cli_argv)
    finally:
        tracemalloc.stop()
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "main_thread": tracer.main_thread,
                       "spans": tracer.spans, "pools": tracer.pools}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
