"""Span tracing of the library's layers from outside the library.

A `Tracer` replaces the cross-module bindings of the traced functions (for
example `lampe.distribution.pnf` and `lampe.typesys.entails`) with wrappers
that record one span per call, so recursion inside a layer, which goes
through the defining module's own global, is not traced.  `contains_cbv`
recurses through its own module global and is wrapped there too, timing only
the outermost call.

Spans stay in memory (name, parent span, start, end) until `write` dumps
them; self time is a span's duration minus the time of its child spans.
"""

import inspect
import json
import time
from array import array
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.call = array("b")
        self._stack = [-1]
        self.counts = defaultdict(int)
        # per-name work counters and timed buckets fed by the `observe` hooks
        self.buckets = defaultdict(lambda: [0, 0.0])
        self._patched = []

    def _open(self, nid, is_call):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.call.append(is_call)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def _close(self, idx):
        self.end[idx] = _clock()
        self._stack.pop()

    def wrap(self, label, fn, observe=None, outermost=False):
        """A traced stand-in for `fn`.  `observe(tracer, args, kwargs,
        result, seconds)` runs after the span closes, so its cost is not in
        any span."""
        nid = self._ids.setdefault(label, len(self.names))
        if nid == len(self.names):
            self.names.append(label)
        tracer = self

        if inspect.isgeneratorfunction(fn):

            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                is_call = 1
                while True:
                    if not tracer.enabled:
                        yield from gen
                        return
                    idx = tracer._open(nid, is_call)
                    is_call = 0
                    try:
                        item = next(gen)
                    except StopIteration:
                        tracer._close(idx)
                        return
                    except BaseException:
                        tracer._close(idx)
                        raise
                    tracer._close(idx)
                    yield item

            return traced_gen

        active = [False]

        def traced(*args, **kwargs):
            if not tracer.enabled or active[0]:
                return fn(*args, **kwargs)
            active[0] = outermost
            idx = tracer._open(nid, 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                active[0] = False
            if observe is not None:
                observe(tracer, args, kwargs, result, tracer.end[idx] - tracer.start[idx])
            return result

        return traced

    def patch(self, modules, defining, fname, label, api=None, observe=None,
              outermost=False):
        """Wrap `defining.fname` and install the wrapper in every module of
        `modules` that imported it, and in `api`.  With `outermost`, the
        defining module's own binding is replaced as well."""
        original = getattr(defining, fname)
        wrapper = self.wrap(label, original, observe, outermost)
        for module in modules:
            if module is defining and not outermost:
                continue
            if getattr(module, fname, None) is original:
                self._patched.append((module, fname, original))
                setattr(module, fname, wrapper)
        if api is not None and getattr(api, fname, None) is original:
            self._patched.append((api, fname, original))
            setattr(api, fname, wrapper)

    def unpatch(self):
        for target, fname, original in reversed(self._patched):
            setattr(target, fname, original)
        self._patched.clear()

    def summary(self):
        """{label: (calls, total seconds, self seconds)} over all spans."""
        n = len(self.name)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            k = self.name[i]
            dur = end[i] - start[i]
            calls[k] += self.call[i]
            total[k] += dur
            own[k] += dur - child[i]
        return {
            label: (calls[k], total[k], own[k]) for k, label in enumerate(self.names)
        }

    def write(self, path):
        """One JSON header line, then the span arrays in native byte order."""
        arrays = (
            ("name", self.name), ("parent", self.parent), ("start", self.start),
            ("end", self.end), ("call", self.call),
        )
        header = {
            "names": self.names,
            "spans": len(self.name),
            "arrays": [[key, arr.typecode] for key, arr in arrays],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for _, arr in arrays:
                arr.tofile(handle)
