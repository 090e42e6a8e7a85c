"""Call tracer for the benchmark: wraps drinfeldlab functions by identity.

Modules bind each other's functions with ``from .x import f``, so one
function can be reachable under several module attributes (for example
``drinfeld.factor_bipoly`` and ``places.factor_bipoly``).  ``Tracer.install``
replaces every attribute of every ``drinfeldlab.*`` module (and every class
attribute, for methods) that *is* the original object, and ``restore`` puts
each binding back.

Timed wrappers open a span: a span stack attributes each span's duration to
its parent, so ``self_s`` is the span's duration minus the time covered by
wrapped children.  Spans are kept in memory and written out by ``dump``.
Counted wrappers only count calls; their time stays in the enclosing span.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.stats = Counter()          # observer counters, free-form names
        self.spans = []                 # (id, parent id or -1, name, start, end)
        self._stack = []                # [span id, child time]
        self._next_id = 0
        self._patches = []              # (owner, attribute, original)

    # -- wrappers ------------------------------------------------------------

    def timed(self, name, fn, observe=None):
        """Wrap fn in a span; observe(args, kwargs, result) runs after it."""
        calls, self_s, spans, stack, clock = (
            self.calls, self.self_s, self.spans, self._stack, self.clock)

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                spans.append((span_id, parent, name, start, end))
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def _rebind(self, original, replacement, package):
        """Point every binding of `original` under `package` at `replacement`."""
        hits = 0
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == package
                                   or mod_name.startswith(package + ".")):
                continue
            owners = [mod] + [v for v in vars(mod).values()
                              if isinstance(v, type)
                              and v.__module__ == mod_name]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, attr, original))
                        setattr(owner, attr, replacement)
                        hits += 1
        if not hits:
            raise LookupError(f"no binding of {original!r} under {package}")

    def install(self, targets, package="drinfeldlab"):
        """targets: (metric name, original callable, kind, observer) rows,
        kind "timed" or "counted"."""
        for name, original, kind, observe in targets:
            if kind == "timed":
                wrapper = self.timed(name, original, observe)
            elif kind == "counted":
                wrapper = self.counted(name, original)
            else:
                raise ValueError(f"unknown wrapper kind {kind!r}")
            self._rebind(original, wrapper, package)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------

    def dump(self, path):
        """Write the spans as JSON lines: id, parent id, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
