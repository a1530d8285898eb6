"""Outside-in tracer for sensorreg's layer functions.

Each selected callable of a layer module (one the module itself defines) is
replaced, in every ``sensorreg`` module namespace that holds a reference to
it, by a wrapper that records a span.  A name imported with
``from ..fusion import fbe_step`` is therefore traced at its call site in
``harness.simulate`` as well as inside ``fusion``.  No source
file is edited; leaving :meth:`Tracer.installed` puts the original objects
back.  A selected name that cannot be wrapped (it is gone, moved to another
module, or referenced from no namespace) raises :class:`LookupError`, so a
layer can never silently read 0.

Spans stay in memory until :meth:`Tracer.dump` writes them out.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import sys
import time

LAYER_MODULES = {
    m.rsplit(".", 1)[1]: m
    for m in (
        "sensorreg.coords",
        "sensorreg.dynamics",
        "sensorreg.trackers",
        "sensorreg.tracklets",
        "sensorreg.bias",
        "sensorreg.fusion",
        "sensorreg.crlb",
        "sensorreg.harness.scenario",
        "sensorreg.harness.simulate",
        "sensorreg.harness.metrics",
        "sensorreg.harness.report",
        "sensorreg.harness.bounds",
    )
}


class Span:
    """One call: name (``<layer>.<function>``), the module namespace it was
    called through, its parent span and the operation span at the root."""

    __slots__ = ("name", "site", "parent", "root", "start", "end", "child", "error", "extra")

    def __init__(self, name, site, parent, start):
        self.name = name
        self.site = site
        self.parent = parent
        self.root = parent.root if parent is not None else self
        self.start = start
        self.end = start
        self.child = 0.0
        self.error = None
        self.extra = None

    @property
    def total(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """Records spans for the layer functions named in ``only``.  ``hooks``
    maps a span name to ``f(arguments, result)``, called with the call's
    arguments bound to parameter names; its return value is kept as the
    span's ``extra``."""

    def __init__(self, only, hooks=None):
        self.only = frozenset(only)
        self.hooks = dict(hooks or {})
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def _wrap(self, fn, name, site):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self.hooks.get(name)
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, site, parent, clock())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
            if hook is not None:
                span.extra = hook(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the selected functions for the duration of the block."""
        targets = {}
        for name in sorted(self.only):
            layer, attr = name.split(".", 1)
            modname = LAYER_MODULES.get(layer)
            obj = getattr(importlib.import_module(modname), attr, None) if modname else None
            if not callable(obj) or getattr(obj, "__module__", None) != modname:
                raise LookupError(f"{name}: no callable {attr!r} defined in {modname}")
            targets[id(obj)] = (obj, name)
        patched = []
        for modname, mod in list(sys.modules.items()):
            if modname != "sensorreg" and not modname.startswith("sensorreg."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, self._wrap(obj, hit[1], modname))
                    patched.append((mod, attr, obj, hit[1]))
        missing = self.only - {p[3] for p in patched}
        if missing:
            self._restore(patched)
            raise LookupError(f"not wrapped in any sensorreg namespace: {sorted(missing)}")
        try:
            yield self
        finally:
            self._restore(patched)

    @staticmethod
    def _restore(patched) -> None:
        for mod, attr, obj, _ in reversed(patched):
            setattr(mod, attr, obj)

    @contextlib.contextmanager
    def op(self, name: str):
        """Root span for one benchmark operation; layer spans nest under it."""
        span = Span(name, None, None, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def by_operation(self) -> dict:
        """Layer spans grouped by ``id`` of their operation span."""
        groups: dict = {}
        for s in self.spans:
            if s.root is not s:
                groups.setdefault(id(s.root), []).append(s)
        return groups

    def dump(self, path) -> None:
        """Write every span, gzipped, as [name, site, parent, start, end,
        error]; name and site index the ``names`` table, parent the spans."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        names: dict = {}
        rows = [
            [
                names.setdefault(s.name, len(names)),
                names.setdefault(s.site, len(names)),
                None if s.parent is None else index[id(s.parent)],
                s.start,
                s.end,
                s.error,
            ]
            for s in self.spans
        ]
        doc = {"fields": ["name", "site", "parent", "start", "end", "error"],
               "names": list(names), "spans": rows}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
