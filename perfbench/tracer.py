"""Span tracer that wraps module-level functions from outside the program.

Each wrapped call is one span. A span's self time is its duration minus the
time covered by the spans it caused (its direct children), so nested layers
are never counted twice. Spans are aggregated in memory per (phase, function)
as they close: a call count, total span time, self time, and the names of the
exceptions that escaped. The benchmark labels phases (``datagen``, ``sft``,
...) around its own calls into the library.

Installing rebinds a function at every attribute of every already-imported
module under the traced package that holds it, so a name imported with
``from .datapipe import sample_caption`` is traced as well. A module or
function that does not exist is recorded as absent instead of failing, so the
benchmark keeps running when the program drops a layer.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    raised: Counter = field(default_factory=Counter)


class Tracer:
    """Aggregates spans of wrapped functions; single-threaded by design."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.phase = None
        self.stats = {}          # (phase, "module.function") -> SpanStats
        self.wrapped = []        # "module.function" names that were wrapped
        self.absent = []         # requested names that do not exist
        self._children = []      # child-time accumulator per open span
        self._patches = []       # (namespace, attribute, original)

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name):
        """Return a traced wrapper of ``fn`` recorded under ``name``."""
        clock = self.clock
        children = self._children

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = [0.0]
            children.append(inner)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._stats(name).raised[type(exc).__name__] += 1
                raise
            finally:
                span = clock() - start
                children.pop()
                if children:
                    children[-1][0] += span
                stats = self._stats(name)
                stats.calls += 1
                stats.total_s += span
                stats.self_s += span - inner[0]

        return traced

    def _stats(self, name):
        key = (self.phase, name)
        stats = self.stats.get(key)
        if stats is None:
            stats = self.stats[key] = SpanStats()
        return stats

    @contextmanager
    def in_phase(self, phase):
        previous, self.phase = self.phase, phase
        try:
            yield self
        finally:
            self.phase = previous

    # -- queries -----------------------------------------------------------

    def _select(self, name, phase):
        return [s for (p, n), s in self.stats.items()
                if n == name and (phase is None or p == phase)]

    def calls(self, name, phase=None):
        return sum(s.calls for s in self._select(name, phase))

    def self_s(self, name, phase=None):
        return sum(s.self_s for s in self._select(name, phase))

    def total_s(self, name, phase=None):
        return sum(s.total_s for s in self._select(name, phase))

    def raised(self, name, exc_name, phase=None):
        return sum(s.raised[exc_name] for s in self._select(name, phase))

    def module_calls(self, module, phase=None):
        prefix = module + "."
        return sum(s.calls for (p, n), s in self.stats.items()
                   if n.startswith(prefix) and (phase is None or p == phase))

    # -- installation ------------------------------------------------------

    def install(self, package, modules, extra=()):
        """Wrap the public functions of ``package.<module>`` for each module.

        ``extra`` names further functions as "module.function" (private
        helpers worth their own span). Missing modules and functions are
        recorded in ``absent``.
        """
        targets = []
        for mod_name in modules:
            try:
                module = importlib.import_module(f"{package}.{mod_name}")
            except ModuleNotFoundError:
                self.absent.append(mod_name)
                continue
            for attr, obj in sorted(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    targets.append((f"{mod_name}.{attr}", obj))
        for qualified in extra:
            mod_name, attr = qualified.rsplit(".", 1)
            module = sys.modules.get(f"{package}.{mod_name}")
            obj = getattr(module, attr, None) if module is not None else None
            if inspect.isfunction(obj):
                targets.append((qualified, obj))
            else:
                self.absent.append(qualified)

        namespaces = [vars(m) for n, m in sorted(sys.modules.items())
                      if m is not None and (n == package or n.startswith(package + "."))]
        for name, fn in targets:
            traced = self.wrap(fn, name)
            for ns in namespaces:
                for attr, value in list(ns.items()):
                    if value is fn:
                        self._patches.append((ns, attr, fn))
                        ns[attr] = traced
            self.wrapped.append(name)
        return self

    def uninstall(self):
        for ns, attr, original in reversed(self._patches):
            ns[attr] = original
        self._patches.clear()

    @contextmanager
    def installed(self, package, modules, extra=()):
        self.install(package, modules, extra)
        try:
            yield self
        finally:
            self.uninstall()
