"""In-memory tracing of the ``conelines`` package from outside the library.

Two kinds of records, both kept in memory until the run ends:

* spans at coarse boundaries (a verify criterion, a CLI request, a sweep
  phase): name, start, end, parent, and self time, which is the duration
  minus the part covered by child spans;
* counters at hot leaves (``lattices.pair`` runs ~10^5 times per verify):
  call count, total time and self time, where self time excludes nested
  traced leaves.

Leaves are installed by replacing every ``conelines.*`` module attribute
that is the original function object, because other modules import the
hot functions by name (``from .lattices import pair``).  Caches are found
the same way, by scanning module attributes for ``functools.lru_cache``
wrappers, so the library needs no hooks of its own.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable

#: The hot public functions whose calls and self time are counted.
LEAVES = (
    "lattices.pair",
    "lattices.norm",
    "lattices.vectors_with_norm_at_least",
    "mod2.reduce_mod2",
    "mod2.q0",
    "translations.coset_representative",
    "translations.mw_act_h2",
    "translations.mw_act_h1_mod2",
    "mapping_class.translation_class",
    "mapping_class.mods_mul",
    "mapping_class.is_translation_class",
    "intlinalg.smith_normal_form",
    "intlinalg.row_hermite_form",
    "tritangents.classify_root",
    "homology_action.action_matrix",
)

#: Leaves whose result length is counted as well (vectors enumerated).
_COUNT_ITEMS = {"lattices.vectors_with_norm_at_least"}


def package_modules() -> dict[str, object]:
    """Import every module of the package; map short name -> module."""
    package = importlib.import_module("conelines")
    modules = {"conelines": package}
    for info in pkgutil.iter_modules(package.__path__):
        modules[info.name] = importlib.import_module(f"conelines.{info.name}")
    return modules


def find_caches() -> dict[str, object]:
    """Every ``lru_cache`` defined in the package, keyed ``module.qualname``."""
    caches = {}
    for short, module in package_modules().items():
        for value in vars(module).values():
            if (
                callable(getattr(value, "cache_info", None))
                and callable(getattr(value, "cache_clear", None))
                and getattr(value, "__module__", None) == module.__name__
            ):
                caches[f"{short}.{value.__qualname__}"] = value
    return dict(sorted(caches.items()))


class CacheLedger:
    """Hits and misses of every cache, accumulated across clears."""

    def __init__(self, caches: dict[str, object]):
        self.caches = caches
        self.hits = dict.fromkeys(caches, 0)
        self.misses = dict.fromkeys(caches, 0)

    def clear(self) -> None:
        """Book the counts so far, then empty every cache."""
        for name, cache in self.caches.items():
            info = cache.cache_info()
            self.hits[name] += info.hits
            self.misses[name] += info.misses
            cache.cache_clear()


def clear_caches(caches: dict[str, object]) -> None:
    for cache in caches.values():
        cache.cache_clear()


class Tracer:
    def __init__(self) -> None:
        self.leaves: dict[str, list] = {}  # name -> [calls, total_s, self_s, items]
        self.spans: list[dict] = []
        self._leaf_stack = [0.0]
        self._span_stack: list[dict] = []

    @contextmanager
    def span(self, name: str):
        parent = self._span_stack[-1] if self._span_stack else None
        record = {
            "id": len(self.spans),
            "parent": parent["id"] if parent else None,
            "name": name,
            "start": perf_counter(),
            "child_s": 0.0,
        }
        self.spans.append(record)
        self._span_stack.append(record)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._span_stack.pop()
            duration = record["end"] - record["start"]
            record["self_s"] = duration - record.pop("child_s")
            if parent is not None:
                parent["child_s"] += duration

    def leaf(self, name: str, fn):
        stats = self.leaves.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._leaf_stack
        count_items = name in _COUNT_ITEMS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                nested = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - nested
                stack[-1] += elapsed
            if count_items:
                stats[3] += len(result)
            return result

        return wrapper

    def span_wrapper(self, fn, name_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name_of(*args, **kwargs)):
                return fn(*args, **kwargs)

        return wrapper


@contextmanager
def patched(replacements: dict[str, Callable]):
    """Rebind ``"module.function"`` targets in every ``conelines.*`` module.

    ``replacements`` maps each target to a factory that takes the
    original function and returns its replacement.  Every module attribute that *is* the original object is replaced, so
    names imported into other modules are covered too; everything is
    restored on exit.  Yields the names that no longer exist.
    """
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "conelines"]
    undo = []
    missing = []
    try:
        for target, make in replacements.items():
            short, attr = target.split(".")
            original = getattr(importlib.import_module(f"conelines.{short}"), attr, None)
            if original is None:
                missing.append(target)
                continue
            replacement = make(original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, replacement)
                        undo.append((module, name, original))
        yield missing
    finally:
        for module, name, original in reversed(undo):
            setattr(module, name, original)
