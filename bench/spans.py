"""In-memory spans around calls into robustvote's public functions.

A `Tracer` wraps named functions at run time and records one span per
call: a layer label, a start, an end and the index of the enclosing span.
Modules bind names with `from .lp import alternative_strict` and similar,
so every module attribute that holds an original function is replaced,
not only the one in the defining module.  `patch` returns an undo list;
`unpatch` restores the originals.

A layer's self time is its spans' durations minus the time their direct
child spans cover.  Call arguments and results a layer metric needs are
kept by reference and measured after the traced pass, so no bookkeeping
runs inside a timed span.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter, defaultdict
from types import ModuleType
from typing import Callable, Iterable


class Tracer:
    def __init__(self) -> None:
        self.labels: list[str] = []
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.calls: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        # (label, args, result) of calls whose arguments or results feed a metric.
        self.kept: list[tuple[str, tuple, object]] = []

    def open(self, label: str) -> int:
        index = len(self.labels)
        self.labels.append(label)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, label: str, func: Callable, keep: bool = False) -> Callable:
        """A stand-in for func that records a span per call."""
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            tracer.calls[label] += 1
            index = tracer.open(label)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer.errors[label] += 1
                raise
            finally:
                tracer.close(index)
            if keep:
                tracer.kept.append((label, args, result))
            return result

        return traced

    def wrap_generator(self, label: str, func: Callable) -> Callable:
        """A stand-in for a generator function: one span per resumption, so
        the consumer's work between items is not charged to the layer."""
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            tracer.calls[label] += 1
            inner = func(*args, **kwargs)
            while True:
                index = tracer.open(label)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                yield item

        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds per label, each span minus its direct children."""
        count = len(self.labels)
        child = [0.0] * count
        for k in range(count):
            parent = self.parents[k]
            if parent >= 0:
                child[parent] += self.ends[k] - self.starts[k]
        totals: dict[str, float] = defaultdict(float)
        for k in range(count):
            totals[self.labels[k]] += self.ends[k] - self.starts[k] - child[k]
        return dict(totals)

    def children_of(self, parent_label: str, child_label: str) -> int:
        """How many spans labelled child_label sit directly under a span
        labelled parent_label."""
        return sum(
            1
            for k, label in enumerate(self.labels)
            if label == child_label
            and self.parents[k] >= 0
            and self.labels[self.parents[k]] == parent_label
        )

    def write(self, path) -> None:
        """Write every span as [label, parent, start_s, end_s], one per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for k, label in enumerate(self.labels):
                handle.write(json.dumps(
                    [label, self.parents[k], self.starts[k], self.ends[k]]) + "\n")


Undo = list[tuple[object, str, object]]


def patch(
    tracer: Tracer,
    targets: Iterable[tuple[ModuleType | type, str, str, str]],
    lookups: Iterable[ModuleType],
) -> Undo:
    """Wrap each target wherever it is looked up.

    A target is (owner, attribute, label, how) with how one of "call",
    "keep" (also keep arguments and result), "generator" and
    "classmethod".  Functions are replaced in every module of lookups whose
    attribute is the original object; class methods are replaced on the
    class itself.
    """
    lookups = list(lookups)
    undo: Undo = []
    for owner, name, label, how in targets:
        if how == "classmethod":
            original = owner.__dict__[name]
            wrapped = classmethod(tracer.wrap(label, original.__func__))
            undo.append((owner, name, original))
            setattr(owner, name, wrapped)
            continue
        original = getattr(owner, name)
        if how == "generator":
            wrapped = tracer.wrap_generator(label, original)
        else:
            wrapped = tracer.wrap(label, original, keep=how == "keep")
        for module in lookups:
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, original))
                    setattr(module, attr, wrapped)
                elif isinstance(value, dict):  # dispatch tables such as predicates
                    for key, entry in list(value.items()):
                        if entry is original:
                            undo.append((value, key, original))
                            value[key] = wrapped
    return undo


def unpatch(undo: Undo) -> None:
    for owner, name, original in reversed(undo):
        if isinstance(owner, dict):
            owner[name] = original
        else:
            setattr(owner, name, original)
