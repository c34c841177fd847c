"""Span recorder for the benchmark's traced run.

A span is one call into a layer of the program: its name, its start and end
(``time.perf_counter`` seconds), the id of the span it was called from, and
the id of the operation it belongs to.  Every span of one chunk ingest, one
read or one save shares that operation id: a span opened while no other span
is open starts a new operation.  Spans are kept in memory and written out by
the caller once the run ends.

The spans come from the benchmark's own code: :func:`patched` wraps the
public calls into each layer for the length of a ``with`` block and puts every
attribute back on exit.  Nothing under ``src/`` knows it is being traced.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    op: int
    name: str
    start: float
    end: float


class Probe(NamedTuple):
    """One call to trace: ``owner.attribute`` recorded under ``name``.

    ``owner`` is a class or a module.  Module-level functions must be patched
    in the module whose globals the caller reads them from.  ``weigh``, when
    given, maps the call's positional arguments to an amount that is summed
    per span name (rows handed to a bulk insert, for instance).
    """

    owner: object
    attribute: str
    name: str
    weigh: Optional[Callable[[tuple], int]] = None


class Recorder:
    """Collects spans while :attr:`active`; wrapped calls pass straight
    through otherwise, so set-up and correctness checks leave no spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.weights: Dict[str, int] = defaultdict(int)
        self.active = False
        self._stack: List[int] = []
        self._names: List[str] = []
        self._ids = itertools.count()
        self._op = 0

    def wrap(self, name: str, fn: Callable, weigh: Optional[Callable[[tuple], int]] = None) -> Callable:
        spans, stack, names, clock = self.spans, self._stack, self._names, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # A call from a span into the same name (a subclass entry point
            # delegating to its base's) stays part of the outer span.
            if not self.active or (names and names[-1] == name):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            if parent is None:
                self._op += 1
            span_id = next(self._ids)
            stack.append(span_id)
            names.append(name)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                names.pop()
                spans.append(Span(span_id, parent, self._op, name, start, end))
                if weigh is not None:
                    self.weights[name] += weigh(args)

        return traced


_MISSING = object()


@contextlib.contextmanager
def patched(recorder: Recorder, probes: Iterable[Probe]) -> Iterator[Recorder]:
    """Wrap every probe's attribute for the block; restore all of them on exit.

    An attribute inherited from a base class is set on ``owner`` and deleted
    again afterwards.  Class- and static methods keep their kind.  Enter the
    block before building the objects under test: ingestors bind their
    sampler's methods when they are constructed.
    """
    saved = []
    try:
        for probe in probes:
            raw = inspect.getattr_static(probe.owner, probe.attribute)
            saved.append((probe.owner, probe.attribute, vars(probe.owner).get(probe.attribute, _MISSING)))
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(recorder.wrap(probe.name, raw.__func__, probe.weigh))
            else:
                replacement = recorder.wrap(probe.name, raw, probe.weigh)
            setattr(probe.owner, probe.attribute, replacement)
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the durations of its direct children.

    Calls are synchronous, so the children of one span never overlap and
    their durations cover disjoint parts of the parent's interval.
    """
    spans = list(spans)
    children: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            children[span.parent] += span.end - span.start
    return {span.id: span.end - span.start - children[span.id] for span in spans}


def summarize(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, summed ``self_s`` and summed ``total_s``."""
    spans = list(spans)
    own = self_times(spans)
    summary: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = summary.setdefault(span.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own[span.id]
        entry["total_s"] += span.end - span.start
    return summary


def top_level_seconds(spans: Iterable[Span]) -> float:
    """Time covered by spans opened outside any other span."""
    return sum(span.end - span.start for span in spans if span.parent is None)
