"""Timing spans around trendcast's public entry points, from outside the library.

``Tracer.install`` replaces each entry point with a wrapper at the name its
caller looks it up under (``trendcast.experiment.build``,
``trendcast.evaluation.score``, ...). A name that no longer exists is
skipped, so a refactor that drops an entry point leaves its span with zero
calls instead of breaking the benchmark. ``uninstall`` puts the originals
back.

Each span records its name, start, end, parent and root. A span's self time
is its duration minus the time covered by its children; the self times of
all spans under one root add up to that root's duration.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    root: int
    end: float = 0.0
    child_time: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _influence_attrs(span, args, kwargs, result):
    span.attrs["measure"] = _arg(args, kwargs, 1, "measure")
    span.attrs["iterations"] = int(getattr(result, "iterations_used", 0))
    span.attrs["converged"] = bool(getattr(result, "converged", False))


def _score_attrs(span, args, kwargs, result):
    span.attrs["kind"] = getattr(_arg(args, kwargs, 1, "spec"), "kind", None)


def _evaluate_attrs(span, args, kwargs, result):
    span.attrs["cells"] = len(getattr(_arg(args, kwargs, 2, "config"), "test_dates", ()))


def _keep_result(span, args, kwargs, result):
    span.attrs["result"] = result


# (module, attribute, span name, result hook). The same function may be
# listed under several lookup names; nested calls of one span name collapse.
# Graph builds and the social graph load keep their result, so the rank spec
# can be scored on them afterwards.
ENTRY_POINTS = [
    ("trendcast.experiment", "validate", "experiment.validate", None),
    ("trendcast.experiment", "write_reports_csv", "experiment.write", None),
    ("trendcast.experiment", "_write_heatmap", "experiment.write", None),
    ("trendcast.experiment", "_write_scatter", "experiment.write", None),
    ("trendcast.ingestion", "load_dataset", "ingestion.load_dataset", None),
    ("trendcast.experiment", "build", "events.build", _keep_result),
    ("trendcast.events", "build", "events.build", _keep_result),
    ("trendcast.social", "load_social_graph", "social.load_social_graph", _keep_result),
    ("trendcast.social", "compute_influence", "social.compute_influence", _influence_attrs),
    ("trendcast.predictors", "compute_influence", "social.compute_influence", _influence_attrs),
    ("trendcast.evaluation", "compute_influence", "social.compute_influence", _influence_attrs),
    ("trendcast.evaluation", "evaluate", "evaluation.evaluate", _evaluate_attrs),
    ("trendcast.evaluation", "true_ranking", "evaluation.true_ranking", None),
    ("trendcast.evaluation", "new_entries", "evaluation.new_entries", None),
    ("trendcast.evaluation", "score", "predictors.score", _score_attrs),
    ("trendcast.predictors", "score", "predictors.score", _score_attrs),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        root = self.spans[parent].root if parent is not None else index
        span = Span(name, 0.0, parent, root)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.duration

    def call(self, name, fn, args=(), kwargs=None, hook=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        kwargs = kwargs or {}
        if self._stack and self.spans[self._stack[-1]].name == name:
            return fn(*args, **kwargs)
        span = self.begin(name)
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(span, args, kwargs, result)
            return result
        finally:
            self.end(span)

    def install(self, entry_points=ENTRY_POINTS) -> None:
        for module_name, attr, name, hook in entry_points:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            setattr(module, attr, self._wrap(name, fn, hook))
            self._patched.append((module, attr, fn))

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)

        return traced

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # -- aggregation -----------------------------------------------------

    def last_result(self, name: str):
        """Result of the last kept call of ``name``; None if none ran."""
        kept = [s.attrs["result"] for s in self.named(name) if "result" in s.attrs]
        return kept[-1] if kept else None

    def drop_results(self) -> None:
        for s in self.spans:
            s.attrs.pop("result", None)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def self_total(self, name: str) -> float:
        return sum(s.self_time for s in self.named(name))

    def layer_self_times(self) -> dict[str, float]:
        """Self time summed per layer, the part of a span name before the first dot."""
        layers: dict[str, float] = defaultdict(float)
        for s in self.spans:
            layers[s.name.split(".", 1)[0]] += s.self_time
        return dict(layers)
