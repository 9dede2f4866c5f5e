"""Spans, counts and memory peaks around the benchmark's calls into spinalquad.

Every call the benchmark makes into the library goes through a tracer's
``call(name, fn, *args)``. Three tracers share that interface:

- ``Tracer``: no recording; used for the end-to-end figures.
- ``SpanTracer``: keeps one span per call (name, start, end, parent
  span, job id) in memory, plus named counts; per-layer self times are
  computed once the run is over.
- ``PeakTracer``: runs ``tracemalloc`` around the calls named in
  ``PEAK_SPANS`` only, in a pass of its own, so that its cost does not
  land in any span time.
"""

from __future__ import annotations

import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, NamedTuple

# Public functions per module, as the benchmark calls them; ``cli``
# lists the commands it runs through ``spinalquad.cli.run``.
LAYERS: dict[str, tuple[str, ...]] = {
    "graph": ("parse_edge_list", "format_edge_list"),
    "interlace": ("interlace", "format_twin_edge_list"),
    "embed": ("permute_rotations", "quadrangulate", "format_quad", "parse_quad"),
    "verify": ("verify_surface", "check_thickening_identities", "check_duality_formula"),
    "homology": ("betti_numbers", "parse_complex"),
    "coloring": (
        "chromatic_number_exact",
        "lift_coloring",
        "face_coloring_from_sources",
        "verify_proper_faces",
    ),
    "families": ("spine_for", "minimality_report", "min_quad_vertices"),
    "cli": ("quadrangulate", "verify", "chroma", "thicken", "facecolor"),
}
SPANS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
COUNTS = (
    "graph.edges_parsed",
    "embed.faces_built",
    "embed.faces_parsed",
    "verify.rejected",
    "homology.boundary_entries",
    "coloring.refusals",
)
PEAK_SPANS = ("embed.quadrangulate", "verify.verify_surface")
# Root span of every job; its self time is the benchmark's own
# checking and glue code.
JOB_SPAN = "bench.job"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    job: int | None


class Tracer:
    """Calls straight through; records nothing."""

    job: int | None = None

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        return fn(*args)

    def count(self, name: str, amount: int = 1) -> None:
        pass


class SpanTracer(Tracer):
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self.job))
        self._open.append(index)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.job)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def self_times(self) -> dict[str, float]:
        """Summed self time in seconds per span name: each span's
        duration minus the durations of its direct children."""
        child_time: defaultdict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: defaultdict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            totals[span.name] += span.end - span.start - child_time[i]
        return dict(totals)

    def calls(self) -> Counter[str]:
        return Counter(span.name for span in self.spans)


class PeakTracer(Tracer):
    def __init__(self) -> None:
        self.peaks: dict[str, int] = {name: 0 for name in PEAK_SPANS}

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        if name not in self.peaks:
            return fn(*args)
        tracemalloc.start()
        try:
            return fn(*args)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.peaks[name] = max(self.peaks[name], peak)
