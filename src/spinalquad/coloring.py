"""Exact vertex chromatic numbers, twin lifts, and source face colorings.

The solver is exact with a hard vertex cap: above the cap it refuses
rather than fall back to a heuristic, so every number it reports is
the true chromatic number. Below the cap it runs branch and bound
between a greedy clique lower bound and a saturation-greedy upper
bound.

A proper spine coloring lifts to the interlacement by giving both
twins of a vertex the vertex's color, and pushes forward to faces of a
quadrilateral embedding by giving each face the color of its source.
Both transfers preserve properness; the checks here certify that on
each concrete instance instead of assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, NamedTuple, Sequence

from .embed import QuadEmbedding
from .graph import Graph, ParseError, _records
from .interlace import Interlacement


class ColoringError(ValueError):
    """A coloring input is unusable: improper where properness is
    required, or missing assignments."""


class CapExceededError(ValueError):
    """The exact solver refuses graphs above its vertex cap."""


DEFAULT_VERTEX_CAP = 24


def _check_palette(colors: Mapping[int, int], palette: int) -> None:
    for key, color in colors.items():
        if not 0 <= color < palette:
            raise ValueError(f"color {color} of {key} outside palette of size {palette}")


@dataclass(frozen=True)
class VertexColoring:
    """Map vertex id -> 0-based color index, with its palette size."""

    colors: Mapping[int, int]
    palette: int

    def __post_init__(self) -> None:
        _check_palette(self.colors, self.palette)


@dataclass(frozen=True)
class FaceColoring:
    """Map face index -> 0-based color index, with its palette size."""

    colors: Mapping[int, int]
    palette: int

    def __post_init__(self) -> None:
        _check_palette(self.colors, self.palette)


class PropernessReport(NamedTuple):
    ok: bool
    # Violating pair on failure: (u, v) for vertices, or
    # (face_i, face_j, shared_edge) for faces.
    violation: tuple | None


def verify_proper_vertices(g: Graph, coloring: VertexColoring) -> PropernessReport:
    """Exhaustive properness check of a vertex coloring.

    Raises ColoringError when some vertex has no color; an improper
    edge is a verdict, not an exception.
    """
    for v in g.vertices:
        if v not in coloring.colors:
            raise ColoringError(f"vertex {v} has no color")
    for u, v in g.edges:
        if coloring.colors[u] == coloring.colors[v]:
            return PropernessReport(ok=False, violation=(u, v))
    return PropernessReport(ok=True, violation=None)


def _side_keys(q: QuadEmbedding) -> tuple[int, list[list[int]]]:
    """Width w and, per corner position j, the side from corner j to
    corner j + 1 of every face, side {a, b} with a <= b keyed a * w + b."""
    corners = q.corners
    width = max(corners, default=0) + 1
    columns = [corners[j::4] for j in range(4)]
    return width, [
        [a * width + b if a < b else b * width + a for a, b in zip(columns[j], columns[j - 3])]
        for j in range(4)
    ]


def _distinct_labels(sides: list[list[int]], labels: Sequence[int]) -> int:
    """How many distinct (side, label of its face) pairs there are."""
    low = min(labels, default=0)
    base = max(labels, default=0) - low + 1
    return len(
        {side * base + label - low for column in sides for side, label in zip(column, labels)}
    )


def face_adjacencies(q: QuadEmbedding) -> list[tuple[int, int, tuple[int, int]]]:
    """Pairs of distinct face indices meeting the same edge.

    Returns (i, j, shared_edge) triples with i < j, sorted. Faces
    meeting an edge more than twice all count pairwise.
    """
    width, sides = _side_keys(q)
    by_side: dict[int, list[int]] = {}
    for side, f in sorted({(side, f) for column in sides for f, side in enumerate(column)}):
        by_side.setdefault(side, []).append(f)
    return sorted(
        (i, j, divmod(side, width))
        for side, faces in by_side.items()
        for i, j in combinations(faces, 2)
    )


def verify_proper_faces(q: QuadEmbedding, coloring: FaceColoring) -> PropernessReport:
    """Exhaustive properness check of a face coloring.

    Adjacency means sharing an edge. Raises ColoringError when some
    face has no color; returns the violating pair with its shared edge
    on failure, the first in face_adjacencies order.
    """
    colors = coloring.colors
    nfaces = len(q.sources)
    for fi in range(nfaces):
        if fi not in colors:
            raise ColoringError(f"face {fi} has no color")
    # Two faces on one side share a color iff labelling each face by its
    # color instead of its index merges two (side, label) pairs.
    _, sides = _side_keys(q)
    face_colors = [colors[f] for f in range(nfaces)]
    if _distinct_labels(sides, range(nfaces)) == _distinct_labels(sides, face_colors):
        return PropernessReport(ok=True, violation=None)
    clash = next(pair for pair in face_adjacencies(q) if colors[pair[0]] == colors[pair[1]])
    return PropernessReport(ok=False, violation=clash)


def _greedy_clique(g: Graph) -> list[int]:
    # Grow a clique greedily from each vertex in degree-descending
    # order; sound as a lower bound, no maximality claim.
    best: list[int] = []
    order = sorted(g.vertices, key=lambda v: (-g.degree(v), v))
    for start in order:
        clique = [start]
        candidates = set(g.neighbors(start))
        for v in order:
            if v in candidates:
                clique.append(v)
                candidates &= set(g.neighbors(v))
        if len(clique) > len(best):
            best = clique
    return best


def _saturation_greedy(g: Graph) -> dict[int, int]:
    # Color the vertex with the most distinctly-colored neighbors
    # first; ties broken by degree, then by id, for determinism.
    colors: dict[int, int] = {}
    neighbor_colors: dict[int, set[int]] = {v: set() for v in g.vertices}
    uncolored = set(g.vertices)
    while uncolored:
        v = max(uncolored, key=lambda u: (len(neighbor_colors[u]), g.degree(u), -u))
        c = 0
        while c in neighbor_colors[v]:
            c += 1
        colors[v] = c
        uncolored.discard(v)
        for u in g.neighbors(v):
            if u in uncolored:
                neighbor_colors[u].add(c)
    return colors


def _colorable_with(g: Graph, k: int) -> dict[int, int] | None:
    # Backtracking k-colorability with saturation-first vertex choice
    # and first-fresh-color symmetry breaking.
    if k == 0:
        return {} if not g.vertices else None
    colors: dict[int, int] = {}
    neighbor_colors: dict[int, set[int]] = {v: set() for v in g.vertices}

    def pick() -> int | None:
        remaining = [v for v in g.vertices if v not in colors]
        if not remaining:
            return None
        return max(remaining, key=lambda u: (len(neighbor_colors[u]), g.degree(u), -u))

    def assign(v: int, used: int) -> bool:
        # Trying colors beyond the first unused one only relabels.
        limit = min(k, used + 1)
        for c in range(limit):
            if c in neighbor_colors[v]:
                continue
            colors[v] = c
            touched = []
            for u in g.neighbors(v):
                if u not in colors and c not in neighbor_colors[u]:
                    neighbor_colors[u].add(c)
                    touched.append(u)
            nxt = pick()
            if nxt is None or assign(nxt, max(used, c + 1)):
                return True
            del colors[v]
            for u in touched:
                neighbor_colors[u].discard(c)
        return False

    first = pick()
    if first is None:
        return {}
    return dict(colors) if assign(first, 0) else None


def _canonicalize(g: Graph, colors: dict[int, int]) -> dict[int, int]:
    # Relabel colors by first occurrence in ascending vertex order.
    relabel: dict[int, int] = {}
    out: dict[int, int] = {}
    for v in g.vertices:
        c = colors[v]
        if c not in relabel:
            relabel[c] = len(relabel)
        out[v] = relabel[c]
    return out


def chromatic_number_exact(
    g: Graph, cap: int = DEFAULT_VERTEX_CAP
) -> tuple[int, VertexColoring]:
    """Minimum proper-coloring size with a witness, exactly.

    Raises CapExceededError when the graph has more vertices than
    ``cap``; never returns a heuristic answer. The witness is
    canonicalized by first color occurrence in ascending vertex order,
    so it is deterministic.
    """
    if len(g.vertices) > cap:
        raise CapExceededError(
            f"graph has {len(g.vertices)} vertices, exact solver capped at {cap}"
        )
    if not g.vertices:
        return 0, VertexColoring(colors={}, palette=0)
    lower = max(1, len(_greedy_clique(g)))
    greedy = _saturation_greedy(g)
    upper = max(greedy.values()) + 1
    if lower == upper:
        return upper, VertexColoring(colors=_canonicalize(g, greedy), palette=upper)
    for k in range(lower, upper):
        attempt = _colorable_with(g, k)
        if attempt is not None:
            return k, VertexColoring(colors=_canonicalize(g, attempt), palette=k)
    return upper, VertexColoring(colors=_canonicalize(g, greedy), palette=upper)


def lift_coloring(inter: Interlacement, coloring: VertexColoring) -> VertexColoring:
    """Color the interlacement by giving both twins the spine color.

    Requires a proper spine coloring; rejects improper input with the
    violating edge. Keys of the result are encoded twin ids and the
    palette size is unchanged.
    """
    report = verify_proper_vertices(inter.spine, coloring)
    if not report.ok:
        raise ColoringError(f"spine coloring improper on edge {report.violation}")
    lifted = {2 * v + c: coloring.colors[v] for v in inter.spine.vertices for c in (0, 1)}
    return VertexColoring(colors=lifted, palette=coloring.palette)


class ChromaticEqualityReport(NamedTuple):
    ok: bool
    chromatic_number: int
    lift_proper: bool
    contains_spine_copy: bool


def chromatic_equality_check(
    inter: Interlacement, cap: int = DEFAULT_VERTEX_CAP
) -> ChromaticEqualityReport:
    """Certify that the interlacement's chromatic number equals the spine's.

    Upper bound: an optimal spine coloring lifts to a proper coloring
    of the interlacement with the same palette. Lower bound: the
    primed copies carry an embedded copy of the spine, asserted by
    subgraph containment rather than by re-solving the larger graph.
    """
    chi, witness = chromatic_number_exact(inter.spine, cap=cap)
    lifted = lift_coloring(inter, witness)
    lift_proper = verify_proper_vertices(inter.graph, lifted).ok
    contains = all(inter.graph.has_edge(2 * u, 2 * v) for u, v in inter.spine.edges)
    return ChromaticEqualityReport(
        ok=(lift_proper and contains),
        chromatic_number=chi,
        lift_proper=lift_proper,
        contains_spine_copy=contains,
    )


def face_coloring_from_sources(q: QuadEmbedding, coloring: VertexColoring) -> FaceColoring:
    """Color each face with the color of its source vertex.

    Requires a proper spine coloring. Faces sharing an edge always
    have adjacent sources, so the result is proper with palette at
    most the spine's chromatic number; verify_proper_faces certifies
    that on the instance.
    """
    report = verify_proper_vertices(q.spine, coloring)
    if not report.ok:
        raise ColoringError(f"spine coloring improper on edge {report.violation}")
    face_colors = {fi: coloring.colors[source] for fi, source in enumerate(q.sources)}
    return FaceColoring(colors=face_colors, palette=coloring.palette)


def parse_vertex_coloring(text: str) -> VertexColoring:
    """Parse a coloring file with integer vertex tokens.

    Format: a ``colors <k>`` header, then ``<vertex> <color>`` lines.
    Comment lines and ``key=value`` report lines are ignored.
    """
    palette: int | None = None
    colors: dict[int, int] = {}
    for lineno, tokens in _records(text):
        if any("=" in token for token in tokens):
            continue
        if tokens[0] == "colors":
            if len(tokens) != 2 or not tokens[1].isdecimal():
                raise ParseError(f"line {lineno}: expected 'colors <k>'")
            palette = int(tokens[1])
            continue
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected '<vertex> <color>'")
        try:
            vertex, color = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"line {lineno}: expected decimal integers") from None
        if vertex < 0 or color < 0:
            raise ParseError(f"line {lineno}: negative id or color")
        colors[vertex] = color
    if palette is None:
        palette = max(colors.values()) + 1 if colors else 0
    try:
        return VertexColoring(colors=colors, palette=palette)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_vertex_coloring(coloring: VertexColoring) -> str:
    lines = [f"colors {coloring.palette}"]
    lines.extend(f"{v} {coloring.colors[v]}" for v in sorted(coloring.colors))
    return "\n".join(lines) + "\n"


def format_face_coloring(coloring: FaceColoring) -> str:
    """Face tokens are ``f<index>`` with indices in face-list order."""
    lines = [f"colors {coloring.palette}"]
    lines.extend(f"f{i} {coloring.colors[i]}" for i in sorted(coloring.colors))
    return "\n".join(lines) + "\n"
