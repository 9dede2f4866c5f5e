"""Exact vertex chromatic numbers, twin lifts, and source face colorings.

The solver is exact with a hard vertex cap: above the cap it refuses
rather than fall back to a heuristic, so every number it reports is
the true chromatic number. Below the cap it runs one iterative DSATUR
branch and bound: its first leaf is the greedy coloring, each later
leaf uses fewer colors, and it stops at a greedy clique lower bound or
when the search tree is exhausted.

A proper spine coloring lifts to the interlacement by giving both
twins of a vertex the vertex's color, and pushes forward to faces of a
quadrilateral embedding by giving each face the color of its source.
Both transfers preserve properness; the checks here certify that on
each concrete instance instead of assuming it. Both face checks read
the side pairing that verify_surface keeps for a certified surface,
so they sort nothing, and they refuse a surface that fails verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from .embed import QuadEmbedding
from .graph import Graph, ParseError, _decimal, _records
from .interlace import Interlacement
from .verify import _certified, _fol


class ColoringError(ValueError):
    """A coloring input is unusable: improper where properness is
    required, or missing assignments."""


class CapExceededError(ValueError):
    """The exact solver refuses graphs above its vertex cap."""


DEFAULT_VERTEX_CAP = 24


def _check_palette(colors: Mapping[int, int], palette: int) -> None:
    if not isinstance(palette, int):
        raise ValueError(f"palette {palette!r} is not an int")
    for key, color in colors.items():
        if not isinstance(color, int):
            raise ValueError(f"color {color!r} of {key} is not an int")
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


def _clashes(q: QuadEmbedding, labels: Sequence[int]) -> list[tuple]:
    """Sorted (i, j, (a, b)) triples, i < j and a < b, for the sides
    {a, b} whose two faces i and j have equal labels, read off the side
    pairing of q's certified report; ColoringError if q fails to verify."""
    sides = _certified(q).sides
    if sides is None:
        raise ColoringError("the quadrangulation fails verification; run verify for the report")
    corners = q.corners
    triples = []
    for d, e in zip(*sides):
        i, j = d >> 2, e >> 2
        if labels[i] == labels[j]:
            a, b = corners[d], corners[_fol(d)]
            triples.append((min(i, j), max(i, j), (min(a, b), max(a, b))))
    triples.sort()
    return triples


def face_adjacencies(q: QuadEmbedding) -> list[tuple[int, int, tuple[int, int]]]:
    """Pairs of face indices meeting the same edge of a certified surface.

    Returns one (i, j, shared_edge) triple, i < j, per edge, sorted.
    Raises ColoringError when q fails verification.
    """
    return _clashes(q, [0] * (len(q.corners) // 4))


def verify_proper_faces(q: QuadEmbedding, coloring: FaceColoring) -> PropernessReport:
    """Exhaustive properness check of a face coloring.

    Adjacency means sharing an edge of a certified surface. Raises
    ColoringError when some face has no color or q fails verification;
    returns the violating pair with its shared edge on failure, the
    first in face_adjacencies order.
    """
    colors = coloring.colors
    nfaces = len(q.corners) // 4
    for fi in range(nfaces):
        if fi not in colors:
            raise ColoringError(f"face {fi} has no color")
    clashes = _clashes(q, [colors[f] for f in range(nfaces)])
    return PropernessReport(ok=not clashes, violation=clashes[0] if clashes else None)


def _greedy_clique(g: Graph) -> list[int]:
    # Grow a clique greedily from each vertex in degree-descending
    # order; sound as a lower bound, no maximality claim.
    best: list[int] = []
    order = sorted(g.vertices, key=lambda v: (-g.degree(v), v))
    neighbors = {v: set(g.neighbors(v)) for v in order}
    for start in order:
        clique = [start]
        candidates = set(neighbors[start])
        for v in order:
            if v in candidates:
                clique.append(v)
                candidates &= neighbors[v]
        if len(clique) > len(best):
            best = clique
    return best


def _dsatur_search(g: Graph, lower: int) -> dict[int, int]:
    # Branch and bound on one depth-first DSATUR tree (Brelaz, 1979):
    # color the vertex with the most distinctly-colored neighbors first,
    # ties broken by degree, then by lowest id. Colors go in ascending
    # order, at most one past the highest in use (higher ones only
    # relabel) and below the best palette found, so the first leaf is
    # the greedy coloring and each later one is smaller. The path lives
    # on an explicit stack; the search ends at the clique bound
    # ``lower`` or when the tree is exhausted.
    seen: dict[int, set[int]] = {v: set() for v in g.vertices}

    def rank(u: int) -> tuple[int, int, int]:
        return (len(seen[u]), g.degree(u), -u)

    key = {v: rank(v) for v in g.vertices}
    uncolored = set(g.vertices)
    colors: dict[int, int] = {}
    best: dict[int, int] = {}
    best_size = len(g.vertices) + 1

    def pick() -> int:
        return max(uncolored, key=key.__getitem__)

    # Frame: [vertex, next color to try, colors used above it, the
    # neighbors its current color newly saturated].
    stack: list[list] = [[pick(), 0, 0, []]]
    while stack:
        frame = stack[-1]
        v, c, used, touched = frame
        if v in colors:
            old = colors.pop(v)
            uncolored.add(v)
            for u in touched:
                seen[u].discard(old)
                key[u] = rank(u)
            touched.clear()
        # A prefix that already uses the best palette cannot beat it.
        limit = min(used + 1, best_size - 1) if used < best_size else 0
        while c < limit and c in seen[v]:
            c += 1
        if c >= limit:
            stack.pop()
            continue
        frame[1] = c + 1
        colors[v] = c
        uncolored.discard(v)
        for u in g.neighbors(v):
            if u in uncolored and c not in seen[u]:
                seen[u].add(c)
                key[u] = rank(u)
                touched.append(u)
        if uncolored:
            stack.append([pick(), 0, max(used, c + 1), []])
            continue
        best, best_size = dict(colors), max(used, c + 1)
        if best_size == lower:
            break
    return best


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

    Raises ValueError for a negative ``cap`` and CapExceededError when
    the graph has more vertices than ``cap``; never returns a heuristic
    answer. The witness is canonicalized by first color occurrence in
    ascending vertex order, so it is deterministic.
    """
    if cap < 0:
        raise ValueError(f"negative vertex cap {cap}")
    if len(g.vertices) > cap:
        raise CapExceededError(
            f"graph has {len(g.vertices)} vertices, exact solver capped at {cap}"
        )
    if not g.vertices:
        return 0, VertexColoring(colors={}, palette=0)
    lower = max(1, len(_greedy_clique(g)))
    colors = _dsatur_search(g, lower)
    chi = max(colors.values()) + 1
    return chi, VertexColoring(colors=_canonicalize(g, colors), palette=chi)


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


def face_coloring_from_sources(q: QuadEmbedding, coloring: VertexColoring) -> FaceColoring:
    """Color each face with the color of its source vertex, the
    vertex of its corner 0.

    Requires a proper spine coloring. Faces sharing an edge always
    have adjacent sources, so the result is proper with palette at
    most the spine's chromatic number; verify_proper_faces certifies
    that on the instance.
    """
    report = verify_proper_vertices(q.spine, coloring)
    if not report.ok:
        raise ColoringError(f"spine coloring improper on edge {report.violation}")
    colors = coloring.colors
    face_colors = {fi: colors[x >> 1] for fi, x in enumerate(q.corners[0::4])}
    return FaceColoring(colors=face_colors, palette=coloring.palette)


def parse_vertex_coloring(text: str) -> VertexColoring:
    """Parse a coloring file with integer vertex tokens.

    Format: a ``colors <k>`` header, then ``<vertex> <color>`` lines.
    Comment lines and ``key=value`` report lines are ignored. A second
    header, a vertex given two different colors, or a color outside the
    header's palette is a ParseError; a line repeated as is collapses.
    """
    palette: int | None = None
    colors: dict[int, int] = {}
    # The header may follow the vertex lines. The first color outside
    # the palette is larger than every color before it, so the lines
    # that raise the largest color so far are kept until the palette
    # is known.
    peaks: list[tuple[int, int, int]] = []
    top = -1
    for lineno, tokens in _records(text):
        if any("=" in token for token in tokens):
            continue
        if tokens[0] == "colors":
            if len(tokens) != 2:
                raise ParseError(f"line {lineno}: expected 'colors <k>'")
            size = _decimal(tokens[1], lineno, "palette")
            if palette is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            palette = size
            continue
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected '<vertex> <color>'")
        vertex = _decimal(tokens[0], lineno, "vertex id")
        color = _decimal(tokens[1], lineno, "color")
        if colors.setdefault(vertex, color) != color:
            raise ParseError(f"line {lineno}: vertex {vertex} already has color {colors[vertex]}")
        if color > top:
            top = color
            peaks.append((lineno, vertex, color))
    if palette is None:
        palette = top + 1
    for lineno, vertex, color in peaks:
        if color >= palette:
            raise ParseError(
                f"line {lineno}: color {color} of {vertex} outside palette of size {palette}"
            )
    return VertexColoring(colors=colors, palette=palette)


def format_vertex_coloring(coloring: VertexColoring) -> str:
    lines = [f"colors {coloring.palette}"]
    lines.extend(f"{v} {coloring.colors[v]}" for v in sorted(coloring.colors))
    return "\n".join(lines) + "\n"


def format_face_coloring(coloring: FaceColoring) -> str:
    """Face tokens are ``f<index>`` with indices in face-list order."""
    lines = [f"colors {coloring.palette}"]
    lines.extend(f"f{i} {coloring.colors[i]}" for i in sorted(coloring.colors))
    return "\n".join(lines) + "\n"
