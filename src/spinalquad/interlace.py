"""The 2-fold interlacement of a spine graph.

Every spine vertex v splits into two twins: the primed copy (v, 0) and
the double-primed copy (v, 1). Twins are never adjacent; every spine
edge {u, v} is replaced by all four cross edges between the copies of
u and the copies of v, so the interlacement has 2V vertices and 4E
edges.

Internally twin vertices are encoded as integers 2 * spine_id + copy,
which keeps the interlacement an ordinary Graph and sorts primarily by
spine id. In text formats a twin is written ``<id>.0`` or ``<id>.1``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import partial

from .graph import Graph, ParseError, _read_edges, _write_edges


def _tokens_of(ids: Iterable[int]) -> dict[int, str]:
    """The token of each encoded twin id, built once per id."""
    return {x: f"{x >> 1}.{x & 1}" for x in ids}


def _twin_id(ids: dict[str, int], token: str, lineno: int) -> int:
    """The encoded id of a twin token ``<id>.0`` or ``<id>.1``; ``ids``
    memoises each distinct token so it is validated once."""
    x = ids.get(token)
    if x is not None:
        return x
    head, sep, tail = token.partition(".")
    if not sep or tail not in ("0", "1"):
        raise ParseError(f"line {lineno}: expected twin token '<id>.0' or '<id>.1', got {token!r}")
    try:
        spine_id = int(head)
    except ValueError:
        raise ParseError(f"line {lineno}: expected decimal id in twin token {token!r}") from None
    if spine_id < 0:
        raise ParseError(f"line {lineno}: negative vertex id in twin token {token!r}")
    x = ids[token] = 2 * spine_id + int(tail)
    return x


@dataclass(frozen=True)
class Interlacement:
    """A spine together with its 2-fold interlacement graph.

    ``graph`` is over encoded twin ids; the twin map is implicit in the
    encoding.
    """

    spine: Graph
    graph: Graph


def interlace(spine: Graph) -> Interlacement:
    """Build the 2-fold interlacement of a spine.

    Isolated spine vertices are permitted and yield two isolated
    twins each.
    """
    vertices = [2 * v + c for v in spine.vertices for c in (0, 1)]
    edges = [
        (2 * u + a, 2 * v + b)
        for u, v in spine.edges
        for a in (0, 1)
        for b in (0, 1)
    ]
    return Interlacement(spine=spine, graph=Graph(vertices, edges))


def format_twin_edge_list(graph: Graph) -> str:
    """Emit a twin-labeled graph in the ``.edges`` format."""
    return _write_edges(graph, _tokens_of(graph.vertices))


def parse_twin_edge_list(text: str) -> Graph:
    """Parse a twin-labeled ``.edges`` file into a graph over encoded ids."""
    return _read_edges(text, partial(_twin_id, {}), "token")
