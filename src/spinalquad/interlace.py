"""The 2-fold interlacement of a spine graph.

Every spine vertex v splits into two twins: the primed copy (v, 0) and
the double-primed copy (v, 1). Twins are never adjacent; every spine
edge {u, v} is replaced by all four cross edges between the copies of
u and the copies of v, so the interlacement has 2V vertices and 4E
edges.

Internally twin vertices are encoded as integers 2 * spine_id + copy,
which keeps the interlacement an ordinary Graph and sorts primarily by
spine id. In text formats a twin is written ``<id>.0`` or ``<id>.1``:
``format_twin_edge_list`` writes the interlacement as a twin ``.edges``
file, which no command reads back, and ``parse_quad`` reads the twin
tokens of a ``.quad`` file through a ``_TwinIds`` table.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .graph import Graph, ParseError, _decimal, _write_edges


def _tokens_of(ids: Iterable[int]) -> dict[int, str]:
    """The token of each encoded twin id, built once per id."""
    return {x: f"{x >> 1}.{x & 1}" for x in ids}


def _twin_id(token: str, lineno: int) -> int:
    """The encoded id of a twin token ``<id>.0`` or ``<id>.1``."""
    head, sep, tail = token.partition(".")
    if not sep or tail not in ("0", "1"):
        raise ParseError(f"line {lineno}: expected twin token '<id>.0' or '<id>.1', got {token!r}")
    return 2 * _decimal(head, lineno, "vertex id in twin token") + (tail == "1")


class _TwinIds(dict):
    """The encoded id of each twin token read so far. A token missing
    from the table is read by ``_twin_id`` on line ``lineno``, once,
    and every later lookup shares its int."""

    __slots__ = ("lineno",)

    def __init__(self) -> None:
        super().__init__()
        self.lineno = 0

    def __missing__(self, token: str) -> int:
        x = self[token] = _twin_id(token, self.lineno)
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
    twins each. The twin pair ``(2v, 2v + 1)`` of each spine vertex is
    built once, and both twins of v share one neighbor tuple made of
    the pairs of v's spine neighbors in ascending order, so every
    twin id is one int object and vertices and neighbors come out
    sorted. No edge list is built; ``graph.edges`` derives it from the
    neighbor tuples if it is ever read.
    """
    pairs = {v: (2 * v, 2 * v + 1) for v in spine.vertices}
    adj: dict[int, tuple[int, ...]] = {}
    for v, (x, y) in pairs.items():
        adj[x] = adj[y] = tuple([t for u in spine.neighbors(v) for t in pairs[u]])
    return Interlacement(spine=spine, graph=Graph._from_sorted(tuple(adj), adj))


def format_twin_edge_list(graph: Graph) -> str:
    """Emit a twin-labeled graph in the ``.edges`` format."""
    return _write_edges(graph, _tokens_of(graph.vertices))
