"""Simple undirected graphs over nonnegative integer vertex ids.

This is the base layer of the toolkit: immutable graphs plus the
connectivity and cycle-rank primitives everything downstream consumes.
All outputs are reported in ascending id order so results are
byte-reproducible.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable, Iterator, Mapping

Edge = tuple[int, int]


class ParseError(ValueError):
    """Malformed text input; the message names the offending line."""


class Graph:
    """Immutable simple undirected graph.

    Vertices are arbitrary nonnegative integers, not necessarily
    contiguous. Edge endpoints are added to the vertex set
    automatically; self-loops and negative ids are rejected, ids that
    are not integers raise TypeError rather than being truncated,
    duplicate edges collapse. Neighbor lists are kept in ascending order.
    """

    __slots__ = ("_vertices", "_edges", "_adj")

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()):
        vs = {operator.index(v) for v in vertices}
        es: set[Edge] = set()
        for u, v in edges:
            u, v = operator.index(u), operator.index(v)
            if u < v:
                es.add((u, v))
            elif v < u:
                es.add((v, u))
            else:
                raise ValueError(f"self-loop at vertex {u}")
        for u, v in es:
            vs.add(u)
            vs.add(v)
        for v in vs:
            if v < 0:
                raise ValueError(f"negative vertex id {v}")
        self._vertices: tuple[int, ...] = tuple(sorted(vs))
        self._edges: tuple[Edge, ...] = tuple(sorted(es))
        # Walking the ascending edges appends every neighbor list in
        # ascending order.
        adj: dict[int, list[int]] = {v: [] for v in self._vertices}
        for u, v in self._edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj: dict[int, tuple[int, ...]] = {v: tuple(ns) for v, ns in adj.items()}

    @classmethod
    def _from_sorted(
        cls,
        vertices: tuple[int, ...],
        edges: tuple[Edge, ...],
        adj: dict[int, tuple[int, ...]],
    ) -> Graph:
        """A graph from parts its caller built valid, checking nothing:
        distinct nonnegative vertices in ascending order, edges as
        ascending unique ``(low, high)`` pairs over them, and ``adj``
        mapping every vertex to its neighbors in ascending order."""
        g = cls.__new__(cls)
        g._vertices, g._edges, g._adj = vertices, edges, adj
        return g

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def isolated_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in self._vertices if not self._adj[v])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._vertices, self._edges))

    def __repr__(self) -> str:
        return f"Graph({len(self._vertices)} vertices, {len(self._edges)} edges)"


# A vertex partition is a list of disjoint blocks covering the vertex
# set; blocks and their members are in ascending order.
VertexPartition = list[tuple[int, ...]]


def components(g: Graph) -> VertexPartition:
    """Connected components of ``g``, each block sorted ascending.

    The number of blocks is the 0th Betti number of the graph.
    """
    seen: set[int] = set()
    blocks: VertexPartition = []
    for root in g.vertices:
        if root in seen:
            continue
        block = [root]
        seen.add(root)
        stack = [root]
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    block.append(u)
                    stack.append(u)
        blocks.append(tuple(sorted(block)))
    return blocks


def cycle_rank(g: Graph) -> int:
    """First Betti number of the graph: edges - vertices + components.

    Counts independent cycles; additive over components and zero
    exactly on forests.
    """
    return len(g.edges) - len(g.vertices) + len(components(g))


def _records(text: str) -> Iterator[tuple[int, list[str]]]:
    """The tokenizer of every text format.

    Yields (line number, whitespace-split tokens) for each line that
    still has a token once its ``#`` comment is cut. Only ``\n``,
    ``\r\n`` and ``\r`` end a line; ``str.splitlines`` would also end
    one at form feeds and other separators, turning comment text into
    data.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def _decimal(token: str, lineno: int, what: str) -> int:
    """The reader of every integer token of every text format.

    Only ASCII ``[0-9]+`` is a number, leading zeros included; ``int``
    alone would also take a sign, ``_`` and non-ASCII digits, giving
    one value several spellings. ``what`` names the slot in the error.
    """
    if token.isascii() and token.isdigit():
        try:
            return int(token)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ParseError(f"line {lineno}: {what} of {len(token)} digits is too long") from None
    if token[:1] == "-" and token[1:].isascii() and token[1:].isdigit():
        raise ParseError(f"line {lineno}: negative {what} {token}")
    raise ParseError(f"line {lineno}: expected decimal {what}, got {token!r}")


def _parse_id(token: str, lineno: int) -> int:
    return _decimal(token, lineno, "vertex id")


def _read_edges(text: str, read_id: Callable[[str, int], int], noun: str) -> Graph:
    """The ``.edges`` reader for both vertex dialects.

    ``v <noun>`` declares a vertex and ``<noun> <noun>`` an edge; each
    token becomes an id through ``read_id(token, lineno)``, which
    raises ParseError on a bad one. Self-loops are refused here, with
    their line; ``Graph`` orders each edge's endpoints.
    """
    vertices: list[int] = []
    edges: list[Edge] = []
    for lineno, tokens in _records(text):
        if tokens[0] == "v":
            if len(tokens) != 2:
                raise ParseError(f"line {lineno}: vertex declaration needs exactly one {noun}")
            vertices.append(read_id(tokens[1], lineno))
        elif len(tokens) == 2:
            u = read_id(tokens[0], lineno)
            v = read_id(tokens[1], lineno)
            if u == v:
                at = f"vertex {u}" if noun == "id" else tokens[0]
                raise ParseError(f"line {lineno}: self-loop at {at}")
            edges.append((u, v))
        else:
            raise ParseError(f"line {lineno}: expected 'v <{noun}>' or '<{noun}> <{noun}>'")
    return Graph(vertices, edges)


def _write_edges(g: Graph, token: Mapping[int, str]) -> str:
    """The ``.edges`` writer for both vertex dialects; ``token`` maps
    each vertex of ``g`` to its text, built once per vertex."""
    lines = [f"v {token[v]}" for v in g.isolated_vertices()]
    lines.extend(f"{token[u]} {token[v]}" for u, v in g.edges)
    return "\n".join(lines) + ("\n" if lines else "")


def parse_edge_list(text: str) -> Graph:
    """Parse the ``.edges`` text format.

    One declaration per line: ``v <id>`` for a possibly-isolated
    vertex, ``<id> <id>`` for an edge. ``#`` starts a comment.
    Duplicates collapse; malformed lines, self-loops and negative ids
    raise ParseError naming the line.
    """
    return _read_edges(text, _parse_id, "id")


def format_edge_list(g: Graph) -> str:
    """Emit the ``.edges`` format; parse_edge_list round-trips it."""
    return _write_edges(g, {v: str(v) for v in g.vertices})
