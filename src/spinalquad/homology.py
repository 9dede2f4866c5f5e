"""Exact rational Betti numbers of simplicial complexes of dimension <= 2.

Complexes are abstract and downward-closed. Ranks of the boundary
operators are computed by one sparse elimination over arbitrary
precision integers: rows are kept as dicts, pivots of value +1 or -1
are taken whenever the pivot row has one, and a row without one is
cleared fraction-free, so every update stays an exact integer. Every
reported number is exact; no floating point is involved anywhere.
Torsion is deliberately ignored: only the rational Betti numbers are
reported.

Orientation convention: listing a simplex's vertices in ascending
order defines its positive orientation, and boundary signs alternate
from there. Matrix rows and columns are ordered by sorted simplex
tuple, which makes every matrix, rank, and Betti vector reproducible.
"""

from __future__ import annotations

import heapq
import math
import operator
from collections import defaultdict
from typing import Iterable, NamedTuple

from .graph import Graph, ParseError, _decimal, _records, components

Edge = tuple[int, int]
Triangle = tuple[int, int, int]


class BettiVector(NamedTuple):
    b0: int
    b1: int
    b2: int


class SimplicialComplex:
    """Immutable abstract simplicial complex of dimension at most 2.

    The constructor completes the downward closure: every edge of every
    triangle and every endpoint of every edge is added automatically.
    A triangle of other than three ids, or with a repeated vertex, is
    rejected; ``Graph`` builds the 1-skeleton, so vertices and edges
    obey its rules.
    """

    __slots__ = ("_skeleton", "_triangles")

    def __init__(
        self,
        vertices: Iterable[int] = (),
        edges: Iterable[tuple[int, int]] = (),
        triangles: Iterable[tuple[int, int, int]] = (),
    ):
        ts: set[Triangle] = set()
        sides: list[Edge] = []
        for t in triangles:
            tt = sorted(map(operator.index, t))
            if len(tt) != 3:
                raise ValueError(f"triangle of {len(tt)} vertex ids, not 3: {t}")
            if len(set(tt)) != 3:
                raise ValueError(f"triangle with repeated vertex: {t}")
            a, b, c = tt
            ts.add((a, b, c))
            sides += ((a, b), (a, c), (b, c))
        self._skeleton = Graph(vertices, [*edges, *sides])
        self._triangles = tuple(sorted(ts))

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._skeleton.vertices

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._skeleton.edges

    @property
    def triangles(self) -> tuple[Triangle, ...]:
        return self._triangles

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._skeleton == other._skeleton and self._triangles == other._triangles

    def __hash__(self) -> int:
        return hash((self._skeleton, self._triangles))

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex({len(self._skeleton.vertices)} vertices, "
            f"{len(self._skeleton.edges)} edges, {len(self._triangles)} triangles)"
        )


def from_graph(g: Graph) -> SimplicialComplex:
    """View a graph as a 1-dimensional complex. The graph already obeys
    the 1-skeleton rules, so it is kept as the skeleton."""
    c = SimplicialComplex.__new__(SimplicialComplex)
    c._skeleton, c._triangles = g, ()
    return c


def _boundary_rows(k: int, complex: SimplicialComplex) -> tuple[list[dict[int, int]], int]:
    """Sparse rows of the k-th boundary operator, k in {1, 2}, and its
    column count.

    Rows are indexed by the (k-1)-simplices and columns by the
    k-simplices, both in sorted-tuple order; each row maps a column to
    its nonzero entry. The boundary of an ascending simplex drops its
    i-th vertex with sign (-1)^i, written out per simplex: edge j =
    (a, b) puts +1 in row b and -1 in row a, and triangle j = (a, b, c)
    puts +1 in row (b, c), -1 in row (a, c) and +1 in row (a, b). Rows
    are looked up by the vertex itself or by the edge tuple, and a
    complex without triangles builds no edge index.
    """
    if k == 1:
        index = {v: i for i, v in enumerate(complex.vertices)}
        rows: list[dict[int, int]] = [{} for _ in index]
        cols = complex.edges
        for j, (a, b) in enumerate(cols):
            rows[index[b]][j] = 1
            rows[index[a]][j] = -1
    elif k == 2:
        edges, cols = complex.edges, complex.triangles
        rows = [{} for _ in edges]
        if cols:
            index = {e: i for i, e in enumerate(edges)}
            for j, (a, b, c) in enumerate(cols):
                rows[index[b, c]][j] = 1
                rows[index[a, c]][j] = -1
                rows[index[a, b]][j] = 1
    else:
        raise ValueError(f"boundary operator index must be 1 or 2, got {k}")
    return rows, len(cols)


def _sparse_rank(rows: list[dict[int, int]]) -> int:
    """Rank over the rationals of a sparse integer matrix.

    Each row maps a column to a nonzero integer; the rows are consumed.
    The shortest live row is always the pivot row. Among its +1 and -1
    entries the one whose column meets the fewest rows is the pivot
    (least fill), ties going to the lower column, and clearing that
    column from the other rows multiplies by the pivot, its own
    inverse. A pivot row without a unit entry pivots on its entry of
    least fill instead: each other row is scaled by the pivot before
    the subtraction and then divided by the gcd of its entries. Either
    way every entry stays an exact integer, and every row taken as a
    pivot adds one to the rank.

    The pivot entry is popped from its row before the updates, so the
    update loop walks only the other columns, and each entry it touches
    costs one dict probe: an absent entry is filled in and its row
    joins the column, a present one is reduced and dropped at zero.
    """
    live = {i: row for i, row in enumerate(rows) if row}
    col_rows: defaultdict[int, set[int]] = defaultdict(set)
    for i, row in live.items():
        for j in row:
            col_rows[j].add(i)
    # Lazy heap of (row length, row id), pushed again whenever a row
    # changes, so every live row has an entry of its current length. A
    # popped entry whose row is gone or has another length is skipped;
    # no pivot search rescans the matrix.
    heap = [(len(row), i) for i, row in live.items()]
    heapq.heapify(heap)
    rank = 0
    while heap:
        length, r = heapq.heappop(heap)
        pivot_row = live.get(r)
        if pivot_row is None or len(pivot_row) != length:
            continue
        del live[r]
        units = [j for j, x in pivot_row.items() if x == 1 or x == -1]
        candidates = units or pivot_row
        c = min(zip(map(len, map(col_rows.__getitem__, candidates)), candidates))[1]
        p = pivot_row.pop(c)
        for j in pivot_row:
            col_rows[j].discard(r)
        below = col_rows.pop(c)
        below.discard(r)
        for i in below:
            row = live[i]
            factor = row.pop(c)
            if units:
                factor *= p
            else:
                for j in row:
                    row[j] *= p
            probe = row.get
            for j, x in pivot_row.items():
                y = probe(j)
                if y is None:
                    row[j] = -factor * x
                    col_rows[j].add(i)
                else:
                    y -= factor * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
                        col_rows[j].discard(i)
            if row and not units:
                g = math.gcd(*row.values())
                for j in row:
                    row[j] //= g
            if row:
                heapq.heappush(heap, (len(row), i))
            else:
                del live[i]
        rank += 1
    return rank


def boundary_rank(k: int, complex: SimplicialComplex) -> int:
    """Exact rank of the k-th boundary operator over the rationals."""
    return _sparse_rank(_boundary_rows(k, complex)[0])


def betti_numbers(complex: SimplicialComplex) -> BettiVector:
    """Rational Betti numbers (b0, b1, b2) by rank-nullity.

    With r1 = rank of the edge boundary and r2 = rank of the triangle
    boundary: b0 = |V| - r1, b1 = |E| - r1 - r2, b2 = |T| - r2.
    """
    r1 = boundary_rank(1, complex)
    r2 = boundary_rank(2, complex)
    return BettiVector(
        b0=len(complex.vertices) - r1,
        b1=len(complex.edges) - r1 - r2,
        b2=len(complex.triangles) - r2,
    )


class EulerPoincareReport(NamedTuple):
    ok: bool
    euler_characteristic: int
    betti: BettiVector


def euler_poincare_check(complex: SimplicialComplex) -> EulerPoincareReport:
    """Check |V| - |E| + |T| == b0 - b1 + b2 and b0 == the number of
    components of the 1-skeleton.

    Rank-nullity makes the first identity hold for any ranks; the
    component count is an independent route to b0 that catches a wrong
    rank of the edge boundary. A False result signals an internal bug
    and is surfaced as a verification failure rather than an exception.
    """
    chi = len(complex.vertices) - len(complex.edges) + len(complex.triangles)
    b = betti_numbers(complex)
    b0 = len(components(complex._skeleton))
    ok = chi == b.b0 - b.b1 + b.b2 and b.b0 == b0
    return EulerPoincareReport(ok=ok, euler_characteristic=chi, betti=b)


def parse_complex(text: str) -> SimplicialComplex:
    """Parse the ``.sc`` text format.

    Each non-comment line lists 1, 2, or 3 distinct decimal ids (a
    vertex, an edge, or a triangle). The downward closure is completed
    on load. Repeated vertices within a simplex and simplices of
    dimension greater than 2 are parse errors naming the line. Each
    distinct id token is read once, on the line of its first
    occurrence, and every later occurrence shares its int.
    """
    by_dimension: tuple[list[list[int]], ...] = ([], [], [])
    read: dict[str, int] = {}
    lookup = read.get
    for lineno, tokens in _records(text):
        ids = []
        for tok in tokens:
            v = lookup(tok)
            if v is None:
                v = read[tok] = _decimal(tok, lineno, "vertex id")
            ids.append(v)
        if len(ids) > 3:
            raise ParseError(f"line {lineno}: simplex of dimension > 2")
        if len(set(ids)) != len(ids):
            raise ParseError(f"line {lineno}: repeated vertex within a simplex")
        by_dimension[len(ids) - 1].append(ids)
    points, edges, triangles = by_dimension
    return SimplicialComplex([v for (v,) in points], edges, triangles)

