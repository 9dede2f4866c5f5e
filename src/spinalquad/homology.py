"""Exact rational Betti numbers of simplicial complexes of dimension <= 2.

Complexes are abstract and downward-closed. Ranks of the boundary
operators are computed by sparse elimination over arbitrary precision
integers: rows are kept as dicts, and pivots of value +1 or -1 are
taken first, so every update stays an exact integer. Only the block
left without a unit entry goes to dense fraction-free (Bareiss)
elimination. Every reported number is exact; no floating point is
involved anywhere. Torsion is deliberately ignored: only the rational
Betti numbers are reported.

Orientation convention: listing a simplex's vertices in ascending
order defines its positive orientation, and boundary signs alternate
from there. Matrix rows and columns are ordered by sorted simplex
tuple, which makes every matrix, rank, and Betti vector reproducible.
"""

from __future__ import annotations

import heapq
import operator
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
    Triangles with a repeated vertex are rejected; ``Graph`` builds the
    1-skeleton, so vertices and edges obey its rules.
    """

    __slots__ = ("_vertices", "_edges", "_triangles")

    def __init__(
        self,
        vertices: Iterable[int] = (),
        edges: Iterable[tuple[int, int]] = (),
        triangles: Iterable[tuple[int, int, int]] = (),
    ):
        ts: set[Triangle] = set()
        sides: list[Edge] = []
        for t in triangles:
            tt = tuple(sorted(operator.index(x) for x in t))
            if len(tt) != 3 or len(set(tt)) != 3:
                raise ValueError(f"triangle with repeated vertex: {t}")
            a, b, c = tt
            ts.add((a, b, c))
            sides += ((a, b), (a, c), (b, c))
        skeleton = Graph(vertices, [*edges, *sides])
        self._vertices = skeleton.vertices
        self._edges = skeleton.edges
        self._triangles = tuple(sorted(ts))

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    @property
    def triangles(self) -> tuple[Triangle, ...]:
        return self._triangles

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (
            self._vertices == other._vertices
            and self._edges == other._edges
            and self._triangles == other._triangles
        )

    def __hash__(self) -> int:
        return hash((self._vertices, self._edges, self._triangles))

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex({len(self._vertices)} vertices, "
            f"{len(self._edges)} edges, {len(self._triangles)} triangles)"
        )


def from_graph(g: Graph) -> SimplicialComplex:
    """View a graph as a 1-dimensional complex."""
    return SimplicialComplex(vertices=g.vertices, edges=g.edges)


def matrix_rank_exact(rows: list[list[int]]) -> int:
    """Rank over the rationals of an integer matrix.

    One-step fraction-free (Bareiss) elimination: every intermediate
    entry is an exact integer, every division is exact, and the pivot
    count is the rank. Row order is whatever the caller passed; the
    rank does not depend on it.
    """
    m = [row[:] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


def _boundary_rows(k: int, complex: SimplicialComplex) -> tuple[list[dict[int, int]], int]:
    """Sparse rows of the k-th boundary operator, k in {1, 2}, and its
    column count.

    Rows are indexed by the (k-1)-simplices and columns by the
    k-simplices, both in sorted-tuple order; each row maps a column to
    its nonzero entry. The boundary of an ascending simplex drops its
    i-th vertex with sign (-1)^i.
    """
    if k == 1:
        row_index = {(v,): i for i, v in enumerate(complex.vertices)}
        cols = complex.edges
    elif k == 2:
        row_index = {e: i for i, e in enumerate(complex.edges)}
        cols = complex.triangles
    else:
        raise ValueError(f"boundary operator index must be 1 or 2, got {k}")
    rows: list[dict[int, int]] = [{} for _ in row_index]
    for j, simplex in enumerate(cols):
        for i in range(len(simplex)):
            rows[row_index[simplex[:i] + simplex[i + 1 :]]][j] = -1 if i % 2 else 1
    return rows, len(cols)


def boundary_matrix(k: int, complex: SimplicialComplex) -> list[list[int]]:
    """Dense integer matrix of the k-th boundary operator, k in {1, 2},
    laid out as in ``_boundary_rows``."""
    rows, ncols = _boundary_rows(k, complex)
    matrix = [[0] * ncols for _ in rows]
    for dense, row in zip(matrix, rows):
        for j, x in row.items():
            dense[j] = x
    return matrix


def _sparse_rank(rows: list[dict[int, int]]) -> int:
    """Rank over the rationals of a sparse integer matrix.

    Each row maps a column to a nonzero integer; the rows are consumed.
    While some row holds a +1 or -1 entry, the shortest such row is the
    pivot row, and among its unit entries the one whose column meets
    the fewest rows is the pivot (least fill). Clearing that column
    from the other rows multiplies by the pivot, its own inverse, so
    every entry stays an exact integer. The rows left without a unit
    entry are compressed to a dense block ranked by
    ``matrix_rank_exact``.
    """
    live = {i: row for i, row in enumerate(rows) if row}
    col_rows: dict[int, set[int]] = {}
    for i, row in live.items():
        for j in row:
            col_rows.setdefault(j, set()).add(i)
    # Lazy heap of (row length, row id), pushed again whenever a row
    # changes, so every live row has an entry of its current length. A
    # popped entry whose row is gone, has another length or holds no
    # unit is skipped; no pivot search rescans the matrix.
    heap = [(len(row), i) for i, row in live.items()]
    heapq.heapify(heap)
    rank = 0
    while heap:
        length, r = heapq.heappop(heap)
        pivot_row = live.get(r)
        if pivot_row is None or len(pivot_row) != length:
            continue
        units = [j for j, x in pivot_row.items() if x == 1 or x == -1]
        if not units:
            continue
        c = min(units, key=lambda j: (len(col_rows[j]), j))
        p = pivot_row[c]
        del live[r]
        for j in pivot_row:
            col_rows[j].discard(r)
        for i in col_rows.pop(c):
            row = live[i]
            factor = row.pop(c) * p
            for j, x in pivot_row.items():
                if j == c:
                    continue
                y = row.get(j, 0) - factor * x
                if y:
                    if j not in row:
                        col_rows[j].add(i)
                    row[j] = y
                elif j in row:
                    del row[j]
                    col_rows[j].discard(i)
            if row:
                heapq.heappush(heap, (len(row), i))
            else:
                del live[i]
        rank += 1
    if not live:
        return rank
    index = {j: n for n, j in enumerate(sorted({j for row in live.values() for j in row}))}
    block = []
    for row in live.values():
        dense = [0] * len(index)
        for j, x in row.items():
            dense[index[j]] = x
        block.append(dense)
    return rank + matrix_rank_exact(block)


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
    b0 = len(components(Graph(complex.vertices, complex.edges)))
    ok = chi == b.b0 - b.b1 + b.b2 and b.b0 == b0
    return EulerPoincareReport(ok=ok, euler_characteristic=chi, betti=b)


def parse_complex(text: str) -> SimplicialComplex:
    """Parse the ``.sc`` text format.

    Each non-comment line lists 1, 2, or 3 distinct decimal ids (a
    vertex, an edge, or a triangle). The downward closure is completed
    on load. Repeated vertices within a simplex and simplices of
    dimension greater than 2 are parse errors naming the line.
    """
    by_dimension: tuple[list[list[int]], ...] = ([], [], [])
    for lineno, tokens in _records(text):
        ids = [_decimal(tok, lineno, "vertex id") for tok in tokens]
        if len(ids) > 3:
            raise ParseError(f"line {lineno}: simplex of dimension > 2")
        if len(set(ids)) != len(ids):
            raise ParseError(f"line {lineno}: repeated vertex within a simplex")
        by_dimension[len(ids) - 1].append(ids)
    points, edges, triangles = by_dimension
    return SimplicialComplex([v for (v,) in points], edges, triangles)


def format_complex(complex: SimplicialComplex) -> str:
    """Emit the ``.sc`` format, listing maximal simplices only."""
    in_edge = {v for e in complex.edges for v in e}
    in_triangle = {e for t in complex.triangles for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))}
    lines = [str(v) for v in complex.vertices if v not in in_edge]
    lines.extend(f"{u} {v}" for u, v in complex.edges if (u, v) not in in_triangle)
    lines.extend(f"{a} {b} {c}" for a, b, c in complex.triangles)
    return "\n".join(lines) + ("\n" if lines else "")
