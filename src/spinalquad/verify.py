"""Certify that a quadrilateral face complex is a closed orientable surface.

This module is the oracle side of the toolkit: it never looks at how
an embedding was built, only at the face list and the interlacement
graph, and re-derives every property combinatorially. The checks, in
order:

  (a) every face is a simple 4-cycle of the interlacement;
  (b) every interlacement edge carries exactly two face sides;
  (c) the link of every vertex is a single closed cycle, which rules
      out pinch points (a two-node link with two parallel edges, the
      bigon left by a degree-1 spine vertex, counts as one cycle);
  (d) the faces admit boundary directions traversing each edge once in
      each direction, found by parity propagation over face adjacency;
  (e) per-component genus from the Euler characteristic.

Genus is only ever reported for a component that passed closedness and
orientability; all failures are verdicts, not exceptions.

On top of the raw surface check sit the two homological identities for
graph spines: the component/handle counts of the built surface must
match (b0 + b2, b1) of the spine, and the surface's Betti vector must
equal the spine's Betti vector folded with its reversal. Both checks
run the exact rational homology of the spine on one side and the fully
verified surface on the other, so neither side trusts the other.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import NamedTuple

from .embed import IsolatedVertexError, QuadEmbedding, default_rotations, quadrangulate
from .graph import Graph, components
from .homology import BettiVector, betti_numbers, from_graph


class VerificationError(RuntimeError):
    """A constructed embedding or certificate failed its own check."""


@dataclass(frozen=True)
class ComponentReport:
    vertices: int
    edges: int
    faces: int
    euler_characteristic: int
    faces_simple: bool
    edges_two_sided: bool
    links_single_cycle: bool
    orientable: bool
    genus: int | None

    @property
    def closed(self) -> bool:
        """True when the complex is a closed 2-manifold: simple faces,
        two sides per edge, one link cycle per vertex."""
        return self.faces_simple and self.edges_two_sided and self.links_single_cycle

    @property
    def ok(self) -> bool:
        return self.closed and self.orientable


@dataclass(frozen=True)
class SurfaceReport:
    components: tuple[ComponentReport, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.components)

    @property
    def comp(self) -> int:
        return len(self.components)

    @property
    def hand(self) -> int | None:
        """Total handles, absent unless every component certified."""
        total = 0
        for c in self.components:
            if c.genus is None:
                return None
            total += c.genus
        return total


def _link_is_single_cycle(link_edges: list[tuple[int, int]]) -> bool:
    # Multigraph check: connected and every node of degree exactly 2.
    if not link_edges:
        return False
    degree: Counter[int] = Counter()
    adjacency: defaultdict[int, list[int]] = defaultdict(list)
    for a, b in link_edges:
        degree[a] += 1
        degree[b] += 1
        adjacency[a].append(b)
        adjacency[b].append(a)
    if any(d != 2 for d in degree.values()):
        return False
    nodes = set(degree)
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        n = stack.pop()
        for m in adjacency[n]:
            if m not in seen:
                seen.add(m)
                stack.append(m)
    return seen == nodes


def _orientable(face_ids: list[int], q: QuadEmbedding) -> bool:
    # Each undirected edge is met by exactly two directed sides here
    # (callers only invoke this on closed components). A face may keep
    # or flip its corner order; flipping reverses all four sides. Seek
    # a flip assignment making the two traversals of every edge
    # opposite, by parity BFS over the face adjacency.
    side_faces: defaultdict[tuple[int, int], list[tuple[int, bool]]] = defaultdict(list)
    for fi in face_ids:
        for a, b in q.faces[fi].directed_sides():
            side_faces[(min(a, b), max(a, b))].append((fi, a < b))
    constraints: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
    for entries in side_faces.values():
        (f1, d1), (f2, d2) = entries
        parity = 1 if d1 == d2 else 0
        if f1 == f2:
            if parity:
                return False
            continue
        constraints[f1].append((f2, parity))
        constraints[f2].append((f1, parity))
    flip: dict[int, int] = {}
    for start in face_ids:
        if start in flip:
            continue
        flip[start] = 0
        stack = [start]
        while stack:
            f = stack.pop()
            for g, parity in constraints[f]:
                want = flip[f] ^ parity
                if g not in flip:
                    flip[g] = want
                    stack.append(g)
                elif flip[g] != want:
                    return False
    return True


def verify_surface(q: QuadEmbedding) -> SurfaceReport:
    """Certify each component of the face complex independently.

    Components are those of the interlacement graph; a face belongs to
    the component of its first corner.
    """
    graph = q.interlacement.graph
    blocks = components(graph)
    block_of: dict[int, int] = {}
    for bi, block in enumerate(blocks):
        for v in block:
            block_of[v] = bi

    edge_set = set(graph.edges)
    faces_by_block: list[list[int]] = [[] for _ in blocks]
    for fi, face in enumerate(q.faces):
        first = 2 * face.corners[0].spine_id + face.corners[0].copy
        faces_by_block[block_of[first]].append(fi)
    edges_by_block: list[list[tuple[int, int]]] = [[] for _ in blocks]
    for e in graph.edges:
        edges_by_block[block_of[e[0]]].append(e)

    reports: list[ComponentReport] = []
    for bi, block in enumerate(blocks):
        face_ids = faces_by_block[bi]
        block_edges = edges_by_block[bi]

        faces_simple = True
        side_count: Counter[tuple[int, int]] = Counter()
        link_edges: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
        for fi in face_ids:
            face = q.faces[fi]
            ids = [2 * c.spine_id + c.copy for c in face.corners]
            if len(set(ids)) != 4:
                faces_simple = False
            for j in range(4):
                a, b = ids[j], ids[(j + 1) % 4]
                side = (min(a, b), max(a, b))
                if side in edge_set:
                    side_count[side] += 1
                else:
                    faces_simple = False
            for j in range(4):
                link_edges[ids[j]].append((ids[j - 1], ids[(j + 1) % 4]))

        edges_two_sided = all(side_count[e] == 2 for e in block_edges)
        links_single_cycle = all(_link_is_single_cycle(link_edges[v]) for v in block)
        closed = faces_simple and edges_two_sided and links_single_cycle
        orientable = _orientable(face_ids, q) if closed else False

        chi = len(block) - len(block_edges) + len(face_ids)
        genus: int | None = None
        if closed and orientable and chi % 2 == 0 and chi <= 2:
            genus = (2 - chi) // 2
        reports.append(
            ComponentReport(
                vertices=len(block),
                edges=len(block_edges),
                faces=len(face_ids),
                euler_characteristic=chi,
                faces_simple=faces_simple,
                edges_two_sided=edges_two_sided,
                links_single_cycle=links_single_cycle,
                orientable=orientable,
                genus=genus,
            )
        )
    return SurfaceReport(components=tuple(reports))


def thickening_report(spine: Graph) -> tuple[int, int]:
    """(components, total handles) of the built-and-certified surface.

    Quadrangulates the spine with default rotations, runs the full
    surface certification, and reads the counts off the verdicts.
    Raises IsolatedVertexError for bad spines and VerificationError if
    certification fails, which would mean a bug in the construction.
    """
    if spine.isolated_vertices():
        raise IsolatedVertexError(f"vertex {spine.isolated_vertices()[0]} is isolated")
    report = verify_surface(quadrangulate(spine, default_rotations(spine)))
    if not report.ok or report.hand is None:
        raise VerificationError("constructed embedding failed surface certification")
    return report.comp, report.hand


class ThickeningIdentityReport(NamedTuple):
    ok: bool
    comp: int
    hand: int
    betti: BettiVector


def check_thickening_identities(spine: Graph) -> ThickeningIdentityReport:
    """Check comp == b0 + b2 and hand == b1 for a graph spine.

    The left sides come from the verified surface, the right sides
    from exact rational homology of the spine (b2 of a graph is 0, so
    the first identity reduces to comp == b0).
    """
    comp, hand = thickening_report(spine)
    b = betti_numbers(from_graph(spine))
    return ThickeningIdentityReport(
        ok=(comp == b.b0 + b.b2 and hand == b.b1), comp=comp, hand=hand, betti=b
    )


class DualityReport(NamedTuple):
    ok: bool
    surface_betti: BettiVector
    expected: BettiVector


def check_duality_formula(spine: Graph) -> DualityReport:
    """Check the surface's Betti vector against the folded spine vector.

    A disjoint union of comp closed orientable surfaces with hand
    total handles has Betti vector (comp, 2 * hand, comp); it must
    equal (b0 + b2, b1 + b1, b2 + b0) of the spine.
    """
    comp, hand = thickening_report(spine)
    return _duality_report(comp, hand, betti_numbers(from_graph(spine)))


def _duality_report(comp: int, hand: int, b: BettiVector) -> DualityReport:
    """Compare the surface vector (comp, 2 * hand, comp) with the
    folded spine vector (b0 + b2, b1 + b1, b2 + b0)."""
    surface = BettiVector(b0=comp, b1=2 * hand, b2=comp)
    expected = BettiVector(b0=b.b0 + b.b2, b1=2 * b.b1, b2=b.b2 + b.b0)
    return DualityReport(ok=(surface == expected), surface_betti=surface, expected=expected)
