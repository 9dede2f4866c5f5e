"""Certify that a quadrilateral face complex is a closed orientable surface.

This module is the oracle side of the toolkit: it never looks at how
an embedding was built, only at the flat corner array and the spine,
and re-derives every property combinatorially. The interlacement is
read off the spine rather than built: a side (a, b) is an edge iff
(a >> 1, b >> 1) is a spine edge. One pass over the faces maps every
side to its occurrences (face and direction); the checks, in order:

  (a) every face is a simple 4-cycle of the interlacement;
  (b) every interlacement edge carries exactly two face sides;
  (c) the link of every vertex is a single closed cycle, which rules
      out pinch points (a two-node link with two parallel edges, the
      bigon left by a degree-1 spine vertex, counts as one cycle):
      each link node (vertex x, neighbour y) must meet exactly two
      corners at x, and union-find over the corners that share a link
      node must leave one class per vertex;
  (d) the faces admit boundary directions traversing each edge once in
      each direction, found by union-find with parity over faces, one
      constraint per two-sided edge;
  (e) per-component genus from the Euler characteristic.

Genus is only ever reported for a component that passed closedness and
orientability; all failures are verdicts, not exceptions. A report
with no component fails, and so does a parsed file whose header claims
other (V, E, F, components) counts than the ones re-derived.

On top of the raw surface check sit the two homological identities for
graph spines: the component/handle counts of the built surface must
match (b0 + b2, b1) of the spine, and the surface's Betti vector must
equal the spine's Betti vector folded with its reversal. Both checks
run the exact rational homology of the spine on one side and the fully
verified surface on the other, so neither side trusts the other.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .embed import QuadEmbedding, default_rotations, quadrangulate
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
    # (V, E, F, components) as re-derived from the spine and the faces,
    # and the counts a parsed file's header claimed (None otherwise).
    counts: tuple[int, int, int, int]
    header: tuple[int, int, int, int] | None = None

    @property
    def header_ok(self) -> bool:
        return self.header is None or self.header == self.counts

    @property
    def ok(self) -> bool:
        """At least one component, a header that matches, and every
        component certified."""
        return bool(self.components) and self.header_ok and all(c.ok for c in self.components)

    @property
    def comp(self) -> int:
        return len(self.components)

    @property
    def hand(self) -> int | None:
        """Total handles, absent unless there is a component and every
        component certified."""
        if not self.components:
            return None
        total = 0
        for c in self.components:
            if c.genus is None:
                return None
            total += c.genus
        return total


def verify_surface(q: QuadEmbedding) -> SurfaceReport:
    """Certify each component of the face complex independently.

    Components are those of the interlacement, read off the spine: a
    spine component with an edge doubles to one component, and an
    isolated spine vertex leaves two isolated twins. A face belongs to
    the component of its first corner; faces whose first corner lies
    outside the interlacement form one more component, with no
    vertices or edges, which fails.
    """
    spine, corners = q.spine, q.corners
    nfaces = len(q.sources)
    n = max(max(corners, default=0) >> 1, max(spine.vertices, default=0)) + 1
    width = 2 * n
    spine_edges = {u * n + v for u, v in spine.edges}

    block_of: dict[int, int] = {}
    block_sizes: list[int] = []
    block_edges: list[int] = []
    for comp in components(spine):
        if spine.degree(comp[0]):
            for v in comp:
                block_of[2 * v] = block_of[2 * v + 1] = len(block_sizes)
            block_sizes.append(2 * len(comp))
            block_edges.append(2 * sum(spine.degree(v) for v in comp))
        else:
            for x in (2 * comp[0], 2 * comp[0] + 1):
                block_of[x] = len(block_sizes)
                block_sizes.append(1)
                block_edges.append(0)
    stray = len(block_sizes)
    block_sizes.append(0)
    block_edges.append(0)
    nblocks = stray + 1

    # One pass over the faces: each undirected side (a, b), a <= b, as
    # the key a * width + b, maps to its occurrences 4 * face + position;
    # the side at position j runs from corner j to corner j + 1.
    face_block = [block_of.get(x, stray) for x in corners[0::4]]
    simple = [True] * nblocks
    simple[stray] = False
    sides: dict[int, list[int]] = {}
    for f, b in enumerate(face_block):
        k = 4 * f
        quad = corners[k : k + 4]
        if len(set(quad)) != 4:
            simple[b] = False
        for j in range(4):
            x, y = quad[j], quad[j - 3]
            key = x * width + y if x < y else y * width + x
            if key in sides:
                sides[key].append(k + j)
            else:
                sides[key] = [k + j]

    # The link of twin x has a node (x, y) per side {x, y} at x and an
    # edge per corner at x, joining the nodes of the corner's two sides.
    # It is one cycle iff it is non-empty, every node meets exactly two
    # corners, and joining the two corners at each node leaves one
    # class. An edge with two sides in its component also joins its two
    # faces, with parity 1 when both sides run the same way: a face
    # flips all four of its sides at once, and a closed component is
    # orientable iff the parities admit flips with every edge traversed
    # once each way.
    corner_parent = list(range(4 * nfaces))
    face_parent = list(range(nfaces))
    parity = [0] * nfaces
    linked: set[int] = set()
    link_ends = [0] * nblocks
    merges = [0] * nblocks
    links = [True] * nblocks
    two_sided = [0] * nblocks
    conflict = [False] * nblocks
    for key, occurrences in sides.items():
        a, b = divmod(key, width)
        ba, bb = block_of.get(a, stray), block_of.get(b, stray)
        edge = (a >> 1) * n + (b >> 1) in spine_edges
        # Per occurrence, its corner at a and at b, kept when that twin
        # is in the face's component; forward when it runs from a to b.
        at_a: list[int] = []
        at_b: list[int] = []
        forward: list[bool] = []
        for k in occurrences:
            fb = face_block[k >> 2]
            if not edge:
                simple[fb] = False
            following = k + 1 if k & 3 != 3 else k - 3
            ca, cb = (k, following) if corners[k] == a else (following, k)
            if ba == fb:
                at_a.append(ca)
                forward.append(ca == k)
            if bb == fb:
                at_b.append(cb)
        nodes = ((a, ba, at_a + at_b),) if a == b else ((a, ba, at_a), (b, bb, at_b))
        for x, bx, ends in nodes:
            if ends:
                linked.add(x)
                link_ends[bx] += len(ends)
                if len(ends) != 2:
                    links[bx] = False
                    continue
                r1, r2 = _root(corner_parent, ends[0]), _root(corner_parent, ends[1])
                if r1 != r2:
                    corner_parent[r1] = r2
                    merges[bx] += 1
        if edge and len(at_a) == 2:
            two_sided[ba] += 1
            want = 1 if forward[0] == forward[1] else 0
            f1, p1 = _parity_root(face_parent, parity, at_a[0] >> 2)
            f2, p2 = _parity_root(face_parent, parity, at_a[1] >> 2)
            if f1 != f2:
                face_parent[f1] = f2
                parity[f1] = p1 ^ p2 ^ want
            elif p1 ^ p2 != want:
                conflict[ba] = True
    for x, bx in block_of.items():
        if x not in linked:
            links[bx] = False

    face_counts = Counter(face_block)
    reports: list[ComponentReport] = []
    for b in range(nblocks if face_counts[stray] else stray):
        # Each corner meets two link nodes of its own twin, so the
        # component's corners number link_ends / 2, and its link classes
        # that minus merges: one per twin iff every link is one cycle.
        if link_ends[b] // 2 - merges[b] != block_sizes[b]:
            links[b] = False
        edges_two_sided = two_sided[b] == block_edges[b]
        closed = simple[b] and edges_two_sided and links[b]
        orientable = closed and not conflict[b]
        chi = block_sizes[b] - block_edges[b] + face_counts[b]
        genus: int | None = None
        if orientable and chi % 2 == 0 and chi <= 2:
            genus = (2 - chi) // 2
        reports.append(
            ComponentReport(
                vertices=block_sizes[b],
                edges=block_edges[b],
                faces=face_counts[b],
                euler_characteristic=chi,
                faces_simple=simple[b],
                edges_two_sided=edges_two_sided,
                links_single_cycle=links[b],
                orientable=orientable,
                genus=genus,
            )
        )
    counts = (2 * len(spine.vertices), 4 * len(spine.edges), nfaces, len(reports))
    return SurfaceReport(components=tuple(reports), counts=counts, header=q.header)


def _root(parent: list[int], x: int) -> int:
    """Union-find root of x, halving the path."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _parity_root(parent: list[int], parity: list[int], f: int) -> tuple[int, int]:
    """Root of face f and f's flip relative to it, halving the path."""
    p = 0
    while parent[f] != f:
        g = parent[f]
        parity[f] ^= parity[g]
        parent[f] = parent[g]
        p ^= parity[f]
        f = parent[f]
    return f, p


def thickening_report(spine: Graph) -> tuple[int, int]:
    """(components, total handles) of the built-and-certified surface.

    Quadrangulates the spine with default rotations, runs the full
    surface certification, and reads the counts off the verdicts.
    Raises ValueError for the empty spine, IsolatedVertexError for bad
    spines and VerificationError if certification fails, which would
    mean a bug in the construction.
    """
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
