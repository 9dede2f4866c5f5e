"""Certify that a quadrilateral face complex is a closed orientable surface.

This module is the oracle side of the toolkit. It imports no
constructor and never looks at how an embedding was built, only at
the flat corner array and the spine, and re-derives every property
combinatorially. The interlacement is read off the spine rather than
built: a side (a, b) is an edge iff (a >> 1, b >> 1) is a spine edge.

The face sides are darts, one per face and position, grouped by side
with one sort of packed ints (the dart technique of combinatorial
maps; Lando & Zvonkin, Graphs on Surfaces and Their Applications,
2004). A side met by exactly two darts running opposite ways, both in
faces of the edge's own component, is a clean pair and is read in
columns; every other side (another count, a non-edge, two darts
running the same way, a dart in a face of another component) is read
dart by dart in the same pass. On a certified surface every side has
two darts, so the pass pairs them all (the map's involution alpha);
the report keeps that pairing and is stored on the embedding, for the
face checks to read.

The pass is lean in memory. While the sorted keys live they are its
only list with a Python int per dart: the other per-dart columns are a
bytearray (which corners count) or arrays of machine words (the clean
pairs), and the dart after a dart is computed rather than stored. The
union-find list over corners is made only once the keys are freed.
The checks, in order:

  (a) every face is a simple 4-cycle of the interlacement;
  (b) every interlacement edge carries exactly two face sides;
  (c) the link of every vertex is a single closed cycle, which rules
      out pinch points (a two-node link with two parallel edges, the
      bigon left by a degree-1 spine vertex, counts as one cycle):
      each link node (vertex x, neighbour y) must meet exactly two
      corners at x, and union-find over the corners that share a link
      node must leave one class per vertex;
  (d) the faces admit boundary directions traversing each edge once in
      each direction. The faces' own directions are tried first: a
      component whose two-sided edges all run once each way needs no
      flip. Only a component where that fails is searched, by
      union-find with parity over its faces, one constraint per
      two-sided edge;
  (e) per-component genus from the Euler characteristic.

Genus is only ever reported for a component that passed closedness and
orientability; all failures are verdicts, not exceptions. A report
with no component fails, and so does a parsed file whose header claims
other (V, E, F, components) counts than the ones re-derived.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain, compress, count, islice, pairwise, repeat
from operator import eq, gt, xor

from .embed import QuadEmbedding
from .graph import Graph, components


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
    """Per-component verdicts and the (V, E, F, components) counts as
    re-derived and as a parsed file's header claimed (None otherwise).
    When ok, sides[0][k] and sides[1][k] are the two darts of a side."""

    components: tuple[ComponentReport, ...]
    counts: tuple[int, int, int, int]
    header: tuple[int, int, int, int] | None = None
    sides: tuple[array, array] | None = field(default=None, compare=False, repr=False)

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
    Each call certifies q and stores the report on it.
    """
    spine, corners = q.spine, q.corners
    ndarts = len(corners)
    nfaces = ndarts // 4
    block_of, block_sizes, block_edges = _blocks(spine)
    nblocks = len(block_sizes)
    stray = nblocks - 1

    # Dart d = 4f + j runs along side j of face f, from corner d to
    # corner _fol(d) = 4f + (j + 1) % 4. A corner is an end of its
    # twin's link only when the twin lies in the component of the
    # corner's face: kept[d]. Corner 0 names that component, so it is
    # always kept.
    face_block = list(map(block_of.get, corners[0::4], repeat(stray)))
    kept = bytearray(b"\1") * ndarts
    for j in (1, 2, 3):
        kept[j::4] = bytes(map(eq, map(block_of.get, corners[j::4], repeat(stray)), face_block))

    # A face that repeats two neighbouring corners has a side (x, x),
    # which is never an edge; repeats across a diagonal are found here.
    simple = [True] * nblocks
    simple[stray] = False
    for b, x0, x1, x2, x3 in zip(face_block, *(corners[j::4] for j in range(4))):
        if x0 == x2 or x1 == x3:
            simple[b] = False

    # One sort groups the darts by side. The side {x, y}, x <= y, has
    # the key (x << bits) | y, and dart d along it sorts as
    # (key << (shift + 1)) | d, plus the bit down = 1 << shift unless d
    # runs up from x to y, x < y. Shifted right by one and cleared of
    # the copy bit of x, the key of each of the four interlacement
    # edges over a spine edge (u, v) becomes (u << bits) | v. While it
    # lives, this sorted list is the only list with an int per dart.
    bits = (2 * max(max(corners, default=0) >> 1, max(spine.vertices, default=0)) + 1).bit_length()
    clear_copy = ~(1 << (bits - 1))
    spine_keys = {(u << bits) | v for u, v in spine.edges}
    shift = ndarts.bit_length()
    mask = (1 << shift) - 1
    down = 1 << shift
    heads = chain.from_iterable(zip(*(corners[j::4] for j in (1, 2, 3, 0))))
    packed = [
        ((x << bits | y) << (shift + 1)) | d if x < y else ((y << bits | x) << (shift + 1)) | down | d
        for d, x, y in zip(count(), corners, heads)
    ]
    packed.sort()

    # Each run of one key holds the darts along one side. A clean pair
    # is a run of two darts running opposite ways along an interlacement
    # edge, both in faces of the edge's component: the columns first and
    # second hold its darts. Any other run is read dart by dart further
    # down. Two darts of one side differ only in the bits of down | mask,
    # and they run opposite ways when they differ in down.
    first = array("l")
    second = array("l")
    same_way: list[int] = []
    odd: list[tuple[int, int]] = []
    cuts = compress(count(1), map(gt, map(xor, packed, islice(packed, 1, None)), repeat(down | mask)))
    for s, t in pairwise(chain((0,), cuts, (ndarts,) if ndarts else ())):
        if t - s == 2:
            p, r = packed[s], packed[s + 1]
            d, e = p & mask, r & mask
            if (
                p ^ r > mask
                and ((p >> (shift + 2)) & clear_copy) in spine_keys
                and kept[d]
                and kept[e]
            ):
                first.append(d)
                second.append(e)
                continue
        odd.append((s, t))

    # Any other run: a side of another count, a non-edge, two darts
    # running the same way, or a dart in a face of another component.
    # Each dart keeps its corner at a and at b only where that twin is
    # in the dart's face's component; a node with two ends joins them,
    # and a node with another number breaks its link. An edge with two
    # sides in its component adds one orientation constraint:
    # (face, face, both sides run the same way, component).
    two_sided: Counter[int] = Counter()
    bad_node = [False] * nblocks
    joins: list[tuple[int, int]] = []
    constraints: list[tuple[int, int, bool, int]] = []
    for s, t in odd:
        key = packed[s] >> (shift + 1)
        a, b = key >> bits, key & ((1 << bits) - 1)
        ba, bb = block_of.get(a, stray), block_of.get(b, stray)
        edge = ((key >> 1) & clear_copy) in spine_keys
        at_a: list[int] = []
        at_b: list[int] = []
        forward: list[bool] = []
        for p in packed[s:t]:
            d = p & mask
            fb = face_block[d >> 2]
            if not edge:
                simple[fb] = False
            ca, cb = (d, _fol(d)) if corners[d] == a else (_fol(d), d)
            if fb == ba:
                at_a.append(ca)
                forward.append(ca == d)
            if fb == bb:
                at_b.append(cb)
        nodes = ((ba, at_a + at_b),) if a == b else ((ba, at_a), (bb, at_b))
        for bx, ends in nodes:
            if len(ends) == 2:
                joins.append((ends[0], ends[1]))
            elif ends:
                bad_node[bx] = True
        if edge and len(at_a) == 2:
            two_sided[ba] += 1
            constraints.append((at_a[0] >> 2, at_a[1] >> 2, forward[0] == forward[1], ba))
        if t - s == 2:
            same_way += (packed[s] & mask, packed[s + 1] & mask)
    del packed, odd, cuts
    pair_block = [face_block[d >> 2] for d in first]
    two_sided.update(pair_block)

    # The faces' own directions are the first flip witness: where every
    # two-sided edge of a component runs once each way, no face needs a
    # flip. Only the components with a two-sided edge run twice one way
    # are searched; a clean pair there asks its faces for equal flips.
    unwitnessed = {b for _, _, same, b in constraints if same}
    conflict = set()
    if unwitnessed:
        pairs = zip(first, second, pair_block)
        searched = ((d >> 2, e >> 2, False, b) for d, e, b in pairs if b in unwitnessed)
        conflict = _conflicts(nfaces, chain(searched, constraints))
    del pair_block

    # Link nodes (twin x, side at x) join the two corners at x of the
    # darts along the side. Joined corners share a twin, so each class
    # lies at one twin. The link of every twin is one cycle iff every
    # node has two ends and each twin of the component has exactly one
    # class of kept corners. The union-find list is made only now that
    # the sorted darts are gone.
    parent = list(range(ndarts))
    _join(parent, first, second, joins)
    roots = [c for c in compress(range(ndarts), map(eq, parent, range(ndarts))) if kept[c]]
    del parent
    classes = Counter(face_block[c >> 2] for c in roots)
    linked = Counter(block_of.get(x, stray) for x in {corners[c] for c in roots})

    face_counts = Counter(face_block)
    reports: list[ComponentReport] = []
    for b in range(nblocks if face_counts[stray] else stray):
        links = not bad_node[b] and classes[b] == linked[b] == block_sizes[b]
        edges_two_sided = two_sided[b] == block_edges[b]
        closed = simple[b] and edges_two_sided and links
        orientable = closed and b not in conflict
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
                links_single_cycle=links,
                orientable=orientable,
                genus=genus,
            )
        )
    counts = (2 * len(spine.vertices), 4 * len(spine.edges), nfaces, len(reports))
    # The test is SurfaceReport.ok, which makes every side a run of two
    # darts. The odd runs, which then run one way, join the columns only
    # now: _join and the flip search read them as opposite-way pairs.
    sides = None
    if reports and all(c.ok for c in reports) and q.header in (None, counts):
        first.extend(same_way[0::2])
        second.extend(same_way[1::2])
        sides = (first, second)
    report = SurfaceReport(components=tuple(reports), counts=counts, header=q.header, sides=sides)
    q.__dict__["_surface_report"] = report
    return report


def _certified(q: QuadEmbedding) -> SurfaceReport:
    """The report verify_surface stored on q (q is immutable), or a new one."""
    report = q.__dict__.get("_surface_report")
    return verify_surface(q) if report is None else report


def _blocks(spine: Graph) -> tuple[dict[int, int], list[int], list[int]]:
    """The interlacement's components read off the spine: the block of
    each twin, and each block's vertex and edge counts. A spine
    component with an edge is one block; an isolated spine vertex
    gives one block per twin. The last block, with no twin, collects
    faces whose first corner lies outside the interlacement."""
    block_of: dict[int, int] = {}
    sizes: list[int] = []
    edges: list[int] = []
    for comp in components(spine):
        if spine.degree(comp[0]):
            for v in comp:
                block_of[2 * v] = block_of[2 * v + 1] = len(sizes)
            sizes.append(2 * len(comp))
            edges.append(2 * sum(spine.degree(v) for v in comp))
        else:
            for x in (2 * comp[0], 2 * comp[0] + 1):
                block_of[x] = len(sizes)
                sizes.append(1)
                edges.append(0)
    sizes.append(0)
    edges.append(0)
    return block_of, sizes, edges


def _fol(d: int) -> int:
    """The dart after dart d = 4f + j around face f: 4f + (j + 1) % 4."""
    return d - 3 if d & 3 == 3 else d + 1


def _join(parent: list[int], first: array, second: array, joins: list[tuple[int, int]]) -> None:
    """Union-find over corners, halving paths. The darts of each clean
    pair (first[i], second[i]) run opposite ways, so each tail is joined
    with the other's head; each (u, v) in joins is joined as it is. The
    two joins of a pair are written out, which runs faster than any
    loop over them."""
    for d, e in zip(first, second):
        u, v = d, e - 3 if e & 3 == 3 else e + 1
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        parent[u] = v
        u, v = d - 3 if d & 3 == 3 else d + 1, e
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        parent[u] = v
    for u, v in joins:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        parent[u] = v


def _conflicts(nfaces: int, constraints: Iterable[tuple[int, int, bool, int]]) -> set[int]:
    """Components whose constraints (face, face, same direction,
    component) admit no flips, by union-find with parity over faces:
    two faces whose shared edge runs the same way must differ in flip."""
    parent = list(range(nfaces))
    parity = [0] * nfaces
    conflict: set[int] = set()
    for f1, f2, same, b in constraints:
        r1, p1 = _parity_root(parent, parity, f1)
        r2, p2 = _parity_root(parent, parity, f2)
        if r1 != r2:
            parent[r1] = r2
            parity[r1] = p1 ^ p2 ^ same
        elif p1 ^ p2 != same:
            conflict.add(b)
    return conflict


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
