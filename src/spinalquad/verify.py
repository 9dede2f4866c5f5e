"""Certify that a quadrilateral face complex is a closed orientable surface.

This module is the oracle side of the toolkit. It imports no
constructor and never looks at how an embedding was built, only at
the flat corner array and the spine, and re-derives every property
combinatorially. The interlacement is read off the spine rather than
built: a side (a, b) is an edge iff (a >> 1, b >> 1) is a spine edge.

The face sides are darts, one per face and position, grouped by side
by sorting packed ints (the dart technique of combinatorial maps;
Lando & Zvonkin, Graphs on Surfaces and Their Applications, 2004). A
side met by exactly two darts running opposite ways, both in faces of
the edge's own component, is a clean pair and is read in columns;
every other side (another count, a non-edge, two darts running the
same way, a dart in a face of another component) is read dart by dart
in the same pass. On a certified surface every side has two darts, so
the pass pairs them all (the map's involution alpha); the report keeps
that pairing and is stored on the embedding, for the face checks to
read.

The pass is lean in memory. A large surface has its packed darts
filed in arrays of machine words by key range and sorted one bucket of
about 8k darts at a time, so a list with a Python int per dart never
holds more than about two buckets; a small one, or one whose keys do
not fit a machine word, is sorted in one list. Each sorted list is
checked against the keys of the spine edges it can lie over, not a set
of every spine edge. The other per-dart columns are a bytearray (which
corners count) or arrays of machine words (the clean pairs), and the
dart after a dart is computed rather than stored. When every side is
a clean pair the vertex links are walked as the cycles of a
permutation over an array and a bytearray; only a surface with other
sides builds a union-find list over its corners.
The checks, in order:

  (a) every face is a simple 4-cycle of the interlacement;
  (b) every interlacement edge carries exactly two face sides;
  (c) the link of every vertex is a single closed cycle, which rules
      out pinch points (a two-node link with two parallel edges, the
      bigon left by a degree-1 spine vertex, counts as one cycle):
      each link node (vertex x, neighbour y) must meet exactly two
      corners at x, and joining the corners that share a link node
      must leave one class per vertex;
  (d) the faces admit boundary directions traversing each edge once in
      each direction. The faces' own directions are tried first: a
      component whose two-sided edges all run once each way needs no
      flip. Only a component where that fails, and that is closed so
      far, is searched, by union-find with parity over its faces, one
      constraint per two-sided edge;
  (e) per-component genus from the Euler characteristic.

Genus is only ever reported for a component that passed closedness and
orientability; all failures are verdicts, not exceptions. A report
with no component fails, and so does a parsed file whose header claims
other (V, E, F, components) counts than the ones re-derived.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain, compress, count, islice, pairwise, repeat
from operator import eq, gt, itemgetter, xor

from .embed import QuadEmbedding
from .graph import Graph, components

# A surface of at least _BUCKETED darts has them sorted in buckets of
# about _BUCKET darts each (see _sorted_darts); a smaller one has them
# sorted in one list, which costs less time.
_BUCKETED = 1 << 15
_BUCKET = 1 << 13


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
    it = iter(corners)
    for b, x0, x1, x2, x3 in zip(face_block, it, it, it, it):
        if x0 == x2 or x1 == x3:
            simple[b] = False

    # Sorting groups the darts by side. The side {x, y}, x <= y, has
    # the key (x << bits) | y, and dart d along it sorts as
    # (key << (shift + 1)) | d, plus the bit down = 1 << shift unless d
    # runs up from x to y, x < y. Shifted right by one and cleared of
    # the copy bit of x, the key of each of the four interlacement
    # edges over a spine edge (u, v) becomes (u << bits) | v.
    bits = (2 * max(max(corners, default=0) >> 1, max(spine.vertices, default=0)) + 1).bit_length()
    clear_copy = ~(1 << (bits - 1))
    shift = ndarts.bit_length()
    mask = (1 << shift) - 1
    down = 1 << shift

    # Each run of one key holds the darts along one side. A clean pair
    # is a run of two darts running opposite ways along an interlacement
    # edge, both in faces of the edge's component: the columns first and
    # second hold its darts. Any other run is kept for the pass below,
    # with whether it lies over a spine edge. Two darts of one side
    # differ only in the bits of down | mask, and they run opposite
    # ways when they differ in down. Each sorted list is checked
    # against the keys of the spine edges (u, v) whose u lies between
    # the spine ids of its first and last sides' lower twins, so no
    # set of every spine edge is made.
    edges = spine.edges
    first = array("l")
    second = array("l")
    odd: list[tuple[list[int], bool]] = []
    for packed in _sorted_darts(corners, bits, shift):
        if not packed:
            continue
        low = bisect_left(edges, (packed[0] >> (shift + bits + 2),))
        high = bisect_left(edges, ((packed[-1] >> (shift + bits + 2)) + 1,))
        spine_keys = {(u << bits) | v for u, v in edges[low:high]}
        cuts = compress(count(1), map(gt, map(xor, packed, islice(packed, 1, None)), repeat(down | mask)))
        for s, t in pairwise(chain((0,), cuts, (len(packed),))):
            p = packed[s]
            edge = ((p >> (shift + 2)) & clear_copy) in spine_keys
            if t - s == 2 and edge:
                r = packed[s + 1]
                d, e = p & mask, r & mask
                if p ^ r > mask and kept[d] and kept[e]:
                    first.append(d)
                    second.append(e)
                    continue
            odd.append((packed[s:t], edge))
    packed = cuts = spine_keys = None  # the last list goes too

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
    same_way: list[int] = []
    for run, edge in odd:
        key = run[0] >> (shift + 1)
        a, b = key >> bits, key & ((1 << bits) - 1)
        ba, bb = block_of.get(a, stray), block_of.get(b, stray)
        at_a: list[int] = []
        at_b: list[int] = []
        forward: list[bool] = []
        for p in run:
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
        if len(run) == 2:
            same_way += (run[0] & mask, run[1] & mask)
    clean = not odd
    del odd
    pair_block = [face_block[d >> 2] for d in first]
    two_sided.update(pair_block)

    # The faces' own directions are the first flip witness: where every
    # two-sided edge of a component runs once each way, no face needs a
    # flip. Only the components with a two-sided edge run twice one way
    # are searched, and only those that are closed so far: a component
    # with a face that is not simple or an edge without two sides is
    # not orientable whatever the search finds, and a constraint ties
    # faces of one component only. A clean pair in a searched component
    # asks its faces for equal flips.
    unwitnessed = {
        b for _, _, same, b in constraints if same and simple[b] and two_sided[b] == block_edges[b]
    }
    conflict = set()
    if unwitnessed:
        pairs = zip(first, second, pair_block)
        searched = chain(
            ((d >> 2, e >> 2, False, b) for d, e, b in pairs if b in unwitnessed),
            (c for c in constraints if c[3] in unwitnessed),
        )
        conflict = _conflicts(nfaces, searched)
    del pair_block

    # Link nodes (twin x, side at x) join the two corners at x of the
    # darts along the side. Joined corners share a twin, so each class
    # lies at one twin. The link of every twin is one cycle iff every
    # node has two ends and each twin of the component has exactly one
    # class of kept corners. Where every run is a clean pair, every
    # corner is kept and the classes are the cycles of a permutation,
    # walked in _cycle_roots; otherwise union-find joins them.
    if clean:
        roots = _cycle_roots(first, second, ndarts)
    else:
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


def _sorted_darts(corners: tuple[int, ...], bits: int, shift: int) -> Iterator[list[int]]:
    """The darts packed as verify_surface reads them, in ascending
    order, as one or more sorted lists; the darts of a side are always
    in one list.

    A large surface whose packed darts fit a machine word first files
    them in arrays ("cells") by the range of their side's lower twin,
    about eight cells per _BUCKET darts over the twins' actual range.
    Consecutive cells, up to _BUCKET darts (or one larger cell), are
    then sorted into one list at a time, and each cell is let go as its
    list is made. So the lists of ints that live at once hold about
    two buckets of darts, not all of them.
    """
    sh, down = shift + 1, 1 << shift
    if len(corners) < _BUCKETED or 2 * bits + sh > 63:
        heads = chain.from_iterable(zip(*(corners[j::4] for j in (1, 2, 3, 0))))
        packed = [
            ((x << bits | y) << sh) | d if x < y else ((y << bits | x) << sh) | down | d
            for d, x, y in zip(count(), corners, heads)
        ]
        packed.sort()
        yield packed
        return
    lo, hi = min(corners), max(corners)
    s = ((hi - lo) // (8 * len(corners) // _BUCKET)).bit_length()
    cells = [array("q") for _ in range(((hi - lo) >> s) + 1)]
    file = [cell.append for cell in cells]
    # The head of dart 4f + j is corner (j + 1) % 4 of face f.
    it = iter(corners)
    heads = chain.from_iterable(map(itemgetter(1, 2, 3, 0), zip(it, it, it, it)))
    for d, x, y in zip(count(), corners, heads):
        if x < y:
            file[(x - lo) >> s](((x << bits | y) << sh) | d)
        else:
            file[(y - lo) >> s](((y << bits | x) << sh) | down | d)
    del file
    cells.reverse()
    while cells:
        group = [cells.pop()]
        size = len(group[0])
        while cells and size + len(cells[-1]) <= _BUCKET:
            size += len(cells[-1])
            group.append(cells.pop())
        yield sorted(chain.from_iterable(group))


def _cycle_roots(first: array, second: array, ndarts: int) -> list[int]:
    """One corner of each link class when every dart is in a clean
    pair (first[i], second[i]): the pairs make the full involution
    alpha, and corner c is joined with sigma(c) = _fol(alpha(c)) and
    nothing else, so the classes are the cycles of the permutation
    sigma. Each cycle is walked from its least corner, found as the
    next unseen one."""
    sigma = array("l", [0]) * ndarts
    for d, e in zip(first, second):
        sigma[d] = e - 3 if e & 3 == 3 else e + 1
        sigma[e] = d - 3 if d & 3 == 3 else d + 1
    seen = bytearray(ndarts)
    roots: list[int] = []
    root = seen.find(0)
    while root >= 0:
        roots.append(root)
        c = root
        while not seen[c]:
            seen[c] = 1
            c = sigma[c]
        root = seen.find(0, root)
    return roots


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
