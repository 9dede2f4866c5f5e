"""Quadrilateral embeddings of interlacements, built from rotation systems.

A rotation system assigns each spine vertex a cyclic order of its
neighbors; it is the free parameter of the construction, so different
rotations give genuinely different embeddings of the same
interlacement. The face rule is fixed once and for all:

    for spine vertex v with rotation (u_0, ..., u_{d-1}), emit for
    each index i the quadrilateral

        (v', u_i', v'', u_{i+1 mod d}'')

    with source v, where x' is the primed and x'' the double-primed
    twin of x.

For a degree-1 vertex the rule collapses to the single merged face
(v', u', v'', u''). Opposite corners 0 and 2 of every emitted face are
the twins of its source. The construction never trusts itself: the
surface module re-certifies every output combinatorially.

An embedding is stored flat: the spine and a ``corners`` tuple holding
four encoded twin ids (``2 * spine_id + copy``) per face. A face's
source is the vertex of its corner 0, so it is never stored; a
``.quad`` file's ``src=`` label is a claim the parser checks against
it. ``faces`` (the corners grouped four to a face) and
``interlacement`` are read-only views derived on access; building,
printing, parsing and verifying never need either.

Counting consequences, for every rotation system: the face list has
2E faces over the 2V vertices and 4E edges of the interlacement, and
every interlacement edge lies on exactly two face sides.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .graph import Graph, ParseError, _decimal, _records, components
from .interlace import Interlacement, _tokens_of, _TwinIds, interlace

# Cyclic neighbor order per spine vertex; each value is a permutation
# of the vertex's neighbor tuple.
RotationSystem = dict[int, tuple[int, ...]]


class IsolatedVertexError(ValueError):
    """An isolated spine vertex has no tube to attach; named in the message."""


class RotationError(ValueError):
    """A rotation system does not match the spine's neighbor sets."""


@dataclass(frozen=True)
class QuadEmbedding:
    """A spine together with its flat quadrilateral face list.

    ``corners`` holds four encoded twin ids per face, in cyclic order;
    face f's source spine vertex is ``corners[4 * f] >> 1``. ``header``
    is the ``(V, E, F, components)`` claim of a parsed ``.quad`` file,
    and None for an embedding built in memory.
    """

    spine: Graph
    corners: tuple[int, ...]
    header: tuple[int, int, int, int] | None = None

    def __post_init__(self) -> None:
        if len(self.corners) % 4:
            raise ValueError(f"{len(self.corners)} corners; need four per face")
        if min(self.corners, default=0) < 0:
            raise ValueError("negative twin id among the corners")

    @property
    def faces(self) -> tuple[tuple[int, int, int, int], ...]:
        """The corners grouped four to a face, built on each access."""
        return tuple(zip(*[iter(self.corners)] * 4))

    @cached_property
    def interlacement(self) -> Interlacement:
        return interlace(self.spine)


def default_rotations(spine: Graph) -> RotationSystem:
    """Each vertex's neighbors in ascending id order."""
    return {v: spine.neighbors(v) for v in spine.vertices}


def permute_rotations(rotations: RotationSystem, seed: int) -> RotationSystem:
    """Replace each rotation by a seeded pseudorandom permutation.

    Deterministic for a fixed seed: vertices are visited in ascending
    order and shuffled by one seeded generator. A negative seed raises
    ValueError: ``random.Random`` seeds from the absolute value, so
    ``-s`` would silently repeat seed ``s``.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"negative rotation seed {seed}")
    rng = random.Random(seed)
    out: RotationSystem = {}
    for v in sorted(rotations):
        order = list(rotations[v])
        rng.shuffle(order)
        out[v] = tuple(order)
    return out


def quadrangulate(spine: Graph, rotations: RotationSystem | None = None) -> QuadEmbedding:
    """Build the quadrilateral embedding of the spine's interlacement.

    Applies the face rule at every spine vertex, visiting rotations in
    ascending vertex order. The face list is sorted by (source id,
    corner sequence), so output is byte-identical across runs.

    Raises ValueError for the empty spine, IsolatedVertexError for
    spines with isolated vertices and RotationError when ``rotations``
    does not match the neighbor sets. Disconnected spines are fine;
    each spine component yields one surface component.
    """
    if not spine.vertices:
        raise ValueError("the spine has no vertices")
    isolated = spine.isolated_vertices()
    if isolated:
        raise IsolatedVertexError(f"vertex {isolated[0]} is isolated")
    if rotations is None:
        rotations = default_rotations(spine)
    # Each twin id is made once, in primed or double_primed, and shared
    # by every corner it names.
    primed = {v: 2 * v for v in spine.vertices}
    if rotations.keys() != primed.keys():
        missing = sorted(set(spine.vertices) - set(rotations))
        extra = sorted(set(rotations) - set(spine.vertices))
        raise RotationError(f"rotation vertices mismatch: missing {missing}, extra {extra}")
    double_primed = {v: 2 * v + 1 for v in spine.vertices}

    # Every face of v reads (2v, 2u, 2v + 1, 2w + 1) for consecutive
    # rotation entries (u, w). Encoded ids order like twin pairs and
    # the entries of a rotation are distinct, so taking the faces in
    # ascending u, the order of v's neighbors, sorts them by corner
    # sequence. No face is returned unless every rotation is a
    # permutation of its vertex's neighbors.
    corners: list[int] = []
    for v in spine.vertices:
        rot = rotations[v]
        neighbors = spine.neighbors(v)
        if tuple(sorted(rot)) != neighbors:
            raise RotationError(f"rotation at vertex {v} is not a permutation of its neighbors")
        after = dict(zip(rot, rot[1:] + rot[:1]))
        x, y = primed[v], double_primed[v]
        for u in neighbors:
            corners += (x, primed[u], y, double_primed[after[u]])
    return QuadEmbedding(spine=spine, corners=tuple(corners))


def format_quad(q: QuadEmbedding) -> str:
    """Emit the ``.quad`` format.

    Header ``quad <V> <E> <F> <components>`` with the interlacement's
    vertex and edge counts (twice and four times the spine's), then one
    line per face: four corner tokens followed by ``src=<id>``, the
    vertex of corner 0.
    """
    spine, corners = q.spine, q.corners
    ncomp = len(components(spine))
    lines = [f"quad {2 * len(spine.vertices)} {4 * len(spine.edges)} {len(corners) // 4} {ncomp}"]
    token = _tokens_of(set(corners))
    ids = iter(map(token.__getitem__, corners))
    for first, a, b, c, d in zip(corners[0::4], ids, ids, ids, ids):
        lines.append(f"{a} {b} {c} {d} src={first >> 1}")
    return "\n".join(lines) + "\n"


def parse_quad(text: str) -> QuadEmbedding:
    """Parse a ``.quad`` file back into an embedding.

    The spine is reconstructed from the faces: corner projections give
    the spine vertices, and face sides with distinct projections give
    the spine edges. A face's ``src=`` label must name the vertex of its
    corner 0, or the line is refused; nothing else is read from it. The
    header counts are kept as a claim for the verifier to check, not
    trusted. Sides joining the two twins of one vertex are never
    interlacement edges, so they are left for the verifier to flag.
    """
    corners: list[int] = []
    # Each distinct twin token and each distinct ``src=`` token is
    # validated once; twin_ids reads a twin token on its first lookup.
    twin_ids = _TwinIds()
    source_ids: dict[str, int] = {}
    header: tuple[int, int, int, int] | None = None
    for lineno, tokens in _records(text):
        if tokens[0] == "quad":
            if header is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            if len(tokens) != 5:
                raise ParseError(f"line {lineno}: header needs 4 counts")
            v, e, f, c = (_decimal(t, lineno, "header count") for t in tokens[1:])
            header = (v, e, f, c)
            continue
        if len(tokens) != 5 or not tokens[4].startswith("src="):
            raise ParseError(
                f"line {lineno}: expected four corner tokens followed by 'src=<id>'"
            )
        twin_ids.lineno = lineno
        x = twin_ids[tokens[0]]
        corners += (x, twin_ids[tokens[1]], twin_ids[tokens[2]], twin_ids[tokens[3]])
        source = source_ids.get(tokens[4])
        if source is None:
            source = source_ids[tokens[4]] = _decimal(tokens[4][len("src="):], lineno, "source id")
        if source != x >> 1:
            raise ParseError(
                f"line {lineno}: src={source} is not {x >> 1}, the vertex of corner 0"
            )
    if header is None:
        raise ParseError("missing 'quad' header line")

    # The spine is rebuilt from one int per distinct twin, so no int is
    # kept per corner; the token tables are dropped first. Each dart
    # runs from corner j to corner (j + 1) % 4 of its face, and its
    # spine pair is kept once, as the int key (low << bits) | high; a
    # dart joining the two twins of one vertex is no spine edge, so it
    # is skipped and left for the verifier to flag. The keys are read
    # back through vertices, one int per vertex. Graph checks the rest.
    vertex_of = {x: x >> 1 for x in twin_ids.values()}
    del twin_ids, source_ids
    vertices = {v: v for v in set(vertex_of.values())}
    bits = max(vertices, default=0).bit_length()
    it = iter(corners)
    heads = chain.from_iterable(map(operator.itemgetter(1, 2, 3, 0), zip(it, it, it, it)))
    ends = zip(map(vertex_of.__getitem__, corners), map(vertex_of.__getitem__, heads))
    keys = list({u << bits | w if u < w else w << bits | u for u, w in ends if u != w})
    del vertex_of, it, heads, ends
    low = (1 << bits) - 1
    pairs = ((vertices[k >> bits], vertices[k & low]) for k in keys)
    return QuadEmbedding(spine=Graph(vertices, pairs), corners=tuple(corners), header=header)
