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

An embedding is stored flat: the spine, a ``corners`` tuple holding
four encoded twin ids (``2 * spine_id + copy``) per face, and a
``sources`` tuple holding one source id per face. ``faces`` (the
corners grouped four to a face) and ``interlacement`` are read-only
views derived from those on access; building, printing, parsing and
verifying never need either.

Counting consequences, for every rotation system: the face list has
2E faces over the 2V vertices and 4E edges of the interlacement, and
every interlacement edge lies on exactly two face sides.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .graph import Graph, ParseError, _decimal, _records, components
from .interlace import Interlacement, _tokens_of, _twin_id, interlace

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
    ``sources`` holds each face's source spine vertex. ``header`` is the
    ``(V, E, F, components)`` claim of a parsed ``.quad`` file, and None
    for an embedding built in memory.
    """

    spine: Graph
    corners: tuple[int, ...]
    sources: tuple[int, ...]
    header: tuple[int, int, int, int] | None = None

    def __post_init__(self) -> None:
        if len(self.corners) != 4 * len(self.sources):
            raise ValueError(
                f"{len(self.corners)} corners for {len(self.sources)} faces; need four per face"
            )
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
    order and shuffled by one seeded generator.
    """
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
    if set(rotations) != set(spine.vertices):
        missing = sorted(set(spine.vertices) - set(rotations))
        extra = sorted(set(rotations) - set(spine.vertices))
        raise RotationError(f"rotation vertices mismatch: missing {missing}, extra {extra}")
    for v in spine.vertices:
        if tuple(sorted(rotations[v])) != spine.neighbors(v):
            raise RotationError(f"rotation at vertex {v} is not a permutation of its neighbors")

    # Every face of v reads (2v, 2u, 2v + 1, 2w + 1) for consecutive
    # rotation entries (u, w), so sorting the (u, w) pairs sorts the
    # faces by corner sequence, as encoded ids order like twin pairs.
    corners: list[int] = []
    sources: list[int] = []
    for v in spine.vertices:
        rot = rotations[v]
        for u, w in sorted(zip(rot, rot[1:] + rot[:1])):
            corners += (2 * v, 2 * u, 2 * v + 1, 2 * w + 1)
        sources += [v] * len(rot)
    return QuadEmbedding(spine=spine, corners=tuple(corners), sources=tuple(sources))


def format_quad(q: QuadEmbedding) -> str:
    """Emit the ``.quad`` format.

    Header ``quad <V> <E> <F> <components>`` with the interlacement's
    vertex and edge counts (twice and four times the spine's), then one
    line per face: four corner tokens followed by ``src=<id>``.
    """
    spine = q.spine
    ncomp = len(components(spine))
    lines = [f"quad {2 * len(spine.vertices)} {4 * len(spine.edges)} {len(q.sources)} {ncomp}"]
    token = _tokens_of(set(q.corners))
    ids = iter(map(token.__getitem__, q.corners))
    for source, a, b, c, d in zip(q.sources, ids, ids, ids, ids):
        lines.append(f"{a} {b} {c} {d} src={source}")
    return "\n".join(lines) + "\n"


def parse_quad(text: str) -> QuadEmbedding:
    """Parse a ``.quad`` file back into an embedding.

    The spine is reconstructed from the faces: corner projections (and
    source labels) give the spine vertices, and face sides with
    distinct projections give the spine edges. The header counts are
    kept as a claim for the verifier to check, not trusted. Sides
    joining the two twins of one vertex are never interlacement edges,
    so they are left for the verifier to flag.
    """
    corners: list[int] = []
    sources: list[int] = []
    # Each distinct twin token and each distinct ``src=`` token is
    # validated once.
    twin_ids: dict[str, int] = {}
    lookup = twin_ids.get
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
        quad = (lookup(tokens[0]), lookup(tokens[1]), lookup(tokens[2]), lookup(tokens[3]))
        if None in quad:
            quad = tuple(_twin_id(twin_ids, token, lineno) for token in tokens[:4])
        corners += quad
        source = source_ids.get(tokens[4])
        if source is None:
            source = source_ids[tokens[4]] = _decimal(tokens[4][len("src="):], lineno, "source id")
        sources.append(source)
    if header is None:
        raise ParseError("missing 'quad' header line")

    # Each dart runs from corner j to corner j + 1 of its face, so
    # ``heads`` is the corner list shifted by one within each face. The
    # spine pair of a dart is kept once, low end first; a dart joining
    # the two twins of one vertex is no spine edge, so it is skipped
    # and left for the verifier to flag. Graph checks the rest.
    ids = [x >> 1 for x in corners]
    heads = ids[1:] + ids[:1]
    heads[3::4] = ids[0::4]
    pairs = {(u, w) if u < w else (w, u) for u, w in zip(ids, heads) if u != w}
    spine = Graph(set(ids).union(sources), pairs)
    return QuadEmbedding(
        spine=spine, corners=tuple(corners), sources=tuple(sources), header=header
    )
