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

Counting consequences, for every rotation system: the face list has
2E faces over the 2V vertices and 4E edges of the interlacement, and
every interlacement edge lies on exactly two face sides.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import Graph, ParseError, _strip_comment, components
from .interlace import (
    Interlacement,
    TwinVertex,
    encode_twin,
    interlace,
    parse_twin_token,
    twin_token,
)

# Cyclic neighbor order per spine vertex; each value is a permutation
# of the vertex's neighbor tuple.
RotationSystem = dict[int, tuple[int, ...]]


class IsolatedVertexError(ValueError):
    """An isolated spine vertex has no tube to attach; named in the message."""


class RotationError(ValueError):
    """A rotation system does not match the spine's neighbor sets."""


Corners = tuple[TwinVertex, TwinVertex, TwinVertex, TwinVertex]


@dataclass(frozen=True)
class QuadFace:
    """One quadrilateral, as a cyclic corner sequence plus its source.

    For constructed faces the corners start at the source's primed
    twin, so corners 0 and 2 are the source's twins. Faces loaded from
    a file keep whatever corner rotation the file used.
    """

    corners: Corners
    source: int

    def sides(self) -> tuple[tuple[int, int], ...]:
        """The four boundary edges as undirected encoded pairs."""
        ids = [encode_twin(c) for c in self.corners]
        return tuple(
            (min(a, b), max(a, b)) for a, b in zip(ids, ids[1:] + ids[:1])
        )

    def directed_sides(self) -> tuple[tuple[int, int], ...]:
        """The four boundary edges in corner order, as encoded pairs."""
        ids = [encode_twin(c) for c in self.corners]
        return tuple(zip(ids, ids[1:] + ids[:1]))


@dataclass(frozen=True)
class QuadEmbedding:
    """An interlacement together with its quadrilateral face list."""

    interlacement: Interlacement
    faces: tuple[QuadFace, ...]

    @property
    def spine(self) -> Graph:
        return self.interlacement.spine

    def spine_components(self) -> list[tuple[int, ...]]:
        return components(self.spine)


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

    Raises IsolatedVertexError for spines with isolated vertices and
    RotationError when ``rotations`` does not match the neighbor sets.
    Disconnected spines are fine; each spine component yields one
    surface component.
    """
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

    faces: list[QuadFace] = []
    for v in spine.vertices:
        rot = rotations[v]
        d = len(rot)
        for i in range(d):
            u, w = rot[i], rot[(i + 1) % d]
            corners = (
                TwinVertex(v, 0),
                TwinVertex(u, 0),
                TwinVertex(v, 1),
                TwinVertex(w, 1),
            )
            faces.append(QuadFace(corners=corners, source=v))
    faces.sort(key=lambda f: (f.source, f.corners))
    return QuadEmbedding(interlacement=interlace(spine), faces=tuple(faces))


def format_quad(q: QuadEmbedding) -> str:
    """Emit the ``.quad`` format.

    Header ``quad <V> <E> <F> <components>`` with the interlacement's
    vertex and edge counts, then one line per face: four corner tokens
    followed by ``src=<id>``.
    """
    graph = q.interlacement.graph
    ncomp = len(q.spine_components())
    lines = [f"quad {len(graph.vertices)} {len(graph.edges)} {len(q.faces)} {ncomp}"]
    for face in q.faces:
        corners = " ".join(twin_token(c) for c in face.corners)
        lines.append(f"{corners} src={face.source}")
    return "\n".join(lines) + "\n"


def parse_quad(text: str) -> QuadEmbedding:
    """Parse a ``.quad`` file back into an embedding.

    The spine is reconstructed from the faces: corner projections (and
    source labels) give the spine vertices, and face sides with
    distinct projections give the spine edges. The header counts are
    not trusted; a face list that does not cover a full interlacement
    simply fails surface verification later. Sides joining the two
    twins of one vertex are never interlacement edges, so they are
    left for the verifier to flag.
    """
    faces: list[QuadFace] = []
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "quad":
            if header_seen:
                raise ParseError(f"line {lineno}: duplicate header")
            if len(tokens) != 5:
                raise ParseError(f"line {lineno}: header needs 4 counts")
            try:
                [int(t) for t in tokens[1:]]
            except ValueError:
                raise ParseError(f"line {lineno}: header counts must be integers") from None
            header_seen = True
            continue
        if len(tokens) != 5 or not tokens[4].startswith("src="):
            raise ParseError(
                f"line {lineno}: expected four corner tokens followed by 'src=<id>'"
            )
        corners = tuple(parse_twin_token(t, lineno) for t in tokens[:4])
        try:
            source = int(tokens[4][len("src="):])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed source label {tokens[4]!r}") from None
        if source < 0:
            raise ParseError(f"line {lineno}: negative source id")
        faces.append(QuadFace(corners=corners, source=source))  # type: ignore[arg-type]
    if not header_seen:
        raise ParseError("missing 'quad' header line")

    spine_vertices = {f.source for f in faces}
    spine_edges: set[tuple[int, int]] = set()
    for face in faces:
        for c in face.corners:
            spine_vertices.add(c.spine_id)
        cs = list(face.corners)
        for a, b in zip(cs, cs[1:] + cs[:1]):
            if a.spine_id != b.spine_id:
                spine_edges.add((min(a.spine_id, b.spine_id), max(a.spine_id, b.spine_id)))
    spine = Graph(spine_vertices, spine_edges)
    return QuadEmbedding(interlacement=interlace(spine), faces=tuple(faces))
