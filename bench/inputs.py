"""Seeded input generators and the answers their construction fixes.

Nothing here imports spinalquad: every input is built from a
``random.Random`` seeded by the caller, and every expected answer
(cycle rank, component count, chromatic number, Betti numbers, vertex
floors, rejection of damaged files) follows from how the input was
built, never from the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt

Edge = tuple[int, int]


class Mismatch(Exception):
    """A job's output differs from the answer its input was built to have."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise Mismatch(what)


@dataclass(frozen=True)
class Spine:
    """A generated spine with the invariants its construction fixes.

    ``blocks`` lists (vertex count, edge count) per connected block in
    ascending order of the block's smallest vertex, which is the order
    the surface components come out in. ``colors`` is the planted
    proper colouring; ``chi`` is exact because every block with
    palette k contains a k-clique.
    """

    edges: tuple[Edge, ...]
    colors: tuple[int, ...]
    chi: int
    blocks: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return sum(b[0] for b in self.blocks)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def comp(self) -> int:
        return len(self.blocks)

    @property
    def hand(self) -> int:
        return self.m - self.n + self.comp


def _block(rng: random.Random, n: int, m: int, k: int, offset: int) -> tuple[set[Edge], list[int]]:
    # Planted k-colouring (class i % k), a k-clique on the first k
    # vertices, a random spanning tree across classes, then chords
    # across classes until m edges or the complete k-partite graph.
    colors = [i % k for i in range(n)]
    edges = {(i, j) for i in range(k) for j in range(i + 1, k)}
    for v in range(k, n):
        u = rng.randrange(v)
        while colors[u] == colors[v]:
            u = rng.randrange(v)
        edges.add((u, v))
    sizes = [colors.count(c) for c in range(k)]
    capacity = n * (n - 1) // 2 - sum(s * (s - 1) // 2 for s in sizes)
    while len(edges) < min(m, capacity):
        a, b = rng.randrange(n), rng.randrange(n)
        if colors[a] != colors[b]:
            edges.add((min(a, b), max(a, b)))
    return {(a + offset, b + offset) for a, b in edges}, colors


def planted_spine(rng: random.Random, blocks: list[tuple[int, int, int]]) -> Spine:
    """Disjoint union of planted blocks, each given as (n, m, k), k >= 2."""
    edges: set[Edge] = set()
    colors: list[int] = []
    shape = []
    for n, m, k in blocks:
        block_edges, block_colors = _block(rng, n, m, k, len(colors))
        edges |= block_edges
        colors.extend(block_colors)
        shape.append((n, len(block_edges)))
    return Spine(tuple(sorted(edges)), tuple(colors), max(b[2] for b in blocks), tuple(shape))


def small_spine(rng: random.Random, n: int) -> Spine:
    """Random spine on n >= 4 vertices, none isolated. About half of
    them split into two or three blocks of at least four vertices."""
    sizes = [4] * min(rng.choice((1, 1, 2, 3)), n // 4)
    for _ in range(n - 4 * len(sizes)):
        sizes[rng.randrange(len(sizes))] += 1
    blocks = []
    for size in sizes:
        k = rng.randint(2, 4)
        tree = size - k + k * (k - 1) // 2
        blocks.append((size, tree + rng.randint(0, 2 * size), k))
    return planted_spine(rng, blocks)


def random_spine(rng: random.Random, n: int, m: int) -> Spine:
    """Connected spine: a uniform-attachment random tree plus random
    chords up to m edges. No colouring is planted (``chi`` is 0)."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return Spine(tuple(sorted(edges)), (), 0, ((n, m),))


def mycielski(k: int) -> Spine:
    """Mycielski graph M_k (M_2 = K_2), triangle-free with chromatic number k."""
    n, edges = 2, [(0, 1)]
    for _ in range(k - 2):
        edges = edges + [(u, n + v) for a, b in edges for u, v in ((a, b), (b, a))]
        edges += [(n + i, 2 * n) for i in range(n)]
        n = 2 * n + 1
    norm = tuple(sorted((min(a, b), max(a, b)) for a, b in edges))
    return Spine(norm, (), k, ((n, len(norm)),))


def edge_list_text(rng: random.Random, edges: tuple[Edge, ...]) -> str:
    """``.edges`` text with lines shuffled and endpoints in random order."""
    lines = [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in edges]
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def coloring_text(colors: tuple[int, ...]) -> str:
    """A vertex colouring in the ``colors <k>`` file format."""
    lines = [f"colors {max(colors) + 1}"] + [f"{v} {c}" for v, c in enumerate(colors)]
    return "\n".join(lines) + "\n"


def _complex_text(rng: random.Random, triangles: list[tuple[int, int, int]], nverts: int) -> str:
    label = list(range(nverts))
    rng.shuffle(label)
    lines = []
    for t in triangles:
        corners = [label[x] for x in t]
        rng.shuffle(corners)
        lines.append(" ".join(map(str, corners)))
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def torus_text(rng: random.Random, a: int) -> str:
    """``.sc`` text of the a-by-a triangulated torus (a >= 3), labels shuffled.

    Betti numbers (1, 2, 1)."""

    def at(i: int, j: int) -> int:
        return (i % a) * a + (j % a)

    triangles = []
    for i in range(a):
        for j in range(a):
            triangles.append((at(i, j), at(i + 1, j), at(i + 1, j + 1)))
            triangles.append((at(i, j), at(i, j + 1), at(i + 1, j + 1)))
    return _complex_text(rng, triangles, a * a)


def sphere_text(rng: random.Random, length: int) -> str:
    """``.sc`` text of the suspension of a ``length``-cycle, labels shuffled.

    Betti numbers (1, 0, 1)."""
    triangles = [
        (apex, i, (i + 1) % length) for apex in (length, length + 1) for i in range(length)
    ]
    return _complex_text(rng, triangles, length + 2)


def tamper(quad_text: str, action: str, index: int) -> str:
    """Damage face ``index`` of a ``.quad`` text, keeping it parseable.

    ``delete`` drops the face, ``duplicate`` repeats it, and
    ``twinflip`` reverses its corner walk and toggles the copy mark of
    its new second corner. Each leaves some edge with other than two
    face sides, so a correct verifier rejects all three.
    """
    header, *faces = quad_text.strip().split("\n")
    face = faces[index]
    if action == "delete":
        faces = faces[:index] + faces[index + 1 :]
    elif action == "duplicate":
        faces = faces + [face]
    elif action == "twinflip":
        *corners, src = face.split()
        corners = [corners[0]] + corners[:0:-1]
        head, _, copy = corners[1].partition(".")
        corners[1] = f"{head}.{1 - int(copy)}"
        faces[index] = " ".join(corners + [src])
    else:
        raise ValueError(f"unknown tampering {action!r}")
    return "\n".join([header] + faces) + "\n"


TAMPERINGS = ("delete", "duplicate", "twinflip")

# Two disjoint triangles: a quad file with one component's faces
# dropped must not verify, since its header still claims two.
TWO_TRIANGLES: tuple[Edge, ...] = ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5))


def drop_sources(quad_text: str, sources: set[int]) -> str:
    """Remove every face line whose ``src=`` label is in ``sources``."""
    header, *faces = quad_text.strip().split("\n")
    keep = [f for f in faces if int(f.rsplit("src=", 1)[1]) not in sources]
    return "\n".join([header] + keep) + "\n"


def quad_header(spine: Spine) -> str:
    """The header the counting identities fix: 2n vertices, 4m edges,
    2m faces, one surface component per spine block."""
    return f"quad {2 * spine.n} {4 * spine.m} {2 * spine.m} {spine.comp}"


def recipe_box() -> list[tuple[int, int, int]]:
    """Every feasible (genus, palette, quad vertices) with genus <= 6,
    palette <= 5 and quad vertices <= 28, by the documented rules."""
    box = []
    for g in range(7):
        for k in range(2, 6):
            for p in range(4, 29, 2):
                if k == 2 and g != 0:
                    continue
                if k >= 3 and 2 * g < (k - 1) * (k - 2):
                    continue
                if p < 4 * g - 2 * (k * k - 4 * k + 2):
                    continue
                box.append((g, k, p))
    return box


def min_quad_vertices_closed_form(genus: int) -> int:
    """Least V with V*V - 5V + 8 - 8*genus >= 0, from the larger root
    (5 + sqrt(32*genus - 7)) / 2 by integer square root."""
    v = (5 + isqrt(32 * genus - 7)) // 2
    while v * v - 5 * v + 8 - 8 * genus < 0:
        v += 1
    return v


def minimality_expectation(n: int, m: int) -> tuple[int, int, bool, bool] | None:
    """(genus, vertex bound, sufficient, minimal) for K_n minus an
    m-clique, or None where the genus is below 1 and a refusal is due."""
    genus = ((n - 1) * (n - 2) - m * (m - 1)) // 2
    if genus < 1:
        return None
    bound = min_quad_vertices_closed_form(genus)
    return genus, bound, n >= 4 + 2 * m * (m - 1), 2 * n == bound
