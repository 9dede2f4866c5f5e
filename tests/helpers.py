"""Seeded generators and naive oracles shared across the test suite.

The oracles here are deliberately dumber than the library: exhaustive
coloring search with no bounds, rational Gaussian and dense Bareiss
elimination for matrix rank, dense boundary matrices read off the
simplices, the twin ``.edges`` text written out by hand, and the
three-pass surface verifier over face quads that the one-pass flat
verifier replaced.
They exist to cross-check the clever implementations.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations, count

from spinalquad import (
    ComponentReport,
    Graph,
    QuadEmbedding,
    RecipeError,
    SimplicialComplex,
    VertexColoring,
    chromatic_number_exact,
    components,
    interlace,
    lift_coloring,
    verify_proper_vertices,
)


def random_graph_no_isolated(seed: int, max_vertices: int = 10) -> Graph:
    """Seeded random graph, 2..max_vertices vertices, none isolated.

    Density varies with the seed, so the sample mixes connected and
    disconnected graphs. Isolated vertices are patched with one extra
    edge each.
    """
    rng = random.Random(seed)
    n = rng.randint(2, max_vertices)
    density = rng.uniform(0.12, 0.55)
    edges = {e for e in combinations(range(n), 2) if rng.random() < density}
    g = Graph(range(n), edges)
    for v in g.isolated_vertices():
        w = rng.choice([u for u in range(n) if u != v])
        edges.add((min(v, w), max(v, w)))
    return Graph(range(n), edges)


def random_tree(vertex_count: int, seed: int) -> Graph:
    """Uniform-attachment random tree on 0..vertex_count-1.

    Vertex v > 0 joins a parent drawn uniformly from 0..v-1, so the
    result is connected and acyclic by construction, and identical
    across runs with the same seed.
    """
    if vertex_count < 2:
        raise RecipeError(f"tree needs at least 2 vertices, got {vertex_count}")
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, vertex_count)]
    return Graph(edges=edges)


def random_spine(vertex_count: int, edge_count: int, seed: int) -> Graph:
    """Connected seeded spine: random_tree plus distinct random chords
    up to edge_count edges."""
    rng = random.Random(seed)
    edges = set(random_tree(vertex_count, seed).edges)
    while len(edges) < edge_count:
        u, v = sorted(rng.sample(range(vertex_count), 2))
        edges.add((u, v))
    return Graph(range(vertex_count), edges)


def greedy_coloring(g: Graph) -> VertexColoring:
    """Proper coloring by first fit in ascending vertex order."""
    colors: dict[int, int] = {}
    for v in g.vertices:
        taken = {colors[u] for u in g.neighbors(v) if u in colors}
        colors[v] = next(c for c in count() if c not in taken)
    return VertexColoring(colors=colors, palette=max(colors.values(), default=-1) + 1)


def random_two_complex(seed: int, max_vertices: int = 8) -> SimplicialComplex:
    """Seeded random 2-complex; faces imply their edges and vertices."""
    rng = random.Random(seed)
    n = rng.randint(1, max_vertices)
    edges = [e for e in combinations(range(n), 2) if rng.random() < 0.3]
    triangles = [t for t in combinations(range(n), 3) if rng.random() < 0.12]
    return SimplicialComplex(vertices=range(n), edges=edges, triangles=triangles)


def dense_boundary(k: int, sc: SimplicialComplex) -> list[list[int]]:
    """The k-th boundary matrix, k in {1, 2}, read off the simplices.

    Rows are the (k-1)-simplices and columns the k-simplices, both in
    sorted order. A row face lies in a column simplex when the simplex
    holds all its vertices; the entry is then (-1)^i, where i is the
    position in the ascending simplex of the one vertex the face drops.
    """
    rows = [(v,) for v in sc.vertices] if k == 1 else list(sc.edges)
    cols = sc.edges if k == 1 else sc.triangles

    def entry(face: tuple[int, ...], simplex: tuple[int, ...]) -> int:
        dropped = set(simplex) - set(face)
        return (-1) ** simplex.index(dropped.pop()) if len(dropped) == 1 else 0

    return [[entry(face, simplex) for simplex in cols] for face in rows]


def twin_edge_text(g: Graph) -> str:
    """The twin ``.edges`` text of a graph over encoded twin ids: a
    ``v <id>.<copy>`` line per isolated twin, then one line per edge."""
    def token(x: int) -> str:
        return f"{x // 2}.{x % 2}"

    lines = [f"v {token(x)}" for x in g.vertices if not g.neighbors(x)]
    lines += [f"{token(a)} {token(b)}" for a, b in g.edges]
    return "".join(line + "\n" for line in lines)


def colorable_brute(g: Graph, k: int) -> bool:
    order = list(g.vertices)
    colors: dict[int, int] = {}

    def place(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for c in range(k):
            if all(colors.get(u) != c for u in g.neighbors(v)):
                colors[v] = c
                if place(i + 1):
                    return True
                del colors[v]
        return False

    return place(0)


def chromatic_brute(g: Graph) -> int:
    """Chromatic number by plain depth-first search, no pruning.

    Keep inputs to at most 8 or so vertices.
    """
    if not g.vertices:
        return 0
    k = 1
    while not colorable_brute(g, k):
        k += 1
    return k


def interlacement_chromatic_number(spine: Graph) -> int:
    """The chromatic number of the spine, asserting that the
    interlacement has the same one.

    Upper bound: an optimal spine coloring lifts to a proper coloring
    of the interlacement with the same palette. Lower bound: the
    primed twins carry a copy of the spine.
    """
    inter = interlace(spine)
    chi, witness = chromatic_number_exact(spine)
    lifted = lift_coloring(inter, witness)
    assert lifted.palette == chi
    assert verify_proper_vertices(inter.graph, lifted).ok
    assert all(inter.graph.has_edge(2 * u, 2 * v) for u, v in spine.edges)
    return chi


def mutate_quad_text(text: str, action: str, index: int = 0) -> str:
    """Damage a well-formed quad file in a still-parseable way.

    Actions on face ``index``: ``delete`` drops it, ``duplicate``
    repeats it at the end, ``twinflip`` reverses its corner walk and
    toggles the twin mark of its new second corner. Verification must
    flag all three.
    """
    lines = text.strip().splitlines()
    header, faces = lines[0], lines[1:]
    if action == "delete":
        faces = faces[:index] + faces[index + 1 :]
    elif action == "duplicate":
        faces = faces + [faces[index]]
    elif action == "twinflip":
        tokens = faces[index].split()
        corners = tokens[:4]
        corners = [corners[0]] + corners[:0:-1]
        head, _, copy = corners[1].partition(".")
        corners[1] = f"{head}.{1 - int(copy)}"
        faces[index] = " ".join(corners + [tokens[4]])
    else:
        raise ValueError(f"unknown mutation {action!r}")
    return "\n".join([header] + faces) + "\n"


def seed_quad_text(spine: Graph, rotations: dict[int, tuple[int, ...]]) -> str:
    """The ``.quad`` text of the record-based construction: faces as
    (spine id, copy) pairs sorted by (source, corners), counts read off
    the built interlacement graph."""
    faces = []
    for v in spine.vertices:
        rot = rotations[v]
        for i in range(len(rot)):
            u, w = rot[i], rot[(i + 1) % len(rot)]
            corners = ((v, 0), (u, 0), (v, 1), (w, 1))
            faces.append((v, corners))
    faces.sort()
    graph = interlace(spine).graph
    ncomp = len(components(spine))
    lines = [f"quad {len(graph.vertices)} {len(graph.edges)} {len(faces)} {ncomp}"]
    for source, corners in faces:
        lines.append(" ".join(f"{c[0]}.{c[1]}" for c in corners) + f" src={source}")
    return "\n".join(lines) + "\n"


def quad_sides(quad: tuple[int, ...]) -> list[tuple[int, int]]:
    """The four sides of a face quad as undirected (low, high) pairs."""
    return [(min(a, b), max(a, b)) for a, b in zip(quad, quad[1:] + quad[:1])]


def oracle_face_adjacencies(q: QuadEmbedding) -> list[tuple[int, int, tuple[int, int]]]:
    """Face pairs meeting an edge, read off the face quads."""
    by_side: dict[tuple[int, int], list[int]] = {}
    for fi, quad in enumerate(q.faces):
        for side in quad_sides(quad):
            by_side.setdefault(side, []).append(fi)
    pairs = {
        (min(i, j), max(i, j), side)
        for side, faces in by_side.items()
        for i, j in combinations(faces, 2)
        if i != j
    }
    return sorted(pairs)


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
    faces = q.faces
    for fi in face_ids:
        ids = list(faces[fi])
        for a, b in zip(ids, ids[1:] + ids[:1]):
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


def oracle_verify_surface(q: QuadEmbedding) -> tuple[ComponentReport, ...]:
    """Per-component verdicts of the three-pass verifier over face quads
    and the built interlacement graph: a main loop, then a link pass
    and an orientation pass per component.

    Components are those of the interlacement graph; a face belongs to
    the component of its first corner, which must lie in that graph.
    """
    graph = q.interlacement.graph
    blocks = components(graph)
    block_of: dict[int, int] = {}
    for bi, block in enumerate(blocks):
        for v in block:
            block_of[v] = bi

    edge_set = set(graph.edges)
    faces = q.faces
    faces_by_block: list[list[int]] = [[] for _ in blocks]
    for fi, quad in enumerate(faces):
        faces_by_block[block_of[quad[0]]].append(fi)
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
            ids = list(faces[fi])
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
    return tuple(reports)


def rank_by_fractions(rows: list[list[int]]) -> int:
    """Matrix rank over the rationals by textbook elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        lead = m[rank][col]
        for r in range(n_rows):
            if r != rank and m[r][col] != 0:
                factor = m[r][col] / lead
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def matrix_rank_exact(rows: list[list[int]]) -> int:
    """Matrix rank over the rationals by dense one-step fraction-free
    (Bareiss) elimination: every intermediate entry is an exact integer,
    every division is exact, and the pivot count is the rank."""
    m = [row[:] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    prev = 1
    for c in range(ncols):
        pivot_row = next((i for i in range(rank, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        for i in range(rank + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[i][j] * m[rank][c] - m[i][c] * m[rank][j]) // prev
            m[i][c] = 0
        prev = m[rank][c]
        rank += 1
        if rank == nrows:
            break
    return rank


def rank_mod_2(rows: list[list[int]]) -> int:
    """Matrix rank over GF(2), rows packed into int bitmasks. An
    elimination that only ever pivots on +1 or -1 is also valid mod 2,
    so where this is below the rational rank, some pivot cannot be a
    unit."""
    basis: dict[int, int] = {}
    for row in rows:
        bits = sum(1 << j for j, x in enumerate(row) if x % 2)
        while bits:
            top = bits.bit_length() - 1
            if top not in basis:
                basis[top] = bits
                break
            bits ^= basis[top]
    return len(basis)


def grid_torus(a: int) -> SimplicialComplex:
    """The a-by-a triangulated grid with both directions wrapped plainly
    (a >= 3): a torus, rational Betti numbers (1, 2, 1)."""

    def at(i: int, j: int) -> int:
        return (i % a) * a + j % a

    return SimplicialComplex(
        triangles=[
            t
            for i in range(a)
            for j in range(a)
            for t in ((at(i, j), at(i + 1, j), at(i + 1, j + 1)), (at(i, j), at(i, j + 1), at(i + 1, j + 1)))
        ]
    )


def suspended_sphere(length: int) -> SimplicialComplex:
    """The suspension of a ``length``-cycle (length >= 3): the cycle on
    0..length-1 coned off to two apexes, a sphere with rational Betti
    numbers (1, 0, 1)."""
    return SimplicialComplex(
        triangles=[(apex, i, (i + 1) % length) for apex in (length, length + 1) for i in range(length)]
    )


def relabelled(sc: SimplicialComplex, seed: int) -> SimplicialComplex:
    """The complex with its vertex ids sent, by a seeded injection, to
    distinct ids drawn from a range four times its vertex count, so
    the sorted order of the simplices changes."""
    rng = random.Random(seed)
    ids = dict(zip(sc.vertices, rng.sample(range(4 * len(sc.vertices)), len(sc.vertices))))
    return SimplicialComplex(
        vertices=ids.values(),
        edges=[(ids[a], ids[b]) for a, b in sc.edges],
        triangles=[(ids[a], ids[b], ids[c]) for a, b, c in sc.triangles],
    )


def twisted_grid_klein_bottle(a: int) -> SimplicialComplex:
    """The a-by-a triangulated grid glued into a Klein bottle (a >= 5):
    the i-direction wraps plainly and the j-direction wraps with i
    reflected. Rational Betti numbers (1, 1, 0); its integral H1 has a
    Z/2, so its triangle boundary has no unit-only elimination."""

    def at(i: int, j: int) -> int:
        if j == a:
            i, j = -i, 0
        return (i % a) * a + j

    return SimplicialComplex(
        triangles=[
            t
            for i in range(a)
            for j in range(a)
            for t in ((at(i, j), at(i + 1, j), at(i + 1, j + 1)), (at(i, j), at(i, j + 1), at(i + 1, j + 1)))
        ]
    )
