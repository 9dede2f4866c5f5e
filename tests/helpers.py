"""Seeded generators and naive oracles shared across the test suite.

The oracles here are deliberately dumber than the library: exhaustive
coloring search with no bounds, rational Gaussian elimination for
matrix rank, and the three-pass surface verifier over face quads that
the one-pass flat verifier replaced. They exist to cross-check
the clever implementations.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations

from spinalquad import (
    ComponentReport,
    Graph,
    QuadEmbedding,
    SimplicialComplex,
    components,
    interlace,
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


def random_two_complex(seed: int, max_vertices: int = 8) -> SimplicialComplex:
    """Seeded random 2-complex; faces imply their edges and vertices."""
    rng = random.Random(seed)
    n = rng.randint(1, max_vertices)
    edges = [e for e in combinations(range(n), 2) if rng.random() < 0.3]
    triangles = [t for t in combinations(range(n), 3) if rng.random() < 0.12]
    return SimplicialComplex(vertices=range(n), edges=edges, triangles=triangles)


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
