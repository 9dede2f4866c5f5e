import pytest

from spinalquad import (
    CapExceededError,
    ColoringError,
    FaceColoring,
    Graph,
    ParseError,
    VertexColoring,
    chromatic_equality_check,
    chromatic_number_exact,
    complete_graph,
    complete_minus_clique,
    face_adjacencies,
    face_coloring_from_sources,
    format_face_coloring,
    format_vertex_coloring,
    interlace,
    lift_coloring,
    parse_vertex_coloring,
    quadrangulate,
    random_tree,
    verify_proper_faces,
    verify_proper_vertices,
)

from helpers import chromatic_brute, quad_sides, random_graph_no_isolated


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(edges=outer + inner + spokes)


@pytest.mark.parametrize("n", range(2, 8))
def test_complete_graphs_need_n_colors(n):
    chi, witness = chromatic_number_exact(complete_graph(n))
    assert chi == n
    assert verify_proper_vertices(complete_graph(n), witness).ok


def test_trees_need_two_colors():
    for seed in range(8):
        t = random_tree(2 + seed, seed)
        chi, witness = chromatic_number_exact(t)
        assert chi == 2
        assert verify_proper_vertices(t, witness).ok


def test_petersen_needs_three_colors():
    chi, witness = chromatic_number_exact(petersen())
    assert chi == 3
    assert verify_proper_vertices(petersen(), witness).ok


@pytest.mark.parametrize("n, m", [(4, 2), (5, 2), (6, 3), (7, 3), (6, 2)])
def test_clique_deleted_graphs(n, m):
    g = complete_minus_clique(n, m)
    chi, _ = chromatic_number_exact(g)
    assert chi == n - m + 1


def test_odd_cycle_needs_three_colors():
    g = Graph(edges=[(i, (i + 1) % 5) for i in range(5)])
    assert chromatic_number_exact(g)[0] == 3


def test_edge_cases_of_the_solver():
    assert chromatic_number_exact(Graph())[0] == 0
    assert chromatic_number_exact(Graph(vertices=[4]))[0] == 1
    assert chromatic_number_exact(Graph(vertices=[1, 5, 9]))[0] == 1


def test_solver_matches_brute_force():
    for seed in range(25):
        g = random_graph_no_isolated(seed, max_vertices=7)
        assert chromatic_number_exact(g)[0] == chromatic_brute(g)


def test_witness_is_canonical_and_deterministic():
    g = petersen()
    _, a = chromatic_number_exact(g)
    _, b = chromatic_number_exact(g)
    assert a == b
    seen: list[int] = []
    for v in g.vertices:
        c = a.colors[v]
        if c not in seen:
            seen.append(c)
    # First occurrences must appear in increasing order.
    assert seen == sorted(seen)


def test_cap_refusal_never_heuristic():
    big = Graph(vertices=range(25))
    with pytest.raises(CapExceededError):
        chromatic_number_exact(big)
    chi, _ = chromatic_number_exact(big, cap=25)
    assert chi == 1


def test_palette_bound_enforced_on_construction():
    with pytest.raises(ValueError):
        VertexColoring(colors={0: 2}, palette=2)
    with pytest.raises(ValueError):
        FaceColoring(colors={0: -1}, palette=2)


def test_lift_gives_twins_equal_colors_and_stays_proper():
    spine = complete_graph(3)
    inter = interlace(spine)
    lifted = lift_coloring(inter, VertexColoring(colors={0: 0, 1: 1, 2: 2}, palette=3))
    assert lifted.palette == 3
    for encoded, color in lifted.colors.items():
        assert color == lifted.colors[2 * (encoded >> 1)]
    assert verify_proper_vertices(inter.graph, lifted).ok


def test_lift_rejects_improper_input_with_edge():
    inter = interlace(complete_graph(3))
    with pytest.raises(ColoringError, match=r"\(0, 1\)"):
        lift_coloring(inter, VertexColoring(colors={0: 0, 1: 0, 2: 1}, palette=2))


@pytest.mark.parametrize(
    "spine, chi",
    [
        (complete_graph(5), 5),
        (Graph(edges=[(0, 1), (1, 2), (2, 3)]), 2),
    ],
)
def test_chromatic_equality_fixtures(spine, chi):
    report = chromatic_equality_check(interlace(spine))
    assert report.ok
    assert report.chromatic_number == chi
    assert report.lift_proper and report.contains_spine_copy


def test_chromatic_equality_on_petersen():
    report = chromatic_equality_check(interlace(petersen()))
    assert report.ok
    assert report.chromatic_number == 3


def test_face_coloring_uses_source_colors_and_is_proper():
    spine = complete_graph(3)
    q = quadrangulate(spine)
    chi, witness = chromatic_number_exact(spine)
    fc = face_coloring_from_sources(q, witness)
    assert fc.palette == chi == 3
    for fi, source in enumerate(q.sources):
        assert fc.colors[fi] == witness.colors[source]
    assert verify_proper_faces(q, fc).ok


def test_tree_faces_two_colorable():
    t = random_tree(9, 4)
    q = quadrangulate(t)
    chi, witness = chromatic_number_exact(t)
    assert chi == 2
    assert verify_proper_faces(q, face_coloring_from_sources(q, witness)).ok


def test_face_coloring_rejects_improper_spine_coloring():
    q = quadrangulate(complete_graph(3))
    with pytest.raises(ColoringError):
        face_coloring_from_sources(q, VertexColoring(colors={0: 0, 1: 0, 2: 1}, palette=2))


def test_monochrome_faces_reported_with_shared_edge():
    q = quadrangulate(complete_graph(3))
    fc = FaceColoring(colors={i: 0 for i in range(len(q.faces))}, palette=1)
    report = verify_proper_faces(q, fc)
    assert not report.ok
    i, j, shared = report.violation
    assert shared in set(quad_sides(q.faces[i])) & set(quad_sides(q.faces[j]))


def test_missing_assignments_rejected():
    g = Graph(edges=[(0, 1)])
    with pytest.raises(ColoringError):
        verify_proper_vertices(g, VertexColoring(colors={0: 0}, palette=1))
    q = quadrangulate(g)
    with pytest.raises(ColoringError):
        verify_proper_faces(q, FaceColoring(colors={0: 0}, palette=1))


def test_same_source_faces_never_adjacent():
    for seed in range(10):
        q = quadrangulate(random_graph_no_isolated(seed))
        for i, j, _ in face_adjacencies(q):
            assert q.sources[i] != q.sources[j]


COLOR_FILE = """\
# palette then assignments
colors 3
0 0
1 2
# trailing report keys are ignored
chi=3
"""


def test_parse_vertex_coloring():
    c = parse_vertex_coloring(COLOR_FILE)
    assert c.palette == 3
    assert c.colors == {0: 0, 1: 2}


def test_coloring_round_trip():
    c = VertexColoring(colors={0: 1, 3: 0, 7: 2}, palette=3)
    assert parse_vertex_coloring(format_vertex_coloring(c)) == c


def test_missing_header_infers_palette():
    c = parse_vertex_coloring("0 0\n1 4\n")
    assert c.palette == 5


def test_format_face_coloring_tokens():
    fc = FaceColoring(colors={0: 1, 1: 0}, palette=2)
    assert format_face_coloring(fc) == "colors 2\nf0 1\nf1 0\n"


@pytest.mark.parametrize(
    "text",
    ["colors x", "colors 2 3", "0 1 2", "0 x", "-1 0", "0 -1", "colors 1\n0 1"],
)
def test_parse_vertex_coloring_rejects(text):
    with pytest.raises(ParseError):
        parse_vertex_coloring(text)
