import pytest

from spinalquad import (
    CapExceededError,
    ColoringError,
    FaceColoring,
    Graph,
    ParseError,
    VertexColoring,
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
    verify_proper_faces,
    verify_proper_vertices,
)

from helpers import (
    chromatic_brute,
    interlacement_chromatic_number,
    quad_sides,
    random_graph_no_isolated,
    random_tree,
)


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


# Clique bound 3, DSATUR's greedy coloring uses 4 colors, chi is 3: the
# search must improve on its first leaf and then stop at the clique bound.
DSATUR_SUBOPTIMAL = Graph(
    edges=[
        (0, 3), (0, 4), (0, 6), (1, 4), (1, 8), (2, 6), (3, 6), (3, 7),
        (3, 8), (4, 5), (4, 7), (5, 6), (5, 7), (5, 8), (7, 8),
    ]
)


def test_search_beats_the_greedy_coloring():
    chi, witness = chromatic_number_exact(DSATUR_SUBOPTIMAL)
    assert chi == chromatic_brute(DSATUR_SUBOPTIMAL) == 3
    assert witness == VertexColoring(
        colors={0: 0, 1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 0, 8: 2}, palette=3
    )
    assert verify_proper_vertices(DSATUR_SUBOPTIMAL, witness).ok


# The Groetzsch graph: triangle-free, chi 4, so after its first 4-coloring
# the search exhausts the tree and must keep that first one.
GROETZSCH = Graph(
    edges=[
        (0, 1), (0, 3), (0, 6), (0, 8), (1, 2), (1, 5), (1, 7), (2, 4), (2, 6), (2, 9),
        (3, 4), (3, 5), (3, 9), (4, 7), (4, 8), (5, 10), (6, 10), (7, 10), (8, 10), (9, 10),
    ]
)


def test_search_keeps_the_first_optimal_leaf():
    chi, witness = chromatic_number_exact(GROETZSCH)
    assert chi == chromatic_brute(GROETZSCH) == 4
    assert witness == VertexColoring(
        colors={0: 0, 1: 1, 2: 0, 3: 2, 4: 1, 5: 0, 6: 2, 7: 0, 8: 2, 9: 3, 10: 1}, palette=4
    )


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


def test_negative_cap_is_refused_before_the_graph_size():
    # Not a CapExceededError: the cap is out of range, whatever the graph.
    for g in (complete_graph(3), Graph()):
        with pytest.raises(ValueError, match="^negative vertex cap -1$") as exc:
            chromatic_number_exact(g, cap=-1)
        assert not isinstance(exc.value, CapExceededError)


def test_palette_bound_enforced_on_construction():
    with pytest.raises(ValueError):
        VertexColoring(colors={0: 2}, palette=2)
    with pytest.raises(ValueError):
        FaceColoring(colors={0: -1}, palette=2)
    # Fractional colors would all fit one palette slot and make a
    # monochrome edge pass as proper.
    with pytest.raises(ValueError, match="of 0 is not an int"):
        VertexColoring(colors={0: 0.5, 1: 0.25}, palette=1)
    with pytest.raises(ValueError, match="of 1 is not an int"):
        FaceColoring(colors={0: 0, 1: 0.5}, palette=2)
    with pytest.raises(ValueError, match="palette 2.0 is not an int"):
        VertexColoring(colors={0: 0, 1: 1}, palette=2.0)
    with pytest.raises(ValueError, match="palette 1.5 is not an int"):
        FaceColoring(colors={0: 0}, palette=1.5)


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
    assert interlacement_chromatic_number(spine) == chi


def test_chromatic_equality_on_petersen():
    assert interlacement_chromatic_number(petersen()) == 3


def test_face_coloring_uses_source_colors_and_is_proper():
    spine = complete_graph(3)
    q = quadrangulate(spine)
    chi, witness = chromatic_number_exact(spine)
    fc = face_coloring_from_sources(q, witness)
    assert fc.palette == chi == 3
    for fi, quad in enumerate(q.faces):
        assert fc.colors[fi] == witness.colors[quad[0] >> 1]
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
            assert q.faces[i][0] >> 1 != q.faces[j][0] >> 1


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
