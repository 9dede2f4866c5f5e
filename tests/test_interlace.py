import pytest

from spinalquad import (
    Graph,
    ParseError,
    complete_graph,
    format_twin_edge_list,
    interlace,
    parse_quad,
    parse_twin_edge_list,
)

from helpers import random_graph_no_isolated


def test_twin_token_round_trip():
    # ``<id>.<copy>`` reads as 2 * id + copy, in both twin formats.
    assert parse_twin_edge_list("7.1 0.0\n").edges == ((0, 15),)
    assert format_twin_edge_list(Graph(edges=[(0, 15)])) == "0.0 7.1\n"
    q = parse_quad("quad 4 4 1 1\n0.0 1.0 0.1 1.1 src=0\n")
    assert q.corners == (0, 2, 1, 3)


MALFORMED_TWINS = {
    "7": "expected twin token '<id>.0' or '<id>.1', got '7'",
    "7.2": "expected twin token '<id>.0' or '<id>.1', got '7.2'",
    "x.0": "expected decimal id in twin token 'x.0'",
    "7.": "expected twin token '<id>.0' or '<id>.1', got '7.'",
    ".1": "expected decimal id in twin token '.1'",
    "-1.0": "negative vertex id in twin token '-1.0'",
    "7.1.0": "expected twin token '<id>.0' or '<id>.1', got '7.1.0'",
}


@pytest.mark.parametrize("token", MALFORMED_TWINS)
def test_twin_token_rejects_malformed(token):
    # The same checks and messages in both twin formats, with the line.
    message = MALFORMED_TWINS[token]
    with pytest.raises(ParseError) as edges:
        parse_twin_edge_list(f"0.0 1.0\n0.1 {token}\n")
    assert str(edges.value) == f"line 2: {message}"
    with pytest.raises(ParseError) as quad:
        parse_quad(f"quad 4 4 2 1\n0.0 1.0 0.1 1.1 src=0\n1.0 {token} 1.1 0.1 src=1\n")
    assert str(quad.value) == f"line 3: {message}"


def test_interlacement_of_single_edge_is_a_four_cycle():
    inter = interlace(Graph(edges=[(0, 1)]))
    g = inter.graph
    assert len(g.vertices) == 4
    assert len(g.edges) == 4
    assert all(g.degree(v) == 2 for v in g.vertices)


def test_counting_doubles_vertices_and_quadruples_edges():
    for seed in range(15):
        spine = random_graph_no_isolated(seed)
        g = interlace(spine).graph
        assert len(g.vertices) == 2 * len(spine.vertices)
        assert len(g.edges) == 4 * len(spine.edges)


def test_twins_never_adjacent():
    for seed in range(15):
        spine = random_graph_no_isolated(seed)
        g = interlace(spine).graph
        for v in spine.vertices:
            assert not g.has_edge(2 * v, 2 * v + 1)


def test_twin_degrees_double_spine_degrees():
    spine = Graph(edges=[(0, 1), (0, 2), (0, 3), (2, 3)])
    g = interlace(spine).graph
    for v in spine.vertices:
        assert g.degree(2 * v) == 2 * spine.degree(v)
        assert g.degree(2 * v + 1) == 2 * spine.degree(v)


@pytest.mark.parametrize("n", range(2, 7))
def test_complete_spine_gives_complete_multipartite(n):
    """Doubling K_n must yield the complete n-partite graph with all
    parts of size two: every pair is joined except the twin pairs."""
    g = interlace(complete_graph(n)).graph
    expected = {
        (a, b)
        for a in range(2 * n)
        for b in range(a + 1, 2 * n)
        if a // 2 != b // 2
    }
    assert set(g.edges) == expected


def test_isolated_spine_vertex_yields_isolated_twins():
    inter = interlace(Graph(vertices=[5], edges=[(0, 1)]))
    assert set(inter.graph.isolated_vertices()) == {10, 11}


def test_twin_edge_list_round_trip():
    for seed in range(10):
        g = interlace(random_graph_no_isolated(seed)).graph
        assert parse_twin_edge_list(format_twin_edge_list(g)) == g


def test_twin_edge_list_round_trips_isolated_twins():
    g = interlace(Graph(vertices=[3], edges=[(0, 1)])).graph
    text = format_twin_edge_list(g)
    assert "v 3.0" in text
    assert parse_twin_edge_list(text) == g
