import pytest

from spinalquad import (
    Graph,
    ParseError,
    TwinVertex,
    complete_graph,
    decode_twin,
    encode_twin,
    format_twin_edge_list,
    interlace,
    parse_twin_edge_list,
    parse_twin_token,
    twin_token,
)

from helpers import random_graph_no_isolated


def test_twin_encoding_round_trip():
    for spine_id in range(40):
        for copy in (0, 1):
            tv = TwinVertex(spine_id, copy)
            assert decode_twin(encode_twin(tv)) == tv


def test_twin_token_round_trip():
    assert twin_token(TwinVertex(7, 1)) == "7.1"
    assert parse_twin_token("7.1") == TwinVertex(7, 1)
    assert parse_twin_token("0.0") == TwinVertex(0, 0)


@pytest.mark.parametrize("token", ["7", "7.2", "x.0", "7.", ".1", "-1.0", "7.1.0"])
def test_twin_token_rejects_malformed(token):
    with pytest.raises(ParseError):
        parse_twin_token(token)


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
