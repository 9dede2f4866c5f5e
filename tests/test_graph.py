import pytest

from spinalquad import (
    Graph,
    ParseError,
    components,
    cycle_rank,
    format_edge_list,
    parse_complex,
    parse_edge_list,
    parse_quad,
    parse_twin_edge_list,
    parse_vertex_coloring,
)


def test_edges_normalize_and_register_endpoints():
    g = Graph(edges=[(2, 1), (1, 2), (0, 2)])
    assert g.edges == ((0, 2), (1, 2))
    assert g.vertices == (0, 1, 2)


def test_explicit_vertices_survive_without_edges():
    g = Graph(vertices=[3, 1], edges=[(1, 2)])
    assert g.vertices == (1, 2, 3)
    assert g.isolated_vertices() == (3,)


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        Graph(edges=[(4, 4)])


def test_negative_ids_rejected():
    with pytest.raises(ValueError):
        Graph(vertices=[-1])
    with pytest.raises(ValueError):
        Graph(edges=[(-1, 2)])


def test_neighbors_sorted_and_degrees():
    g = Graph(edges=[(0, 3), (0, 1), (0, 2)])
    assert g.neighbors(0) == (1, 2, 3)
    assert g.degree(0) == 3
    assert g.degree(2) == 1


def test_has_edge_symmetric():
    g = Graph(edges=[(0, 1)])
    assert g.has_edge(0, 1)
    assert g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert not g.has_edge(7, 8)


def test_graph_equality_and_hash():
    a = Graph(edges=[(0, 1), (1, 2)])
    b = Graph(vertices=[2, 1, 0], edges=[(2, 1), (1, 0)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Graph(edges=[(0, 1)])


def test_components_ordered_by_smallest_member():
    g = Graph(vertices=[9], edges=[(4, 5), (0, 1), (1, 2)])
    assert components(g) == [(0, 1, 2), (4, 5), (9,)]


@pytest.mark.parametrize(
    "edges, rank",
    [
        ([(0, 1), (1, 2), (2, 3)], 0),
        ([(0, 1), (1, 2), (0, 2)], 1),
        ([(i, j) for i in range(4) for j in range(i + 1, 4)], 3),
        ([(0, 1), (1, 2), (0, 2), (3, 4)], 1),
        ([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], 2),
    ],
)
def test_cycle_rank(edges, rank):
    assert cycle_rank(Graph(edges=edges)) == rank


EDGE_FILE = """\
# a two-part graph with one loner
0 1
1 2

v 7
"""


def test_parse_edge_list_handles_comments_blanks_and_vertex_lines():
    g = parse_edge_list(EDGE_FILE)
    assert g.vertices == (0, 1, 2, 7)
    assert g.edges == ((0, 1), (1, 2))


def test_parse_edge_list_collapses_duplicates():
    g = parse_edge_list("0 1\n1 0\nv 0\n")
    assert g.edges == ((0, 1),)


def test_format_then_parse_round_trips():
    g = Graph(vertices=[5], edges=[(0, 1), (3, 1)])
    assert parse_edge_list(format_edge_list(g)) == g
    assert format_edge_list(Graph()) == ""


def test_format_edge_list_is_sorted_and_newline_terminated():
    text = format_edge_list(Graph(vertices=[9], edges=[(3, 1), (0, 1)]))
    assert text == "v 9\n0 1\n1 3\n"


@pytest.mark.parametrize(
    "text",
    ["0 x", "-1 2", "0 1 2", "v", "v 1 2", "3 3", "v -4"],
)
def test_parse_edge_list_rejects_malformed_lines(text):
    with pytest.raises(ParseError):
        parse_edge_list(text)


def test_parse_errors_name_the_line():
    with pytest.raises(ParseError, match="line 3"):
        parse_edge_list("0 1\n1 2\n2 banana\n")


def test_only_newline_crlf_and_cr_end_a_line():
    # A form feed or NEL inside a comment stays comment text, and line
    # numbers are the ones an editor shows.
    assert parse_edge_list("0 1 # old edge was\x0c3 4\n").edges == ((0, 1),)
    with pytest.raises(ParseError, match=r"^line 3: "):
        parse_edge_list("0 1\r\n1 2 # note\x85 and \u2028 more\r2 banana\n")


# Per text format: two well-formed lines, then one malformed line per
# fault the format can have. A .quad side between the twins of one
# vertex is left for the verifier, and a colouring has no edges, so
# neither has a self-loop case.
PARSERS = {
    "edges": (parse_edge_list, ("0 1", "v 5"), {
        "bad": "0 x", "arity": "0 1 2", "negative": "0 -1", "self_loop": "2 2",
    }),
    "twin_edges": (parse_twin_edge_list, ("0.0 1.1", "v 5.1"), {
        "bad": "0.0 x", "arity": "0.0 1.0 2.0", "negative": "0.0 -1.0", "self_loop": "2.1 2.1",
    }),
    "complex": (parse_complex, ("0 1 2", "3"), {
        "bad": "0 x", "arity": "0 1 2 3", "negative": "0 -1", "self_loop": "2 2",
    }),
    "quad": (parse_quad, ("quad 4 8 2 1", "0.0 1.0 0.1 1.1 src=0"), {
        "bad": "0.0 x 0.1 1.1 src=0",
        "arity": "0.0 1.0 0.1 src=0",
        "negative": "0.0 -1.0 0.1 1.1 src=0",
    }),
    "coloring": (parse_vertex_coloring, ("colors 3", "0 2"), {
        "bad": "0 x", "arity": "0 1 2", "negative": "0 -1", "header": "colors ²",
    }),
}


def with_preamble(first, second, last):
    """``last`` as line 6, after a comment-only, a blank and a
    whitespace-only line, ``first`` ended by CRLF and ``second``
    tab-separated with a trailing comment."""
    tabbed = second.replace(" ", "\t")
    return f"# only a comment\n\n  \t \n{first}\r\n{tabbed}  # trailing comment\n{last}\n"


@pytest.mark.parametrize(
    "fmt, fault",
    [(fmt, fault) for fmt, (_, _, faults) in PARSERS.items() for fault in faults],
)
def test_parsers_name_the_line_after_comments_blanks_crlf_and_tabs(fmt, fault):
    parse, (first, second), faults = PARSERS[fmt]
    parse(with_preamble(first, second, second))
    with pytest.raises(ParseError, match=r"^line 6: "):
        parse(with_preamble(first, second, faults[fault]))
