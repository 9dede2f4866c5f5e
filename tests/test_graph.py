import random
import re

import pytest

from spinalquad import (
    Graph,
    ParseError,
    components,
    cycle_rank,
    default_rotations,
    format_edge_list,
    format_quad,
    format_twin_edge_list,
    interlace,
    parse_complex,
    parse_edge_list,
    parse_quad,
    parse_vertex_coloring,
    permute_rotations,
    quadrangulate,
)

from helpers import random_graph_no_isolated


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


@pytest.mark.parametrize(
    "vertices, edges",
    [((), [(0, 1.9)]), ((), [("2", 3)]), ((2.0,), ()), (("7",), [(0, 1)])],
)
def test_non_integer_ids_rejected_not_truncated(vertices, edges):
    with pytest.raises(TypeError):
        Graph(vertices=vertices, edges=edges)


def test_neighbors_sorted_and_degrees():
    g = Graph(edges=[(0, 3), (0, 1), (0, 2)])
    assert g.neighbors(0) == (1, 2, 3)
    assert g.degree(0) == 3
    assert g.degree(2) == 1
    # Vertex 4 is the higher end of some edges and the lower of others.
    g = Graph(edges=[(4, 9), (2, 4), (7, 4), (4, 0), (5, 4), (4, 3)])
    assert g.neighbors(4) == (0, 2, 3, 5, 7, 9)
    assert g.neighbors(9) == (4,)


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


# Per text format: three well-formed lines, then one malformed line per
# fault the format can have, which takes the place of the third. A .quad
# side between the twins of one vertex is left for the verifier, and a
# colouring has no edges, so neither has a self-loop case. The
# non_decimal lines put each spelling of NON_DECIMAL into each integer
# slot of the format in turn.
NON_DECIMAL = ("+1", "1_0", "-0", "\u0663", "\u00b2", "\uff11")  # ٣ ² １
# More digits than int() converts by default (sys.get_int_max_str_digits).
TOO_LONG = "1" * 5000
PARSERS = {
    "edges": (parse_edge_list, ("0 1", "v 5", "v 5"), {
        "bad": "0 x", "arity": "0 1 2", "negative": "0 -1", "self_loop": "2 2",
        "non_decimal": ("0 {}", "v {}"), "too_long": f"0 {TOO_LONG}",
    }),
    "complex": (parse_complex, ("0 1 2", "3", "3"), {
        "bad": "0 x", "arity": "0 1 2 3", "negative": "0 -1", "self_loop": "2 2",
        "non_decimal": ("0 {} 2",), "too_long": f"0 {TOO_LONG}",
    }),
    # The header comes last, so that a faulty header is the only one. A
    # src= label is compared with corner 0 as an integer: src=01 is 1.
    "quad": (parse_quad, ("0.0 1.0 0.1 1.1 src=0", "1.0 0.0 1.1 0.1 src=01", "quad 4 8 2 1"), {
        "bad": "0.0 x 0.1 1.1 src=0",
        "arity": "0.0 1.0 0.1 src=0",
        "negative": "0.0 -1.0 0.1 1.1 src=0",
        "non_decimal": ("0.0 {}.0 0.1 1.1 src=0", "0.0 1.0 0.1 1.1 src={}", "quad {} 8 2 1", "quad 4 8 2 {}"),
        "too_long": f"0.0 1.0 0.1 1.1 src={TOO_LONG}",
        "too_long_twin": f"0.0 {TOO_LONG}.0 0.1 1.1 src=0",
        "mislabelled": "0.0 1.0 0.1 1.1 src=1",
    }),
    "coloring": (parse_vertex_coloring, ("colors 3", "0 2", "0 2"), {
        "bad": "0 x", "arity": "0 1 2", "negative": "0 -1", "header": "colors ²",
        "non_decimal": ("{} 2", "0 {}", "colors {}"), "too_long": f"colors {TOO_LONG}",
        "recolored": "0 1", "duplicate_header": "colors 3", "outside_palette": "1 3",
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
    parse, (first, second, last), faults = PARSERS[fmt]
    parse(with_preamble(first, second, last))
    if fault != "non_decimal":
        with pytest.raises(ParseError, match=r"^line 6: "):
            parse(with_preamble(first, second, faults[fault]))
        return
    for template in faults[fault]:
        for spelling in NON_DECIMAL:
            with pytest.raises(ParseError, match=rf"^line 6: (expected decimal|negative) .*{re.escape(spelling)}"):
                parse(with_preamble(first, second, template.format(spelling)))


def _assert_same_graph(got: Graph, want: Graph) -> None:
    assert got.vertices == want.vertices
    assert got.edges == want.edges
    for v in want.vertices:
        assert got.neighbors(v) == want.neighbors(v)


def _shifted(g: Graph, offset: int) -> Graph:
    return Graph([v + offset for v in g.vertices], [(u + offset, v + offset) for u, v in g.edges])


def test_graphs_built_sorted_match_the_validating_constructor():
    # interlace builds its graph sorted and unchecked, and parse_quad
    # rebuilds the spine from its corners; the same vertices and edges
    # through Graph(...) must agree.
    big = 10**12
    split = 0
    for seed in range(24):
        rng = random.Random(seed)
        spine = random_graph_no_isolated(seed, max_vertices=9)
        if seed % 3 == 1:
            spine = _shifted(spine, big)
        if seed % 2:
            spine = Graph(list(spine.vertices) + [big + 7 * seed, 5 * seed + 40], spine.edges)

        twins = interlace(spine).graph
        want = Graph(
            [2 * v + c for v in spine.vertices for c in (0, 1)],
            [(2 * u + a, 2 * v + b) for u, v in spine.edges for a in (0, 1) for b in (0, 1)],
        )
        _assert_same_graph(twins, want)
        assert format_twin_edge_list(twins) == format_twin_edge_list(want)

        # The spine of a .quad has exactly its corners' vertices: a
        # src= label naming a vertex of no corner is refused by line.
        core = Graph(edges=spine.edges)
        split += len(components(core)) > 1
        rotations = permute_rotations(default_rotations(core), seed)
        header, *faces = format_quad(quadrangulate(core, rotations)).splitlines()
        _assert_same_graph(parse_quad("\n".join([header] + faces) + "\n").spine, core)
        lonely = big + 3 * seed + 1
        i = rng.randrange(len(faces))
        faces[i] = faces[i].rsplit("src=", 1)[0] + f"src={lonely}"
        with pytest.raises(ParseError, match=f"^line {i + 2}: src={lonely} is not "):
            parse_quad("\n".join([header] + faces) + "\n")
    assert split > 0
