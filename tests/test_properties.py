"""Property-based checks: the core invariants under random structures.

Each property here restates a guarantee the rest of the suite pins
with fixtures, but lets the generator hunt for counterexamples.
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from spinalquad import (
    Graph,
    ParseError,
    betti_numbers,
    chromatic_equality_check,
    components,
    cycle_rank,
    default_rotations,
    format_edge_list,
    format_quad,
    from_graph,
    interlace,
    matrix_rank_exact,
    parse_edge_list,
    parse_quad,
    permute_rotations,
    quadrangulate,
    verify_surface,
)

from helpers import rank_by_fractions


@st.composite
def spines(draw, max_vertices=8):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    pool = list(combinations(range(n), 2))
    edges = draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True)
    )
    # Endpoint registration only, so no vertex is isolated.
    return Graph(edges=edges)


# Tokens an edit may write into a .quad file: each kind of malformed
# twin token; then well-formed and out-of-range twins, bare ids,
# source labels good and bad, a header keyword and a comment mark.
TWIN_FAULTS = ["7.2", "x.0", "-1.0", ".1", "7.", "7.1.0", "7"]
FUZZ_TOKENS = [
    "0.0", "1.1", "9.0", "123456.1", "x", "0", "-3", "²",
    "src=0", "src=-1", "src=x", "src=", "src=99", "quad", "#",
]


@st.composite
def edited_quad_texts(draw):
    """The .quad text of a seeded spine after one to three edits, each
    dropping a line or replacing (twice as likely), deleting or
    inserting one token. A third of the edits hit the header; a written
    token is a twin fault, a fuzz token, a token of the file or a small
    count, a quarter of the time each."""
    spine = draw(spines(max_vertices=5))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    q = quadrangulate(spine, permute_rotations(default_rotations(spine), seed))
    lines = [line.split() for line in format_quad(q).splitlines()]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if not lines:
            break
        any_line = st.integers(min_value=0, max_value=len(lines) - 1)
        i = draw(st.one_of(st.just(0), any_line, any_line))
        edit = draw(st.sampled_from(["drop", "replace", "replace", "delete", "insert"]))
        if edit == "drop":
            del lines[i]
            continue
        tokens = lines[i]
        j = draw(st.integers(min_value=0, max_value=max(len(tokens) - 1, 0)))
        own = [t for line in lines for t in line] or FUZZ_TOKENS
        word = draw(
            st.one_of(
                st.sampled_from(TWIN_FAULTS),
                st.sampled_from(FUZZ_TOKENS),
                st.sampled_from(own),
                st.integers(min_value=0, max_value=30).map(str),
            )
        )
        if edit == "insert":
            tokens.insert(j, word)
        elif tokens and edit == "replace":
            tokens[j] = word
        elif tokens:
            del tokens[j]
    return "".join(" ".join(tokens) + "\n" for tokens in lines)


@given(edited_quad_texts())
@settings(max_examples=300, deadline=None)
def test_edited_quad_files_parse_or_refuse_and_never_pass_with_wrong_counts(text):
    try:
        q = parse_quad(text)
    except ParseError as exc:
        assert str(exc).startswith("line ") or str(exc) == "missing 'quad' header line"
        return
    report = verify_surface(q)
    if report.counts != report.header:
        assert not report.ok


@st.composite
def int_matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=5))
    return [
        [draw(st.integers(min_value=-9, max_value=9)) for _ in range(cols)]
        for _ in range(rows)
    ]


@given(spines(), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_every_rotation_system_yields_a_surface_with_predicted_handles(spine, seed):
    rot = permute_rotations(default_rotations(spine), seed)
    q = quadrangulate(spine, rot)
    report = verify_surface(q)
    assert report.ok
    assert report.comp == len(components(spine))
    assert report.hand == cycle_rank(spine)


@given(spines())
@settings(max_examples=60, deadline=None)
def test_counting_identities(spine):
    q = quadrangulate(spine)
    g = q.interlacement.graph
    assert len(g.vertices) == 2 * len(spine.vertices)
    assert len(g.edges) == 4 * len(spine.edges)
    assert len(q.faces) == 2 * len(spine.edges)


@given(spines())
@settings(max_examples=60, deadline=None)
def test_twins_stay_unmarried(spine):
    g = interlace(spine).graph
    assert not any(g.has_edge(2 * v, 2 * v + 1) for v in spine.vertices)


@given(spines())
@settings(max_examples=50, deadline=None)
def test_graph_betti_vector_counts_components_and_cycles(spine):
    b = betti_numbers(from_graph(spine))
    assert b == (len(components(spine)), cycle_rank(spine), 0)


@given(spines(max_vertices=7))
@settings(max_examples=30, deadline=None)
def test_interlacement_keeps_the_chromatic_number(spine):
    report = chromatic_equality_check(interlace(spine))
    assert report.ok


@given(int_matrices())
@settings(max_examples=80, deadline=None)
def test_exact_rank_agrees_with_rational_elimination(m):
    assert matrix_rank_exact(m) == rank_by_fractions(m)


@given(spines())
@settings(max_examples=50, deadline=None)
def test_edge_list_round_trip(spine):
    assert parse_edge_list(format_edge_list(spine)) == spine


@given(spines(), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_quad_file_round_trip(spine, seed):
    q = quadrangulate(spine, permute_rotations(default_rotations(spine), seed))
    back = parse_quad(format_quad(q))
    assert (back.corners, back.sources) == (q.corners, q.sources)
    assert back.spine == spine
