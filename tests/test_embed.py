import importlib

import pytest

from spinalquad import (
    Graph,
    IsolatedVertexError,
    ParseError,
    RotationError,
    VertexColoring,
    complete_graph,
    default_rotations,
    face_coloring_from_sources,
    format_quad,
    parse_quad,
    permute_rotations,
    quadrangulate,
    verify_proper_faces,
    verify_surface,
)

from helpers import quad_sides, random_graph_no_isolated


def tv(spine_id, copy):
    return 2 * spine_id + copy


def test_default_rotations_ascend():
    g = Graph(edges=[(0, 3), (0, 1), (0, 2)])
    assert default_rotations(g)[0] == (1, 2, 3)


def test_permute_rotations_is_deterministic_permutation():
    g = complete_graph(5)
    base = default_rotations(g)
    a = permute_rotations(base, 11)
    b = permute_rotations(base, 11)
    assert a == b
    for v in g.vertices:
        assert sorted(a[v]) == sorted(base[v])
    assert permute_rotations(base, 12) != a


def test_triangle_spine_face_list_is_frozen():
    """The full face list for the triangle spine, pinned corner by
    corner. Each face reads (source twin 0, neighbor twin 0, source
    twin 1, next neighbor twin 1)."""
    q = quadrangulate(complete_graph(3))
    got = [
        (tuple(f"{x >> 1}.{x & 1}" for x in quad), source)
        for quad, source in zip(q.faces, q.sources)
    ]
    assert got == [
        (("0.0", "1.0", "0.1", "2.1"), 0),
        (("0.0", "2.0", "0.1", "1.1"), 0),
        (("1.0", "0.0", "1.1", "2.1"), 1),
        (("1.0", "2.0", "1.1", "0.1"), 1),
        (("2.0", "0.0", "2.1", "1.1"), 2),
        (("2.0", "1.0", "2.1", "0.1"), 2),
    ]


def test_path_spine_merges_leaf_faces():
    # Degree-1 vertices at the path ends contribute one face each, so
    # the face count is still twice the edge count.
    q = quadrangulate(Graph(edges=[(0, 1), (1, 2)]))
    assert len(q.faces) == 4
    leaf_faces = [quad for quad, source in zip(q.faces, q.sources) if source in (0, 2)]
    assert leaf_faces == [
        (tv(0, 0), tv(1, 0), tv(0, 1), tv(1, 1)),
        (tv(2, 0), tv(1, 0), tv(2, 1), tv(1, 1)),
    ]


def test_face_counts_track_spine_counts():
    for seed in range(12):
        spine = random_graph_no_isolated(seed)
        q = quadrangulate(spine)
        assert len(q.faces) == 2 * len(spine.edges)
        assert len(q.interlacement.graph.vertices) == 2 * len(spine.vertices)
        assert len(q.interlacement.graph.edges) == 4 * len(spine.edges)


def test_source_twins_sit_at_opposite_corners():
    for seed in range(12):
        q = quadrangulate(random_graph_no_isolated(seed))
        for quad, source in zip(q.faces, q.sources):
            assert quad[0] == tv(source, 0)
            assert quad[2] == tv(source, 1)


def test_every_face_side_is_an_interlacement_edge():
    q = quadrangulate(random_graph_no_isolated(3))
    edges = set(q.interlacement.graph.edges)
    for quad in q.faces:
        for side in quad_sides(quad):
            assert side in edges


def test_empty_spine_refused():
    with pytest.raises(ValueError, match="no vertices"):
        quadrangulate(Graph())


def test_isolated_vertex_refused_by_name():
    with pytest.raises(IsolatedVertexError, match="5"):
        quadrangulate(Graph(vertices=[5], edges=[(0, 1)]))


def test_rotation_key_mismatch_refused():
    g = complete_graph(3)
    rot = default_rotations(g)
    del rot[2]
    with pytest.raises(RotationError):
        quadrangulate(g, rot)


def test_rotation_must_permute_neighbors():
    g = complete_graph(3)
    rot = default_rotations(g)
    rot[0] = (1, 1)
    with pytest.raises(RotationError):
        quadrangulate(g, rot)
    rot[0] = (1, 3)
    with pytest.raises(RotationError):
        quadrangulate(g, rot)


def test_quad_format_round_trip():
    for seed in range(8):
        spine = random_graph_no_isolated(seed)
        rot = permute_rotations(default_rotations(spine), seed)
        q = quadrangulate(spine, rot)
        back = parse_quad(format_quad(q))
        assert (back.corners, back.sources) == (q.corners, q.sources)
        assert back.spine == spine
        assert back.interlacement.graph == q.interlacement.graph


def test_quad_output_is_reproducible():
    spine = complete_graph(4)
    rot = permute_rotations(default_rotations(spine), 9)
    assert format_quad(quadrangulate(spine, rot)) == format_quad(quadrangulate(spine, rot))


def test_quad_header_values():
    text = format_quad(quadrangulate(complete_graph(3)))
    assert text.splitlines()[0] == "quad 6 12 6 1"


def test_parse_quad_requires_header():
    with pytest.raises(ParseError):
        parse_quad("0.0 1.0 0.1 1.1 src=0\n")


@pytest.mark.parametrize(
    "line",
    [
        "0.0 1.0 0.1 src=0",
        "0.0 1.0 0.1 1.1 src=x",
        "0.0 1.0 0.1 1.1 src=-1",
        "0.0 1.0 0.1 1.2 src=0",
        "0.0 1.0 0.1 1.1 0",
    ],
)
def test_parse_quad_rejects_malformed_face_lines(line):
    with pytest.raises(ParseError):
        parse_quad("quad 4 4 2 1\n" + line + "\n")


def test_parse_quad_rebuilds_spine_from_corners():
    text = (
        "quad 4 4 2 1\n"
        "0.0 1.0 0.1 1.1 src=0\n"
        "1.0 0.0 1.1 0.1 src=1\n"
    )
    q = parse_quad(text)
    assert q.spine == Graph(edges=[(0, 1)])
    assert q.faces[0] == (tv(0, 0), tv(1, 0), tv(0, 1), tv(1, 1))
    assert q.sources == (0, 1)


def test_disconnected_spine_supported():
    q = quadrangulate(Graph(edges=[(0, 1), (2, 3)]))
    assert len(q.faces) == 4
    assert format_quad(q).splitlines()[0] == "quad 8 8 4 2"
    report = verify_surface(q)
    assert report.ok and report.comp == 2


def test_surface_chain_builds_no_face_records_and_no_interlacement(monkeypatch):
    calls = []
    for name in ("interlace", "embed", "verify", "coloring", "cli"):
        module = importlib.import_module(f"spinalquad.{name}")
        original = getattr(module, "interlace", None)
        if callable(original):

            def counted(spine, original=original):
                calls.append(spine)
                return original(spine)

            monkeypatch.setattr(module, "interlace", counted)

    spine = random_graph_no_isolated(5)
    q = quadrangulate(spine, permute_rotations(default_rotations(spine), 5))
    back = parse_quad(format_quad(q))
    assert verify_surface(back).ok
    assert len(back.sources) == 2 * len(spine.edges)
    palette = len(spine.vertices)
    coloring = VertexColoring(colors={v: i for i, v in enumerate(spine.vertices)}, palette=palette)
    faces = face_coloring_from_sources(back, coloring)
    assert verify_proper_faces(back, faces).ok
    assert calls == []
