import importlib

import pytest

from spinalquad import (
    Graph,
    IsolatedVertexError,
    ParseError,
    QuadEmbedding,
    RotationError,
    VertexColoring,
    complete_graph,
    default_rotations,
    face_coloring_from_sources,
    format_edge_list,
    format_face_coloring,
    format_quad,
    format_vertex_coloring,
    parse_quad,
    permute_rotations,
    quadrangulate,
    verify_proper_faces,
    verify_surface,
)
from spinalquad.cli import run

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


def test_negative_rotation_seed_is_refused(tmp_path, capsys):
    # random.Random seeds from abs(), so -7 would silently repeat seed 7.
    with pytest.raises(ValueError, match="negative rotation seed -7"):
        permute_rotations(default_rotations(complete_graph(4)), -7)
    spine = tmp_path / "k4.edges"
    spine.write_text(format_edge_list(complete_graph(4)))
    assert run(["quadrangulate", "--in", str(spine), "--seed", "-7"]) == 2
    assert capsys.readouterr() == ("", "error: negative rotation seed -7\n")


def test_triangle_spine_face_list_is_frozen():
    """The full face list for the triangle spine, pinned corner by
    corner with each face's src= label. Each face reads (source twin 0,
    neighbor twin 0, source twin 1, next neighbor twin 1)."""
    assert format_quad(quadrangulate(complete_graph(3))).splitlines()[1:] == [
        "0.0 1.0 0.1 2.1 src=0",
        "0.0 2.0 0.1 1.1 src=0",
        "1.0 0.0 1.1 2.1 src=1",
        "1.0 2.0 1.1 0.1 src=1",
        "2.0 0.0 2.1 1.1 src=2",
        "2.0 1.0 2.1 0.1 src=2",
    ]


def test_path_spine_merges_leaf_faces():
    # Degree-1 vertices at the path ends contribute one face each, so
    # the face count is still twice the edge count.
    q = quadrangulate(Graph(edges=[(0, 1), (1, 2)]))
    assert len(q.faces) == 4
    leaf_faces = [quad for quad in q.faces if quad[0] >> 1 in (0, 2)]
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
    # Each vertex is the source of one face per rotation entry, and
    # its twins sit at corners 0 and 2 of each of them.
    for seed in range(12):
        spine = random_graph_no_isolated(seed)
        q = quadrangulate(spine)
        sources = [quad[0] >> 1 for quad in q.faces]
        assert sources == [v for v in spine.vertices for _ in range(spine.degree(v))]
        for quad, source in zip(q.faces, sources):
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
        assert back.corners == q.corners
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
        "0.0 1.0 0.1 1.1 src=1",
        "quad 4 4 2 1",
    ],
)
def test_parse_quad_rejects_malformed_face_lines(line):
    with pytest.raises(ParseError):
        parse_quad("quad 4 4 2 1\n" + line + "\n")


@pytest.mark.parametrize(
    "corners, message",
    [
        ((0, 2, 1, 3, 2), "5 corners; need four per face"),
        ((0, 2, 1), "3 corners; need four per face"),
        ((0, 2, -1, 3), "negative twin id"),
    ],
)
def test_embedding_rejects_bad_corner_lists(corners, message):
    with pytest.raises(ValueError, match=message):
        QuadEmbedding(spine=Graph(edges=[(0, 1)]), corners=corners)


def test_parse_quad_rebuilds_spine_from_corners():
    text = (
        "quad 4 4 2 1\n"
        "0.0 1.0 0.1 1.1 src=0\n"
        "1.0 0.0 1.1 0.1 src=1\n"
    )
    q = parse_quad(text)
    assert q.spine == Graph(edges=[(0, 1)])
    assert q.faces[0] == (tv(0, 0), tv(1, 0), tv(0, 1), tv(1, 1))
    assert format_quad(q) == text


def test_quadrangulate_and_parse_quad_share_one_int_per_twin_and_vertex():
    # Ids far above the interpreter's cache of small ints: every corner
    # naming a twin is one int object, and every mention of a vertex in
    # the parsed spine is one int object too.
    spine = Graph(edges=[(1000 + u, 1000 + v) for u, v in complete_graph(5).edges])
    q = quadrangulate(spine)
    back = parse_quad(format_quad(q))
    assert back.corners == q.corners
    for corners in (q.corners, back.corners):
        assert len(set(map(id, corners))) == len(set(corners)) == 10
    g = back.spine
    mentions = [*g.vertices, *(v for e in g.edges for v in e), *(u for v in g.vertices for u in g.neighbors(v))]
    assert len(set(map(id, mentions))) == 5


def test_disconnected_spine_supported():
    q = quadrangulate(Graph(edges=[(0, 1), (2, 3)]))
    assert len(q.faces) == 4
    assert format_quad(q).splitlines()[0] == "quad 8 8 4 2"
    report = verify_surface(q)
    assert report.ok and report.comp == 2


def test_surface_chain_builds_no_face_records_and_no_interlacement(monkeypatch, tmp_path, capsys):
    def no_faces(q):
        raise AssertionError("face tuples built")

    monkeypatch.setattr(QuadEmbedding, "faces", property(no_faces))
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
    text = format_quad(q)
    back = parse_quad(text)
    assert verify_surface(back).ok
    assert len(back.corners) == 8 * len(spine.edges)
    palette = len(spine.vertices)
    coloring = VertexColoring(colors={v: i for i, v in enumerate(spine.vertices)}, palette=palette)
    faces = face_coloring_from_sources(back, coloring)
    assert verify_proper_faces(back, faces).ok

    quad, colors = tmp_path / "s.quad", tmp_path / "s.colors"
    quad.write_text(text)
    colors.write_text(format_vertex_coloring(coloring))
    assert run(["verify", "--in", str(quad)]) == 0
    assert run(["facecolor", "--in", str(quad), "--coloring", str(colors)]) == 0
    out = capsys.readouterr()
    assert out.out.endswith("ok=true\n" + format_face_coloring(faces) + "proper=true\n")
    assert out.err == ""
    assert calls == []
