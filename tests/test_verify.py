import random
from collections import Counter

import pytest

import spinalquad.verify as verify_module
from spinalquad import (
    BettiVector,
    ColoringError,
    FaceColoring,
    Graph,
    IsolatedVertexError,
    ParseError,
    QuadEmbedding,
    check_duality_formula,
    check_thickening_identities,
    complete_graph,
    cycle_rank,
    default_rotations,
    face_adjacencies,
    format_quad,
    parse_quad,
    permute_rotations,
    quadrangulate,
    verify_proper_faces,
    verify_surface,
)

from helpers import (
    mutate_quad_text,
    oracle_face_adjacencies,
    oracle_verify_surface,
    random_graph_no_isolated,
    random_spine,
    random_tree,
    seed_quad_text,
)


def test_triangle_spine_gives_torus():
    report = verify_surface(quadrangulate(complete_graph(3)))
    assert report.ok
    assert report.comp == 1
    c = report.components[0]
    assert (c.vertices, c.edges, c.faces) == (6, 12, 6)
    assert c.euler_characteristic == 0
    assert c.orientable
    assert c.genus == 1
    assert report.hand == 1


def test_single_edge_spine_gives_sphere():
    report = verify_surface(quadrangulate(Graph(edges=[(0, 1)])))
    c = report.components[0]
    assert report.ok
    assert (c.vertices, c.edges, c.faces) == (4, 4, 2)
    assert c.euler_characteristic == 2
    assert c.genus == 0


def test_two_triangles_give_two_tori():
    spine = Graph(edges=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    report = verify_surface(quadrangulate(spine))
    assert report.ok
    assert report.comp == 2
    assert [c.genus for c in report.components] == [1, 1]
    assert report.hand == 2


def test_trees_give_spheres():
    for seed in range(6):
        t = random_tree(2 + seed, seed)
        report = verify_surface(quadrangulate(t))
        assert report.ok
        assert report.hand == 0


def test_handles_equal_spine_cycle_rank_for_any_rotations():
    for seed in range(10):
        spine = random_graph_no_isolated(seed)
        for rot_seed in (0, 1, 2):
            rot = permute_rotations(default_rotations(spine), rot_seed)
            report = verify_surface(quadrangulate(spine, rot))
            assert report.ok
            assert report.hand == cycle_rank(spine)


@pytest.mark.parametrize("action", ["delete", "duplicate", "twinflip"])
def test_mutations_flip_a_verdict(action):
    text = format_quad(quadrangulate(complete_graph(3)))
    assert verify_surface(parse_quad(text)).ok
    mutated = mutate_quad_text(text, action)
    assert not verify_surface(parse_quad(mutated)).ok


def test_unverified_component_reports_no_genus():
    text = format_quad(quadrangulate(complete_graph(3)))
    report = verify_surface(parse_quad(mutate_quad_text(text, "delete")))
    assert report.components[0].genus is None
    assert report.hand is None


@pytest.mark.parametrize(
    "spine, expected",
    [
        (Graph(edges=[(0, 1)]), (1, 0)),
        (complete_graph(4), (1, 3)),
        (Graph(edges=[(0, 1), (1, 2), (0, 2), (3, 4)]), (2, 1)),
    ],
)
def test_thickening_report_counts(spine, expected):
    report = check_thickening_identities(spine)
    assert (report.comp, report.hand) == expected


def test_thickening_refuses_the_empty_spine():
    with pytest.raises(ValueError, match="no vertices"):
        check_thickening_identities(Graph())


def test_thickening_refuses_isolated_vertices():
    with pytest.raises(IsolatedVertexError):
        check_thickening_identities(Graph(vertices=[9], edges=[(0, 1)]))


def test_identity_check_on_fixtures():
    report = check_thickening_identities(complete_graph(4))
    assert report.ok
    assert (report.comp, report.hand) == (1, 3)
    assert report.betti == BettiVector(1, 3, 0)
    for seed in range(5):
        assert check_thickening_identities(random_tree(5, seed)).ok


def test_duality_check_on_fixtures():
    report = check_duality_formula(complete_graph(4))
    assert report.ok
    assert report.surface_betti == BettiVector(1, 6, 1)
    assert check_duality_formula(Graph(edges=[(0, 1)])).surface_betti == BettiVector(1, 0, 1)
    two_triangles = Graph(edges=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert check_duality_formula(two_triangles).surface_betti == BettiVector(2, 4, 2)


def test_both_checks_pass_on_random_graphs():
    for seed in range(30):
        spine = random_graph_no_isolated(seed)
        assert check_thickening_identities(spine).ok
        assert check_duality_formula(spine).ok


def _damaged_variants(text: str, rng: random.Random) -> list[str]:
    """Seeded damage to a well-formed quad file: the three tamperings
    of a random face, single-token edits, and dropped, shuffled and
    repeated face lines. A new corner 0 takes its src= label along; a
    new src= label alone may name another vertex, which the parser
    refuses."""
    header, *faces = text.strip().splitlines()
    nverts = int(header.split()[1]) // 2
    variants = [
        mutate_quad_text(text, action, rng.randrange(len(faces)))
        for action in ("delete", "duplicate", "twinflip")
    ]
    for _ in range(4):
        lines = list(faces)
        i = rng.randrange(len(lines))
        tokens = lines[i].split()
        slot = rng.randrange(5)
        vertex = rng.randrange(nverts + 2)
        tokens[slot] = f"src={vertex}" if slot == 4 else f"{vertex}.{rng.randrange(2)}"
        if slot == 0:
            tokens[4] = f"src={vertex}"
        lines[i] = " ".join(tokens)
        variants.append("\n".join([header] + lines) + "\n")
    kept = [line for line in faces if rng.random() < 0.7]
    shuffled = rng.sample(faces, len(faces))
    repeated = faces + rng.choices(faces, k=rng.randint(1, 3))
    for lines in (kept, shuffled, repeated):
        variants.append("\n".join([header] + lines) + "\n")
    return variants


def _mislabelled_line(text: str) -> int | None:
    """The first line whose src= label is not its corner 0's vertex."""
    for lineno, line in enumerate(text.splitlines(), 1):
        tokens = line.split()
        if tokens[-1].startswith("src=") and tokens[-1][4:] != tokens[0].split(".")[0]:
            return lineno
    return None


# Hand-built embeddings no spine produces: a face whose four sides are
# one side, next to an ordinary face on it; a side met by three faces;
# and no faces at all.
DEGENERATE = [
    QuadEmbedding(Graph(edges=[(0, 1)]), (0, 2, 0, 2, 0, 2, 1, 3)),
    QuadEmbedding(Graph(edges=[(0, 1)]), (0, 2, 1, 3, 2, 0, 3, 1, 0, 2, 3, 1)),
    QuadEmbedding(Graph(), ()),
]


REFUSAL = "^the quadrangulation fails verification; run verify for the report$"


def _agrees_with_oracles(q: QuadEmbedding, rng: random.Random) -> bool:
    """Assert the verdicts match the oracle, and on a certified surface
    the face adjacencies and the first face color clash too; elsewhere
    both face checks refuse. True when some component fails."""
    report = verify_surface(q)
    assert report.components == oracle_verify_surface(q)
    colors = {i: rng.randrange(3) for i in range(len(q.faces))}
    faces = FaceColoring(colors=colors, palette=3)
    if report.ok:
        pairs = oracle_face_adjacencies(q)
        assert face_adjacencies(q) == pairs
        clash = next((p for p in pairs if colors[p[0]] == colors[p[1]]), None)
        assert verify_proper_faces(q, faces).violation == clash
        alike = FaceColoring(colors=dict.fromkeys(colors, 0), palette=1)
        assert verify_proper_faces(q, alike).violation == next(iter(pairs), None)
    else:
        with pytest.raises(ColoringError, match=REFUSAL):
            face_adjacencies(q)
        with pytest.raises(ColoringError, match=REFUSAL):
            verify_proper_faces(q, faces)
    return not all(c.ok for c in report.components)


@pytest.mark.parametrize(
    "q",
    [*DEGENERATE, parse_quad(mutate_quad_text(format_quad(quadrangulate(complete_graph(3))), "delete"))],
    ids=["one-side-face", "three-faces-on-a-side", "no-faces", "deleted-face"],
)
def test_face_checks_refuse_a_surface_that_fails_verification(q):
    with pytest.raises(ColoringError, match=REFUSAL):
        face_adjacencies(q)
    alike = FaceColoring(colors=dict.fromkeys(range(len(q.corners) // 4), 0), palette=1)
    with pytest.raises(ColoringError, match=REFUSAL):
        verify_proper_faces(q, alike)
    assert not verify_surface(q).ok


def _variants_agree_with_oracles(text: str, rng: random.Random) -> tuple[int, int]:
    """Check a quad file and its damaged variants against the oracles
    (or the parser's src= refusal); the numbers of files checked and
    rejected."""
    variants = [text] + _damaged_variants(text, rng)
    rejected = 0
    for variant in variants:
        line = _mislabelled_line(variant)
        if line is None:
            rejected += _agrees_with_oracles(parse_quad(variant), rng)
        else:
            with pytest.raises(ParseError, match=f"^line {line}: src="):
                parse_quad(variant)
            rejected += 1
    return len(variants), rejected


def test_flat_verifier_agrees_with_record_oracle():
    checked = rejected = 0
    for seed in range(150):
        rng = random.Random(seed)
        spine = random_graph_no_isolated(seed, max_vertices=12)
        rot = permute_rotations(default_rotations(spine), seed)
        text = format_quad(quadrangulate(spine, rot))
        assert text == seed_quad_text(spine, rot)
        files, failed = _variants_agree_with_oracles(text, rng)
        checked += files
        rejected += failed
    assert checked == 150 * 11
    assert rejected > checked // 2
    rng = random.Random(0)
    for q in DEGENERATE:
        for _ in range(8):
            _agrees_with_oracles(q, rng)


@pytest.mark.parametrize("vertices", [300, 400, 500])
def test_flat_verifier_agrees_with_record_oracle_at_size(vertices):
    # Thousands of faces: each damage leaves a few odd runs in the
    # middle of long runs of clean pairs.
    rng = random.Random(vertices)
    spine = random_spine(vertices, 2 * vertices + rng.randrange(vertices), vertices)
    text = format_quad(quadrangulate(spine, permute_rotations(default_rotations(spine), vertices)))
    assert verify_surface(parse_quad(text)).hand == cycle_rank(spine)
    files, rejected = _variants_agree_with_oracles(text, rng)
    assert files == 11 and rejected >= 3


@pytest.mark.parametrize("vertices", [300, 500])
def test_bucketed_sort_agrees_with_record_oracle(monkeypatch, vertices):
    # Buckets far smaller than the package's send these surfaces through
    # the cells and their groups: the side pairing of the certified file
    # is the one-list sort's, element for element, and every damaged
    # file gets the oracle's verdicts.
    rng = random.Random(vertices)
    spine = random_spine(vertices, 2 * vertices + rng.randrange(vertices), vertices)
    text = format_quad(quadrangulate(spine, permute_rotations(default_rotations(spine), vertices)))
    sides = verify_surface(parse_quad(text)).sides
    monkeypatch.setattr(verify_module, "_BUCKETED", 8)
    monkeypatch.setattr(verify_module, "_BUCKET", 256)
    report = verify_surface(parse_quad(text))
    assert report.hand == cycle_rank(spine)
    assert [list(column) for column in report.sides] == [list(column) for column in sides]
    files, rejected = _variants_agree_with_oracles(text, rng)
    assert files == 11 and rejected >= 3


def test_bucketed_sort_agrees_with_record_oracle_on_small_surfaces(monkeypatch):
    # Buckets of a few darts, so most sides sit at a bucket's edge.
    monkeypatch.setattr(verify_module, "_BUCKETED", 8)
    monkeypatch.setattr(verify_module, "_BUCKET", 16)
    for seed in range(40):
        rng = random.Random(seed)
        spine = random_graph_no_isolated(seed, max_vertices=12)
        text = format_quad(quadrangulate(spine, permute_rotations(default_rotations(spine), seed)))
        assert _variants_agree_with_oracles(text, rng)[0] == 11
    rng = random.Random(0)
    for q in DEGENERATE:
        _agrees_with_oracles(q, rng)


@pytest.mark.parametrize("bucketed", [False, True], ids=["one-list", "bucketed"])
def test_huge_ids_verify_end_to_end(monkeypatch, bucketed):
    # Packed darts of ids near 2**70 do not fit a machine word, so even
    # a surface past the bucketing size is sorted in one list of ints.
    if bucketed:
        monkeypatch.setattr(verify_module, "_BUCKETED", 8)
    base = 2**70
    spine = Graph(edges=[(base, base + 1), (base + 1, base + 2), (base, base + 2)])
    text = format_quad(quadrangulate(spine))
    report = verify_surface(parse_quad(text))
    assert report.ok and report.hand == 1
    for action in ("delete", "duplicate", "twinflip"):
        assert not verify_surface(parse_quad(mutate_quad_text(text, action))).ok


def test_orientation_search_runs_only_where_it_can_change_a_verdict(monkeypatch):
    searched = []
    conflicts = verify_module._conflicts

    def spy(nfaces, constraints):
        constraints = list(constraints)
        searched.append({b for *_, b in constraints})
        return conflicts(nfaces, constraints)

    monkeypatch.setattr(verify_module, "_conflicts", spy)
    q = quadrangulate(complete_graph(3))
    # A twinflip leaves an edge without two sides, so the component is
    # not orientable whatever the search would find: it is not searched.
    flipped = parse_quad(mutate_quad_text(format_quad(q), "twinflip"))
    component = verify_surface(flipped).components[0]
    assert not component.edges_two_sided and not component.orientable
    assert searched == []
    # A face walked backwards keeps every side with two darts, two of
    # them now running the same way: that component is searched, and
    # flipping the face orients it.
    c = q.corners
    backwards = QuadEmbedding(q.spine, (c[0], c[3], c[2], c[1]) + c[4:])
    assert verify_surface(backwards).ok
    assert searched == [{0}]


def test_header_only_file_fails():
    report = verify_surface(parse_quad("quad 6 12 6 1\n"))
    assert report.comp == 0
    assert report.counts == (0, 0, 0, 0)
    assert not report.ok


def test_dropped_component_fails_on_header_counts():
    spine = Graph(edges=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    header, *faces = format_quad(quadrangulate(spine)).strip().splitlines()
    assert header == "quad 12 24 12 2"
    kept = [line for line in faces if int(line.rsplit("src=", 1)[1]) not in (3, 4, 5)]
    report = verify_surface(parse_quad("\n".join([header] + kept) + "\n"))
    assert report.comp == 1 and report.components[0].ok
    assert report.counts == (6, 12, 6, 1)
    assert report.header == (12, 24, 12, 2)
    assert not report.header_ok
    assert not report.ok


def test_face_outside_the_interlacement_is_a_failing_verdict():
    q = quadrangulate(complete_graph(3))
    # The face (9.0, 1.0, 0.1, 1.1): its first corner's vertex is not in the spine.
    bad = QuadEmbedding(spine=q.spine, corners=q.corners + (18, 2, 1, 3))
    report = verify_surface(bad)
    assert not report.ok
    assert report.components[0] == verify_surface(q).components[0]
    stray = report.components[-1]
    assert stray.faces == 1 and not stray.faces_simple and not stray.ok
    assert stray.genus is None


def test_large_vertex_ids_verify_like_small_ones():
    big = 10**12
    text = f"quad 4 4 2 1\n0.0 {big}.0 0.1 {big}.1 src=0\n{big}.0 0.0 {big}.1 0.1 src={big}\n"
    report = verify_surface(parse_quad(text))
    assert report.ok and report.hand == 0
    assert report.components == verify_surface(quadrangulate(Graph(edges=[(0, 1)]))).components


# The four closed, non-orientable complexes among the sets of six
# 4-cycles of the triangle spine's interlacement (K_{2,2,2}): Klein
# bottles, chi = 6 - 12 + 6 = 0. Faces are given as encoded twin ids.
KLEIN_BOTTLES = [
    ((0, 2, 1, 4), (0, 2, 4, 3), (0, 3, 1, 5), (0, 4, 2, 5), (1, 2, 5, 3), (1, 4, 3, 5)),
    ((0, 2, 1, 4), (0, 2, 5, 3), (0, 3, 1, 5), (0, 4, 3, 5), (1, 2, 4, 3), (1, 4, 2, 5)),
    ((0, 2, 1, 5), (0, 2, 4, 3), (0, 3, 1, 4), (0, 4, 3, 5), (1, 2, 5, 3), (1, 4, 2, 5)),
    ((0, 2, 1, 5), (0, 2, 5, 3), (0, 3, 1, 4), (0, 4, 2, 5), (1, 2, 4, 3), (1, 4, 3, 5)),
]


def klein_bottle(faces) -> QuadEmbedding:
    corners = tuple(x for face in faces for x in face)
    return QuadEmbedding(spine=complete_graph(3), corners=corners)


@pytest.mark.parametrize("faces", KLEIN_BOTTLES)
def test_klein_bottles_are_closed_but_not_orientable(faces):
    q = klein_bottle(faces)
    for embedding in (q, parse_quad(format_quad(q))):
        report = verify_surface(embedding)
        assert report.comp == 1 and report.header_ok
        c = report.components[0]
        assert (c.vertices, c.edges, c.faces, c.euler_characteristic) == (6, 12, 6, 0)
        assert c.closed and not c.orientable
        assert c.genus is None and report.hand is None and not report.ok
        assert report.components == oracle_verify_surface(embedding)


def reverse_faces(q: QuadEmbedding, faces) -> QuadEmbedding:
    """The embedding with the corner walk of each listed face reversed."""
    corners = list(q.corners)
    for f in faces:
        a, b, c, d = corners[4 * f : 4 * f + 4]
        corners[4 * f : 4 * f + 4] = [a, d, c, b]
    return QuadEmbedding(spine=q.spine, corners=tuple(corners))


def traversed_twice_one_way(q: QuadEmbedding) -> bool:
    """Whether some edge is traversed twice in the same direction, so
    that the faces' own directions are no orientation."""
    following = [q.corners[k + 1 if k % 4 != 3 else k - 3] for k in range(len(q.corners))]
    return max(Counter(zip(q.corners, following)).values()) > 1


def test_reversed_faces_leave_an_orientable_surface():
    for seed in range(60):
        rng = random.Random(seed)
        spine = random_graph_no_isolated(seed, max_vertices=12)
        q = quadrangulate(spine, permute_rotations(default_rotations(spine), seed))
        assert not traversed_twice_one_way(q)
        nfaces = len(q.faces)
        flipped = reverse_faces(q, rng.sample(range(nfaces), rng.randint(1, min(3, nfaces - 1))))
        assert traversed_twice_one_way(flipped)
        for embedding in (flipped, parse_quad(format_quad(flipped))):
            report = verify_surface(embedding)
            assert report.ok, seed
            assert report.hand == cycle_rank(spine)
            assert [c.genus for c in report.components] == [c.genus for c in verify_surface(q).components]
            assert report.components == oracle_verify_surface(embedding)
            # The sides the reversed faces run the same way as their
            # neighbours reach the face checks from the odd runs.
            pairs = oracle_face_adjacencies(embedding)
            assert face_adjacencies(embedding) == pairs
            colors = {i: rng.randrange(2) for i in range(nfaces)}
            clash = next((p for p in pairs if colors[p[0]] == colors[p[1]]), None)
            assert verify_proper_faces(embedding, FaceColoring(colors=colors, palette=2)).violation == clash
