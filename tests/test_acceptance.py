"""The ten gate checks for the package, one test per criterion.

Every test wraps its assertions in the ``criterion`` recorder from
conftest, so the run closes with an explicit PASS or FAIL line for
each numbered check. All comparisons are exact; no tolerances apply
anywhere in this suite.
"""

import time

from spinalquad import (
    BettiVector,
    RecipeError,
    SimplicialComplex,
    SpineRecipe,
    betti_numbers,
    check_duality_formula,
    check_thickening_identities,
    chromatic_number_exact,
    complete_graph,
    complete_minus_clique,
    components,
    cycle_rank,
    default_rotations,
    euler_poincare_check,
    face_coloring_from_sources,
    format_quad,
    lift_coloring,
    minimality_report,
    parse_quad,
    permute_rotations,
    quadrangulate,
    spine_for,
    verify_proper_faces,
    verify_proper_vertices,
    verify_surface,
)
from spinalquad.cli import run

from helpers import mutate_quad_text, random_graph_no_isolated, random_tree, random_two_complex


def test_criterion_1_triangle_spine_torus(criterion):
    with criterion(1, "triangle spine yields the 6-vertex 12-edge 6-face torus"):
        q = quadrangulate(complete_graph(3))
        g = q.interlacement.graph
        assert len(g.vertices) == 6
        assert len(g.edges) == 12
        assert len(q.faces) == 6
        report = verify_surface(q)
        assert report.ok
        assert report.comp == 1
        assert report.components[0].orientable
        assert report.components[0].genus == 1


def test_criterion_2_complete_spines(criterion):
    expected_genus = {2: 0, 3: 1, 4: 3, 5: 6, 6: 10, 7: 15}
    with criterion(2, "complete spines n=2..7 hit genus, chromatic, and coloring targets"):
        for n, genus in expected_genus.items():
            spine = complete_graph(n)
            q = quadrangulate(spine)
            report = verify_surface(q)
            assert report.ok
            assert report.hand == genus
            chi, witness = chromatic_number_exact(spine)
            assert chi == n
            lifted = lift_coloring(q.interlacement, witness)
            assert lifted.palette == n
            assert verify_proper_vertices(q.interlacement.graph, lifted).ok
            faces = face_coloring_from_sources(q, witness)
            assert faces.palette == n
            assert verify_proper_faces(q, faces).ok


def test_criterion_3_one_edge_deleted_spines(criterion):
    expected_genus = {3: 0, 4: 2, 5: 5, 6: 9, 7: 14}
    with criterion(3, "edge-deleted complete spines n=3..7 hit genus and chromatic targets"):
        for n, genus in expected_genus.items():
            spine = complete_minus_clique(n, 2)
            report = verify_surface(quadrangulate(spine))
            assert report.ok
            assert report.hand == genus
            assert chromatic_number_exact(spine)[0] == n - 1


def test_criterion_4_minimality_certificates(criterion):
    with criterion(4, "minimality certificates match the table and the sufficient condition"):
        for n, m in [(4, 1), (5, 1), (6, 1), (7, 1), (8, 1), (8, 2), (9, 2)]:
            assert minimality_report(n, m).minimal
        for n, m in [(3, 1)] + [(n, 2) for n in range(3, 8)]:
            if (n, m) == (3, 2):
                # Degenerate point: the spine is a path, the surface a
                # sphere, and no certificate exists at genus 0.
                try:
                    minimality_report(n, m)
                except RecipeError:
                    continue
                raise AssertionError("expected rejection for the flat family point")
            assert not minimality_report(n, m).minimal
        for n in range(2, 13):
            for m in range(1, min(4, n)):
                try:
                    cert = minimality_report(n, m)
                except RecipeError:
                    continue
                if cert.sufficient_condition_met:
                    assert cert.minimal


def test_criterion_5_recipe_sweep(criterion):
    with criterion(5, "recipe sweep g<=6 k<=5 p<=28 verifies end to end in time"):
        recipes = []
        for genus in range(0, 7):
            for palette in range(2, 6):
                for vertices in range(4, 29, 2):
                    try:
                        recipes.append(
                            SpineRecipe(genus=genus, palette=palette, quad_vertices=vertices)
                        )
                    except RecipeError:
                        continue
        assert len(recipes) == 97
        assert SpineRecipe(genus=5, palette=4, quad_vertices=20) in recipes
        start = time.monotonic()
        for recipe in recipes:
            spine = spine_for(recipe)
            q = quadrangulate(spine)
            report = verify_surface(q)
            assert report.ok
            assert report.hand == recipe.genus
            assert sum(c.vertices for c in report.components) == recipe.quad_vertices
            chi, witness = chromatic_number_exact(spine)
            assert chi == recipe.palette
            faces = face_coloring_from_sources(q, witness)
            assert faces.palette <= recipe.palette
            assert verify_proper_faces(q, faces).ok
        assert time.monotonic() - start < 30.0


def test_criterion_6_random_trees(criterion):
    with criterion(6, "20 seeded random trees quadrangulate to 2-face-colorable spheres"):
        for seed in range(20):
            tree = random_tree(2 + seed % 13, seed)
            q = quadrangulate(tree)
            report = verify_surface(q)
            assert report.ok
            assert report.hand == 0
            chi, witness = chromatic_number_exact(tree)
            assert chi == 2
            faces = face_coloring_from_sources(q, witness)
            assert faces.palette == 2
            assert verify_proper_faces(q, faces).ok


def test_criterion_7_homology_identity_suite(criterion):
    with criterion(7, "component and handle identities hold on 100 seeded random graphs"):
        for seed in range(100):
            spine = random_graph_no_isolated(seed)
            assert check_thickening_identities(spine).ok
            assert check_duality_formula(spine).ok


def test_criterion_8_homology_oracle(criterion):
    with criterion(8, "Betti fixtures and the alternating-sum identity hold"):
        filled = SimplicialComplex(triangles=[(0, 1, 2)])
        hollow = SimplicialComplex(edges=[(0, 1), (1, 2), (0, 2)])
        tetra = SimplicialComplex(
            triangles=[(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        )
        two_hollow = SimplicialComplex(
            edges=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        assert betti_numbers(filled) == BettiVector(1, 0, 0)
        assert betti_numbers(hollow) == BettiVector(1, 1, 0)
        assert betti_numbers(tetra) == BettiVector(1, 0, 1)
        assert betti_numbers(two_hollow) == BettiVector(2, 2, 0)
        for seed in range(100):
            assert euler_poincare_check(random_two_complex(seed)).ok


def _assert_counting_identities(spine):
    q = quadrangulate(spine)
    g = q.interlacement.graph
    assert len(g.vertices) == 2 * len(spine.vertices)
    assert len(g.edges) == 4 * len(spine.edges)
    assert len(q.faces) == 2 * len(spine.edges)
    report = verify_surface(q)
    blocks = components(spine)
    assert report.comp == len(blocks)
    for c, block in zip(report.components, blocks):
        members = set(block)
        block_edges = sum(1 for u, _ in spine.edges if u in members)
        assert c.vertices == 2 * len(block)
        assert c.edges == 4 * block_edges
        assert c.faces == 2 * block_edges
        assert c.genus is not None
        assert c.euler_characteristic == 2 - 2 * c.genus


def test_criterion_9_counting_identities(criterion):
    with criterion(9, "counting identities hold on every generated embedding"):
        for n in range(2, 8):
            _assert_counting_identities(complete_graph(n))
        for n in range(3, 8):
            _assert_counting_identities(complete_minus_clique(n, 2))
        for seed in range(20):
            _assert_counting_identities(random_tree(2 + seed % 13, seed))
        for seed in range(30):
            _assert_counting_identities(random_graph_no_isolated(seed))


def test_criterion_10_robustness(criterion, tmp_path):
    with criterion(10, "genus is seed-invariant, mutations get caught, reruns match byte for byte"):
        probes = [
            complete_graph(4),
            complete_graph(5),
            complete_minus_clique(5, 2),
            spine_for(SpineRecipe(genus=2, palette=3, quad_vertices=10)),
        ]
        for spine in probes:
            expected = cycle_rank(spine)
            for seed in range(10):
                rot = permute_rotations(default_rotations(spine), seed)
                report = verify_surface(quadrangulate(spine, rot))
                assert report.ok
                assert report.hand == expected

        text = format_quad(quadrangulate(complete_graph(4)))
        assert verify_surface(parse_quad(text)).ok
        for action in ("delete", "duplicate", "twinflip"):
            assert not verify_surface(parse_quad(mutate_quad_text(text, action))).ok

        spine = complete_minus_clique(5, 2)
        rot = permute_rotations(default_rotations(spine), 3)
        assert format_quad(quadrangulate(spine, rot)) == format_quad(quadrangulate(spine, rot))

        edges = tmp_path / "probe.edges"
        edges.write_text("0 1\n1 2\n0 2\n2 3\n1 3\n")
        outs = []
        for name in ("first.quad", "second.quad"):
            target = tmp_path / name
            assert run(["quadrangulate", "--in", str(edges), "--seed", "5", "--out", str(target)]) == 0
            outs.append(target.read_bytes())
        assert outs[0] == outs[1]
