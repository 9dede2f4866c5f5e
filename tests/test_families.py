import math

import pytest

from spinalquad import (
    Graph,
    RecipeError,
    SpineRecipe,
    VerificationError,
    chromatic_number_exact,
    complete_graph,
    complete_minus_clique,
    components,
    cycle_rank,
    format_edge_list,
    min_quad_vertices,
    minimality_report,
    spine_for,
)
from spinalquad import families

from helpers import random_tree


def test_complete_graph_shape():
    g = complete_graph(4)
    assert len(g.vertices) == 4
    assert len(g.edges) == 6
    with pytest.raises(RecipeError):
        complete_graph(1)


def test_minus_edge_removes_exactly_the_first_pair():
    g = complete_minus_clique(5, 2)
    assert not g.has_edge(0, 1)
    assert len(g.edges) == 9
    assert len(g.vertices) == 5
    assert cycle_rank(g) == 5
    with pytest.raises(RecipeError):
        complete_minus_clique(2, 2)


def test_minus_clique_families():
    assert complete_minus_clique(6, 1) == complete_graph(6)
    g = complete_minus_clique(6, 3)
    assert not g.has_edge(0, 1) and not g.has_edge(1, 2) and not g.has_edge(0, 2)
    assert g.has_edge(0, 3)
    assert len(g.vertices) == 6
    for n in range(2, 9):
        for m in range(1, n):
            h = complete_minus_clique(n, m)
            assert 2 * cycle_rank(h) == (n - 1) * (n - 2) - m * (m - 1)
            assert len(components(h)) == 1


@pytest.mark.parametrize("n, m", [(4, 0), (4, 4), (1, 1)])
def test_minus_clique_rejects_bad_parameters(n, m):
    with pytest.raises(RecipeError):
        complete_minus_clique(n, m)


def test_random_tree_is_a_tree_and_reproducible():
    for seed in range(10):
        t = random_tree(8, seed)
        assert len(t.vertices) == 8
        assert len(t.edges) == 7
        assert cycle_rank(t) == 0
        assert len(components(t)) == 1
    assert format_edge_list(random_tree(9, 3)) == format_edge_list(random_tree(9, 3))
    assert random_tree(2, 123) == Graph(edges=[(0, 1)])
    with pytest.raises(RecipeError):
        random_tree(1, 0)


@pytest.mark.parametrize(
    "genus, palette, vertices",
    [
        (1, 2, 6),     # palette 2 forces genus 0
        (2, 4, 12),    # genus below the complete core's cycle rank
        (3, 4, 6),     # vertex budget below the recipe floor
        (0, 2, 7),     # odd vertex count
        (0, 2, 2),     # too few vertices
        (0, 1, 4),     # palette too small
        (-1, 3, 8),    # negative genus
    ],
)
def test_recipe_rejections(genus, palette, vertices):
    with pytest.raises(RecipeError):
        SpineRecipe(genus=genus, palette=palette, quad_vertices=vertices)


def test_recipe_for_two_colors_is_a_path():
    spine = spine_for(SpineRecipe(genus=0, palette=2, quad_vertices=8))
    assert spine == Graph(edges=[(0, 1), (1, 2), (2, 3)])


def test_recipe_with_tight_budget_is_the_complete_core():
    spine = spine_for(SpineRecipe(genus=3, palette=4, quad_vertices=8))
    assert spine == complete_graph(4)


def test_recipe_realizes_requested_invariants():
    spine = spine_for(SpineRecipe(genus=5, palette=4, quad_vertices=20))
    assert len(spine.vertices) == 10
    assert cycle_rank(spine) == 5
    assert chromatic_number_exact(spine)[0] == 4


def test_recipe_sweep_invariants():
    for genus in range(5):
        for palette in (2, 3, 4):
            for vertices in range(4, 21, 2):
                try:
                    recipe = SpineRecipe(genus=genus, palette=palette, quad_vertices=vertices)
                except RecipeError:
                    continue
                spine = spine_for(recipe)
                assert len(spine.vertices) == vertices // 2
                assert cycle_rank(spine) == genus
                assert chromatic_number_exact(spine)[0] == palette


@pytest.mark.parametrize("genus, floor", [(1, 5), (2, 7), (3, 8), (6, 10), (20, 16)])
def test_vertex_floor_values(genus, floor):
    assert min_quad_vertices(genus) == floor


def test_vertex_floor_is_least_solution_and_matches_ceiling_formula():
    for genus in range(1, 200):
        v = min_quad_vertices(genus)
        assert v * v - 5 * v + 8 - 8 * genus >= 0
        assert (v - 1) ** 2 - 5 * (v - 1) + 8 - 8 * genus < 0
        assert v == math.ceil((5 + math.sqrt(32 * genus - 7)) / 2)


def test_vertex_floor_matches_linear_search():
    v = 1
    for genus in range(1, 2001):
        while v * v - 5 * v + 8 - 8 * genus < 0:
            v += 1
        assert min_quad_vertices(genus) == v


def test_minimality_checks_raise_without_assert(monkeypatch):
    # A wrong genus or a wrong floor must raise under python -O too.
    monkeypatch.setattr(families, "cycle_rank", lambda g: 0)
    with pytest.raises(VerificationError, match="closed form"):
        minimality_report(8, 2)
    monkeypatch.undo()
    monkeypatch.setattr(families, "min_quad_vertices", lambda genus: 2)
    with pytest.raises(VerificationError, match="floor 2"):
        minimality_report(8, 2)


def test_vertex_floor_monotone():
    values = [min_quad_vertices(g) for g in range(1, 60)]
    assert values == sorted(values)


def test_vertex_floor_rejects_genus_zero():
    with pytest.raises(RecipeError):
        min_quad_vertices(0)


MINIMAL_TRUE = [(4, 1), (5, 1), (6, 1), (7, 1), (8, 1), (8, 2), (9, 2)]


@pytest.mark.parametrize("n, m", MINIMAL_TRUE)
def test_certified_minimal_pairs(n, m):
    cert = minimality_report(n, m)
    assert cert.minimal
    assert cert.quad_vertices == 2 * n == cert.vertex_bound


@pytest.mark.parametrize("n, m", [(3, 1)] + [(n, 2) for n in range(4, 8)])
def test_not_minimal_pairs(n, m):
    cert = minimality_report(n, m)
    assert not cert.minimal
    assert not cert.sufficient_condition_met


def test_degenerate_family_point_rejected():
    # K_3 minus a 2-clique is a path: the surface is a sphere and the
    # vertex floor does not apply.
    with pytest.raises(RecipeError):
        minimality_report(3, 2)
    with pytest.raises(RecipeError):
        minimality_report(2, 1)


def test_certificate_fields_are_consistent():
    cert = minimality_report(5, 2)
    assert cert.genus == cycle_rank(complete_minus_clique(5, 2)) == 5
    assert cert.quad_vertices == 10
    assert cert.vertex_bound == min_quad_vertices(5)
    assert cert.minimal == (cert.quad_vertices == cert.vertex_bound)


def test_sufficient_condition_implies_minimal_in_sweep():
    for n in range(2, 13):
        for m in range(1, min(4, n)):
            try:
                cert = minimality_report(n, m)
            except RecipeError:
                continue
            if cert.sufficient_condition_met:
                assert cert.minimal


def test_every_embedding_meets_the_floor():
    # Any half-size spine component with c independent cycles gives a
    # component with 2V vertices and genus c, so 2V must clear the floor.
    import random

    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(3, 9)
        edges = {
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        }
        g = Graph(edges=edges)
        for block in components(g):
            sub = Graph(edges=[e for e in g.edges if e[0] in block])
            rank = cycle_rank(sub)
            if rank >= 1:
                assert 2 * len(block) >= min_quad_vertices(rank)
