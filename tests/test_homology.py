import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinalquad import (
    BettiVector,
    Graph,
    ParseError,
    SimplicialComplex,
    betti_numbers,
    boundary_matrix,
    boundary_rank,
    components,
    cycle_rank,
    euler_poincare_check,
    format_complex,
    from_graph,
    matrix_rank_exact,
    parse_complex,
)
from spinalquad import homology
from spinalquad.homology import _sparse_rank

from helpers import random_two_complex, rank_by_fractions


def sparse(rows: list[list[int]]) -> list[dict[int, int]]:
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def test_complex_closes_downward():
    sc = SimplicialComplex(triangles=[(2, 0, 1)])
    assert sc.vertices == (0, 1, 2)
    assert sc.edges == ((0, 1), (0, 2), (1, 2))
    assert sc.triangles == ((0, 1, 2),)


def test_complex_rejects_degenerate_simplices():
    with pytest.raises(ValueError):
        SimplicialComplex(edges=[(1, 1)])
    with pytest.raises(ValueError):
        SimplicialComplex(triangles=[(0, 1, 1)])
    with pytest.raises(ValueError):
        SimplicialComplex(vertices=[-2])


@pytest.mark.parametrize(
    "simplices",
    [
        {"triangles": [(0, 1.5, 2.7)]},
        {"edges": [(0, 1.0)]},
        {"edges": [("3", 4)]},
        {"vertices": [0.0]},
    ],
)
def test_complex_rejects_non_integer_ids(simplices):
    with pytest.raises(TypeError):
        SimplicialComplex(**simplices)


def test_from_graph_keeps_vertices_and_edges():
    g = Graph(vertices=[4], edges=[(0, 1), (1, 2)])
    sc = from_graph(g)
    assert sc.vertices == (0, 1, 2, 4)
    assert sc.edges == ((0, 1), (1, 2))
    assert sc.triangles == ()


def test_rank_of_identity_and_zero():
    assert matrix_rank_exact([[1, 0], [0, 1]]) == 2
    assert matrix_rank_exact([[0, 0], [0, 0]]) == 0
    assert matrix_rank_exact([]) == 0


def test_rank_on_dependent_rows():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert matrix_rank_exact(m) == 2


def test_rank_survives_big_integers_exactly():
    # Floating point would lose these; exact elimination must not.
    big = 10**30
    m = [[big, 1], [big, 1], [0, big]]
    assert matrix_rank_exact(m) == 2


def test_rank_matches_rational_elimination_on_random_matrices():
    rng = random.Random(5)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        assert matrix_rank_exact([row[:] for row in m]) == rank_by_fractions(m)


def test_boundary_matrix_of_one_triangle():
    sc = SimplicialComplex(triangles=[(0, 1, 2)])
    d2 = boundary_matrix(2, sc)
    # Rows follow the sorted edge order (0,1), (0,2), (1,2).
    assert d2 == [[1], [-1], [1]]
    d1 = boundary_matrix(1, sc)
    assert d1 == [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]


def test_boundary_composition_vanishes():
    for seed in range(20):
        sc = random_two_complex(seed)
        d1 = boundary_matrix(1, sc)
        d2 = boundary_matrix(2, sc)
        if not d2 or not d2[0]:
            continue
        for j in range(len(d2[0])):
            col = [sum(d1[i][k] * d2[k][j] for k in range(len(d2))) for i in range(len(d1))]
            assert all(x == 0 for x in col)


def test_boundary_rank_rejects_bad_dimension():
    sc = SimplicialComplex(vertices=[0])
    with pytest.raises(ValueError):
        boundary_rank(0, sc)
    with pytest.raises(ValueError):
        boundary_rank(3, sc)


@pytest.mark.parametrize(
    "sc, expected",
    [
        (SimplicialComplex(triangles=[(0, 1, 2)]), (1, 0, 0)),
        (SimplicialComplex(edges=[(0, 1), (1, 2), (0, 2)]), (1, 1, 0)),
        (
            SimplicialComplex(triangles=[(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
            (1, 0, 1),
        ),
        (
            SimplicialComplex(edges=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
            (2, 2, 0),
        ),
        (SimplicialComplex(vertices=[0]), (1, 0, 0)),
        (SimplicialComplex(vertices=[0, 1, 2]), (3, 0, 0)),
    ],
)
def test_betti_fixtures(sc, expected):
    assert betti_numbers(sc) == BettiVector(*expected)


def test_graph_betti_match_component_and_cycle_counts():
    for seed in range(25):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.3
        ]
        g = Graph(range(n), edges)
        b = betti_numbers(from_graph(g))
        assert b.b0 == len(components(g))
        assert b.b1 == cycle_rank(g)
        assert b.b2 == 0


def test_euler_poincare_on_fixtures_and_random_complexes():
    report = euler_poincare_check(SimplicialComplex(triangles=[(0, 1, 2)]))
    assert report.ok
    assert report.euler_characteristic == 1
    for seed in range(40):
        assert euler_poincare_check(random_two_complex(seed)).ok


def test_euler_poincare_catches_a_wrong_edge_boundary_rank(monkeypatch):
    # Rank-nullity makes chi == b0 - b1 + b2 hold for any ranks, so only
    # the component count of the 1-skeleton can catch this one.
    rank = homology.boundary_rank
    monkeypatch.setattr(homology, "boundary_rank", lambda k, sc: rank(k, sc) + (k == 1))
    report = euler_poincare_check(SimplicialComplex(edges=[(0, 1)], vertices=[2]))
    assert report.betti == BettiVector(b0=1, b1=-1, b2=0)
    assert not report.ok


SC_FILE = """\
# one filled triangle, one stray edge, one loner vertex
0 1 2
3 4
9
"""


def test_parse_complex_applies_closure():
    sc = parse_complex(SC_FILE)
    assert sc.triangles == ((0, 1, 2),)
    assert (0, 1) in sc.edges and (3, 4) in sc.edges
    assert 9 in sc.vertices


def test_complex_round_trip():
    for seed in range(15):
        sc = random_two_complex(seed)
        assert parse_complex(format_complex(sc)) == sc


def test_format_complex_emits_maximal_simplices_only():
    sc = SimplicialComplex(triangles=[(0, 1, 2)])
    text = format_complex(sc)
    assert "0 1 2" in text
    assert "0 1\n" not in text


@pytest.mark.parametrize("text", ["0 1 2 3", "a b", "-1 2", "1 1", "0 1 1"])
def test_parse_complex_rejects_malformed_lines(text):
    with pytest.raises(ParseError):
        parse_complex(text)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=cols, max_size=cols),
            max_size=7,
        )
    )
)
def test_sparse_rank_matches_both_oracles(rows):
    # Entries outside +-1 leave blocks with no unit pivot, so the
    # dense fallback runs on part of the sample.
    expected = rank_by_fractions(rows)
    assert matrix_rank_exact(rows) == expected
    assert _sparse_rank(sparse(rows)) == expected


def test_sparse_rank_edge_cases():
    assert _sparse_rank([]) == 0
    assert _sparse_rank([{}, {}]) == 0
    assert _sparse_rank(sparse([[2, 4], [1, 2]])) == 1
    assert _sparse_rank(sparse([[2, 3], [4, 5]])) == 2
    assert _sparse_rank(sparse([[10**30, 1], [10**30, 1], [0, 10**30]])) == 2


def test_boundary_rank_matches_dense_rank_on_random_complexes():
    for seed in range(40):
        sc = random_two_complex(seed, max_vertices=12)
        for k in (1, 2):
            assert boundary_rank(k, sc) == matrix_rank_exact(boundary_matrix(k, sc))


# Six-vertex real projective plane: the antipodal quotient of the
# icosahedron. Its integral H1 is Z/2, so over the rationals it is
# acyclic, and eliminating unit pivots from the triangle boundary
# leaves a 2 behind.
RP2 = SimplicialComplex(
    triangles=[
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
        (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
    ]
)


def test_projective_plane_takes_the_non_unit_fallback(monkeypatch):
    blocks = []

    def recording_rank(rows):
        blocks.append([row[:] for row in rows])
        return matrix_rank_exact(rows)

    monkeypatch.setattr(homology, "matrix_rank_exact", recording_rank)
    assert len(RP2.vertices) == 6 and len(RP2.edges) == 15
    assert betti_numbers(RP2) == BettiVector(1, 0, 0)
    assert boundary_rank(2, RP2) == 10
    assert any(x not in (0, 1, -1) for block in blocks for row in block for x in row)


@pytest.mark.parametrize(
    "n, m, seed", [(10, 40, 1), (100, 400, 2), (1000, 4000, 3), (2000, 1200, 5), (5000, 20000, 4)]
)
def test_betti_of_large_random_spines(n, m, seed):
    # m < n leaves many components, m = 4n almost always one.
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    g = Graph(range(n), edges)
    c = len(components(g))
    assert betti_numbers(from_graph(g)) == BettiVector(c, m - n + c, 0)
