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
    boundary_rank,
    components,
    cycle_rank,
    euler_poincare_check,
    from_graph,
    parse_complex,
)
from spinalquad import homology
from spinalquad.homology import _boundary_rows, _sparse_rank

from helpers import (
    dense_boundary,
    grid_torus,
    matrix_rank_exact,
    random_two_complex,
    rank_by_fractions,
    rank_mod_2,
    relabelled,
    suspended_sphere,
    twisted_grid_klein_bottle,
)


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
    with pytest.raises(ValueError, match=r"^triangle with repeated vertex: \(0, 1, 1\)$"):
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


@pytest.mark.parametrize("simplex", [(0, 1), (0, 1, 2, 3), (0, 1, 1, 2), ()])
def test_complex_rejects_triangles_of_other_than_three_ids(simplex):
    with pytest.raises(ValueError, match=rf"^triangle of {len(simplex)} vertex ids, not 3: "):
        SimplicialComplex(triangles=[simplex])


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
    d2 = dense_boundary(2, sc)
    # Rows follow the sorted edge order (0,1), (0,2), (1,2).
    assert d2 == [[1], [-1], [1]]
    d1 = dense_boundary(1, sc)
    assert d1 == [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]
    assert _boundary_rows(2, sc) == (sparse(d2), 1)
    assert _boundary_rows(1, sc) == (sparse(d1), 3)


def test_boundary_composition_vanishes():
    for seed in range(20):
        sc = random_two_complex(seed)
        d1 = dense_boundary(1, sc)
        d2 = dense_boundary(2, sc)
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
        assert from_graph(g) == SimplicialComplex(g.vertices, g.edges)
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


def test_euler_poincare_reuses_the_skeleton_of_the_complex(monkeypatch):
    # The complex built and validated its 1-skeleton once; the component
    # count of the check reads that graph instead of building another.
    complexes = (random_two_complex(3), from_graph(Graph(edges=[(0, 1), (2, 3)])))
    built = []
    init = Graph.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counted)
    reports = [euler_poincare_check(sc) for sc in complexes]
    assert built == []
    assert all(report.ok for report in reports)


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
    # Every simplex written out, faces before their cofaces, reads back
    # as the same complex.
    for seed in range(15):
        sc = random_two_complex(seed)
        simplices = [(v,) for v in sc.vertices] + list(sc.edges) + list(sc.triangles)
        text = "".join(" ".join(map(str, s)) + "\n" for s in simplices)
        assert parse_complex(text) == sc


@pytest.mark.parametrize("text", ["0 1 2 3", "a b", "-1 2", "1 1", "0 1 1"])
def test_parse_complex_rejects_malformed_lines(text):
    with pytest.raises(ParseError):
        parse_complex(text)


def test_parse_complex_shares_one_int_per_id():
    # Ids above the small-int cache, so an int read per token would be
    # a new object each time.
    torus = grid_torus(6)
    text = "".join(" ".join(str(1000 + v) for v in t) + "\n" for t in torus.triangles)
    sc = parse_complex(text)
    objects = {id(v) for t in sc.triangles for v in t}
    objects |= {id(v) for e in sc.edges for v in e} | set(map(id, sc.vertices))
    assert len(objects) == len(sc.vertices) == 36


def test_parse_complex_error_names_the_first_line_of_a_bad_token():
    with pytest.raises(ParseError, match=r"^line 2: expected decimal vertex id, got 'x'$"):
        parse_complex("0 1\n1 x\n2 x\n")


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
    # Entries outside +-1 leave rows with no unit entry, so non-unit
    # pivots are taken on part of the sample.
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
    # The reference matrix is read off the simplices, so the dense rank
    # shares no code with the sparse rows and rank it checks.
    for seed in range(40):
        sc = random_two_complex(seed, max_vertices=12)
        for k in (1, 2):
            dense = dense_boundary(k, sc)
            assert _boundary_rows(k, sc) == (sparse(dense), len(sc.edges if k == 1 else sc.triangles))
            assert boundary_rank(k, sc) == matrix_rank_exact(dense)


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


def test_projective_plane_takes_non_unit_pivots():
    # An elimination that only pivots on +1 or -1 is valid mod 2 too,
    # and mod 2 the triangle boundary has rank 9: the rank of 10 is
    # reached only through a non-unit pivot.
    assert len(RP2.vertices) == 6 and len(RP2.edges) == 15
    assert rank_mod_2(dense_boundary(2, RP2)) == 9
    assert boundary_rank(2, RP2) == 10
    assert betti_numbers(RP2) == BettiVector(1, 0, 0)


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


# Closed surfaces at and around the sizes of the dense homology
# benchmark, relabelled so that their sorted orders change. The Klein
# bottles take non-unit pivots. A sign slip in the triangle boundary
# can turn a torus's b2 from 1 to 0, but not on every surface: flipping
# the sign of the (a, c) face of every triangle leaves every torus's
# Betti numbers right. So the rows are also compared with the matrix
# read off the simplices.
SURFACES = (
    [pytest.param(grid_torus(a), (1, 2, 1), id=f"torus-{a}") for a in range(3, 11)]
    + [pytest.param(suspended_sphere(n), (1, 0, 1), id=f"sphere-{n}") for n in range(4, 61)]
    + [pytest.param(twisted_grid_klein_bottle(a), (1, 1, 0), id=f"klein-{a}") for a in range(5, 11)]
)


@pytest.mark.parametrize("sc, expected", SURFACES)
def test_betti_and_triangle_boundary_of_relabelled_surfaces(sc, expected):
    sc = relabelled(sc, seed=len(sc.triangles))
    assert betti_numbers(sc) == BettiVector(*expected)
    assert _boundary_rows(2, sc) == (sparse(dense_boundary(2, sc)), len(sc.triangles))
