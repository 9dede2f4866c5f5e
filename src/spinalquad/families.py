"""Named spine families, recipe-driven spine synthesis, and minimality
certificates for quadrangulations built from nearly complete graphs.

A recipe (genus, face palette, quad vertex count) is realized by a
spine whose cycle rank is the genus, whose chromatic number is the
palette size, and whose vertex count is half the requested
quadrangulation size. The construction is: a complete core for the
palette, triangle gadgets to raise the cycle rank one at a time, and
pendant vertices to pad the count without touching either invariant.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .graph import Graph, cycle_rank
from .verify import VerificationError


class RecipeError(ValueError):
    """A requested family or recipe violates its constraints."""


def complete_graph(n: int) -> Graph:
    return complete_minus_clique(n, 1)


def complete_minus_edge(n: int) -> Graph:
    """K_n with the edge {0, 1} removed."""
    if n < 3:
        raise RecipeError(f"complete graph minus an edge needs at least 3 vertices, got {n}")
    return complete_minus_clique(n, 2)


def complete_minus_clique(n: int, m: int) -> Graph:
    """K_n with all edges inside {0, .., m-1} removed.

    m = 1 removes nothing; m = n - 1 leaves a star. The result is
    connected for every allowed pair.
    """
    if n < 2:
        raise RecipeError(f"complete graph needs at least 2 vertices, got {n}")
    if not 1 <= m <= n - 1:
        raise RecipeError(f"removed clique size {m} outside 1..{n - 1} for n={n}")
    return Graph(edges=[(i, j) for i in range(n) for j in range(max(i + 1, m), n)])


def random_tree(vertex_count: int, seed: int) -> Graph:
    """Uniform-attachment random tree on 0..vertex_count-1.

    Vertex v > 0 joins a parent drawn uniformly from 0..v-1, so the
    result is connected and acyclic by construction, and identical
    across runs with the same seed.
    """
    if vertex_count < 2:
        raise RecipeError(f"tree needs at least 2 vertices, got {vertex_count}")
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, vertex_count)]
    return Graph(edges=edges)


@dataclass(frozen=True)
class SpineRecipe:
    """Target invariants: surface genus, face palette size, and the
    number of vertices the quadrangulation must have.

    Feasibility constraints, checked on construction:
      - palette >= 2, quad vertex count even and >= 4, genus >= 0;
      - palette 2 forces genus 0 (bipartite spines are forests here);
      - palette k >= 3 needs genus >= (k-1)(k-2)/2, the cycle rank of
        the complete core;
      - the vertex count must fit the core and gadgets:
        quad_vertices >= 4*genus - 2*(k*k - 4*k + 2).
    """

    genus: int
    palette: int
    quad_vertices: int

    def __post_init__(self) -> None:
        g, k, p = self.genus, self.palette, self.quad_vertices
        if k < 2:
            raise RecipeError(f"face palette {k} is below the minimum of 2")
        if p < 4 or p % 2 != 0:
            raise RecipeError(f"quad vertex count {p} is not an even number >= 4")
        if g < 0:
            raise RecipeError(f"genus {g} is negative")
        if k == 2 and g != 0:
            raise RecipeError(f"palette 2 forces genus 0, got genus {g}")
        if k >= 3 and 2 * g < (k - 1) * (k - 2):
            raise RecipeError(
                f"palette {k} needs genus >= {(k - 1) * (k - 2) // 2}, got {g}"
            )
        floor = 4 * g - 2 * (k * k - 4 * k + 2)
        if p < floor:
            raise RecipeError(
                f"quad vertex count {p} is below the recipe floor {floor}"
            )


def spine_for(recipe: SpineRecipe) -> Graph:
    """Build a spine realizing the recipe.

    Palette 2: a path on half the quad vertex count. Palette k >= 3: a
    complete core K_k, one triangle gadget (two fresh vertices tied to
    each other and to vertex 0) per unit of genus above the core's
    cycle rank, then pendants at vertex 0 up to the vertex budget.
    """
    g, k, p = recipe.genus, recipe.palette, recipe.quad_vertices
    spine_vertices = p // 2
    if k == 2:
        return Graph(edges=[(i, i + 1) for i in range(spine_vertices - 1)])
    edges = list(complete_graph(k).edges)
    nxt = k
    gadgets = g - (k - 1) * (k - 2) // 2
    for _ in range(gadgets):
        a, b = nxt, nxt + 1
        nxt += 2
        edges.extend([(0, a), (a, b), (0, b)])
    while nxt < spine_vertices:
        edges.append((0, nxt))
        nxt += 1
    return Graph(edges=edges)


def min_quad_vertices(genus: int) -> int:
    """Smallest vertex count any quadrangulation of the given genus
    can have: the least V with V*V - 5*V + 8 - 8*genus >= 0.

    Only positive genus has a nontrivial floor; genus below 1 is
    rejected.
    """
    if genus < 1:
        raise RecipeError(f"vertex floor needs genus >= 1, got {genus}")
    # The larger root is (5 + sqrt(32*genus - 7)) / 2 and the smaller
    # one is at most 0, so V is the least integer with 2V - 5 >= t,
    # where t is the ceiling of that square root.
    d = 32 * genus - 7
    t = math.isqrt(d)
    if t * t < d:
        t += 1
    return (t + 6) // 2


@dataclass(frozen=True)
class MinimalityCertificate:
    """Verdict on whether the quadrangulation built from K_n minus a
    clique meets the genus vertex floor exactly.

    ``sufficient_condition_met`` records the closed-form test
    n >= 4 + 2*m*(m-1); when it holds, minimality follows, and the
    certificate carries both so the implication stays checkable.
    """

    n: int
    m: int
    genus: int
    quad_vertices: int
    vertex_bound: int
    sufficient_condition_met: bool
    minimal: bool


def minimality_report(n: int, m: int) -> MinimalityCertificate:
    """Certify minimality of the quadrangulation spun from K_n minus
    the edges of an m-clique.

    The genus is computed from the constructed spine's cycle rank and
    cross-checked against the closed form
    (n-1)(n-2)/2 - m(m-1)/2; positive genus is required because the
    vertex floor only exists there.
    """
    spine = complete_minus_clique(n, m)
    genus = cycle_rank(spine)
    if 2 * genus != (n - 1) * (n - 2) - m * (m - 1):
        raise VerificationError(
            f"K_{n} minus a {m}-clique: cycle rank {genus} breaks the closed form"
        )
    if genus < 1:
        raise RecipeError(
            f"quadrangulation of K_{n} minus a {m}-clique has genus {genus}; "
            "minimality certificates need genus >= 1"
        )
    bound = min_quad_vertices(genus)
    quad_vertices = 2 * n
    sufficient = n >= 4 + 2 * m * (m - 1)
    minimal = quad_vertices == bound
    if sufficient and not minimal:
        raise VerificationError(
            f"K_{n} minus a {m}-clique meets n >= 4 + 2m(m-1) but has "
            f"{quad_vertices} quad vertices against the floor {bound}"
        )
    return MinimalityCertificate(
        n=n,
        m=m,
        genus=genus,
        quad_vertices=quad_vertices,
        vertex_bound=bound,
        sufficient_condition_met=sufficient,
        minimal=minimal,
    )
