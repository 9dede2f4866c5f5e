"""The three workloads: seeded set-up, warm-up, and the fixed job list.

A job is one request a user would make, run as public library calls
(or through ``spinalquad.cli.run``) and checked against the answer its
input was built to have. Every call into the library goes through the
tracer with a ``<module>.<function>`` span name; see ``tracer.LAYERS``.

- ``surface-large``: the full CLI chain on one 10,000-vertex,
  25,000-edge spine. Embedding and verification do nearly all the
  work; homology and the exact colouring solver do none.
- ``batch-small``: several hundred small requests: recipe spines,
  random spines of at most 24 vertices, Mycielski graphs, minimality
  certificates, tampered files, known vacuous passes, colouring
  refusals, and a CLI slice. Per-call overhead, the exact solver and
  the reject path dominate; surface size is negligible.
- ``homology-dense``: dense exact Betti numbers of 120- to 200-vertex
  spines, triangulated tori and spheres, and ``thicken``. Homology does
  nearly all the work; the surface path is bypassed except inside
  ``thicken``.
"""

from __future__ import annotations

import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from typing import Callable

import spinalquad as sq
from spinalquad.cli import run as cli_run

import inputs as gen
from inputs import expect
from tracer import Tracer


@dataclass(frozen=True)
class Job:
    name: str
    fn: Callable[[Tracer], None]
    # Set on jobs that probe a documented defect of the program: their
    # failures still count, but do not make the run incorrect.
    known_defect: str | None = None


@dataclass
class Workload:
    jobs: list[Job]
    warmup: list[Job]
    # Every generated input text by name, for the reproducibility check.
    inputs: dict[str, str] = field(default_factory=dict)


# --- traced calls into the library ------------------------------------


def parse_edges(t: Tracer, text: str) -> sq.Graph:
    g = t.call("graph.parse_edge_list", sq.parse_edge_list, text)
    t.count("graph.edges_parsed", len(g.edges))
    return g


def _rotations(g: sq.Graph, seed: int) -> sq.RotationSystem:
    return sq.permute_rotations(sq.default_rotations(g), seed)


def build_quad(t: Tracer, g: sq.Graph, seed: int) -> str:
    rotations = t.call("embed.permute_rotations", _rotations, g, seed)
    q = t.call("embed.quadrangulate", sq.quadrangulate, g, rotations)
    t.count("embed.faces_built", len(q.faces))
    return t.call("embed.format_quad", sq.format_quad, q)


def parse_quad(t: Tracer, text: str) -> sq.QuadEmbedding:
    q = t.call("embed.parse_quad", sq.parse_quad, text)
    t.count("embed.faces_parsed", len(q.faces))
    return q


def verify(t: Tracer, q: sq.QuadEmbedding) -> sq.SurfaceReport:
    report = t.call("verify.verify_surface", sq.verify_surface, q)
    if not report.ok:
        t.count("verify.rejected")
    return report


def betti(t: Tracer, complex_: sq.SimplicialComplex) -> tuple[int, int, int]:
    b = t.call("homology.betti_numbers", sq.betti_numbers, complex_)
    v, e, f = len(complex_.vertices), len(complex_.edges), len(complex_.triangles)
    t.count("homology.boundary_entries", v * e + e * f)
    return tuple(b)


def cli(t: Tracer, *argv: str) -> str:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = t.call(f"cli.{argv[0]}", cli_run, list(argv))
    expect(code == 0, f"cli {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


# --- known-answer checks -------------------------------------------------


def check_quad_text(text: str, spine: gen.Spine) -> None:
    expect(text.startswith(gen.quad_header(spine) + "\n"), "quad header differs from 2n 4m 2m c")
    expect(text.count("\n") == 2 * spine.m + 1, "quad face count differs from 2m")


def component_lines(spine: gen.Spine) -> list[str]:
    """The ``verify`` report each block's component must get."""
    return [
        f"component={i} vertices={2 * n} edges={4 * m} faces={2 * m} chi={2 * n - 2 * m} "
        f"closed=true orientable=true genus={m - n + 1}"
        for i, (n, m) in enumerate(spine.blocks)
    ]


def check_surface(report: sq.SurfaceReport, spine: gen.Spine) -> None:
    expect(report.ok, "certified surface rejected")
    expect(report.comp == spine.comp, f"comp={report.comp}, built with {spine.comp}")
    expect(report.hand == spine.hand, f"hand={report.hand}, cycle rank is {spine.hand}")
    got = [(c.vertices, c.edges, c.faces, c.genus) for c in report.components]
    want = [(2 * n, 4 * m, 2 * m, m - n + 1) for n, m in spine.blocks]
    expect(got == want, "per-component counts or genus differ")


def check_witness(chi: int, witness: sq.VertexColoring, spine: gen.Spine) -> None:
    expect(chi == spine.chi, f"chi={chi}, built with {spine.chi}")
    colors = witness.colors
    expect(witness.palette == chi and len(colors) == spine.n, "witness palette or size")
    expect(all(colors[u] != colors[v] for u, v in spine.edges), "witness colouring improper")


def own_edges(text: str) -> tuple[gen.Edge, ...]:
    edges = []
    for line in text.splitlines():
        u, v = map(int, line.split())
        edges.append((min(u, v), max(u, v)))
    return tuple(sorted(edges))


# --- job bodies ------------------------------------------------------------


def certify(t: Tracer, g: sq.Graph, spine: gen.Spine, seed: int) -> tuple[str, sq.QuadEmbedding]:
    """Rotate, quadrangulate, format, parse back and verify, checking
    each step against the counts the spine was built with."""
    expect((len(g.vertices), len(g.edges)) == (spine.n, spine.m), "parsed spine size")
    quad = build_quad(t, g, seed)
    check_quad_text(quad, spine)
    q = parse_quad(t, quad)
    check_surface(verify(t, q), spine)
    return quad, q


def color_faces(t: Tracer, q: sq.QuadEmbedding, coloring: sq.VertexColoring, chi: int) -> None:
    faces = t.call(
        "coloring.face_coloring_from_sources", sq.face_coloring_from_sources, q, coloring
    )
    proper = t.call("coloring.verify_proper_faces", sq.verify_proper_faces, q, faces)
    expect(faces.palette == chi and proper.ok, "source face colouring improper")


def surface_job(spine: gen.Spine, text: str, colors: sq.VertexColoring, seed: int):
    def job(t: Tracer) -> None:
        g = parse_edges(t, text)
        inter = t.call("interlace.interlace", sq.interlace, g)
        twins = t.call("interlace.format_twin_edge_list", sq.format_twin_edge_list, inter.graph)
        expect(twins.count("\n") == 4 * spine.m, "interlacement edge count differs from 4m")
        _, q = certify(t, g, spine, seed)
        color_faces(t, q, colors, spine.chi)

    return job


def spine_chain(
    t: Tracer, g: sq.Graph, spine: gen.Spine, seed: int, face: int, identities: bool
) -> None:
    """Certify the surface, solve, lift and colour faces, optionally
    check the homology identities, then verify three tampered copies
    of the certified file."""
    quad, q = certify(t, g, spine, seed)
    chi, witness = t.call("coloring.chromatic_number_exact", sq.chromatic_number_exact, g)
    check_witness(chi, witness, spine)
    lifted = t.call("coloring.lift_coloring", sq.lift_coloring, q.interlacement, witness)
    twice = sorted(c for c in witness.colors.values() for _ in (0, 1))
    expect(lifted.palette == chi and sorted(lifted.colors.values()) == twice, "lift differs")
    color_faces(t, q, witness, chi)
    if identities:
        ident = t.call("verify.check_thickening_identities", sq.check_thickening_identities, g)
        got = (ident.ok, ident.comp, ident.hand)
        expect(got == (True, spine.comp, spine.hand), f"thickening identities {got}")
        expect(tuple(ident.betti) == (spine.comp, spine.hand, 0), "spine Betti numbers")
        dual = t.call("verify.check_duality_formula", sq.check_duality_formula, g)
        want = (spine.comp, 2 * spine.hand, spine.comp)
        expect(dual.ok and tuple(dual.surface_betti) == want, "duality formula")
    for action in gen.TAMPERINGS:
        damaged = parse_quad(t, gen.tamper(quad, action, face))
        expect(not verify(t, damaged).ok, f"{action} of face {face} was not rejected")


def text_spine_job(spine: gen.Spine, text: str, seed: int, face: int, identities: bool):
    def job(t: Tracer) -> None:
        spine_chain(t, parse_edges(t, text), spine, seed, face, identities)

    return job


def recipe_job(genus: int, palette: int, quad_vertices: int, seed: int, face: int):
    n = quad_vertices // 2

    def job(t: Tracer) -> None:
        recipe = sq.SpineRecipe(genus=genus, palette=palette, quad_vertices=quad_vertices)
        g0 = t.call("families.spine_for", sq.spine_for, recipe)
        text = t.call("graph.format_edge_list", sq.format_edge_list, g0)
        # A connected spine on n vertices with cycle rank g has n - 1 + g edges.
        spine = gen.Spine(own_edges(text), (), palette, ((n, n - 1 + genus),))
        expect(spine.m == n - 1 + genus, f"recipe spine has {spine.m} edges")
        spine_chain(t, parse_edges(t, text), spine, seed, face, identities=False)

    return job


def refusal_job(genus: int, palette: int, quad_vertices: int):
    """Above the solver's reach the only right answers are an explicit
    refusal or the recipe's palette."""

    def job(t: Tracer) -> None:
        recipe = sq.SpineRecipe(genus=genus, palette=palette, quad_vertices=quad_vertices)
        g = t.call("families.spine_for", sq.spine_for, recipe)
        try:
            chi, _ = t.call("coloring.chromatic_number_exact", sq.chromatic_number_exact, g)
        except ValueError:
            t.count("coloring.refusals")
            return
        expect(chi == palette, f"chi={chi}, recipe palette {palette}")

    return job


def minimality_job(n: int, m: int):
    want = gen.minimality_expectation(n, m)

    def job(t: Tracer) -> None:
        try:
            cert = t.call("families.minimality_report", sq.minimality_report, n, m)
        except sq.RecipeError:
            expect(want is None, f"refused K_{n} minus K_{m}")
            return
        expect(want is not None, f"no refusal for genus-0 K_{n} minus K_{m}")
        got = (cert.genus, cert.vertex_bound, cert.sufficient_condition_met, cert.minimal)
        expect(got == want and cert.quad_vertices == 2 * n, f"certificate {got}, want {want}")

    return job


def floor_job(genus: int):
    want = gen.min_quad_vertices_closed_form(genus)

    def job(t: Tracer) -> None:
        got = t.call("families.min_quad_vertices", sq.min_quad_vertices, genus)
        expect(got == want, f"vertex floor {got} for genus {genus}, want {want}")

    return job


def header_only_job(t: Tracer) -> None:
    report = verify(t, parse_quad(t, "quad 6 12 6 1\n"))
    expect(not report.ok, f"header-only file verifies: comp={report.comp} ok=true")


def dropped_component_job(t: Tracer) -> None:
    spine = gen.Spine(gen.TWO_TRIANGLES, (), 3, ((3, 3), (3, 3)))
    quad = build_quad(t, parse_edges(t, "".join(f"{u} {v}\n" for u, v in spine.edges)), 0)
    check_quad_text(quad, spine)
    report = verify(t, parse_quad(t, gen.drop_sources(quad, {3, 4, 5})))
    expect(not report.ok, f"file missing a component verifies: comp={report.comp} ok=true")


def cli_jobs(name: str, spine: gen.Spine, files: dict[str, Path], seed: int) -> list[Job]:
    """The CLI chain on one spine: quadrangulate, verify, chroma,
    thicken and facecolor, each a job of its own, stdout compared."""
    quad_path = files["edges"].with_suffix(".quad")
    edges, quad, colors = str(files["edges"]), str(quad_path), str(files["colors"])

    def quadrangulate(t: Tracer) -> None:
        out = cli(t, "quadrangulate", "--in", edges, "--seed", str(seed), "--out", quad)
        expect(out == "", "quadrangulate --out wrote to stdout")
        check_quad_text(quad_path.read_text(), spine)

    def verify_(t: Tracer) -> None:
        want = component_lines(spine) + [f"comp={spine.comp} hand={spine.hand} ok=true"]
        expect(cli(t, "verify", "--in", quad) == "\n".join(want) + "\n", "verify stdout")

    def chroma(t: Tracer) -> None:
        head, palette, *lines = cli(t, "chroma", "--in", edges).splitlines()
        want = (f"chi={spine.chi}", f"colors {spine.chi}")
        expect((head, palette) == want, f"chroma says {head}")
        witness = dict(tuple(map(int, line.split())) for line in lines)
        expect(all(witness[u] != witness[v] for u, v in spine.edges), "chroma witness improper")

    def thicken(t: Tracer) -> None:
        want = f"comp={spine.comp} hand={spine.hand} identity_check=true duality_check=true\n"
        expect(cli(t, "thicken", "--in", edges) == want, "thicken stdout")

    def facecolor(t: Tracer) -> None:
        faces = quad_path.read_text().splitlines()[1:]
        sources = [int(line.rsplit("src=", 1)[1]) for line in faces]
        want = [f"colors {spine.chi}"] + [f"f{i} {spine.colors[s]}" for i, s in enumerate(sources)]
        out = cli(t, "facecolor", "--in", quad, "--coloring", colors)
        expect(out == "\n".join(want + ["proper=true"]) + "\n", "facecolor stdout")

    steps = (quadrangulate, verify_, chroma, thicken, facecolor)
    return [Job(f"cli.{step.__name__.rstrip('_')}.{name}", step) for step in steps]


def write_inputs(
    tmp: Path, name: str, texts: dict[str, str], inputs: dict[str, str]
) -> dict[str, Path]:
    """Write each text to ``tmp/<name>.<kind>`` and record it in ``inputs``."""
    paths = {}
    for kind, text in texts.items():
        path = tmp / f"{name}.{kind}"
        path.write_text(text, encoding="utf-8")
        inputs[path.name] = text
        paths[kind] = path
    return paths


# --- workloads -------------------------------------------------------------

SURFACE_SIZE = (10_000, 25_000, 4)
SURFACE_JOBS = 2
SMALL_SPINES = 8 * 21
CLI_EVERY = 14
REFUSAL_RECIPES = ((4, 3, 50), (8, 4, 52), (10, 5, 60))
DENSE_SPINES = (120, 160, 200)
TORI = (8, 10)
SPHERES = (40, 60)


def surface_large(seed: int, tmp: Path) -> Workload:
    rng = random.Random(seed)
    spine = gen.planted_spine(rng, [SURFACE_SIZE])
    text = gen.edge_list_text(rng, spine.edges)
    colors = sq.VertexColoring(colors=dict(enumerate(spine.colors)), palette=spine.chi)
    seeds = [rng.randrange(2**31) for _ in range(SURFACE_JOBS)]
    jobs = [Job(f"surface.{i}", surface_job(spine, text, colors, s)) for i, s in enumerate(seeds)]
    small = gen.planted_spine(rng, [(200, 500, 4)])
    small_colors = sq.VertexColoring(colors=dict(enumerate(small.colors)), palette=small.chi)
    warm = surface_job(small, gen.edge_list_text(rng, small.edges), small_colors, 0)
    inputs = {
        "spine.edges": text,
        "spine.colors": gen.coloring_text(spine.colors),
        "rotation.seeds": repr(seeds),
    }
    return Workload(jobs, [Job("warmup", warm)], inputs)


def batch_small(seed: int, tmp: Path) -> Workload:
    rng = random.Random(seed)
    inputs: dict[str, str] = {}
    # Jobs that must run in order (a CLI chain) share a group.
    groups: list[list[Job]] = []
    box = gen.recipe_box()
    if len(box) != 97:
        raise RuntimeError(f"acceptance recipe box has {len(box)} recipes, not 97")
    for g, k, p in box:
        face = rng.randrange(2 * (p // 2 - 1 + g))
        groups.append([Job(f"recipe.{g}-{k}-{p}", recipe_job(g, k, p, rng.randrange(2**31), face))])
    for i in range(SMALL_SPINES):
        # Sizes cycle through 4..24 so that every seed gets the same mix.
        spine = gen.small_spine(rng, 4 + i % 21)
        text = gen.edge_list_text(rng, spine.edges)
        inputs[f"small.{i}.edges"] = text
        rot_seed, face = rng.randrange(2**31), rng.randrange(2 * spine.m)
        job = text_spine_job(spine, text, rot_seed, face, identities=True)
        groups.append([Job(f"small.{i}", job)])
        if i % CLI_EVERY == 0:
            texts = {"edges": text, "colors": gen.coloring_text(spine.colors)}
            files = write_inputs(tmp, f"small.{i}", texts, inputs)
            groups.append(cli_jobs(f"small.{i}", spine, files, rot_seed))
    for k in (3, 4, 5):
        spine = gen.mycielski(k)
        text = gen.edge_list_text(rng, spine.edges)
        inputs[f"mycielski.{k}.edges"] = text
        rot_seed, face = rng.randrange(2**31), rng.randrange(2 * spine.m)
        groups.append([Job(f"mycielski.{k}", text_spine_job(spine, text, rot_seed, face, True))])
    for n in range(3, 15):
        for m in range(1, min(4, n)):
            groups.append([Job(f"minimality.{n}-{m}", minimality_job(n, m))])
    groups += [[Job(f"floor.{genus}", floor_job(genus))] for genus in range(1, 21)]
    groups += [[Job(f"refusal.{g}-{k}-{p}", refusal_job(g, k, p))] for g, k, p in REFUSAL_RECIPES]
    header_only = "header-only .quad verifies (ROADMAP 4a)"
    dropped = "component with all faces dropped verifies (ROADMAP 4b)"
    groups += [
        [Job("vacuous.header_only", header_only_job, header_only)],
        [Job("vacuous.dropped_component", dropped_component_job, dropped)],
    ]
    # Warm up on the first group of each kind, before the shuffle that
    # fixes one interleaved order for the closed loop.
    firsts = {group[0].name.split(".", 1)[0]: group for group in reversed(groups)}
    warmup = [job for group in firsts.values() for job in group]
    rng.shuffle(groups)
    return Workload([job for group in groups for job in group], warmup, inputs)


def homology_dense(seed: int, tmp: Path) -> Workload:
    rng = random.Random(seed)
    inputs: dict[str, str] = {}
    jobs: list[Job] = []
    thicken: list[Job] = []
    for n in DENSE_SPINES:
        spine = gen.random_spine(rng, n, 4 * n)
        text = gen.edge_list_text(rng, spine.edges)
        path = write_inputs(tmp, f"dense.{n}", {"edges": text}, inputs)["edges"]
        jobs.append(Job(f"betti.{n}", betti_graph_job(spine, sq.Graph(range(n), spine.edges))))
        thicken.append(Job(f"thicken.{n}", thicken_job(spine, path)))
    for a in TORI:
        text = gen.torus_text(rng, a)
        inputs[f"torus.{a}.sc"] = text
        jobs.append(Job(f"torus.{a}", complex_job(text, (a * a, 3 * a * a, 2 * a * a), (1, 2, 1))))
    for length in SPHERES:
        text = gen.sphere_text(rng, length)
        inputs[f"sphere.{length}.sc"] = text
        sizes = (length + 2, 3 * length, 2 * length)
        jobs.append(Job(f"sphere.{length}", complex_job(text, sizes, (1, 0, 1))))
    small = gen.random_spine(rng, 30, 120)
    path = write_inputs(tmp, "warmup", {"edges": gen.edge_list_text(rng, small.edges)}, {})["edges"]
    warmup = [
        Job("warmup.betti", betti_graph_job(small, sq.Graph(range(30), small.edges))),
        Job("warmup.thicken", thicken_job(small, path)),
    ]
    return Workload(jobs + thicken, warmup, inputs)


def betti_graph_job(spine: gen.Spine, g: sq.Graph):
    def job(t: Tracer) -> None:
        got = betti(t, sq.from_graph(g))
        expect(got == (spine.comp, spine.hand, 0), f"betti {got}, want (1, m-n+1, 0)")

    return job


def thicken_job(spine: gen.Spine, path: Path):
    want = f"comp={spine.comp} hand={spine.hand} identity_check=true duality_check=true\n"

    def job(t: Tracer) -> None:
        expect(cli(t, "thicken", "--in", str(path)) == want, "thicken stdout")

    return job


def complex_job(text: str, sizes: tuple[int, int, int], want: tuple[int, int, int]):
    def job(t: Tracer) -> None:
        c = t.call("homology.parse_complex", sq.parse_complex, text)
        expect((len(c.vertices), len(c.edges), len(c.triangles)) == sizes, "complex size")
        got = betti(t, c)
        expect(got == want, f"betti {got}, want {want}")

    return job


WORKLOADS: dict[str, Callable[[int, Path], Workload]] = {
    "surface-large": surface_large,
    "batch-small": batch_small,
    "homology-dense": homology_dense,
}


def job_counts(workload: Workload) -> Counter[str]:
    """Jobs per kind (the name up to its first dot)."""
    return Counter(job.name.split(".", 1)[0] for job in workload.jobs)
