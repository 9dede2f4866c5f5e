"""Command-line front end: one subcommand per pipeline stage.

Conventions shared by every subcommand: results go to stdout or the
``--out`` file, diagnostics go to stderr, reports are line-oriented
``key=value`` text with lowercase booleans. Exit codes: 0 on success,
1 when a verification verdict fails, 2 for usage, parse, or parameter
errors. Identical invocations produce byte-identical output; the only
randomness sits behind ``--seed``, which defaults to 0.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .coloring import (
    DEFAULT_VERTEX_CAP,
    chromatic_number_exact,
    face_coloring_from_sources,
    format_face_coloring,
    format_vertex_coloring,
    parse_vertex_coloring,
    verify_proper_faces,
)
from .embed import default_rotations, format_quad, parse_quad, permute_rotations, quadrangulate
from .families import (
    SpineRecipe,
    VerificationError,
    check_thickening_identities,
    complete_minus_clique,
    min_quad_vertices,
    minimality_report,
    spine_for,
)
from .graph import ParseError, _decimal, format_edge_list, parse_edge_list
from .homology import betti_numbers, from_graph, parse_complex
from .interlace import format_twin_edge_list, interlace
from .verify import verify_surface


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


def _integer(token: str) -> int:
    """Read an integer option as ``_decimal`` reads a file's integers,
    with one leading ``-`` passed on, so that the library's own checks
    refuse a negative value and say why."""
    negative = token[:1] == "-"
    try:
        value = _decimal(token[negative:], 0, "integer")
    except ParseError:
        raise argparse.ArgumentTypeError(f"expected a decimal integer, got {token!r}") from None
    return -value if negative else value


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_interlace(args: argparse.Namespace) -> int:
    spine = parse_edge_list(_read(args.infile))
    _emit(format_twin_edge_list(interlace(spine).graph), args.out)
    return 0


def _cmd_quadrangulate(args: argparse.Namespace) -> int:
    spine = parse_edge_list(_read(args.infile))
    rotations = permute_rotations(default_rotations(spine), args.seed)
    _emit(format_quad(quadrangulate(spine, rotations)), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    q = parse_quad(_read(args.infile))
    report = verify_surface(q)
    lines = []
    for i, c in enumerate(report.components):
        fields = [
            f"component={i}",
            f"vertices={c.vertices}",
            f"edges={c.edges}",
            f"faces={c.faces}",
            f"chi={c.euler_characteristic}",
            f"closed={_fmt_bool(c.closed)}",
            f"orientable={_fmt_bool(c.orientable)}",
        ]
        if c.genus is not None:
            fields.append(f"genus={c.genus}")
        lines.append(" ".join(fields))
    summary = [f"comp={report.comp}"]
    if report.hand is not None:
        summary.append(f"hand={report.hand}")
    if not report.header_ok:
        summary.append("header=" + ",".join(map(str, report.header)))
        summary.append("counted=" + ",".join(map(str, report.counts)))
    summary.append(f"ok={_fmt_bool(report.ok)}")
    lines.append(" ".join(summary))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if report.ok else 1


def _cmd_betti(args: argparse.Namespace) -> int:
    if args.graph is not None:
        complex_ = from_graph(parse_edge_list(_read(args.graph)))
    else:
        complex_ = parse_complex(_read(args.complex))
    b = betti_numbers(complex_)
    sys.stdout.write(f"b0={b.b0} b1={b.b1} b2={b.b2}\n")
    return 0


def _cmd_thicken(args: argparse.Namespace) -> int:
    spine = parse_edge_list(_read(args.infile))
    identities = check_thickening_identities(spine)
    duality = identities.duality
    sys.stdout.write(
        f"comp={identities.comp} hand={identities.hand} "
        f"identity_check={_fmt_bool(identities.ok)} "
        f"duality_check={_fmt_bool(duality.ok)}\n"
    )
    return 0 if identities.ok and duality.ok else 1


def _cmd_chroma(args: argparse.Namespace) -> int:
    g = parse_edge_list(_read(args.infile))
    chi, witness = chromatic_number_exact(g, cap=args.cap)
    sys.stdout.write(f"chi={chi}\n" + format_vertex_coloring(witness))
    return 0


def _cmd_facecolor(args: argparse.Namespace) -> int:
    q = parse_quad(_read(args.infile))
    coloring = parse_vertex_coloring(_read(args.coloring))
    # A face coloring is only claimed on a surface that verify certifies.
    if not verify_surface(q).ok:
        message = "the quadrangulation fails verification; run verify for the report"
        print(f"error: {message}", file=sys.stderr)
        return 1
    faces = face_coloring_from_sources(q, coloring)
    report = verify_proper_faces(q, faces)
    sys.stdout.write(format_face_coloring(faces) + f"proper={_fmt_bool(report.ok)}\n")
    return 0 if report.ok else 1


def _cmd_spine(args: argparse.Namespace) -> int:
    recipe = SpineRecipe(genus=args.genus, palette=args.chi, quad_vertices=args.vertices)
    _emit(format_edge_list(spine_for(recipe)), args.out)
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    cert = minimality_report(args.n, args.m)
    sys.stdout.write(
        f"n={cert.n} m={cert.m} genus={cert.genus} "
        f"bound={cert.vertex_bound} vertices={cert.quad_vertices} "
        f"condition={_fmt_bool(cert.sufficient_condition_met)} "
        f"minimal={_fmt_bool(cert.minimal)}\n"
    )
    if args.emit_spine is not None:
        _emit(format_edge_list(complete_minus_clique(args.n, args.m)), args.emit_spine)
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    sys.stdout.write(f"{min_quad_vertices(args.genus)}\n")
    return 0


# Built once per process: run() is called in process many times, and
# building the ten-subcommand tree costs far more than one parse. The
# handlers look up module globals when called, not when built.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinalquad",
        description="Build and verify spinal quadrangulations of closed orientable surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("interlace", help="emit the 2-fold interlacement of a spine")
    p.add_argument("--in", dest="infile", required=True, metavar="EDGES")
    p.add_argument("--out", default=None, metavar="EDGES")
    p.set_defaults(handler=_cmd_interlace)

    p = sub.add_parser("quadrangulate", help="emit the quadrilateral embedding")
    p.add_argument("--in", dest="infile", required=True, metavar="EDGES")
    p.add_argument("--seed", type=_integer, default=0, help="rotation permutation seed (default 0)")
    p.add_argument("--out", default=None, metavar="QUAD")
    p.set_defaults(handler=_cmd_quadrangulate)

    p = sub.add_parser("verify", help="certify a quad file as a closed orientable surface")
    p.add_argument("--in", dest="infile", required=True, metavar="QUAD")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("betti", help="Betti numbers of a graph or a 2-complex")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph", default=None, metavar="EDGES")
    group.add_argument("--complex", default=None, metavar="SC")
    p.set_defaults(handler=_cmd_betti)

    p = sub.add_parser("thicken", help="component/handle counts plus homology cross-checks")
    p.add_argument("--in", dest="infile", required=True, metavar="EDGES")
    p.set_defaults(handler=_cmd_thicken)

    p = sub.add_parser("chroma", help="exact chromatic number with a witness coloring")
    p.add_argument("--in", dest="infile", required=True, metavar="EDGES")
    p.add_argument(
        "--cap",
        type=_integer,
        default=DEFAULT_VERTEX_CAP,
        help=f"exact-solver vertex cap (default {DEFAULT_VERTEX_CAP})",
    )
    p.set_defaults(handler=_cmd_chroma)

    p = sub.add_parser("facecolor", help="source-based face coloring plus properness verdict")
    p.add_argument("--in", dest="infile", required=True, metavar="QUAD")
    p.add_argument("--coloring", required=True, metavar="COLORS")
    p.set_defaults(handler=_cmd_facecolor)

    p = sub.add_parser("spine", help="synthesize a spine for (genus, palette, vertex) targets")
    p.add_argument("--genus", type=_integer, required=True)
    p.add_argument("--chi", type=_integer, required=True, help="target chromatic number")
    p.add_argument("--vertices", type=_integer, required=True, help="target quad vertex count")
    p.add_argument("--out", default=None, metavar="EDGES")
    p.set_defaults(handler=_cmd_spine)

    p = sub.add_parser("family", help="minimality certificate for a near-complete spine")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--m", type=_integer, required=True)
    p.add_argument("--emit-spine", default=None, metavar="EDGES")
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("bound", help="minimum quad vertex count for a genus")
    p.add_argument("--genus", type=_integer, required=True)
    p.set_defaults(handler=_cmd_bound)

    return parser


def run(argv: list[str]) -> int:
    """Run one command line, given without the program name, and return
    its exit code. Safe to call repeatedly in one process."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        # Covers file, parse, recipe, coloring, rotation, and cap errors.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
