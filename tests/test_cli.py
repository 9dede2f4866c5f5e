import subprocess
import sys

import pytest

from spinalquad import (
    Graph,
    complete_graph,
    format_edge_list,
    interlace,
    parse_edge_list,
    parse_quad,
    parse_twin_edge_list,
    parse_vertex_coloring,
    verify_surface,
)
import spinalquad.cli as cli_module
import spinalquad.verify as verify_module
from spinalquad.cli import run

K3 = "0 1\n1 2\n0 2\n"


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.edges"
    path.write_text(K3)
    return path


@pytest.fixture
def k3_quad(tmp_path, k3_file):
    path = tmp_path / "k3.quad"
    assert run(["quadrangulate", "--in", str(k3_file), "--out", str(path)]) == 0
    return path


def test_interlace_emits_the_doubled_graph(k3_file, capsys):
    assert run(["interlace", "--in", str(k3_file)]) == 0
    out = capsys.readouterr().out
    assert parse_twin_edge_list(out) == interlace(parse_edge_list(K3)).graph


def test_interlace_writes_file(tmp_path, k3_file):
    out = tmp_path / "doubled.edges"
    assert run(["interlace", "--in", str(k3_file), "--out", str(out)]) == 0
    assert len(parse_twin_edge_list(out.read_text()).edges) == 12


def test_quadrangulate_then_verify(k3_quad, capsys):
    assert run(["verify", "--in", str(k3_quad)]) == 0
    out = capsys.readouterr().out
    assert "component=0 vertices=6 edges=12 faces=6 chi=0 closed=true orientable=true genus=1" in out
    assert "comp=1 hand=1 ok=true" in out


@pytest.mark.parametrize("command", ["quadrangulate", "thicken"])
def test_empty_spine_is_refused(tmp_path, capsys, command):
    empty = tmp_path / "empty.edges"
    empty.write_text("# no vertices\n")
    assert run([command, "--in", str(empty)]) == 2
    assert capsys.readouterr() == ("", "error: the spine has no vertices\n")


def test_quadrangulate_refuses_isolated_vertex(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("0 1\nv 5\n")
    assert run(["quadrangulate", "--in", str(bad)]) == 2
    assert "5" in capsys.readouterr().err


def test_verify_flags_mutations(tmp_path, k3_quad, capsys):
    lines = k3_quad.read_text().splitlines()
    mutated = tmp_path / "mutated.quad"
    mutated.write_text("\n".join(lines[:-1]) + "\n")
    assert run(["verify", "--in", str(mutated)]) == 1
    out = capsys.readouterr().out
    assert "ok=false" in out
    assert "genus=" not in out.splitlines()[0]


def test_verify_fails_a_header_only_file(tmp_path, capsys):
    path = tmp_path / "empty.quad"
    path.write_text("quad 6 12 6 1\n")
    assert run(["verify", "--in", str(path)]) == 1
    assert capsys.readouterr().out == "comp=0 header=6,12,6,1 counted=0,0,0,0 ok=false\n"


def test_verify_fails_when_a_component_is_dropped(tmp_path, capsys):
    spine = tmp_path / "two.edges"
    spine.write_text("0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n")
    quad = tmp_path / "two.quad"
    assert run(["quadrangulate", "--in", str(spine), "--out", str(quad)]) == 0
    header, *faces = quad.read_text().splitlines()
    kept = [line for line in faces if not line.endswith(("src=3", "src=4", "src=5"))]
    quad.write_text("\n".join([header] + kept) + "\n")
    assert run(["verify", "--in", str(quad)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "comp=1 hand=1 header=12,24,12,2 counted=6,12,6,1 ok=false"
    )


def test_verify_rejects_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.quad"
    bad.write_text("quad 1 2 3 4\n0.0 0.3 1.0 1.1 src=0\n")
    assert run(["verify", "--in", str(bad)]) == 2
    assert "twin token" in capsys.readouterr().err


def test_missing_input_file_is_a_usage_error(tmp_path, capsys):
    assert run(["verify", "--in", str(tmp_path / "nope.quad")]) == 2
    assert "error" in capsys.readouterr().err.lower()


def test_betti_graph_and_complex(tmp_path, k3_file, capsys):
    assert run(["betti", "--graph", str(k3_file)]) == 0
    assert capsys.readouterr().out == "b0=1 b1=1 b2=0\n"
    sc = tmp_path / "tri.sc"
    sc.write_text("0 1 2\n")
    assert run(["betti", "--complex", str(sc)]) == 0
    assert capsys.readouterr().out == "b0=1 b1=0 b2=0\n"


def test_betti_requires_exactly_one_source(k3_file, tmp_path, capsys):
    sc = tmp_path / "x.sc"
    sc.write_text("0\n")
    assert run(["betti", "--graph", str(k3_file), "--complex", str(sc)]) == 2
    assert run(["betti"]) == 2


def test_thicken_reports_counts_and_verdicts(k3_file, capsys):
    assert run(["thicken", "--in", str(k3_file)]) == 0
    out = capsys.readouterr().out
    assert out == "comp=1 hand=1 identity_check=true duality_check=true\n"


# Stdout of the original thicken, which ran the surface and homology
# checks three and two times over; computing each fact once must not
# change a byte.
THICKEN_SEED_OUTPUT = [
    ("0 1\n1 2\n0 2\n", "comp=1 hand=1 identity_check=true duality_check=true\n"),
    (
        "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",
        "comp=1 hand=3 identity_check=true duality_check=true\n",
    ),
    (
        "0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n",
        "comp=2 hand=2 identity_check=true duality_check=true\n",
    ),
    ("0 1\n1 2\n2 3\n", "comp=1 hand=0 identity_check=true duality_check=true\n"),
]


@pytest.mark.parametrize("edges, expected", THICKEN_SEED_OUTPUT)
def test_thicken_computes_each_fact_once(tmp_path, capsys, monkeypatch, edges, expected):
    calls = {"quadrangulate": 0, "verify_surface": 0, "betti_numbers": 0}
    for name in calls:
        original = getattr(verify_module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in (verify_module, cli_module):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    path = tmp_path / "spine.edges"
    path.write_text(edges)
    assert run(["thicken", "--in", str(path)]) == 0
    assert capsys.readouterr().out == expected
    assert calls == {"quadrangulate": 1, "verify_surface": 1, "betti_numbers": 1}


def test_failed_certification_exits_one(k3_file, capsys, monkeypatch):
    def refuse(spine):
        raise verify_module.VerificationError("constructed embedding failed surface certification")

    monkeypatch.setattr(cli_module, "check_thickening_identities", refuse)
    assert run(["thicken", "--in", str(k3_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_chroma_reports_exact_number_with_witness(k3_file, capsys):
    assert run(["chroma", "--in", str(k3_file)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("chi=3\ncolors 3\n")
    witness = parse_vertex_coloring(out)
    assert len(witness.colors) == 3


def test_chroma_cap_refusal(tmp_path, capsys):
    edges = tmp_path / "big.edges"
    edges.write_text("".join(f"v {i}\n" for i in range(30)))
    assert run(["chroma", "--in", str(edges)]) == 2
    assert "cap" in capsys.readouterr().err
    assert run(["chroma", "--in", str(edges), "--cap", "30"]) == 0


def test_chroma_on_a_long_odd_cycle(tmp_path, capsys):
    # Its search path is 1201 vertices deep, past the interpreter's
    # default recursion limit.
    edges = tmp_path / "cycle.edges"
    edges.write_text("".join(f"{i} {(i + 1) % 1201}\n" for i in range(1201)))
    assert run(["chroma", "--in", str(edges), "--cap", "5000"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("chi=3\ncolors 3\n")
    colors = parse_vertex_coloring(out).colors
    assert all(colors[i] != colors[(i + 1) % 1201] for i in range(1201))


def test_facecolor_pipeline(tmp_path, k3_file, k3_quad, capsys):
    colors = tmp_path / "k3.colors"
    assert run(["chroma", "--in", str(k3_file)]) == 0
    colors.write_text(capsys.readouterr().out)
    assert run(["facecolor", "--in", str(k3_quad), "--coloring", str(colors)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("colors 3\n")
    assert out.endswith("proper=true\n")
    assert all(f"f{i} " in out for i in range(6))


def test_facecolor_rejects_improper_coloring(tmp_path, k3_quad, capsys):
    colors = tmp_path / "flat.colors"
    colors.write_text("colors 1\n0 0\n1 0\n2 0\n")
    assert run(["facecolor", "--in", str(k3_quad), "--coloring", str(colors)]) == 2
    assert "improper" in capsys.readouterr().err


K3_COLORS = "colors 3\n0 0\n1 1\n2 2\n"


@pytest.mark.parametrize("damage", ["header_only", "wrong_header"])
def test_facecolor_refuses_a_surface_that_fails_verify(tmp_path, k3_quad, capsys, damage):
    colors = tmp_path / "k3.colors"
    colors.write_text(K3_COLORS)
    quad = tmp_path / "bad.quad"
    if damage == "header_only":
        quad.write_text("quad 6 12 6 1\n")
    else:
        quad.write_text(k3_quad.read_text().replace("quad 6 12 6 1\n", "quad 7 12 6 1\n"))
    assert run(["verify", "--in", str(quad)]) == 1
    capsys.readouterr()
    assert run(["facecolor", "--in", str(quad), "--coloring", str(colors)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the quadrangulation fails verification; run verify for the report\n"


def test_facecolor_output_on_a_certified_surface(tmp_path, k3_quad, capsys):
    colors = tmp_path / "k3.colors"
    colors.write_text(K3_COLORS)
    assert run(["facecolor", "--in", str(k3_quad), "--coloring", str(colors)]) == 0
    assert capsys.readouterr() == (
        "colors 3\nf0 0\nf1 0\nf2 1\nf3 1\nf4 2\nf5 2\nproper=true\n",
        "",
    )


def test_verify_reports_a_closed_non_orientable_surface(tmp_path, capsys):
    # A Klein bottle over the triangle spine's interlacement.
    quad = tmp_path / "klein.quad"
    quad.write_text(
        "quad 6 12 6 1\n"
        "0.0 1.0 0.1 2.0 src=0\n0.0 1.0 2.0 1.1 src=0\n0.0 1.1 0.1 2.1 src=0\n"
        "0.0 2.0 1.0 2.1 src=0\n0.1 1.0 2.1 1.1 src=0\n0.1 2.0 1.1 2.1 src=0\n"
    )
    assert run(["verify", "--in", str(quad)]) == 1
    assert capsys.readouterr().out == (
        "component=0 vertices=6 edges=12 faces=6 chi=0 closed=true orientable=false\n"
        "comp=1 ok=false\n"
    )


def test_spine_subcommand_emits_requested_family(tmp_path, capsys):
    out = tmp_path / "spine.edges"
    assert run(["spine", "--genus", "0", "--chi", "2", "--vertices", "8", "--out", str(out)]) == 0
    assert parse_edge_list(out.read_text()) == Graph(edges=[(0, 1), (1, 2), (2, 3)])
    assert run(["spine", "--genus", "1", "--chi", "2", "--vertices", "6"]) == 2
    assert "genus" in capsys.readouterr().err


def test_spine_to_verify_pipeline(tmp_path):
    edges = tmp_path / "t.edges"
    quad = tmp_path / "t.quad"
    assert run(["spine", "--genus", "5", "--chi", "4", "--vertices", "20", "--out", str(edges)]) == 0
    assert run(["quadrangulate", "--in", str(edges), "--out", str(quad)]) == 0
    report = verify_surface(parse_quad(quad.read_text()))
    assert report.ok
    assert report.hand == 5
    assert sum(c.vertices for c in report.components) == 20


def test_family_certificate_line(capsys, tmp_path):
    assert run(["family", "--n", "4", "--m", "1"]) == 0
    assert capsys.readouterr().out == (
        "n=4 m=1 genus=3 bound=8 vertices=8 condition=true minimal=true\n"
    )
    assert run(["family", "--n", "5", "--m", "2"]) == 0
    assert capsys.readouterr().out == (
        "n=5 m=2 genus=5 bound=9 vertices=10 condition=false minimal=false\n"
    )
    spine = tmp_path / "family.edges"
    assert run(["family", "--n", "5", "--m", "2", "--emit-spine", str(spine)]) == 0
    capsys.readouterr()
    g = parse_edge_list(spine.read_text())
    assert len(g.edges) == 9 and not g.has_edge(0, 1)


def test_family_rejects_flat_case(capsys):
    assert run(["family", "--n", "3", "--m", "2"]) == 2
    assert "genus" in capsys.readouterr().err


def test_bound_subcommand(capsys):
    assert run(["bound", "--genus", "3"]) == 0
    assert capsys.readouterr().out == "8\n"
    assert run(["bound", "--genus", "0"]) == 2


def test_usage_errors(capsys):
    assert run([]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["bound"]) == 2
    assert run(["bound", "--genus", "x"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_reruns_are_byte_identical(tmp_path, k3_file):
    a = tmp_path / "a.quad"
    b = tmp_path / "b.quad"
    for path in (a, b):
        assert run(["quadrangulate", "--in", str(k3_file), "--seed", "7", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_module_entry_point_runs_in_subprocess(tmp_path):
    edges = tmp_path / "k4.edges"
    edges.write_text(format_edge_list(complete_graph(4)))
    cmd = [sys.executable, "-m", "spinalquad.cli", "thicken", "--in", str(edges)]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout == "comp=1 hand=3 identity_check=true duality_check=true\n"
