"""Memory of the surface path, per dart and per spine edge.

All figures are on a seeded 2,000-vertex, 5,000-edge spine (40,000
darts, past the size from which ``verify_surface`` sorts its darts in
buckets) and hold on Python 3.10-3.13; each bound sits halfway between
the figure before and after the change it pins.

- The pass over every face side (dart) files its packed darts in
  arrays of machine words and sorts them one bucket at a time, so a
  list with a Python int per dart holds about two buckets, and it walks
  the vertex links of a clean surface over an array and a bytearray.
  ``verify_surface`` peaks near 37 bytes per dart (84 when it sorted
  every dart in one list, checked them against a set of every spine
  edge and ran union-find over the corners; 185 before it held its
  columns in bytearrays and machine-word arrays). The report it stores
  on a certified embedding keeps its side pairing, near 8.5 bytes per
  dart, and ``verify_proper_faces`` reads that pairing and peaks near 2
  on an embedding already certified (55 when it sorted the darts
  again).
- The builder, the parsers and the interlacement hold one int object
  per vertex or twin. ``quadrangulate`` keeps near 11 bytes per dart
  (37 with a fresh int per corner); ``parse_quad`` peaks near 58 bytes
  per dart (79 with a tuple per dart for the spine pairs, 131 when it
  made an int per corner); ``interlace`` keeps near 130 bytes per spine
  edge (480 with its 4E edge tuples and an int per neighbour entry);
  ``parse_edge_list`` keeps near 147 bytes per edge (183 with an int
  per id token).
"""

import gc
import tracemalloc

import pytest

import spinalquad.verify as verify_module
from spinalquad import (
    QuadEmbedding,
    default_rotations,
    face_coloring_from_sources,
    format_edge_list,
    format_quad,
    interlace,
    parse_edge_list,
    parse_quad,
    permute_rotations,
    quadrangulate,
    verify_proper_faces,
    verify_surface,
)

from helpers import greedy_coloring, random_spine


def _traced_bytes(call, *args) -> tuple[int, int]:
    """tracemalloc (retained, peak) of one call, above what was traced
    before it; the call's result is alive while both are read."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call(*args)
        retained, peak = tracemalloc.get_traced_memory()
        del result
        return retained - before, peak - before
    finally:
        if not tracing:
            tracemalloc.stop()


def _peak_bytes(call, *args) -> int:
    return _traced_bytes(call, *args)[1]


def _retained_bytes(call, *args) -> int:
    return _traced_bytes(call, *args)[0]


@pytest.fixture(scope="module")
def surface():
    spine = random_spine(2000, 5000, seed=1)
    q = quadrangulate(spine, permute_rotations(default_rotations(spine), 1))
    return q, face_coloring_from_sources(q, greedy_coloring(spine))


@pytest.fixture(scope="module")
def spine(surface):
    return surface[0].spine


def test_surface_is_sorted_in_buckets(surface):
    # The verify_surface bound measures the bucketed sort only while the
    # surface is past the size from which it is used.
    assert len(surface[0].corners) >= verify_module._BUCKETED


@pytest.mark.parametrize(
    "call, bound",
    [(verify_surface, 61), (verify_proper_faces, 81)],
    ids=["verify_surface", "verify_proper_faces"],
)
def test_dart_passes_peak_bytes_per_dart(surface, call, bound):
    q, faces = surface
    args = (q,) if call is verify_surface else (q, faces)
    # Certified before the measured call, so the face check's peak
    # leaves out the certification that it would otherwise run.
    assert verify_surface(q).ok
    assert call(*args).ok
    per_dart = _peak_bytes(call, *args) / len(q.corners)
    assert per_dart <= bound, f"peak of {per_dart:.1f} bytes per dart"


def test_certified_report_retained_bytes_per_dart(surface):
    q, _ = surface
    fresh = QuadEmbedding(q.spine, q.corners)
    per_dart = _retained_bytes(verify_surface, fresh) / len(q.corners)
    assert per_dart <= 12, f"{per_dart:.1f} bytes kept per dart"


def test_parse_quad_peak_bytes_per_dart(surface):
    q, _ = surface
    text = format_quad(q)
    parsed = parse_quad(text)
    assert (parsed.spine, parsed.corners) == (q.spine, q.corners)
    per_dart = _peak_bytes(parse_quad, text) / len(q.corners)
    assert per_dart <= 69, f"peak of {per_dart:.1f} bytes per dart"


def test_quadrangulate_retained_bytes_per_dart(surface):
    q, _ = surface
    rotations = permute_rotations(default_rotations(q.spine), 1)
    per_dart = _retained_bytes(quadrangulate, q.spine, rotations) / len(q.corners)
    assert per_dart <= 24, f"{per_dart:.1f} bytes kept per dart"


def test_interlace_retained_bytes_per_spine_edge(spine):
    per_edge = _retained_bytes(interlace, spine) / len(spine.edges)
    assert per_edge <= 305, f"{per_edge:.1f} bytes kept per spine edge"


def test_parse_edge_list_retained_bytes_per_edge(spine):
    text = format_edge_list(spine)
    assert parse_edge_list(text) == spine
    per_edge = _retained_bytes(parse_edge_list, text) / len(spine.edges)
    assert per_edge <= 165, f"{per_edge:.1f} bytes kept per edge"
