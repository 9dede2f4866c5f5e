"""Peak memory of the two passes over every face side (dart).

Both passes keep at most one list with a Python int per dart: the
sorted keys. On a seeded 2,000-vertex, 5,000-edge spine (40,000 darts)
``verify_surface`` peaks near 84 bytes per dart and
``verify_proper_faces`` near 55 (Python 3.10-3.13). Before the passes
held their columns in bytearrays and machine-word arrays they peaked
near 185 and 108. Each bound sits halfway between the two figures.
"""

import gc
import tracemalloc

import pytest

from spinalquad import (
    default_rotations,
    face_coloring_from_sources,
    permute_rotations,
    quadrangulate,
    verify_proper_faces,
    verify_surface,
)

from helpers import greedy_coloring, random_spine


def _peak_bytes(call, *args) -> int:
    """tracemalloc peak of one call, above what was traced before it."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def surface():
    spine = random_spine(2000, 5000, seed=1)
    q = quadrangulate(spine, permute_rotations(default_rotations(spine), 1))
    return q, face_coloring_from_sources(q, greedy_coloring(spine))


@pytest.mark.parametrize(
    "call, bound",
    [(verify_surface, 134), (verify_proper_faces, 81)],
    ids=["verify_surface", "verify_proper_faces"],
)
def test_dart_passes_peak_bytes_per_dart(surface, call, bound):
    q, faces = surface
    args = (q,) if call is verify_surface else (q, faces)
    assert call(*args).ok
    per_dart = _peak_bytes(call, *args) / len(q.corners)
    assert per_dart <= bound, f"peak of {per_dart:.1f} bytes per dart"
