"""Same seed, same inputs: byte for byte, and the same job counts.

Run from the checkout root with ``PYTHONPATH=src python3 -m pytest bench``.
"""

from __future__ import annotations

import random

import pytest

import inputs as gen
from workloads import WORKLOADS, job_counts


def build(name, seed, directory):
    directory.mkdir()
    return WORKLOADS[name](seed, directory)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    first = build(name, 7, tmp_path / "a")
    second = build(name, 7, tmp_path / "b")
    assert first.inputs == second.inputs
    assert [job.name for job in first.jobs] == [job.name for job in second.jobs]
    assert job_counts(first) == job_counts(second)
    written = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "b").iterdir())
    for file_name in written:
        first_bytes = (tmp_path / "a" / file_name).read_bytes()
        assert first_bytes == (tmp_path / "b" / file_name).read_bytes()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_other_inputs(name, tmp_path):
    assert build(name, 7, tmp_path / "a").inputs != build(name, 8, tmp_path / "b").inputs


def test_batch_small_job_mix(tmp_path):
    counts = job_counts(build("batch-small", 7, tmp_path / "a"))
    assert counts["recipe"] == 97 and counts["mycielski"] == 3 and counts["vacuous"] == 2
    assert counts["cli"] == 5 * 12 and sum(counts.values()) >= 300


def test_small_spines_obey_their_shape():
    rng = random.Random(3)
    for n in list(range(4, 25)) * 10:
        spine = gen.small_spine(rng, n)
        assert spine.n == n
        assert {v for e in spine.edges for v in e} == set(range(spine.n)), "isolated vertex"
        assert all(spine.colors[u] != spine.colors[v] for u, v in spine.edges)
        assert spine.m == sum(m for _, m in spine.blocks)


def test_closed_forms_match_counting():
    for genus in range(1, 200):
        v = 1
        while v * v - 5 * v + 8 - 8 * genus < 0:
            v += 1
        assert gen.min_quad_vertices_closed_form(genus) == v
    assert [gen.mycielski(k).n for k in (3, 4, 5)] == [5, 11, 23]
    assert gen.minimality_expectation(3, 2) is None
    assert gen.minimality_expectation(8, 2) == (20, 16, True, True)
