"""Seeded benchmark for spinalquad.

Run from the root of a source checkout:

    python3 bench/run.py --workload surface-large --seed 1 --seconds 30 --trace 0

The program is imported from ``./src``. Set-up (input generation, temp
files under the checkout, warm-up) runs five times; then one client
runs the workload's fixed job list back to back, pass after pass, for
about ``--seconds`` seconds. Every job is checked against the answer
its input was built to have.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics instead, from passes that alternate untraced and
traced runs of the job list plus one ``tracemalloc`` pass of its own.
Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit code 2, without a result line, when the program cannot be loaded.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from inputs import Mismatch
from tracer import COUNTS, JOB_SPAN, SPANS, PeakTracer, SpanTracer, Tracer

SETUPS = 5


def load_program(root: Path):
    """Import spinalquad from ``root/src`` and nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import spinalquad

    if Path(spinalquad.__file__).resolve().parent != (src / "spinalquad").resolve():
        raise ImportError(f"spinalquad was imported from {spinalquad.__file__}, not {src}")
    return spinalquad


def commit_of(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def digest(texts: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(texts):
        h.update(name.encode() + b"\0" + texts[name].encode() + b"\0")
    return h.hexdigest()[:16]


class Loop:
    """Closed loop with one client over a fixed job list."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.latencies: list[float] = []
        self.failures: list[tuple] = []  # (job, reason)

    def run_pass(self, tracer: Tracer) -> float:
        gc.collect()
        start = perf_counter()
        for i, job in enumerate(self.jobs):
            tracer.job = i
            t0 = perf_counter()
            try:
                tracer.call(JOB_SPAN, job.fn, tracer)
            except Mismatch as exc:
                self.failures.append((job, f"wrong: {exc}"))
            except Exception as exc:  # an uncaught exception is a failed job, not a crash
                self.failures.append((job, f"raised {type(exc).__name__}: {exc}"))
            self.latencies.append(perf_counter() - t0)
        return perf_counter() - start


def fits(start: float, seconds: float, passes: list[float]) -> bool:
    """Whether another pass of average length ends inside the window."""
    return perf_counter() - start + statistics.fmean(passes) <= seconds


def end_to_end(loop: Loop, seconds: float) -> tuple[dict, list[str]]:
    tracer, passes = Tracer(), []
    start = perf_counter()
    passes.append(loop.run_pass(tracer))
    while fits(start, seconds, passes):
        passes.append(loop.run_pass(tracer))
    lat_ms = [x * 1000 for x in loop.latencies]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_s": (statistics.median(passes), "s"),
        "job_p50_ms": (statistics.median(lat_ms), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = [
        f"wall_s: median of {len(passes)} passes of {len(loop.jobs)} jobs",
        f"job_p50_ms: median of {len(lat_ms)} job latencies",
    ]
    if len(lat_ms) >= 100:
        p90 = statistics.quantiles(lat_ms, n=10)[-1]
        notes.append(f"job_p90_ms={p90:.4f} ms (n={len(lat_ms)} jobs)")
    else:
        notes.append(f"job_p90_ms: not reported, {len(lat_ms)} jobs < 100")
    return metrics, notes


def per_layer(loop: Loop, seconds: float) -> tuple[dict, list[str]]:
    plain, traced, spans = [], [], SpanTracer()
    start = perf_counter()
    while not traced or fits(start, seconds, [u + t for u, t in zip(plain, traced)]):
        plain.append(loop.run_pass(Tracer()))
        traced.append(loop.run_pass(spans))
    self_s, calls = spans.self_times(), spans.calls()
    peaks = PeakTracer()
    ran_peaks = any(calls[name] for name in peaks.peaks)
    if ran_peaks:
        loop.run_pass(peaks)

    passes = len(traced)
    metrics = {}
    for name in SPANS + (JOB_SPAN,):
        metrics[f"{name}.ms"] = (self_s.get(name, 0.0) * 1000 / passes, "ms")
        metrics[f"{name}.calls"] = (calls[name] // passes, "count")
    for name in COUNTS:
        metrics[name] = (spans.counts[name] // passes, "count")
    for name, peak in peaks.peaks.items():
        metrics[f"{name}.peak_mb"] = (peak / 2**20, "MB")
    wall_plain, wall_traced = statistics.median(plain), statistics.median(traced)
    metrics["trace.untraced_wall_s"] = (wall_plain, "s")
    metrics["trace.traced_wall_s"] = (wall_traced, "s")
    metrics["trace.overhead_s"] = (wall_traced - wall_plain, "s")
    notes = [
        f"per-layer figures are per pass, from {passes} traced passes of {len(loop.jobs)} jobs "
        f"({len(spans.spans)} spans)",
        "peaks from one tracemalloc pass" if ran_peaks else "no peak pass: no call to measure",
    ]
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        load_program(root)
    except ImportError as exc:
        print(f"error: cannot load spinalquad from {root / 'src'}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, job_counts

    if args.workload not in WORKLOADS:
        known = ", ".join(sorted(WORKLOADS))
        print(f"error: unknown workload {args.workload!r}; one of {known}", file=sys.stderr)
        return 2
    make = WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=root) as tmp:
        setup_times = []
        for i in range(SETUPS):
            gc.collect()
            t0 = perf_counter()
            workdir = Path(tmp) / f"setup{i}"
            workdir.mkdir()
            workload = make(args.seed, workdir)
            Loop(workload.warmup).run_pass(Tracer())
            setup_times.append(perf_counter() - t0)
        loop = Loop(workload.jobs)
        measure = per_layer if args.trace else end_to_end
        metrics, notes = measure(loop, args.seconds)
    if not args.trace:
        metrics = {"setup_s": (statistics.median(setup_times), "s"), **metrics}
        notes.insert(0, f"setup_s: median of {SETUPS} set-ups")

    attempted, failed = len(loop.latencies), len(loop.failures)
    counts = ", ".join(f"{k}={v}" for k, v in sorted(job_counts(workload).items()))
    sources = {p.name: p.read_text() for p in (root / "src" / "spinalquad").glob("*.py")}
    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"python={platform.python_version()} nproc={os.cpu_count()} commit={commit_of(root)} "
        f"src_sha256={digest(sources)} "
        f"inputs_sha256={digest(workload.inputs)}"
    )
    print(f"jobs per pass: {len(workload.jobs)} ({counts}); closed loop, one client")
    for name, (value, unit) in metrics.items():
        print(f"{name}={value:.6g} {unit}")
    for note in notes:
        print(note)
    print(f"fail_ratio={failed / attempted:.6f} ({failed} of {attempted} jobs)")
    seen = set()
    for job, why in loop.failures:
        if job.name not in seen:
            seen.add(job.name)
            known = f" known_defect={job.known_defect!r}" if job.known_defect else ""
            print(f"failed job={job.name}{known}: {why}")
    correct = all(job.known_defect for job, _ in loop.failures)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
