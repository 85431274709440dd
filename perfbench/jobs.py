"""Seed-generated job lists for the benchmark workloads.

A *job* is one spec in, one result out.  Each workload draws its jobs from
a fixed cycle of templates: the templates fix everything that sets a job's
cost (graph family and size, protocol, channel, task, trial count), and the
workload seed picks everything else (the scenario seed of every job, which
also realizes the randomized graph families, and the order of the
templates inside each cycle).  A run takes whole cycles, so every seed runs
the same cost mix on different inputs: run-to-run spread then reflects the
program and the machine, not a lucky draw of cheap jobs.

The program only ever sees the generated spec strings.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

#: Fewest cold jobs a run may time: ten samples must lie beyond the p90.
MIN_JOBS = 110

#: Explicit round cap on every scenario job.  Every template completes far
#: below it; a change that stops one from completing fails the job's output
#: check instead of running to the engine's default cap of 50·n·log n.
MAX_ROUNDS = 8192


@dataclass(frozen=True)
class Job:
    """One benchmark job.

    ``kind`` is ``"scenario"`` (``spec`` is a scenario string run through
    ``Scenario.from_string(spec).run(cache=store)``) or ``"expansion"``
    (``spec`` is a graph spec measured by ``expansion_summary`` under
    ``estimator`` and ``seed``, exactly as ``repro expansion`` does).
    """

    kind: str
    spec: str
    estimator: str = ""
    seed: int = 0

    @property
    def key(self) -> str:
        """The job's identity in recorded digests and reports."""
        if self.kind == "expansion":
            return f"expansion: {self.spec} | {self.estimator} | seed={self.seed}"
        return self.spec


# ----------------------------------------------------------------------
# Templates
# ----------------------------------------------------------------------
#: engine-sweep: small and mid-size graphs (n <= 4096), mostly decay, the
#: round loop dominating.  ``engine=auto`` is left as users get it.  The
#: last two templates carry the graph-ensemble workload's layers, which
#: has no workload of its own (see GLOSSARY.md): a fresh random_regular
#: realization on the networkx sampler path, and a sampled βw measurement.
ENGINE_SWEEP = (
    "hypercube(8) | decay | trials=128",
    "chain(8, 4) | decay | trials=256",
    "chain(16, 4) | decay | erasure(0.1) | gossip(k=4) | trials=64",
    "margulis(16) | decay | gossip(k=4) | trials=256",
    "hypercube(9) | decay | erasure(0.1) | trials=128 | telemetry=on",
    "hypercube(8) | decay | erasure(0.1) | aggregate(op=max) | trials=64",
    "hypercube(10) | decay | erasure(0.1) | trials=64",
    "hypercube(10) | aloha(0.05) | trials=64",
    "random_regular(1024, 8) | aloha(0.1) | erasure(0.1) | trials=64",
    "margulis(32) | collision-backoff | collision-detection | gossip(k=4) | trials=32 | telemetry=on",
    "hypercube(7) | spokesman | trials=32",
    "random_regular(512, 6) | decay | trials=256 | telemetry=on",
    "chain(8, 16) | decay | trials=64 | telemetry=on",
    "margulis(32) | decay | erasure(0.1) | trials=128",
    "hypercube(9) | collision-backoff | collision-detection | trials=32",
    "hypercube(12) | decay | trials=32",
    "margulis(16) | spokesman | erasure(0.1) | trials=32",
    "random_regular(2048, 8) | decay | erasure(0.1) | trials=64",
    "hypercube(11) | decay | trials=64 | telemetry=on",
    "margulis(64) | decay | trials=32",
    "random_regular(4096, 8) | decay | gossip(k=4) | trials=32",
    "random_regular(1024, 8) | decay | aggregate(op=max) | trials=64",
    "random_regular(8192, 4) | decay | trials=2",
    ("random_regular(192, 6)", "sampled(samples=40)"),
)

#: service-closed-loop: distinct small specs, so the queue, HTTP and SSE
#: path dominates and compute hides.
SERVICE = (
    "hypercube(6) | decay | trials=16",
    "hypercube(7) | decay | erasure(0.1) | trials=32",
    "margulis(8) | decay | trials=16",
    "chain(4, 4) | decay | trials=32",
    "random_regular(128, 4) | decay | trials=16",
    "hypercube(6) | decay | gossip(k=4) | trials=16",
    "margulis(8) | aloha(0.1) | trials=32",
    "random_regular(96, 6) | decay | erasure(0.1) | trials=16",
    "hypercube(5) | decay | aggregate(op=max) | trials=16",
    "chain(4, 8) | decay | trials=16",
    "hypercube(7) | decay | trials=16",
)

TEMPLATES = {
    "engine-sweep": ENGINE_SWEEP,
    "service-closed-loop": SERVICE,
}

#: Cold jobs per second of ``--seconds``, used only to size a run.  The
#: engine-sweep figure is its measured rate on the reference machine (2
#: CPUs).  The service's latency is poll-bound and steady, so more jobs
#: only add time: its figure keeps a run at the benchmark's length to the
#: job minimum.
NOMINAL_RATE = {
    "engine-sweep": 6.0,
    "service-closed-loop": 2.0,
}

#: Warm-up templates: one job per code path the timed jobs take, on small
#: graphs, so lazy imports and first-call costs land in set-up.
WARMUP = {
    "engine-sweep": (
        "hypercube(6) | decay | trials=16",
        "hypercube(6) | decay | erasure(0.1) | gossip(k=4) | trials=16 | telemetry=on",
        "hypercube(5) | decay | aggregate(op=max) | trials=16",
        "margulis(8) | aloha(0.1) | trials=16",
        "hypercube(5) | collision-backoff | collision-detection | trials=8",
        "hypercube(4) | spokesman | trials=4",
        "chain(4, 4) | decay | trials=16",
        "random_regular(256, 8) | decay | trials=16",
        ("random_regular(64, 4)", "sampled(samples=10)"),
    ),
    "service-closed-loop": (
        "hypercube(5) | decay | trials=16",
        "hypercube(5) | decay | erasure(0.1) | trials=16",
    ),
}

#: Offset that keeps warm-up scenario seeds apart from every timed job's.
_WARMUP_SEED_OFFSET = 1 << 40


def job_count(workload: str, seconds: float) -> int:
    """Jobs one run times: whole template cycles, enough to fill about
    ``seconds`` at the nominal rate, and never fewer than :data:`MIN_JOBS`.
    The count depends on nothing but the workload and ``seconds``."""
    if seconds <= 0:
        raise ValueError(f"seconds must be positive, got {seconds}")
    cycle = len(TEMPLATES[workload])
    wanted = max(MIN_JOBS, seconds * NOMINAL_RATE[workload])
    return cycle * math.ceil(wanted / cycle)


def _make(template, scenario_seed: int) -> Job:
    if isinstance(template, tuple):
        graph, estimator = template
        return Job("expansion", graph, estimator, scenario_seed)
    return Job(
        "scenario",
        f"{template} | max_rounds={MAX_ROUNDS} | seed={scenario_seed}",
    )


def job_list(workload: str, seed: int, count: int) -> list[Job]:
    """The first ``count`` jobs of ``workload`` under workload seed ``seed``.

    Deterministic in ``(workload, seed)``, and a prefix of every longer
    list for the same pair.  Scenario seeds are distinct within a list, so
    every job is cold in a fresh store.
    """
    templates = TEMPLATES[workload]
    rng = random.Random(f"{workload}/{seed}")
    used: set[int] = set()
    jobs: list[Job] = []
    while len(jobs) < count:
        cycle = list(templates)
        rng.shuffle(cycle)
        for template in cycle[: count - len(jobs)]:
            scenario_seed = rng.randrange(1, 1 << 31)
            while scenario_seed in used:
                scenario_seed = rng.randrange(1, 1 << 31)
            used.add(scenario_seed)
            jobs.append(_make(template, scenario_seed))
    return jobs


def warmup_list(workload: str, seed: int, repetition: int) -> list[Job]:
    """Warm-up jobs for one set-up repetition: the workload's warm-up
    templates under seeds no timed job of any workload seed uses."""
    base = _WARMUP_SEED_OFFSET + (seed % (1 << 20)) * 64 + repetition * 8
    return [
        _make(template, base + i)
        for i, template in enumerate(WARMUP[workload])
    ]
