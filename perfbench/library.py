"""The in-process workload: engine-sweep.

Jobs run serially in the benchmark process through the public entry
points only: ``Scenario.from_string(spec).run(cache=store)`` for
scenario jobs, and ``ResultStore.expansion_key/get/put`` around
``expansion_summary`` for βw jobs, as ``repro expansion`` does.
"""

from __future__ import annotations

import os
import resource
import shutil
import time
from dataclasses import dataclass, field

from repro.expansion.spec import ExpansionSpec
from repro.runtime import ResultStore
from repro.scenario import GraphSpec, Scenario
from repro.scenario.tasks import expansion_summary

from perfbench import jobs as joblib
from perfbench.checks import Checker, digest
from perfbench.report import latency_metrics
from perfbench.stats import median
from perfbench.tracer import Tracer, layer_metrics

#: Warm-up repetitions; set-up time reports their median.
SETUP_REPS = 3
#: Re-run every k-th job without a store in the check phase.
RERUN_EVERY = 10
#: Jobs per traced/untraced block in a traced run (blocks alternate order).
TRACE_BLOCK = 5


def _expansion(job, store):
    graph = GraphSpec.from_string(job.spec)
    spec = ExpansionSpec.from_string(job.estimator)
    return graph, spec, store.expansion_key(graph, spec, job.seed)


def run_job(job, store):
    """One job through the program's public entry points."""
    if job.kind == "scenario":
        return Scenario.from_string(job.spec).run(cache=store)
    graph, spec, key = _expansion(job, store)
    try:
        return store.get(key)
    except KeyError:
        summary = expansion_summary(graph, expansion=spec, seed=job.seed)
        store.put(key, summary, meta={"graph": graph.describe(),
                                      "expansion": spec.describe()})
        return summary


def fresh(job):
    """The same job computed anew, with no store."""
    if job.kind == "scenario":
        return Scenario.from_string(job.spec).run()
    return expansion_summary(job.spec, expansion=job.estimator, seed=job.seed)


def stored(job, store):
    """Read a job's output back from ``store``."""
    if job.kind == "scenario":
        return store.get(store.scenario_key(Scenario.from_string(job.spec)))
    return store.get(_expansion(job, store)[2])


@dataclass
class Pass:
    """Latencies and facts of one pass over the job list."""

    latencies: list = field(default_factory=list)
    wall: float = 0.0
    trial_rounds: int = 0
    node_rounds: int = 0
    candidates: int = 0

    def add(self, output, seconds: float) -> None:
        self.latencies.append(seconds)
        if isinstance(output, dict):
            self.candidates += int(output["candidates"])
        else:
            rounds = int(output.rounds.sum())
            self.trial_rounds += rounds
            self.node_rounds += rounds * int(output.first_informed_round.shape[0])


def _run(jobs, store, out: Pass, tracer: Tracer | None = None, first_id: int = 0) -> float:
    """Run ``jobs`` cold against ``store``; returns the block's wall time."""
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        t = time.perf_counter()
        if tracer is None:
            output = run_job(job, store)
        else:
            with tracer.job(first_id + i):
                output = run_job(job, store)
        out.add(output, time.perf_counter() - t)
    wall = time.perf_counter() - start
    out.wall += wall
    return wall


def _dir_bytes(root: str) -> int:
    total = 0
    for base, _, files in os.walk(root):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def setup(workload: str, seed: int, workdir: str) -> list[float]:
    """Warm-up repetitions, each on its own fresh store."""
    times = []
    for rep in range(SETUP_REPS):
        root = os.path.join(workdir, f"warmup-{rep}")
        start = time.perf_counter()
        store = ResultStore(root)
        for job in joblib.warmup_list(workload, seed, rep):
            run_job(job, store)
        times.append(time.perf_counter() - start)
        shutil.rmtree(root, ignore_errors=True)
    return times


def check(jobs, store, checker: Checker, rerun: bool = True) -> dict[str, str]:
    """Read every output back, check it, and re-run a sample without a store;
    returns the digests by job key."""
    digests = {}
    for i, job in enumerate(jobs):
        try:
            output = stored(job, store)
        except KeyError:
            checker.fail(job.key, "no stored result")
            continue
        digests[job.key] = checker.check_output(job, output)
        if rerun and i % RERUN_EVERY == 0:
            checker.expect_equal(job.key, digest(fresh(job)), digests[job.key],
                                 "fresh re-run differs from stored result")
    return digests


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str,
        import_s: float, checker: Checker):
    """Run an in-process workload; returns ``(metrics, samples, attempted,
    digests, tracer)``."""
    jobs = joblib.job_list(workload, seed, joblib.job_count(workload, seconds))
    setups = setup(workload, seed, workdir)
    setup_s = import_s + median(setups)
    if not trace:
        cold = Pass()
        store = ResultStore(os.path.join(workdir, "cold"))
        cycle = len(joblib.TEMPLATES[workload])
        rates = [cycle / _run(jobs[c : c + cycle], store, cold)
                 for c in range(0, len(jobs), cycle)]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        digests = check(jobs, store, checker)
        metrics, samples = latency_metrics("cold", cold.latencies)
        metrics.update(
            setup_s=setup_s,
            jobs_per_s=median(rates),
            peak_rss_mb=peak_mb,
        )
        samples.update(setup_s=SETUP_REPS, jobs_per_s=len(rates), peak_rss_mb=1)
        return metrics, samples, len(jobs), digests, None

    tracer = Tracer()
    plain, traced = Pass(), Pass()
    plain_store = ResultStore(os.path.join(workdir, "untraced"))
    traced_store = ResultStore(os.path.join(workdir, "traced"))
    unaccounted = 0.0
    for b in range(0, len(jobs), TRACE_BLOCK):
        block = jobs[b : b + TRACE_BLOCK]
        order = (False, True) if (b // TRACE_BLOCK) % 2 == 0 else (True, False)
        for traced_pass in order:
            if not traced_pass:
                _run(block, plain_store, plain)
                continue
            mark = len(tracer.spans)
            with tracer.installed():
                wall = _run(block, traced_store, traced, tracer, b)
            unaccounted += wall - sum(s[2] - s[1] for s in tracer.spans[mark:] if s[0] == "job")
    digests = check(jobs, traced_store, checker)
    plain_digests = check(jobs, plain_store, checker, rerun=False)
    for key, d in plain_digests.items():
        checker.expect_equal(key, digests.get(key, ""), d, "traced result differs from untraced")
    metrics = layer_metrics(tracer.spans)
    engine_s = metrics["radio.engine_s"]
    metrics.update({
        "radio.trial_rounds": float(traced.trial_rounds),
        "radio.node_rounds_per_s": traced.node_rounds / engine_s if engine_s else 0.0,
        "runtime.bytes_written": float(_dir_bytes(traced_store.root)),
        "expansion.candidates": float(traced.candidates),
        "expansion.candidates_per_s": (
            traced.candidates / metrics["expansion.estimate_s"]
            if metrics["expansion.estimate_s"] else 0.0
        ),
        "trace.overhead_frac": traced.wall / plain.wall - 1.0,
        "trace.unaccounted_s": unaccounted,
    })
    return metrics, {}, len(jobs), digests, tracer
