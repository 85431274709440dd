"""E21 — experiment service: submission throughput and queue submit→finish latency.

Load-tests the full service loop in-process: a live ``ServiceServer`` on
an ephemeral port, a pool of worker threads in ``Worker.run`` blocked on
the queue's wake semaphore, and a client firing distinct scenario
submissions over HTTP, then following each job's event stream to its end.  Measured twice —
**cold** (every job computes its trial shards) and **warm** (the result
store already holds every scenario, so jobs complete as pure cache
replays) — reporting sustained submissions/sec and p50/p99 queue
submit→finish latency for each pass.  That latency is read off the
queue's own timestamps (``finished_at - submitted_at``, both commits),
so it leaves out the SSE hop to the client: the client submits the whole
pass before it follows any stream, so its receive times would measure
its own sequential waiting, not the service.  Tables recorded before
this metric (client receive time) cannot be compared with it.

Acceptance bars: every job reaches ``done`` in both passes; the warm pass
performs zero shard computations (asserted via the ``METRICS`` registry,
the no-recompute contract); and warm p50 latency beats cold p50 (full
scale only — smoke runs keep the shape checks, not the performance bars).
"""

import threading
import time

from conftest import emit, scaled

from repro.analysis import render_table
from repro.obs.metrics import METRICS
from repro.runtime import ResultStore
from repro.service import JobQueue, ServiceClient, Worker, create_server

N_JOBS = scaled(24, 4)
N_WORKERS = scaled(4, 2)
TRIALS = scaled(16, 4)
SHARD_TRIALS = 8
#: Seconds a worker stays idle, once the pass has drained, before it exits.
IDLE_TIMEOUT = 1.0

HEADERS = ["pass", "jobs", "subs/sec", "queue p50 ms", "queue p99 ms",
           "shards computed", "cache hits"]


def _specs():
    # Distinct scenarios (seed varies) so cold really computes N_JOBS jobs.
    return [
        f"margulis(4) | decay | erasure(0.1) | gossip(k=4) "
        f"| trials={TRIALS} | max_rounds=12 | seed={seed}"
        for seed in range(N_JOBS)
    ]


def _percentile(sorted_values, q):
    index = min(int(q * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[index]


def _run_pass(label, client, queue, store, specs):
    workers = [Worker(queue, store=store, shard_trials=SHARD_TRIALS)
               for _ in range(N_WORKERS)]
    threads = [threading.Thread(target=w.run,
                                kwargs={"idle_timeout": IDLE_TIMEOUT},
                                daemon=True)
               for w in workers]
    for thread in threads:
        thread.start()

    computed0 = METRICS.get("service.shards.computed")
    hits0 = METRICS.get("service.jobs.cache_hits")
    t0 = time.perf_counter()
    submitted = [client.submit(spec)[0]["id"] for spec in specs]
    submit_elapsed = time.perf_counter() - t0
    finished = [client.wait(job_id, timeout=120.0) for job_id in submitted]
    for thread in threads:
        thread.join(timeout=IDLE_TIMEOUT + 5)

    assert all(job["state"] == "done" for job in finished), label
    latencies = sorted(job["finished_at"] - job["submitted_at"]
                       for job in finished)
    return {
        "pass": label,
        "jobs": len(specs),
        "subs_per_sec": len(specs) / submit_elapsed,
        "queue_p50_ms": _percentile(latencies, 0.50) * 1e3,
        "queue_p99_ms": _percentile(latencies, 0.99) * 1e3,
        "shards_computed": METRICS.get("service.shards.computed") - computed0,
        "cache_hits": METRICS.get("service.jobs.cache_hits") - hits0,
    }


def measure(tmp_path):
    store = ResultStore(tmp_path / "cache")
    rows = []
    for label in ("cold", "warm"):
        # A fresh queue per pass: warm resubmissions must re-execute (and
        # hit the store) rather than dedupe against the cold pass's rows.
        # Server and workers share it, so each submit wakes a worker.
        queue = JobQueue(tmp_path / f"{label}.db")
        server = create_server(queue, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(server.url, timeout=30.0)
            rows.append(_run_pass(label, client, queue, store, _specs()))
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
    return rows


def test_e21_service_load(benchmark, results_dir, tmp_path):
    rows = benchmark.pedantic(measure, args=(tmp_path,), rounds=1,
                              iterations=1)
    cold, warm = rows

    # The no-recompute contract: a warm service does zero shard work and
    # completes every job as a cache hit.
    assert cold["shards_computed"] > 0
    assert cold["cache_hits"] == 0
    assert warm["shards_computed"] == 0
    assert warm["cache_hits"] == warm["jobs"]

    if not scaled(False, True):  # performance bars at full scale only
        assert warm["queue_p50_ms"] < cold["queue_p50_ms"]

    table = render_table(
        HEADERS,
        [[r["pass"], r["jobs"], f"{r['subs_per_sec']:.0f}",
          f"{r['queue_p50_ms']:.1f}", f"{r['queue_p99_ms']:.1f}",
          r["shards_computed"], r["cache_hits"]] for r in rows],
        title="E21 service load: cold vs warm, queue submit->finish",
    )
    emit(results_dir, "E21_service_load.txt", table,
         data={"rows": rows, "workers": N_WORKERS,
               "shard_trials": SHARD_TRIALS})
