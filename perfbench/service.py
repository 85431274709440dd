"""The service-closed-loop workload: a real ``repro serve`` and one
closed-loop client.

The client does what ``repro submit`` does: POST the spec, then follow
the job's SSE stream to its terminal event, and only then, after a fixed
think time, send the next spec.  The cold pass submits distinct small specs to a server with a
fresh store; the warm pass resubmits them to a second server with a fresh
queue over the same ``--cache-dir``, so every warm job is a full-key store
hit on the worker side.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.runtime import ResultStore
from repro.scenario import Scenario
from repro.service.client import ServiceClient, ServiceError

from perfbench import jobs as joblib
from perfbench.checks import Checker, digest
from perfbench.report import latency_metrics
from perfbench.stats import median
from perfbench.tracer import Tracer

WORKERS = 2
#: Client think time before each submission.  The program's poll loops
#: (workers every 0.2 s, the SSE tail every 0.1 s) quantize latency into
#: 0.1 s steps; with no think time the client phase-locks to the workers
#: and the share of jobs one step up drifts around 10%, so the p90 flips
#: between steps from run to run.  Waiting 0.1 s keeps the p50 and p90
#: steps well clear of their boundaries.
THINK_S = 0.1
#: Untraced runs resubmit every fifth cold spec, enough for the warm-pass
#: checks; traced runs resubmit every spec, for the warm latencies.
WARM_STRIDE = 5
TERMINAL = ("done", "failed", "cancelled", "timeout")
#: Seconds a server may take to answer /healthz, or to stop.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 15.0
#: Summary fields the warm pass must reproduce exactly.
_SUMMARY_FIELDS = ("trials", "mean_rounds", "completion_rate")


def _group_pids(pgid: int) -> list[int]:
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid:
            pids.append(int(entry))
    return pids


def _hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Server:
    """One ``repro serve --workers 2`` subprocess in its own process group."""

    def __init__(self, root: str, workdir: str, name: str, cache: str):
        self.root = root
        self.queue = os.path.join(workdir, f"{name}.db")
        self.cache = cache
        self.log = os.path.join(workdir, f"{name}.log")
        self.proc: subprocess.Popen | None = None
        self.client: ServiceClient | None = None

    def start(self) -> None:
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        cmd = [
            sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
            "--port", "0", "--workers", str(WORKERS), "--queue", self.queue,
            "--cache-dir", self.cache,
        ]
        with open(self.log, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=log, text=True, env=env,
                cwd=self.root, start_new_session=True,
            )
        url = None
        for line in self.proc.stdout:
            if line.startswith("serving on "):
                url = line.split()[2]
                break
        if url is None:
            raise RuntimeError(f"repro serve exited before serving; see {self.log}")
        self.client = ServiceClient(url, timeout=START_TIMEOUT)
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            try:
                self.client.healthz()
                return
            except ServiceError:
                if time.monotonic() > deadline or self.proc.poll() is not None:
                    raise
                time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        """Largest peak resident set in the server's process tree."""
        return max((_hwm_mb(pid) for pid in _group_pids(self.proc.pid)), default=0.0)

    def stop(self) -> None:
        """Interrupt the server (it stops its worker pool), then make sure
        nothing of its process group is left."""
        if self.proc is None:
            return
        pgid = self.proc.pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()
        deadline = time.monotonic() + STOP_TIMEOUT
        while _group_pids(pgid) and time.monotonic() < deadline:
            time.sleep(0.05)
        self.proc = None


@dataclass
class Outcome:
    """What the client saw of one job."""

    spec: str
    job_id: str = ""
    created: bool = False
    terminal: str = ""
    latency: float = 0.0
    submit: float = 0.0
    received_at: float = 0.0
    summary: dict = field(default_factory=dict)
    shards_computed: int = 0


def submit_and_follow(client: ServiceClient, spec: str, tracer: Tracer | None = None) -> Outcome:
    """One closed-loop job: POST, then follow the SSE stream to the end."""
    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    out = Outcome(spec)
    start = time.perf_counter()
    with span("service.submit"):
        job, out.created = client.submit(spec)
    out.submit = time.perf_counter() - start
    out.job_id = job["id"]
    with span("service.stream"):
        for kind, payload in client.stream(out.job_id):
            if kind == "shard" and not payload.get("resumed"):
                out.shards_computed += 1
            elif kind == "result":
                out.summary = {k: payload[k] for k in _SUMMARY_FIELDS}
            elif kind in TERMINAL:
                out.terminal = kind
                break
    out.latency = time.perf_counter() - start
    out.received_at = time.time()
    return out


def closed_loop(client, specs, tracer: Tracer | None = None, cycle: int = 0):
    """Run ``specs`` one after another, each after the think time; returns
    the outcomes, the pass wall and the completion rate of each ``cycle``
    consecutive jobs."""
    outcomes, rates = [], []
    start = mark = time.perf_counter()
    for i, spec in enumerate(specs):
        if tracer is None:
            time.sleep(THINK_S)
            outcomes.append(submit_and_follow(client, spec))
        else:
            with tracer.span("service.think"):
                time.sleep(THINK_S)
            with tracer.job(i):
                outcomes.append(submit_and_follow(client, spec, tracer))
        if cycle and (i + 1) % cycle == 0:
            now = time.perf_counter()
            rates.append(cycle / (now - mark))
            mark = now
    return outcomes, time.perf_counter() - start, rates


def warm_up(server: Server, specs) -> None:
    """Submit the warm-up specs concurrently, one per worker, so both
    worker processes have imported the engine before timing starts."""
    errors = []

    def one(spec):
        try:
            if submit_and_follow(server.client, spec).terminal != "done":
                errors.append(spec)
        except ServiceError as exc:
            errors.append(f"{spec}: {exc}")

    threads = [threading.Thread(target=one, args=(s,)) for s in specs]
    for t in threads:
        t.start()
    for t in threads:
        t.join(START_TIMEOUT)
    if errors or any(t.is_alive() for t in threads):
        raise RuntimeError(f"warm-up failed: {errors}")


class Fleet:
    """Every server a run starts, so all of them are stopped at the end."""

    def __init__(self, root: str, workdir: str, seed: int):
        self.root, self.workdir, self.seed = root, workdir, seed
        self.servers: list[Server] = []
        self.setups: list[float] = []

    def start(self, name: str, cache: str) -> Server:
        """Start a server and warm its workers; the time counts as set-up."""
        t = time.perf_counter()
        server = Server(self.root, self.workdir, name, os.path.join(self.workdir, cache))
        self.servers.append(server)
        server.start()
        specs = [j.spec for j in joblib.warmup_list("service-closed-loop", self.seed, len(self.setups))]
        warm_up(server, specs)
        self.setups.append(time.perf_counter() - t)
        return server

    def stop_all(self) -> None:
        for server in self.servers:
            server.stop()


def _records(client, outcomes) -> list[dict]:
    return [client.job(o.job_id) for o in outcomes]


def _check(jobs, cold, warm_index, warm, warm_records, cache, checker: Checker) -> dict[str, str]:
    """Service output checks; returns the stored-result digests."""
    store = ResultStore(cache)
    digests = {}
    for job, c in zip(jobs, cold):
        if c.terminal != "done" or not c.created:
            checker.fail(job.key, f"cold job ended {c.terminal!r} (created={c.created})")
        scenario = Scenario.from_string(job.spec)
        try:
            result = store.get(store.scenario_key(scenario))
        except KeyError:
            checker.fail(job.key, "no stored result")
            continue
        digests[job.key] = checker.check_output(job, result)
        checker.expect_equal(job.key, digest(scenario.run()), digests[job.key],
                             "stored service result differs from Scenario.run")
    for i, w, rec in zip(warm_index, warm, warm_records):
        key = jobs[i].key
        if w.terminal != "done" or not w.created:
            checker.fail(key, f"warm job ended {w.terminal!r} (created={w.created})")
        if w.summary != cold[i].summary:
            checker.fail(key, f"warm summary {w.summary} != cold {cold[i].summary}")
        if not rec.get("cache_hit"):
            checker.fail(key, "warm job was not a store hit")
        if w.shards_computed:
            checker.fail(key, f"warm job computed {w.shards_computed} shards")
    hits = sum(1 for r in warm_records if r.get("cache_hit"))
    if hits != len(warm):
        checker.problem(f"service.cache_hits {hits} != warm job count {len(warm)}")
    return digests


def _ms(values) -> list[float]:
    return [v * 1e3 for v in values]


def run(root: str, seed: int, seconds: float, trace: bool, workdir: str,
        import_s: float, checker: Checker):
    """Run the service workload; returns ``(metrics, samples, attempted,
    digests, tracer)``."""
    jobs = joblib.job_list("service-closed-loop", seed,
                           joblib.job_count("service-closed-loop", seconds))
    specs = [j.spec for j in jobs]
    warm_index = list(range(0, len(jobs), 1 if trace else WARM_STRIDE))
    fleet = Fleet(root, workdir, seed)
    tracer = Tracer(targets=[]) if trace else None
    try:
        rss = []
        plain_wall = None
        if trace:
            untraced = fleet.start("untraced", "untraced-cache")
            _, plain_wall, _ = closed_loop(untraced.client, specs)
            untraced.stop()
        cold_server = fleet.start("cold", "cache")
        cold, cold_wall, rates = closed_loop(
            cold_server.client, specs, tracer, len(joblib.SERVICE))
        rss.append(cold_server.peak_rss_mb())
        cold_records = _records(cold_server.client, cold)
        cold_server.stop()
        warm_server = fleet.start("warm", "cache")
        warm, _, _ = closed_loop(warm_server.client, [specs[i] for i in warm_index])
        rss.append(warm_server.peak_rss_mb())
        warm_records = _records(warm_server.client, warm)
        warm_server.stop()
    finally:
        fleet.stop_all()
    digests = _check(jobs, cold, warm_index, warm, warm_records,
                     os.path.join(workdir, "cache"), checker)
    attempted = len(cold) + len(warm)
    if not trace:
        metrics, samples = latency_metrics("cold", [o.latency for o in cold])
        metrics.update(
            setup_s=import_s + median(fleet.setups),
            jobs_per_s=median(rates),
            peak_rss_mb=max(rss),
        )
        samples.update(setup_s=len(fleet.setups), jobs_per_s=len(rates), peak_rss_mb=len(rss))
        return metrics, samples, attempted, digests, None

    records = cold_records + warm_records
    outcomes = cold + warm
    warm_lat, warm_samples = latency_metrics("warm", [o.latency for o in warm])
    samples = {f"service.{name}": n for name, n in warm_samples.items()}
    # Think time is the client's, not unaccounted program time.
    root_spans = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0)
    metrics = {
        "service.submit_p50_ms": median(_ms(o.submit for o in outcomes)),
        "service.queue_wait_p50_ms": median(_ms(r["started_at"] - r["submitted_at"] for r in records)),
        "service.cold_exec_p50_ms": median(_ms(r["finished_at"] - r["started_at"] for r in cold_records)),
        "service.warm_exec_p50_ms": median(_ms(r["finished_at"] - r["started_at"] for r in warm_records)),
        "service.notify_p50_ms": median(_ms(o.received_at - r["finished_at"] for o, r in zip(outcomes, records))),
        "service.cache_hits": float(sum(1 for r in warm_records if r.get("cache_hit"))),
        "service.shards_computed": float(sum(o.shards_computed for o in cold)),
        "service.warm_p50_ms": warm_lat["warm_p50_ms"],
        "service.warm_p90_ms": warm_lat["warm_p90_ms"],
        "trace.overhead_frac": cold_wall / plain_wall - 1.0,
        "trace.unaccounted_s": cold_wall - root_spans,
    }
    return metrics, samples, attempted, digests, tracer
