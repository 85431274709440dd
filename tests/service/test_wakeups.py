"""Event-driven wake-ups: idle workers block on the queue's wake
semaphore and the SSE tail waits for the job's next event, each with its
old poll interval kept only as a ceiling.  Plus the failure paths around
them: a client gone mid-stream, a killed idle worker, and a storm of
concurrent submitters."""

import http.client
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from contextlib import contextmanager
from urllib.parse import urlparse

import pytest

import repro
from repro.service import JobQueue, ServiceClient, ServiceError, Worker, WorkerPool
from repro.service import api
from repro.service import queue as queue_mod
from repro.service.queue import EventWatch

SPEC = (
    "margulis(4) | decay | erasure(0.1) | gossip(k=4) "
    "| trials=10 | max_rounds=12 | seed=5"
)
OTHER_SPEC = "hypercube(3) | decay | trials=2 | max_rounds=8 | seed=1"

#: A poll interval no test may wait out: passing within seconds proves
#: the wake-up, not the poll, moved the job along.
SLOW_POLL = 30.0


class CountingWake:
    """A wake that records its releases."""

    def __init__(self):
        self.releases = 0

    def release(self):
        self.releases += 1


def _start(worker: Worker, **run_kwargs) -> threading.Thread:
    thread = threading.Thread(
        target=worker.run, kwargs=run_kwargs, daemon=True
    )
    thread.start()
    return thread


def _wait_for(predicate, timeout: float, step: float = 0.01):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"condition not met within {timeout}s")
        time.sleep(step)


def _stream_threads() -> list[threading.Thread]:
    return [
        t for t in threading.enumerate()
        if "process_request_thread" in t.name
    ]


class TestSubmitReleasesTheWake:
    def test_released_once_per_job_that_ends_up_queued(self, queue):
        wake = queue.wake = CountingWake()
        record, created = queue.submit(SPEC)
        assert created and wake.releases == 1
        queue.submit(SPEC)  # dedupe of a queued job: nothing new to run
        assert wake.releases == 1
        queue.cancel(record.id)
        queue.submit(SPEC)  # re-queued in place
        assert wake.releases == 2
        assert queue.get(record.id).state == "queued"


class TestEventWatch:
    def test_latest_is_the_jobs_newest_seq(self, queue):
        record, _ = queue.submit(SPEC)
        with EventWatch(queue.path, record.id) as watch:
            assert watch.latest() == 0
            queue.cancel(record.id)
            assert watch.latest() == 1
        with EventWatch(queue.path, "no-such-job") as watch:
            assert watch.latest() == -1

    def test_wait_returns_at_once_on_an_unseen_event(self, queue):
        record, _ = queue.submit(SPEC)
        with EventWatch(queue.path, record.id) as watch:
            assert watch.wait(-1, timeout=SLOW_POLL, tick=0.002, ceiling=0.1)
            assert not watch.wait(0, timeout=0.05, tick=0.002, ceiling=0.1)

    def test_wait_wakes_on_the_jobs_next_commit(self, queue):
        record, _ = queue.submit(SPEC)
        with EventWatch(queue.path, record.id) as watch:
            timer = threading.Timer(0.1, queue.cancel, args=(record.id,))
            timer.start()
            t0 = time.monotonic()
            assert watch.wait(0, timeout=SLOW_POLL, tick=0.002,
                              ceiling=SLOW_POLL)
            assert time.monotonic() - t0 < 5.0
            timer.join()

    def test_other_jobs_commits_do_not_end_the_wait(self, queue):
        record, _ = queue.submit(SPEC)
        with EventWatch(queue.path, record.id) as watch:
            timer = threading.Timer(0.05, queue.submit, args=(OTHER_SPEC,))
            timer.start()
            assert not watch.wait(0, timeout=0.3, tick=0.002, ceiling=0.1)
            timer.join()

    def test_checks_spread_out_to_the_ceiling(self, queue):
        record, _ = queue.submit(SPEC)
        sleeps = []

        def sleep(seconds):
            sleeps.append(seconds)
            time.sleep(seconds)

        with EventWatch(queue.path, record.id) as watch:
            assert not watch.wait(0, timeout=2.0, tick=0.002, ceiling=0.1,
                                  sleep=sleep)
        # A fixed 2 ms tick would take about 1000 checks.
        assert len(sleeps) < 150
        assert min(sleeps[:-1]) >= 0.002
        assert max(sleeps) == pytest.approx(0.1)

    def test_closed_on_exit(self, queue):
        with EventWatch(queue.path, "job") as watch:
            pass
        with pytest.raises(Exception):
            watch.latest()


class TestWakeUps:
    def test_idle_worker_wakes_on_submit(self, queue, client, store):
        worker = Worker(queue, store=store, shard_trials=4,
                        poll_interval=SLOW_POLL)
        thread = _start(worker, max_jobs=1)
        time.sleep(0.3)  # the worker found nothing and is blocked idle
        job, _ = client.submit(SPEC)
        _wait_for(lambda: queue.get(job["id"]).state == "done", 2.0)
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_stream_delivers_terminal_event_promptly(
        self, queue, client, store, monkeypatch
    ):
        monkeypatch.setattr(api, "_STREAM_POLL_SECONDS", SLOW_POLL)
        worker = Worker(queue, store=store, shard_trials=4,
                        poll_interval=SLOW_POLL)
        # Hold the job until the stream has replayed its history, so the
        # terminal event can only arrive through the tail.
        tailing = threading.Event()
        worker.after_shard = lambda record, index, total: tailing.wait(10)
        thread = _start(worker, max_jobs=1)
        time.sleep(0.3)
        job, _ = client.submit(SPEC)
        received = None
        for kind, _ in client.stream(job["id"], timeout=60):
            tailing.set()
            if kind == "done":
                received = time.time()
        thread.join(timeout=5)
        record = queue.get(job["id"])
        assert record.state == "done"
        assert received is not None
        assert received - record.finished_at < 2.0

    def test_lapsed_lease_is_picked_up_within_poll_interval(
        self, queue, store
    ):
        poll = 1.0
        record, _ = queue.submit(SPEC)
        # A worker that leased the job and died: nothing will ever submit
        # or release the wake for it again.
        queue.lease("dead-worker", ttl=0.3)
        expires = queue.get(record.id).lease_expires
        worker = Worker(queue, store=store, shard_trials=4,
                        poll_interval=poll)
        thread = _start(worker, max_jobs=1)
        thread.join(timeout=10)
        assert not thread.is_alive()
        done = queue.get(record.id)
        assert done.state == "done"
        assert done.attempts == 2
        leased_at = [
            ts for _, ts, kind, payload in queue.events_since(record.id)
            if kind == "leased" and payload["requeued"]
        ]
        assert len(leased_at) == 1
        assert leased_at[0] - expires < poll + 0.5


class TestClientWait:
    def test_wait_returns_the_finished_job(self, queue, client, store):
        thread = _start(Worker(queue, store=store, shard_trials=4,
                               poll_interval=SLOW_POLL), max_jobs=1)
        job, _ = client.submit(SPEC)
        record = client.wait(job["id"], timeout=30)
        thread.join(timeout=5)
        assert record["state"] == "done"
        assert record["id"] == job["id"]

    def test_wait_times_out_on_an_idle_job(self, client):
        job, _ = client.submit(SPEC)  # no worker anywhere
        with pytest.raises(ServiceError, match="still 'queued' after 0.3s"):
            client.wait(job["id"], timeout=0.3)


class TestClientGoneMidStream:
    def test_handler_exits_and_closes_its_watch(
        self, queue, client, monkeypatch
    ):
        closed = []
        original_close = queue_mod.EventWatch.close

        def spy_close(self):
            closed.append(self)
            original_close(self)

        monkeypatch.setattr(queue_mod.EventWatch, "close", spy_close)
        monkeypatch.setattr(api, "_STREAM_POLL_SECONDS", SLOW_POLL)
        job, _ = client.submit(SPEC)  # no worker anywhere: the job waits

        url = urlparse(client.base_url)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
        conn.request("GET", f"/jobs/{job['id']}/stream")
        response = conn.getresponse()
        assert response.status == 200
        while response.readline().strip():  # the first event's frame
            pass
        assert _stream_threads(), "the handler should be tailing"
        response.close()
        conn.close()
        # The hang-up alone ends the tail; the job never moves.
        _wait_for(lambda: not _stream_threads() and closed, 2.0)
        assert len(closed) == 1
        assert queue.get(job["id"]).state == "queued"


def _repro_env() -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


@contextmanager
def _process_group(cmd):
    """A child in its own process group, killed whole on exit, so a
    failing test leaves no worker behind."""
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_repro_env(), start_new_session=True,
    )
    try:
        yield proc
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()


_KILLED_IDLE_WORKER = textwrap.dedent(
    """
    import sys, time
    from repro.service import JobQueue, WorkerPool

    def wait_done(queue, job_id, timeout):
        deadline = time.monotonic() + timeout
        while queue.get(job_id).state != "done":
            if time.monotonic() > deadline:
                raise SystemExit(f"job {job_id} not done within {timeout}s")
            time.sleep(0.01)

    def main(root):
        pool = WorkerPool(f"{root}/q.db", cache_root=f"{root}/cache",
                          workers=2, poll_interval=30.0, shard_trials=4)
        queue = JobQueue(pool.queue_path)
        queue.wake = pool.wake
        with pool:
            first, _ = queue.submit(
                "hypercube(3) | decay | trials=4 | max_rounds=10 | seed=1")
            wait_done(queue, first.id, 60.0)
            time.sleep(0.5)  # let the other worker start and block idle
            victim = pool._processes[0]
            victim.terminate()
            victim.join(10)
            assert pool.alive() == 1, pool.alive()
            t0 = time.monotonic()
            second, _ = queue.submit(
                "hypercube(3) | decay | trials=4 | max_rounds=10 | seed=2")
            wait_done(queue, second.id, 10.0)
            print(f"survivor took {time.monotonic() - t0:.3f}s")

    if __name__ == "__main__":
        main(sys.argv[1])
    """
)


def test_killed_idle_worker_does_not_wedge_the_survivor(tmp_path):
    script = tmp_path / "killed_idle_worker.py"
    script.write_text(_KILLED_IDLE_WORKER)
    with _process_group([sys.executable, str(script), str(tmp_path)]) as proc:
        out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    took = float(out.split("survivor took ")[1].rstrip("s\n"))
    assert took < 10.0
    assert "leaked" not in err, err
    assert "resource_tracker" not in err, err


def test_submit_storm(tmp_path):
    submitters, per_submitter = 8, 25
    pool = WorkerPool(tmp_path / "q.db", cache_root=tmp_path / "cache",
                      workers=2, poll_interval=SLOW_POLL, shard_trials=4)
    queue = JobQueue(pool.queue_path)
    queue.wake = pool.wake
    srv = api.create_server(queue, port=0)
    server_thread = threading.Thread(target=srv.serve_forever, daemon=True)
    server_thread.start()
    errors, ids = [], []

    def submit_many(offset):
        client = ServiceClient(srv.url, timeout=30.0)
        for i in range(per_submitter):
            spec = (f"hypercube(3) | decay | trials=2 | max_rounds=8 "
                    f"| seed={offset * per_submitter + i}")
            try:
                job, created = client.submit(spec)
                assert created
                ids.append(job["id"])
            except Exception as exc:  # collected, asserted below
                errors.append(repr(exc))

    try:
        with pool:
            threads = [threading.Thread(target=submit_many, args=(k,))
                       for k in range(submitters)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            _wait_for(lambda: queue.counts()["done"] == len(ids), 60.0,
                      step=0.05)
    finally:
        srv.shutdown()
        srv.server_close()
        server_thread.join(timeout=5)

    assert errors == []
    assert len(set(ids)) == submitters * per_submitter
    records = queue.list()
    assert {r.state for r in records} == {"done"}
    assert max(r.started_at - r.submitted_at for r in records) < SLOW_POLL


def test_sigterm_stops_serve_and_its_pool_cleanly(tmp_path):
    cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
           "--workers", "2", "--queue", str(tmp_path / "q.db"),
           "--cache-dir", str(tmp_path / "cache")]
    with _process_group(cmd) as proc:
        url = None
        for line in proc.stdout:
            if line.startswith("serving on "):
                url = line.split()[2]
                break
        assert url is not None
        ServiceClient(url).healthz()  # answered: the pool has started
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert "service stopped" in out
    assert "leaked" not in err, err
