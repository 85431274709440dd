"""Tiny-scale self-tests of the benchmark itself (not of the program).

    python3 -m pytest perfbench/tests -q
"""

import json
import os

import pytest

from perfbench import jobs, library, report, stats
from perfbench.checks import digest
from perfbench.tracer import Tracer, layer_metrics

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORKLOADS = tuple(jobs.TEMPLATES)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_the_job_list(workload):
    assert jobs.job_list(workload, 3, 40) == jobs.job_list(workload, 3, 40)
    assert jobs.job_list(workload, 3, 40) != jobs.job_list(workload, 4, 40)
    assert jobs.job_list(workload, 3, 40)[:17] == jobs.job_list(workload, 3, 17)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_job_list_is_distinct_whole_cycles(workload):
    count = jobs.job_count(workload, 1)
    cycle = len(jobs.TEMPLATES[workload])
    assert count >= jobs.MIN_JOBS and count % cycle == 0
    assert jobs.job_count(workload, 1000) > count
    listed = jobs.job_list(workload, 5, count)
    assert len({job.key for job in listed}) == count
    warm = {job.key for rep in range(3) for job in jobs.warmup_list(workload, 5, rep)}
    assert not warm & {job.key for job in listed}


def _one_cycle(workload):
    return jobs.job_list(workload, 11, len(jobs.TEMPLATES[workload]))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_spec_validates(workload):
    from repro.expansion.spec import ExpansionSpec
    from repro.scenario import GraphSpec, Scenario

    listed = _one_cycle(workload) + jobs.warmup_list(workload, 11, 0)
    for job in listed:
        if job.kind == "scenario":
            Scenario.from_string(job.spec).validate()
        else:
            GraphSpec.from_string(job.spec).validate()
            ExpansionSpec.from_string(job.estimator)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_template_finishes_within_its_round_cap(workload):
    for job in _one_cycle(workload):
        output = library.fresh(job)
        if job.kind == "scenario":
            assert output.completed.all(), job.spec
            assert int(output.rounds.max()) < jobs.MAX_ROUNDS, job.spec
        else:
            assert output["beta_w"] > 0 and output["candidates"] > 0


def test_p90_needs_ten_samples_beyond_it():
    assert stats.p90(list(range(110))) == pytest.approx(98.9)
    with pytest.raises(stats.TooFewSamples):
        stats.p90(list(range(99)))
    with pytest.raises(stats.TooFewSamples):
        stats.p90([5.0] * 500)
    metrics, samples = report.latency_metrics("cold", [i / 1000 for i in range(120)])
    assert set(metrics) == {"cold_p50_ms", "cold_p90_ms"}
    assert samples == {"cold_p50_ms": 120, "cold_p90_ms": 120}


def test_self_time_of_nested_spans():
    # root [0, 10] with children a [1, 4] and b [5, 9]; b has c [6, 7].
    spans = [
        ["job", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 5.0, 9.0, 0],
        ["c", 6.0, 7.0, 2],
    ]
    assert stats.self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])
    assert stats.covered([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7.0)


def test_a_layer_that_reenters_itself_counts_once():
    spans = [
        ["job", 0.0, 10.0, -1],
        ["radio.coins", 1.0, 5.0, 0],
        ["radio.coins", 2.0, 4.0, 1],
        ["radio.step", 6.0, 7.0, 0],
    ]
    assert stats.outermost(spans, {"radio.coins"}) == [1]
    assert layer_metrics(spans)["radio.coins_s"] == pytest.approx(4.0)


def test_tracer_wraps_each_function_once_and_restores_it(tmp_path):
    from repro.radio import broadcast
    from repro.radio.network import RadioNetwork
    from repro.runtime import ResultStore
    from repro.scenario import tasks

    tracer = Tracer()
    before = (broadcast.run_broadcast_batch, tasks.run_broadcast_batch, RadioNetwork.step)
    patched = {(id(owner), attr) for owner, attr, _, _ in tracer._patches}
    assert len(patched) == len(tracer._patches)
    job = jobs.Job("scenario", "hypercube(5) | decay | gossip(k=4) | trials=4 | telemetry=on")
    with tracer.installed():
        with tracer.job(0):
            library.run_job(job, ResultStore(str(tmp_path)))
    after = (broadcast.run_broadcast_batch, tasks.run_broadcast_batch, RadioNetwork.step)
    assert before == after
    names = [s[0] for s in tracer.spans]
    assert names.count("radio.engine") == 1
    assert names.count("graphs.build") == 1
    for name in ("radio.coins", "radio.step", "workload.fold", "obs.telemetry",
                 "runtime.get", "runtime.put"):
        assert name in names
    metrics = layer_metrics(tracer.spans)
    assert 0 < metrics["radio.bookkeeping_s"] < metrics["radio.engine_s"]


def test_digest_pins_every_array():
    from repro.scenario import Scenario

    a = Scenario.from_string("hypercube(5) | decay | gossip(k=2) | trials=4 | seed=1").run()
    b = Scenario.from_string("hypercube(5) | decay | gossip(k=2) | trials=4 | seed=1").run()
    c = Scenario.from_string("hypercube(5) | decay | gossip(k=2) | trials=4 | seed=2").run()
    assert digest(a) == digest(b) != digest(c)
    assert digest({"beta_w": 1.5}) != digest({"beta_w": 1.25})


def test_benchmark_json_names_what_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == report.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == report.PER_LAYER
    assert all(m["bound"] <= 0.25 for m in bench["end_to_end"])
