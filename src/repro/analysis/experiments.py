"""Experiment registry: the canonical index of reproduction targets.

A single table mapping experiment ids (E1–E22) to the paper statement they
reproduce, the modules that implement the pieces, and the benchmark file
that regenerates the table.  DESIGN.md and EXPERIMENTS.md mirror this
registry; a consistency test (``tests/analysis/test_experiments.py``)
asserts every referenced bench file and module actually exists, so the
documentation can never silently rot.

:func:`run_experiment` is the programmatic entry point behind ``repro run
E<k>``: it regenerates one registered experiment by invoking its bench
file in a pytest subprocess, threading the runtime knobs (``--jobs``,
smoke scale) through the ``REPRO_JOBS`` / ``REPRO_BENCH_SMOKE``
environment contract the benches honour.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from dataclasses import dataclass, field

from repro.scenario import Scenario

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "get_experiment",
    "run_experiment",
    "validate_registry",
]


@dataclass(frozen=True)
class Experiment:
    """One row of the reproduction index.

    ``scenario`` is the canonical :class:`~repro.scenario.Scenario` the
    experiment's simulation runs (``None`` for pure-computation rows —
    the expansion/spokesman analyses that never touch the radio engine).
    Storing the spec object, not a closure or kwargs, is what makes
    "what configuration does E15 actually run?" a one-line answer
    (``repro scenarios show E15``) and every registered simulation
    reproducible through ``Scenario.run``.
    """

    id: str
    paper_ref: str
    claim: str
    modules: tuple[str, ...]
    bench_file: str
    result_files: tuple[str, ...] = field(default_factory=tuple)
    scenario: Scenario | None = None
    #: Supporting bench files the experiment's claim also leans on (run
    #: by the bench suite, not by ``repro run E<k>``), e.g. E20's
    #: telemetry-overhead pin.
    companion_benches: tuple[str, ...] = field(default_factory=tuple)


EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment(
        "E1", "Theorem 1.1",
        "expanders have βw = Ω(β/log(2·min{Δ/β, Δβ}))",
        ("repro.spokesman.portfolio", "repro.expansion.bounds"),
        "bench_positive_thm11.py", ("E1_positive_thm11.txt",),
    ),
    Experiment(
        "E2", "Theorem 1.2 / Corollary 4.11",
        "worst-case expanders with matching βw upper bound",
        ("repro.graphs.worst_case", "repro.graphs.generalized_core"),
        "bench_negative_thm12.py", ("E2_negative_thm12.txt",),
    ),
    Experiment(
        "E3", "Lemma 3.1",
        "spectral bound: unique ⇒ ordinary expansion",
        ("repro.expansion.spectral",),
        "bench_spectral_lemma31.py", ("E3_spectral_lemma31.txt",),
    ),
    Experiment(
        "E4", "Lemma 3.3 + Remark 1",
        "Gbad: βu = 2β − Δ exactly, wireless ≥ max{2β−Δ, Δ/2}",
        ("repro.graphs.gbad", "repro.graphs.gbad_analysis"),
        "bench_gbad_lemma33.py", ("E4_gbad_lemma33.txt",),
    ),
    Experiment(
        "E5", "Lemma 4.4",
        "core graph: all five structural properties",
        ("repro.graphs.core_graph",),
        "bench_core_graph.py", ("E5_core_graph.txt",),
    ),
    Experiment(
        "E6", "Lemmas 4.6/4.7/4.8",
        "generalized cores for arbitrary (Δ*, β*)",
        ("repro.graphs.generalized_core",),
        "bench_generalized_core.py", ("E6_generalized_core.txt",),
    ),
    Experiment(
        "E7", "Section 5 + Corollary 5.1",
        "broadcast needs Ω(D·log(n/D)) rounds; ≤ 2s new per round",
        ("repro.graphs.broadcast_chain", "repro.radio.lower_bound",
         "repro.radio.hop_analysis"),
        "bench_broadcast_lower_bound.py",
        ("E7_broadcast_lower_bound.txt", "E7_corollary51.txt"),
        scenario=Scenario.from_string("chain(8, 4) | decay | classic | trials=16"),
    ),
    Experiment(
        "E8", "Section 4.2.1",
        "spokesman election: algorithms vs optimum vs CW line",
        ("repro.spokesman.sampling", "repro.spokesman.exact"),
        "bench_spokesman.py", ("E8_spokesman.txt",),
    ),
    Experiment(
        "E9", "Appendix A",
        "every deterministic guarantee margin ≥ 1",
        ("repro.spokesman.naive_greedy", "repro.spokesman.partition",
         "repro.spokesman.recursive", "repro.spokesman.degree_classes",
         "repro.spokesman.threshold_partition"),
        "bench_appendix_guarantees.py", ("E9_appendix_guarantees.txt",),
    ),
    Experiment(
        "E10", "Section 1.2 corollary",
        "low arboricity ⇒ wireless ≈ ordinary expansion",
        ("repro.graphs.arboricity", "repro.graphs.planar"),
        "bench_arboricity.py", ("E10_arboricity.txt",),
    ),
    Experiment(
        "E11", "Observation 2.1",
        "exact β ≥ βw ≥ βu sandwich",
        ("repro.expansion.wireless", "repro.expansion.subsets"),
        "bench_exact_small.py", ("E11_exact_small.txt",),
    ),
    Experiment(
        "E12", "ablations",
        "protocol comparison; Lemma 4.2 sampling-scale sweep",
        ("repro.radio.protocols", "repro.radio.aloha",
         "repro.spokesman.sampling"),
        "bench_broadcast_ablation.py",
        ("E12_protocol_ablation.txt", "E12_scale_ablation.txt"),
        scenario=Scenario.from_string("chain(8, 4) | aloha(0.5) | classic | trials=16"),
    ),
    Experiment(
        "E13", "Section 4.2.1 application",
        "static broadcast schedules via repeated spokesman election",
        ("repro.radio.schedule",),
        "bench_schedule_synthesis.py", ("E13_schedule_synthesis.txt",),
        scenario=Scenario.from_string("hypercube(6) | decay | classic | trials=8"),
    ),
    Experiment(
        "E14", "engine",
        "batched trial-vectorized simulation: looped vs batched throughput",
        ("repro.radio.broadcast", "repro.radio.network",
         "repro.radio.protocols"),
        "bench_batched_broadcast.py", ("E14_batched_engine.txt",),
        scenario=Scenario.from_string("hypercube(10) | decay | classic | trials=256"),
    ),
    Experiment(
        "E15", "robustness",
        "channel & fault models: expander vs worst-case broadcast "
        "degradation under erasure and jamming",
        ("repro.radio.channel", "repro.radio.broadcast",
         "repro.analysis.robustness"),
        "bench_channel_robustness.py",
        ("E15_channel_robustness.txt", "E15_jamming.txt"),
        scenario=Scenario.from_string(
            "random_regular(256, 8) | decay | erasure(0.1) | trials=32"
        ),
    ),
    Experiment(
        "E16", "runtime",
        "parallel executor + content-addressed cache: sweep scaling and "
        "warm-cache replay, bit-for-bit equal to serial",
        ("repro.runtime.executor", "repro.runtime.store",
         "repro.runtime.manifest"),
        "bench_runtime_scaling.py", ("E16_runtime_scaling.txt",),
        scenario=Scenario.from_string("chain(4, 2) | decay | classic | trials=4"),
    ),
    Experiment(
        "E17", "Sections 2 + 5 empirics",
        "batched βw estimation at scale: (expansion, broadcast rounds) "
        "pairs across graph families; batched pipeline ≥ 10× over the "
        "serial estimator, bit-for-bit identical",
        ("repro.expansion.pipeline", "repro.expansion.spec",
         "repro.scenario.tasks"),
        "bench_expansion_scaling.py",
        ("E17_expansion_vs_broadcast.txt", "E17_expansion_speedup.txt"),
        scenario=Scenario.from_string("margulis(6) | decay | classic | trials=8"),
    ),
    Experiment(
        "E18", "engine",
        "datacenter-scale broadcast: packed-bitset frontier engine (CSR "
        "neighbour-word gathers + popcount reception) vs dense; ≥ 5× less "
        "working memory and ≥ 3× reception-step throughput at n = 10^5, "
        "bit-for-bit identical, with MemoryBudget column sharding",
        ("repro.radio.bitset", "repro.radio.broadcast",
         "repro.graphs.graph"),
        "bench_datacenter_scale.py", ("E18_datacenter_scale.txt",),
        scenario=Scenario.from_string(
            "random_regular(100000, 16) | decay | classic | trials=64 "
            "| engine=bitset"
        ),
    ),
    Experiment(
        "E19", "workload zoo",
        "beyond one-to-all broadcast: expander vs non-expander families "
        "under k-source gossip and in-network aggregation — the "
        "(αw, βw)-expansion advantage persists across tasks, with "
        "gossip(k) closing the gap as sources multiply",
        ("repro.workload", "repro.radio.broadcast", "repro.scenario.spec"),
        "bench_workload_zoo.py", ("E19_workload_zoo.txt",),
        scenario=Scenario.from_string(
            "random_regular(256, 8) | decay | classic | gossip(k=16) "
            "| trials=32"
        ),
    ),
    Experiment(
        "E20", "observability",
        "collision anatomy at scale: per-round collision-rate and "
        "wasted-transmission trajectories, expander vs chain vs C⁺ under "
        "classic and erasure channels on the bitset engine — batched "
        "telemetry bit-for-bit identical dense vs bitset, ≤ 15% overhead",
        ("repro.obs.telemetry", "repro.obs.tracing",
         "repro.radio.broadcast", "repro.radio.trace"),
        "bench_collision_telemetry.py", ("E20_collision_telemetry.txt",),
        scenario=Scenario.from_string(
            "random_regular(10000, 16) | decay | classic | trials=64 "
            "| engine=bitset | telemetry=on"
        ),
        companion_benches=("bench_telemetry_overhead.py",),
    ),
    Experiment(
        "E21", "experiment service",
        "from library to serving system: sustained submissions/sec and "
        "p50/p99 queue submit→finish latency through the persistent job queue, "
        "worker pool, and streaming HTTP API — warm-cache resubmission "
        "completes without recompute, and a killed worker resumes from "
        "its trial-shard checkpoints bit-for-bit",
        ("repro.service.queue", "repro.service.worker",
         "repro.service.api", "repro.runtime.store"),
        "bench_service_load.py", ("E21_service_load.txt",),
        scenario=Scenario.from_string(
            "margulis(8) | decay | erasure(0.1) | gossip(k=16) | trials=32"
        ),
    ),
    Experiment(
        "E22", "array backend",
        "pluggable array backends: the dense engine's neighbour-count and "
        "delivered-value matmuls routed through the repro.backend shim — "
        "numpy vs torch-cpu kernel throughput on hypercube(14) at T=4096, "
        "with every backend's seeded batch outcomes equal to the numpy "
        "host's (coins are drawn host-side; the host path is bit-for-bit "
        "the pre-backend engine)",
        ("repro.backend", "repro.radio.network", "repro.radio.broadcast",
         "repro.workload.zoo", "repro.expansion.pipeline"),
        "bench_backend_matmul.py", ("E22_backend_matmul.txt",),
        scenario=Scenario.from_string(
            "hypercube(14) | decay | classic | trials=4096"
        ),
    ),
)


def get_experiment(exp_id: str) -> Experiment:
    """Registry lookup by id (case-insensitive); raises on unknown ids."""
    wanted = exp_id.strip().upper()
    for exp in EXPERIMENTS:
        if exp.id == wanted:
            return exp
    known = ", ".join(e.id for e in EXPERIMENTS)
    raise ValueError(f"unknown experiment {exp_id!r}; registered: {known}")


def default_benchmarks_dir() -> str:
    """The repo's ``benchmarks/`` directory, located relative to the
    package's src-layout checkout."""
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return os.path.join(os.path.dirname(os.path.dirname(src_dir)), "benchmarks")


def run_experiment(
    exp_id: str,
    jobs: int = 1,
    smoke: bool | None = None,
    benchmarks_dir: str | None = None,
    pytest_args: tuple[str, ...] = (),
    capture: bool = False,
) -> subprocess.CompletedProcess:
    """Regenerate one registered experiment's tables.

    Runs the experiment's bench file through pytest in a subprocess (the
    benches are pytest modules, and a fresh interpreter keeps their
    pytest-benchmark plumbing and result archiving identical to a full
    suite run).  ``jobs`` is exported as ``REPRO_JOBS`` for benches that
    schedule through the runtime executor; ``smoke`` pins
    ``REPRO_BENCH_SMOKE`` (``None`` inherits the caller's environment).
    Returns the :class:`subprocess.CompletedProcess` (stdout/stderr
    captured as text when ``capture``).
    """
    exp = get_experiment(exp_id)
    bench_dir = benchmarks_dir or default_benchmarks_dir()
    bench_path = os.path.join(bench_dir, exp.bench_file)
    if not os.path.isfile(bench_path):
        raise FileNotFoundError(
            f"bench file for {exp.id} not found at {bench_path}; "
            "run from a source checkout or pass benchmarks_dir"
        )
    env = dict(os.environ)
    env["REPRO_JOBS"] = str(int(jobs))
    if smoke is not None:
        env["REPRO_BENCH_SMOKE"] = "1" if smoke else "0"
    # The src/ directory two levels above the package, so the subprocess
    # can `import repro` even from an uninstalled checkout.
    src_dir = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, "-m", "pytest", bench_path,
        "-q", "-p", "no:cacheprovider", *pytest_args,
    ]
    return subprocess.run(cmd, env=env, capture_output=capture, text=True)


def validate_registry(benchmarks_dir: str) -> list[str]:
    """Return human-readable inconsistencies (empty list = registry clean).

    Checks that every referenced module imports, every bench file exists
    on disk, and every bound scenario spec round-trips through its string
    form (so ``repro scenarios show E<k>`` can never rot).
    """
    problems: list[str] = []
    seen_ids = set()
    for exp in EXPERIMENTS:
        if exp.id in seen_ids:
            problems.append(f"duplicate experiment id {exp.id}")
        seen_ids.add(exp.id)
        for module in exp.modules:
            try:
                importlib.import_module(module)
            except ImportError as exc:
                problems.append(f"{exp.id}: module {module} missing ({exc})")
        for name in (exp.bench_file, *exp.companion_benches):
            if not os.path.isfile(os.path.join(benchmarks_dir, name)):
                problems.append(f"{exp.id}: bench file {name} missing")
        if exp.scenario is not None:
            try:
                if Scenario.from_string(exp.scenario.describe()) != exp.scenario:
                    problems.append(
                        f"{exp.id}: scenario does not round-trip its string form"
                    )
            except Exception as exc:  # noqa: BLE001 - collected, not raised
                problems.append(f"{exp.id}: scenario invalid ({exc})")
    return problems
