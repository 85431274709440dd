"""Metric names and units, provenance, and the printed result."""

from __future__ import annotations

import json
import os
import platform
import subprocess

from perfbench.stats import median, p90

#: End-to-end metrics (untraced runs) → unit.
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "cold_p50_ms": "ms",
    "cold_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced runs) → unit.  A metric whose layer a
#: workload never reaches reads 0.
PER_LAYER = {
    "graphs.build_s": "s",
    "graphs.build_share": "fraction",
    "graphs.builds": "count",
    "radio.engine_s": "s",
    "radio.engine_share": "fraction",
    "radio.coins_s": "s",
    "radio.deliver_s": "s",
    "radio.bitset_share": "fraction",
    "radio.bookkeeping_s": "s",
    "radio.trial_rounds": "count",
    "radio.node_rounds_per_s": "1/s",
    "workload.fold_s": "s",
    "obs.telemetry_s": "s",
    "runtime.put_p50_ms": "ms",
    "runtime.get_p50_ms": "ms",
    "runtime.bytes_written": "bytes",
    "expansion.estimate_s": "s",
    "expansion.candidates": "count",
    "expansion.candidates_per_s": "1/s",
    "service.submit_p50_ms": "ms",
    "service.queue_wait_p50_ms": "ms",
    "service.cold_exec_p50_ms": "ms",
    "service.warm_exec_p50_ms": "ms",
    "service.notify_p50_ms": "ms",
    "service.cache_hits": "count",
    "service.shards_computed": "count",
    "service.warm_p50_ms": "ms",
    "service.warm_p90_ms": "ms",
    "trace.overhead_frac": "fraction",
    "trace.unaccounted_s": "s",
}


def latency_metrics(prefix: str, seconds) -> tuple[dict, dict]:
    """``<prefix>_p50_ms`` and ``<prefix>_p90_ms`` of per-job latencies,
    with their sample counts.  Raises :class:`TooFewSamples` when the p90
    has fewer than ten samples beyond it."""
    ms = [s * 1e3 for s in seconds]
    metrics = {f"{prefix}_p50_ms": median(ms), f"{prefix}_p90_ms": p90(ms)}
    return metrics, {name: len(ms) for name in metrics}


def _git_sha(root: str) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: str, seed: int) -> dict:
    """Where and on what a record was measured; records from different
    machines are never compared."""
    import networkx
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(root),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    """The contract's last stdout line."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    })


def print_table(workload: str, prov: dict, metrics: dict, units: dict, samples: dict,
                messages: list[str]) -> None:
    print(f"# perfbench {workload}  " + "  ".join(f"{k}={v}" for k, v in prov.items()))
    for name, unit in units.items():
        n = samples.get(name)
        note = f"  (n={n})" if n is not None else ""
        value = metrics[name]
        shown = f"{int(value):14d}" if float(value).is_integer() else f"{value:14.6g}"
        print(f"{name:28s} {shown} {unit}{note}")
    for message in messages:
        print(f"FAILED {message}")

