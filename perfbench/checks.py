"""Output checks: result digests, recorded digests for the default seed,
and the cross-checks every seed gets.  A job whose check fails counts as
failed; checks run after the timed phases."""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

#: The seed whose digests are recorded in ``digests.json``.
DEFAULT_SEED = 0

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

#: Every array of a ``BatchBroadcastResult``, in digest order; extras follow
#: sorted by key.
_RESULT_FIELDS = (
    "rounds", "completed", "informed_per_round", "first_informed_round",
    "transmissions",
)


def _update(h, name: str, array) -> None:
    a = np.ascontiguousarray(array)
    h.update(f"{name}:{a.dtype.str}:{a.shape}|".encode())
    h.update(a.tobytes())


def digest(output) -> str:
    """sha256 over a job's output: every array and extra of a batch
    result, or the canonical JSON of an expansion summary."""
    h = hashlib.sha256()
    if isinstance(output, dict):
        h.update(json.dumps(output, sort_keys=True).encode())
        return h.hexdigest()
    h.update(f"trials:{int(output.trials)}|".encode())
    for name in _RESULT_FIELDS:
        _update(h, name, getattr(output, name))
    for name in sorted(output.extras):
        _update(h, f"extras.{name}", output.extras[name])
    return h.hexdigest()


def sanity(job, output) -> str | None:
    """A problem with a single output, or ``None``."""
    if job.kind == "expansion":
        beta = output.get("beta_w")
        if not (isinstance(beta, float) and math.isfinite(beta) and beta > 0):
            return f"beta_w {beta!r} is not a positive number"
        if output.get("candidates", 0) < 1:
            return "no candidate sets examined"
        return None
    if not bool(np.all(output.completed)):
        return f"{int((~output.completed).sum())} trials did not complete"
    return None


def load_recorded(workload: str) -> dict[str, str]:
    try:
        with open(DIGESTS_PATH, encoding="utf-8") as fh:
            return json.load(fh).get(workload, {})
    except FileNotFoundError:
        return {}


def record(workload: str, digests: dict[str, str]) -> None:
    """Merge ``digests`` into the recorded file (default seed only)."""
    try:
        with open(DIGESTS_PATH, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {}
    data.setdefault(workload, {}).update(digests)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


class Checker:
    """Collects failed job keys and their reasons."""

    def __init__(self, workload: str, seed: int):
        self.recorded = load_recorded(workload) if seed == DEFAULT_SEED else {}
        self.failed: dict[str, str] = {}
        self.problems: list[str] = []

    def fail(self, key: str, reason: str) -> None:
        self.failed.setdefault(key, reason)

    def problem(self, reason: str) -> None:
        """A failed check that belongs to no single job."""
        self.problems.append(reason)

    def check_output(self, job, output) -> str:
        """Sanity and recorded-digest checks; returns the output's digest."""
        d = digest(output)
        trouble = sanity(job, output)
        if trouble:
            self.fail(job.key, trouble)
        expected = self.recorded.get(job.key)
        if expected is not None and expected != d:
            self.fail(job.key, f"digest {d[:12]} != recorded {expected[:12]}")
        return d

    def expect_equal(self, key: str, got: str, want: str, what: str) -> None:
        if got != want:
            self.fail(key, f"{what}: {got[:12]} != {want[:12]}")

    @property
    def correct(self) -> bool:
        return not self.failed and not self.problems

    def messages(self, limit: int = 20) -> list[str]:
        out = [f"{k}: {v}" for k, v in self.failed.items()] + self.problems
        return out[:limit]
