"""Spans at the program's layer boundaries, recorded from outside it.

:class:`Tracer` wraps the public function at each layer boundary (the
table in ``GLOSSARY.md``) while a traced block runs and restores the
originals afterwards, so untraced runs execute the program untouched.
Each distinct function object is wrapped once: an inherited method is
looked up through its defining class, and a function re-exported by a
second module is rebound there to the same wrapper.  Spans live in memory
as ``[name, start, end, parent, job]`` lists and are written as JSONL when
the benchmark ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

from perfbench.stats import median, outermost, self_times

#: Span name → layer it is charged to.
LAYER_OF = {
    "graphs.build": "graphs.build",
    "radio.engine": "radio.engine",
    "radio.coins": "radio.coins",
    "radio.step": "radio.deliver",
    "radio.step_words": "radio.deliver",
    "workload.fold": "workload.fold",
    "obs.telemetry": "obs.telemetry",
    "runtime.put": "runtime.put",
    "runtime.get": "runtime.get",
    "expansion.estimate": "expansion.estimate",
}


def _class_methods(classes, attrs, name):
    """``(owner, attr, name)`` for each class in the MROs of ``classes``
    that defines one of ``attrs`` itself."""
    out = []
    seen = set()
    for cls in classes:
        for owner in cls.__mro__:
            for attr in attrs:
                if attr in owner.__dict__ and (owner, attr) not in seen:
                    seen.add((owner, attr))
                    out.append((owner, attr, name))
    return out


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def layer_targets() -> list[tuple[object, str, str]]:
    """Every ``(owner, attribute, span name)`` the tracer wraps."""
    import repro.workload.zoo  # noqa: F401 - registers the WorkloadState subclasses
    from repro.expansion.spec import ExpansionSpec
    from repro.obs.telemetry import TelemetryAccumulator
    from repro.radio import broadcast
    from repro.radio.network import RadioNetwork
    from repro.runtime.store import ResultStore
    from repro.scenario.registry import PROTOCOLS
    from repro.scenario.spec import GraphSpec
    from repro.workload.base import WorkloadState

    protocols = [PROTOCOLS.get(name).builder for name in PROTOCOLS.names()]
    engine = broadcast.run_broadcast_batch
    targets = [(GraphSpec, "build", "graphs.build")]
    targets += [
        (module, "run_broadcast_batch", "radio.engine")
        for name, module in sorted(sys.modules.items())
        if name.startswith("repro")
        and getattr(module, "run_broadcast_batch", None) is engine
    ]
    targets += _class_methods(
        protocols, ("transmitters_batch", "transmitters_words"), "radio.coins"
    )
    targets += [
        (RadioNetwork, "step", "radio.step"),
        (RadioNetwork, "step_words", "radio.step_words"),
    ]
    targets += _class_methods(_subclasses(WorkloadState), ("fold",), "workload.fold")
    targets += [
        (TelemetryAccumulator, "append_active", "obs.telemetry"),
        (TelemetryAccumulator, "append_full", "obs.telemetry"),
        (ResultStore, "put", "runtime.put"),
        (ResultStore, "get", "runtime.get"),
        (ExpansionSpec, "estimate", "expansion.estimate"),
    ]
    return targets


class Tracer:
    """In-memory span recorder over the wrapped layer boundaries."""

    def __init__(self, targets=None):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._job = -1
        self._patches: list[tuple[object, str, object, object]] = []
        wrappers: dict[int, object] = {}
        for owner, attr, name in targets if targets is not None else layer_targets():
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            if not inspect.isfunction(original):
                raise TypeError(f"cannot trace {owner!r}.{attr}: not a plain function")
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(name, original)
            self._patches.append((owner, attr, original, wrappers[id(original)]))

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._job])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (not by a wrapper)."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def job(self, job_id: int):
        """The root span of one job; spans opened inside carry its id."""
        self._job = job_id
        try:
            with self.span("job"):
                yield
        finally:
            self._job = -1

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "job": job,
                }) + "\n")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer times from a traced library pass.

    Layer seconds are summed over each layer's outermost spans; engine
    bookkeeping is the engine spans' self time (what is left after coins,
    deliver, fold and telemetry); shares are of the summed job spans.
    """
    def total(layer: str) -> float:
        names = {n for n, lay in LAYER_OF.items() if lay == layer}
        return sum(spans[i][2] - spans[i][1] for i in outermost(spans, names))

    jobs_s = sum(s[2] - s[1] for s in spans if s[0] == "job")
    selfs = self_times(spans)
    engine = [i for i, s in enumerate(spans) if s[0] == "radio.engine"]
    words_engines = set()
    for s in spans:
        if s[0] == "radio.step_words":
            parent = s[3]
            while parent >= 0 and spans[parent][0] != "radio.engine":
                parent = spans[parent][3]
            if parent >= 0:
                words_engines.add(parent)
    puts = [(s[2] - s[1]) * 1e3 for s in spans if s[0] == "runtime.put"]
    gets = [(s[2] - s[1]) * 1e3 for s in spans if s[0] == "runtime.get"]
    build_s = total("graphs.build")
    engine_s = total("radio.engine")
    return {
        "graphs.build_s": build_s,
        "graphs.build_share": build_s / jobs_s if jobs_s else 0.0,
        "graphs.builds": float(len(outermost(spans, {"graphs.build"}))),
        "radio.engine_s": engine_s,
        "radio.engine_share": engine_s / jobs_s if jobs_s else 0.0,
        "radio.coins_s": total("radio.coins"),
        "radio.deliver_s": total("radio.deliver"),
        "radio.bitset_share": len(words_engines) / len(engine) if engine else 0.0,
        "radio.bookkeeping_s": sum(selfs[i] for i in engine),
        "workload.fold_s": total("workload.fold"),
        "obs.telemetry_s": total("obs.telemetry"),
        "runtime.put_p50_ms": median(puts) if puts else 0.0,
        "runtime.get_p50_ms": median(gets) if gets else 0.0,
        "expansion.estimate_s": total("expansion.estimate"),
    }
