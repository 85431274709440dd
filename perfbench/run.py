"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload engine-sweep --seed 0 --seconds 45 --trace 0

Builds nothing: the program is imported from ``src/`` of the checkout this
file sits in.  With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics of a traced run.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable table with sample counts.  Every run appends a record, with its
provenance, to ``perfbench/out/records.jsonl``; a traced run also writes
its spans to ``perfbench/out/spans-<workload>-seed<seed>.jsonl``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("engine-sweep", "service-closed-loop")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests", action="store_true",
        help="store this run's output digests as the recorded ones "
             "(default seed only)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    # The script directory would shadow stdlib names; import the benchmark
    # as a package from the checkout root, and the program from src/.
    src = os.path.join(ROOT, "src")
    sys.path[:] = [ROOT, src] + [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    try:
        import repro.scenario
        import repro.service.client  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.scenario.__file__).startswith(src + os.sep):
        print(f"perfbench: imported the program from {repro.scenario.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    from perfbench import library, service
    from perfbench.checks import DEFAULT_SEED, Checker, record
    from perfbench.report import END_TO_END, PER_LAYER, print_table, provenance, result_line

    import_s = time.perf_counter() - _START
    if args.record_digests and args.seed != DEFAULT_SEED:
        print(f"perfbench: --record-digests needs --seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    # A terminated run still stops its servers and removes its stores.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    checker = Checker(args.workload, args.seed)
    trace = bool(args.trace)
    try:
        if args.workload == "service-closed-loop":
            metrics, samples, attempted, digests, tracer = service.run(
                ROOT, args.seed, args.seconds, trace, workdir, import_s, checker)
        else:
            metrics, samples, attempted, digests, tracer = library.run(
                args.workload, args.seed, args.seconds, trace, workdir, import_s, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if trace else END_TO_END
    metrics = {name: metrics.get(name, 0.0) for name in units}
    prov = provenance(ROOT, args.seed)
    print_table(args.workload, prov, metrics, units, samples, checker.messages())
    if tracer is not None:
        tracer.write_jsonl(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    if args.record_digests:
        if not checker.correct:
            print("perfbench: not recording digests of a run whose checks failed", file=sys.stderr)
            return 1
        record(args.workload, digests)
    with open(os.path.join(out_dir, "records.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "provenance": prov, "correct": checker.correct, "attempted": attempted,
            "failed": len(checker.failed), "failures": checker.messages(),
            "metrics": {n: {"value": metrics[n], "unit": u, "samples": samples.get(n)}
                        for n, u in units.items()},
        }) + "\n")
    print(result_line(checker.correct, attempted, len(checker.failed), metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
