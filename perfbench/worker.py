"""One benchmark process.

    python3 perfbench/worker.py prepare --workload NAME --work DIR --seed N
    python3 perfbench/worker.py setup   --workload NAME --work DIR
    python3 perfbench/worker.py main    --workload NAME --work DIR [--trace]

``prepare`` writes the seeded inputs.  ``setup`` imports masobs and runs
every scenario of the workload for one step; it reports the time from
process start to the end of those calls.  ``main`` runs the workload as a
user would, takes the wall time and peak RSS right after the last program
call, and only then checks the outputs.  Each prints one JSON line.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def _import_masobs():
    start = time.perf_counter()
    import masobs  # noqa: F401
    return time.perf_counter() - start


def run_main(wl, work: Path, trace: bool) -> dict:
    import_s = _import_masobs()
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    result = wl.run(work)
    wall_s = time.perf_counter() - T0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"wall_s": wall_s, "import_s": import_s, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        # summarised before the checks, which call some traced functions too
        layers, validation_s, stepping_s = tracer.layers()
        out.update(layers=layers, validation_s=validation_s, stepping_s=stepping_s)
        tracer.dump(work / "spans.npz")
    attempted, failed, steps, csv_mb = wl.outcome(work)
    found = wl.check(work, result)
    out.update(steps=steps, trace_csv_mb=csv_mb, attempted=attempted, failed=failed,
               checks=[{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in found])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["prepare", "setup", "main"])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--work", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    work = Path(args.work)
    if args.mode == "prepare":
        wl.prepare(args.seed, work)
        out = {}
    elif args.mode == "setup":
        import_s = _import_masobs()
        after_import = time.perf_counter() - T0
        out = {"setup_s": after_import + wl.setup(work), "import_s": import_s}
    else:
        out = run_main(wl, work, args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
