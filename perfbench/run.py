#!/usr/bin/env python3
"""masobs benchmark: one command runs a named workload and prints its metrics.

    python3 perfbench/run.py --workload reproduce-all --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout (the directory holding ``src/``).
Every measurement is a fresh ``python3`` process (``worker.py``) that
imports the package from ``src/``; BLAS keeps its default thread count and
nothing runs in parallel with a measured process.

With ``--trace 0`` the run makes the seeded inputs, measures set-up
``SETUP_REPEATS`` times (each a fresh process that imports masobs and runs
every scenario of the workload for one step), then repeats whole workload
rounds until ``--seconds`` have passed, and reports the end-to-end metrics
as medians.  With ``--trace 1`` it runs one untraced and one traced round
and reports the per-layer metrics and the tracing overhead.  The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
# set-up measurements per run, half before the main rounds and half after;
# one large-mas set-up takes about 7 s
SETUP_REPEATS = {"reproduce-all": 5, "large-mas": 2, "ring-dense": 2}
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def _worker(mode, workload, work, env, *extra):
    if mode == "main":
        # each round is judged only on the bundles it wrote itself
        for name in workloads.WORKLOADS[workload].outputs:
            shutil.rmtree(work / name, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload,
           "--work", str(work), *extra]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker timed out after {exc.timeout:.0f} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker printed no result")
    return json.loads(lines[-1])


def _checks_pass(result):
    bad = [c for c in result["checks"] if not c["ok"]]
    for c in bad:
        print(f"check failed: {c['name']}: {c['detail']}", file=sys.stderr)
    return not bad


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(workload, work, env, seconds):
    # set-up measurements bracket the main rounds, so that both see the same
    # stretch of machine speed and their difference does not amplify drift
    repeats = SETUP_REPEATS[workload]
    setups = [_worker("setup", workload, work, env)["setup_s"] for _ in range(repeats // 2)]
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(_worker("main", workload, work, env))
        if time.perf_counter() - start >= seconds:
            break
    setups += [_worker("setup", workload, work, env)["setup_s"]
               for _ in range(repeats - repeats // 2)]
    setup_s = statistics.median(setups)
    wall_s = statistics.median(r["wall_s"] for r in rounds)
    steps = rounds[0]["steps"]
    metrics = {
        "wall_s": _metric(wall_s, "s"),
        "setup_s": _metric(setup_s, "s"),
        "steps_per_s": _metric(steps / (wall_s - setup_s), "1/s"),
        "peak_rss_mb": _metric(statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    print(f"{workload}: {len(rounds)} round(s), wall {[round(r['wall_s'], 3) for r in rounds]}"
          f" s, set-up {[round(s, 3) for s in setups]} s, {steps} steps per round")
    return rounds, metrics


def _per_layer(workload, work, env):
    plain = _worker("main", workload, work, env)
    traced = _worker("main", workload, work, env, "--trace")
    layers = traced["layers"]

    def total(name):
        return layers[name]["total_s"]

    def calls(name):
        return layers[name]["calls"]

    steps = traced["steps"]
    run = layers["sim.run_scenario"]
    metrics = {
        "masobs.import_s": _metric(traced["import_s"], "s"),
        "scenarios.build_experiment_s": _metric(total("scenarios.build_experiment"), "s"),
        "observer.fit_decay_envelope_s": _metric(total("observer.fit_decay_envelope"), "s"),
        "observer.error_disturbance_matrices_s":
            _metric(total("observer.error_disturbance_matrices"), "s"),
        "mas.model_from_json_s": _metric(total("mas.model_from_json"), "s"),
        "mas.validation_s": _metric(traced["validation_s"], "s"),
        "observer.design_gains_s": _metric(total("observer.design_gains"), "s"),
        "observer.observer_derivative.calls":
            _metric(calls("observer.observer_derivative"), "count"),
        "observer.observer_derivative_s": _metric(total("observer.observer_derivative"), "s"),
        "mas.state_slice.calls": _metric(calls("mas.state_slice"), "count"),
        "localization.dagc_s": _metric(total("localization.dagc"), "s"),
        "localization.build_localization_mas_s":
            _metric(total("localization.build_localization_mas"), "s"),
        "sim.linearize_segment_s": _metric(total("sim.linearize_segment"), "s"),
        "sim.run_scenario_s": _metric(run["total_s"], "s"),
        "sim.run_scenario_self_s": _metric(run["self_s"], "s"),
        "sim.integrate_step.calls": _metric(calls("sim.integrate_step"), "count"),
        "sim.step_us": _metric(1e6 * traced["stepping_s"] / steps, "us"),
        "observer.unpack_observer_state.calls":
            _metric(calls("observer.unpack_observer_state"), "count"),
        "observer.unpack_observer_state_s":
            _metric(total("observer.unpack_observer_state"), "s"),
        "sim.apply_event_s": _metric(total("sim.apply_event"), "s"),
        "sim.write_trace_csv_s": _metric(total("sim.write_trace_csv"), "s"),
        "sim.trace_csv_mb": _metric(traced["trace_csv_mb"], "MB"),
        "sim.write_metadata_s": _metric(total("sim.write_metadata"), "s"),
        "trace.overhead_pct":
            _metric(100.0 * (traced["wall_s"] / plain["wall_s"] - 1.0), "%"),
    }
    print(f"{workload}: traced wall {traced['wall_s']:.3f} s, untraced wall "
          f"{plain['wall_s']:.3f} s, tracing overhead "
          f"{metrics['trace.overhead_pct']['value']:+.1f} %; spans in {work / 'spans.npz'}")
    return [plain, traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "masobs" / "__init__.py").is_file():
        print(f"error: no masobs sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_out" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    try:
        _worker("prepare", args.workload, work, env, "--seed", str(args.seed))
        if args.trace:
            rounds, metrics = _per_layer(args.workload, work, env)
        else:
            rounds, metrics = _end_to_end(args.workload, work, env, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct = all(_checks_pass(r) for r in rounds)
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps({"result": result, "rounds": rounds},
                                                 indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
