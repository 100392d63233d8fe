"""Command line front end: validate models, design gains, run scenarios,
reproduce the built-in experiments, and orient sensing graphs.

Exit codes: 0 success, 1 usage/parse problem, 2 failed model or assumption
check, 3 runtime divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import localization as loc_mod
from . import mas as mas_mod
from . import observer as obs_mod
from . import scenarios as scen_mod
from . import sim as sim_mod
from .errors import (AssumptionError, ConnectivityError, DomainError, LayerError,
                     MasobsError, NonFiniteError, UnobservableError)
from .graphs import DirectedGraph, is_strongly_connected

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK = 2
EXIT_DIVERGED = 3


# ----------------------------------------------------------------------
# shared file loading
# ----------------------------------------------------------------------

def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(_fail(EXIT_USAGE, f"cannot read {path}: {exc}"))


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _cannot_write(path, exc: OSError) -> int:
    return _fail(EXIT_USAGE, f"cannot write {path}: {exc}")


def _exit_code(exc: Exception) -> int:
    """Exit code of an error that stops a command: a divergence, a failed
    check, or else a usage or parse problem."""
    if isinstance(exc, NonFiniteError):
        return EXIT_DIVERGED
    if isinstance(exc, (AssumptionError, ConnectivityError, LayerError, UnobservableError)):
        return EXIT_CHECK
    return EXIT_USAGE


def _reason(exc: Exception) -> str:
    """A parse failure in words; str() of a KeyError is only the key's repr."""
    if isinstance(exc, KeyError):
        return f"missing key {exc.args[0]!r}"
    return str(exc)


def sensing_from_json(obj: dict) -> loc_mod.SensingGraph:
    return loc_mod.SensingGraph(
        agent_count=int(obj["agents"]),
        relative_edges=tuple(tuple(e) for e in obj["relative_edges"]),
        anchors=tuple(obj.get("anchors", ())))


def _sensing_ids(obj: dict):
    ids = obj.get("ids")
    if ids is None:
        return None
    if not isinstance(ids, dict):
        raise TypeError(f"ids must map agents to ids, got {type(ids).__name__}")
    return {int(k): int(v) for k, v in ids.items()}


# ----------------------------------------------------------------------
# check
# ----------------------------------------------------------------------

def _check_model(obj: dict) -> int:
    try:
        model = mas_mod.model_from_json(obj)
    except (KeyError, TypeError, ValueError, MasobsError) as exc:
        print(f"FAIL structure: {_reason(exc)}")
        return EXIT_CHECK
    failures = 0
    observable = mas_mod.check_node_observability(model)
    if all(observable):
        print("PASS node-level observability: every (A_ii, C_ii) pair observable")
    else:
        bad = [i for i, ok in zip(model.agents, observable) if not ok]
        print(f"FAIL node-level observability: agents {bad} unobservable")
        failures += 1
    try:
        ordering = mas_mod.check_topological_consistency(model)
        print(f"PASS ordering consistency: shared topological ordering {list(ordering)}")
    except AssumptionError as exc:
        print(f"FAIL ordering consistency: {exc}")
        failures += 1
    if is_strongly_connected(model.communication_graph):
        print("PASS communication connectivity: graph strongly connected")
    else:
        print("FAIL communication connectivity: graph not strongly connected")
        failures += 1
    return EXIT_CHECK if failures else EXIT_OK


def _check_sensing(obj: dict) -> int:
    comm = obj.get("communication")
    try:
        sg = sensing_from_json(obj)
        gc = None if comm is None else mas_mod._graph_from_json(comm)
    except (KeyError, TypeError, ValueError, MasobsError) as exc:
        print(f"FAIL structure: {_reason(exc)}")
        return EXIT_CHECK
    failures = 0
    if loc_mod.check_global_observability(sg):
        print("PASS global observability: anchored sensing skeleton connected")
    else:
        print("FAIL global observability: sensing skeleton disconnected from anchors")
        failures += 1
    per_agent = loc_mod.check_agent_observability(sg)
    if all(per_agent):
        print("PASS per-agent observability: every agent owns a measurement")
    else:
        bad = [i for i, ok in enumerate(per_agent, start=1) if not ok]
        print(f"FAIL per-agent observability: agents {bad} own no measurement")
        failures += 1
    if gc is not None:
        if is_strongly_connected(gc):
            print("PASS communication connectivity: graph strongly connected")
        else:
            print("FAIL communication connectivity: graph not strongly connected")
            failures += 1
    return EXIT_CHECK if failures else EXIT_OK


def cmd_check(args) -> int:
    obj = _load_json(args.path)
    if "relative_edges" in obj:
        return _check_sensing(obj)
    if "agents" in obj and "m" in obj:
        return _check_model(obj)
    if "model" in obj:  # scenario file: check its embedded model
        return _check_model(obj["model"])
    return _fail(EXIT_USAGE, f"{args.path} is neither a model nor a sensing scenario")


# ----------------------------------------------------------------------
# gains
# ----------------------------------------------------------------------

def cmd_gains(args) -> int:
    obj = _load_json(args.path)
    try:
        model = mas_mod.model_from_json(obj if "m" in obj else obj["model"])
    except (KeyError, TypeError, ValueError, MasobsError) as exc:
        return _fail(EXIT_USAGE, f"cannot parse model: {_reason(exc)}")
    policy_kwargs = {"margin": args.margin}
    if args.policy == "undirected":
        policy_kwargs.update(weights="binary", mu="undirected", m_bar=args.m_bar)
    elif args.policy == "directed":
        policy_kwargs.update(weights="normalized-in", mu="directed", m_bar=args.m_bar)
    elif args.policy == "global":
        policy_kwargs.update(weights="binary", mu="global")
    else:
        return _fail(EXIT_USAGE, f"unknown policy {args.policy!r}")
    if args.mu is not None:
        policy_kwargs["mu"] = args.mu
    try:
        gains, report = obs_mod.design_gains(model, **policy_kwargs)
    except MasobsError as exc:
        return _fail(_exit_code(exc), str(exc))
    print(f"largest block spectral radius: {report['rho_max']:.6g}")
    if report.get("mu_bound") is not None:
        print(f"coupling gain bound: {report['mu_bound']:.6g}")
    if "min_grounded_eigenvalue" in report:
        print(f"smallest grounded eigenvalue modulus: "
              f"{report['min_grounded_eigenvalue']:.6g}")
    if "m_bar" in report:
        print(f"agent cap: {report['m_bar']}")
    print(f"selected coupling gain: {gains.mu:g}")
    out = {
        "mu": gains.mu,
        "weight_rule": report["weight_rule"],
        "luenberger": {str(i): gains.luenberger[i].tolist() for i in model.agents},
        "weights": {str(j): gains.weights[j].tolist() for j in model.agents},
        "report": {k: v for k, v in report.items()},
    }
    out_path = Path(args.out) if args.out else Path(args.path).with_suffix(".gains.json")
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(out, indent=2) + "\n")
    except OSError as exc:
        return _cannot_write(out_path, exc)
    print(f"wrote {out_path}")
    return EXIT_OK


# ----------------------------------------------------------------------
# run / reproduce
# ----------------------------------------------------------------------

def _plot_script(columns, csv_name: str) -> str:
    err_cols = [c + 1 for c, name in enumerate(columns) if name.startswith("err[")]
    total_col = columns.index("E_norm") + 1
    lines = [
        "set datafile separator ','",
        "set logscale y",
        "set xlabel 'time [s]'",
        "set ylabel 'estimation error norm'",
        "set key outside",
        "set terminal pngcairo size 1000,600",
        "set output 'errors.png'",
    ]
    plot_parts = [f"'{csv_name}' using 1:{c} with lines title '{columns[c - 1]}'"
                  for c in err_cols]
    plot_parts.append(f"'{csv_name}' using 1:{total_col} with lines lw 2 title 'E norm'")
    lines.append("plot \\\n  " + ", \\\n  ".join(plot_parts))
    return "\n".join(lines) + "\n"


def scenario_from_file(obj: dict) -> sim_mod.ScenarioConfig:
    """Build a runnable configuration from either scenario file kind."""
    kind = obj.get("kind", "mas")
    if kind == "mas":
        return sim_mod.scenario_from_json(obj)
    if kind == "localization":
        sensing = obj["sensing"]
        sg = sensing_from_json(sensing)
        assignment = loc_mod.dagc(sg, ids=_sensing_ids(sensing),
                                  seed=int(obj.get("seed", 0)))
        gc = mas_mod._graph_from_json(obj["communication"])
        order = obj.get("order", "single")
        h = int(obj.get("h", 2))
        model = loc_mod.build_localization_mas(assignment, gc, order=order, h=h)
        gain_block = obj.get("gain_block")
        gains = loc_mod.localization_gains(
            model, weight_rule=obj.get("weight_rule", "binary"),
            gain_block=gain_block,
            input_mode=obj.get("input_mode", "full"))
        policy = sim_mod.GainPolicy(
            luenberger={i: gains.luenberger[i] for i in model.agents},
            weights=obj.get("weight_rule", "binary"), mu=1.0,
            input_mode=obj.get("input_mode", "full"))
        inputs = None
        if "inputs" in obj:
            inputs = {int(k): sim_mod.signal_from_json(v)
                      for k, v in obj["inputs"].items()}
        initial = obj.get("initial_positions")
        x0 = None
        if initial is not None:
            kinematics = loc_mod.AgentKinematics(
                order=order, h=h, positions=tuple(tuple(p) for p in initial),
                velocities=(tuple(tuple(v) for v in obj["initial_velocities"])
                            if "initial_velocities" in obj else None))
            x0 = tuple(kinematics.stacked_state())
        return sim_mod.ScenarioConfig(
            model=model, policy=policy, inputs=inputs,
            noise=sim_mod.NoiseSpec(**obj.get("noise", {})),
            t_end=float(obj["t_end"]), dt=float(obj["dt"]),
            seed=int(obj.get("seed", 0)),
            record_every=int(obj.get("record_every", 1)),
            initial_state=x0)
    raise ValueError(f"unknown scenario kind {kind!r}")


def _apply_overrides(cfg: sim_mod.ScenarioConfig, args) -> sim_mod.ScenarioConfig:
    from dataclasses import replace
    updates = {}
    if getattr(args, "dt", None) is not None:
        updates["dt"] = args.dt
    if getattr(args, "t_end", None) is not None:
        updates["t_end"] = args.t_end
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "mu", None) is not None:
        updates["policy"] = replace(cfg.policy, mu=args.mu)
    return replace(cfg, **updates) if updates else cfg


def _write_bundle(out_dir: Path, cfg, trace, subsample: int) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    sim_mod.write_trace_csv(trace, out_dir / "trace.csv", subsample=subsample)
    sim_mod.write_metadata(out_dir / "metadata.json", trace,
                           config_json=sim_mod.scenario_to_json(cfg))
    columns = sim_mod.trace_columns(trace)
    (out_dir / "plot.gp").write_text(_plot_script(columns, "trace.csv"))


def cmd_run(args) -> int:
    if args.subsample < 1:
        return _fail(EXIT_USAGE, f"--subsample must be at least 1, got {args.subsample}")
    obj = _load_json(args.path)
    try:
        cfg = scenario_from_file(obj)
    except (KeyError, TypeError, ValueError, MasobsError) as exc:
        return _fail(_exit_code(exc), f"cannot parse scenario: {_reason(exc)}")
    try:
        cfg = _apply_overrides(cfg, args)
    except DomainError as exc:
        return _fail(EXIT_USAGE, str(exc))
    out_dir = Path(args.out) if args.out else Path(args.path).with_suffix("") \
        .with_name(Path(args.path).stem + "_out")
    try:
        trace = sim_mod.run_scenario(cfg)
    except MasobsError as exc:
        return _fail(_exit_code(exc), str(exc))
    try:
        _write_bundle(out_dir, cfg, trace, args.subsample)
    except OSError as exc:
        return _cannot_write(out_dir, exc)
    summary = sim_mod.error_norms(trace)
    print(f"wrote {out_dir}/trace.csv ({len(trace.times)} samples)")
    print(f"final stacked error norm: {summary.total_final:.6g}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    if args.subsample < 1:
        return _fail(EXIT_USAGE, f"--subsample must be at least 1, got {args.subsample}")
    keys = list(scen_mod.EXPERIMENT_KEYS) if args.experiment == "all" \
        else [args.experiment]
    out_root = Path(args.out) if args.out else Path("reproduce_out")
    # every override is checked before the first bundle is written
    runs = []
    for key in keys:
        try:
            experiment = scen_mod.build_experiment(key)
        except KeyError as exc:
            return _fail(EXIT_USAGE, str(exc))
        try:
            runs.append((experiment, _apply_overrides(experiment.config, args)))
        except DomainError as exc:
            return _fail(EXIT_USAGE, f"{experiment.key}: {exc}")
    overall_ok = True
    for experiment, cfg in runs:
        print(f"[{experiment.key}] {experiment.title}")
        try:
            trace = sim_mod.run_scenario(cfg)
        except MasobsError as exc:
            return _fail(_exit_code(exc), f"{experiment.key}: {exc}")
        lines = []
        for name, fn in experiment.checks:
            ok, detail = fn(trace)
            overall_ok = overall_ok and ok
            verdict = "PASS" if ok else "FAIL"
            print(f"  {verdict} {name}: {detail}")
            lines.append(f"{verdict} {name}: {detail}")
        bundle = out_root / experiment.key
        try:
            _write_bundle(bundle, cfg, trace, args.subsample)
            (bundle / "summary.txt").write_text("\n".join(lines) + "\n")
        except OSError as exc:
            return _cannot_write(bundle, exc)
    return EXIT_OK if overall_ok else EXIT_CHECK


# ----------------------------------------------------------------------
# dagc
# ----------------------------------------------------------------------

def cmd_dagc(args) -> int:
    if args.seed < 0:
        return _fail(EXIT_USAGE, f"--seed must be nonnegative, got {args.seed}")
    obj = _load_json(args.path)
    try:
        sg = sensing_from_json(obj)
        ids = _sensing_ids(obj)
    except (KeyError, TypeError, ValueError) as exc:
        return _fail(EXIT_USAGE, f"cannot parse sensing scenario: {_reason(exc)}")
    try:
        assignment = loc_mod.dagc(sg, ids=ids, seed=args.seed)
    except LayerError as exc:
        return _fail(EXIT_CHECK, str(exc))
    oriented = DirectedGraph.from_edges(sg.agent_count, assignment.oriented_edges)
    from .graphs import topological_ordering
    topological_ordering(oriented)  # acyclicity sanity check before writing
    out_dir = Path(args.out) if args.out else Path(".")
    graph_path = out_dir / "oriented_sensing.txt"
    report_path = out_dir / "dagc_report.json"
    report = {
        "ids": {str(k): v for k, v in sorted(assignment.ids.items())},
        "layers": {str(k): v for k, v in sorted(assignment.layers.items())},
        "oriented_edges": [list(e) for e in assignment.oriented_edges],
        "anchors": list(assignment.anchors),
        "id_fix_rounds": assignment.id_fix_rounds,
    }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        graph_path.write_text(oriented.to_text())
        report_path.write_text(json.dumps(report, indent=2) + "\n")
    except OSError as exc:
        return _cannot_write(out_dir, exc)
    for agent in sorted(assignment.layers):
        print(f"agent {agent}: layer {assignment.layers[agent]}, "
              f"id {assignment.ids[agent]}")
    print(f"wrote {graph_path} and {report_path}")
    return EXIT_OK


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="masobs",
        description="Distributed observers for coupled multi-agent systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a model or sensing scenario file")
    p.add_argument("path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gains", help="design observer gains for a model file")
    p.add_argument("path")
    p.add_argument("--policy", default="global",
                   choices=["global", "undirected", "directed"])
    p.add_argument("--m-bar", type=int, default=None, dest="m_bar",
                   help="maximum number of allowable agents")
    p.add_argument("--margin", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=None,
                   help="override the selected coupling gain")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gains)

    p = sub.add_parser("run", help="run a scenario file")
    p.add_argument("path")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--t-end", type=float, default=None, dest="t_end")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--subsample", type=int, default=1)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("reproduce", help="run a built-in benchmark experiment")
    p.add_argument("experiment",
                   help="experiment id (%s) or 'all'" % ", ".join(scen_mod.EXPERIMENT_KEYS))
    p.add_argument("--out", default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--t-end", type=float, default=None, dest="t_end")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--subsample", type=int, default=1)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("dagc", help="orient a sensing graph into a DAG")
    p.add_argument("path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dagc)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
