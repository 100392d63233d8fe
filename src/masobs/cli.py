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
from .errors import (AssumptionError, ConnectivityError, InputError, LayerError, MasobsError,
                     NonFiniteError, UnobservableError)
from .graphs import (DirectedGraph, as_int, is_strongly_connected, label_map,
                     refuse_unknown_keys, topological_ordering)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK = 2
EXIT_DIVERGED = 3


# ----------------------------------------------------------------------
# shared file loading
# ----------------------------------------------------------------------

def _load_json(path: str) -> dict:
    try:
        obj = json.loads(Path(path).read_text())
        if not isinstance(obj, dict):
            raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    except (OSError, ValueError) as exc:
        raise SystemExit(_fail(EXIT_USAGE, f"cannot read {path}: {exc}"))
    return obj


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _cannot_write(path, exc: OSError) -> int:
    return _fail(EXIT_USAGE, f"cannot write {path}: {exc}")


def _exit_code(exc: MasobsError) -> int:
    """Exit code of an error that stops a command: a divergence, a failed
    check, or else a usage or parse problem."""
    if isinstance(exc, NonFiniteError):
        return EXIT_DIVERGED
    if isinstance(exc, (AssumptionError, ConnectivityError, LayerError, UnobservableError)):
        return EXIT_CHECK
    return EXIT_USAGE


# the top-level keys that each input kind reads; any other key is refused
_RUN_KEYS = {"inputs", "noise", "t_end", "dt", "seed", "record_every"}
_KIND_KEYS = {
    "model": mas_mod.MODEL_KEYS,
    "sensing": {"agents", "relative_edges", "anchors", "ids", "communication"},
    "mas": {"kind", "model", "gains", "events", "initial_state", "initial_estimates",
            *_RUN_KEYS},
    "localization": {"kind", "sensing", "communication", "order", "h", "weight_rule",
                     "gain_block", "input_mode", "initial_positions",
                     "initial_velocities", *_RUN_KEYS},
}
# the top-level keys that each input kind needs (a model file's are the
# ones that mas.model_from_json needs in any model section)
_KIND_NEEDS = {
    "model": (),
    "sensing": ("agents", "relative_edges"),
    "mas": ("model", "t_end", "dt"),
    "localization": ("sensing", "communication", "t_end", "dt"),
}


def _file_kind(obj: dict) -> str:
    """Which input ``obj`` is: a "model" file, a "sensing" file, or a
    scenario of kind "mas" (the default) or "localization".  Raises
    InputError for an unknown kind, a top-level key that kind never reads,
    or one it needs and lacks."""
    if "relative_edges" in obj:
        kind = "sensing"
    elif "m" in obj:
        kind = "model"
    else:
        kind = obj.get("kind", "mas")
    if not (isinstance(kind, str) and kind in _KIND_KEYS):
        raise InputError(f"unknown scenario kind {kind!r}")
    refuse_unknown_keys(obj, _KIND_KEYS[kind], "top-level", f" in a {kind} file",
                        required=_KIND_NEEDS[kind])
    return kind


def _model_from_file(obj: dict) -> mas_mod.MasModel:
    """The model of a model file, or the model that a scenario file runs."""
    if _file_kind(obj) == "model":
        return mas_mod.model_from_json(obj)
    return scenario_from_file(obj).model


def sensing_from_json(obj: dict):
    """``(SensingGraph, ids, communication)`` of a sensing file, whose pinned
    ``ids`` and ``communication`` graph are optional, or of a localization
    scenario's ``sensing`` section and ``communication`` graph."""
    localization = _file_kind(obj) == "localization"
    if localization:
        sensing = obj["sensing"]
        refuse_unknown_keys(sensing, _KIND_KEYS["sensing"] - {"communication"}, "sensing",
                            required=_KIND_NEEDS["sensing"])
    else:
        sensing = obj
    ids = sensing.get("ids")
    if ids is not None:
        ids = {k: as_int(v, f"id of agent {k}") for k, v in label_map(ids, "ids").items()}
    sg = loc_mod.SensingGraph(agent_count=as_int(sensing["agents"], "agents"),
                              relative_edges=sensing["relative_edges"],
                              anchors=sensing.get("anchors", ()))
    comm = obj.get("communication")
    if comm is not None or localization:
        comm = mas_mod._graph_from_json(comm, sg.agent_count)
    return sg, ids, comm


# ----------------------------------------------------------------------
# check
# ----------------------------------------------------------------------

def _verdict(ok: bool, name: str, passed: str, failed: str):
    return ok, name, passed if ok else failed


def _verdicts(obj: dict) -> list:
    """``(ok, name, detail)`` of every check on the model of a model file or
    ``mas`` scenario, or on the sensing graph of a sensing file or
    localization scenario, and on its communication graph."""
    if _file_kind(obj) in ("sensing", "localization"):
        sg, _, comm = sensing_from_json(obj)
        unowned = [i for i, ok in enumerate(loc_mod.check_agent_observability(sg), start=1)
                   if not ok]
        verdicts = [
            _verdict(loc_mod.check_global_observability(sg), "global observability",
                     "anchored sensing skeleton connected",
                     "sensing skeleton disconnected from anchors"),
            _verdict(not unowned, "per-agent observability",
                     "every agent owns a measurement", f"agents {unowned} own no measurement"),
        ]
    else:
        model = _model_from_file(obj)
        comm = model.communication_graph
        unobservable = [i for i, ok in zip(model.agents,
                                           mas_mod.check_node_observability(model)) if not ok]
        verdicts = [_verdict(not unobservable, "node-level observability",
                             "every (A_ii, C_ii) pair observable",
                             f"agents {unobservable} unobservable")]
        try:
            ordering = list(mas_mod.check_topological_consistency(model))
            verdicts.append((True, "ordering consistency",
                             f"shared topological ordering {ordering}"))
        except AssumptionError as exc:
            verdicts.append((False, "ordering consistency", str(exc)))
    if comm is not None:
        verdicts.append(_verdict(is_strongly_connected(comm), "communication connectivity",
                                 "graph strongly connected", "graph not strongly connected"))
    return verdicts


def cmd_check(args) -> int:
    obj = _load_json(args.path)
    try:
        verdicts = _verdicts(obj)
    except MasobsError as exc:
        verdicts = [(False, "structure", str(exc))]
    for ok, name, detail in verdicts:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return EXIT_OK if all(ok for ok, _, _ in verdicts) else EXIT_CHECK


# ----------------------------------------------------------------------
# gains
# ----------------------------------------------------------------------

def cmd_gains(args) -> int:
    obj = _load_json(args.path)
    try:
        model = _model_from_file(obj)
    except MasobsError as exc:
        return _fail(_exit_code(exc), f"cannot parse model: {exc}")
    try:
        gains, report = obs_mod.design_gains(
            model, margin=args.margin,
            weights="normalized-in" if args.policy == "directed" else "binary",
            mu=args.policy if args.mu is None else args.mu, m_bar=args.m_bar)
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
    if _file_kind(obj) != "localization":
        return sim_mod.scenario_from_json(obj)
    sg, ids, comm = sensing_from_json(obj)
    return scen_mod.localization_scenario(
        sg, comm, ids=ids, order=obj.get("order", "single"), h=as_int(obj.get("h", 2), "h"),
        weight_rule=obj.get("weight_rule", "binary"), gain_block=obj.get("gain_block"),
        input_mode=obj.get("input_mode", "full"), positions=obj.get("initial_positions"),
        velocities=obj.get("initial_velocities"), **sim_mod.run_settings_from_json(obj))


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
    except MasobsError as exc:
        return _fail(_exit_code(exc), f"cannot parse scenario: {exc}")
    out_dir = Path(args.out) if args.out else Path(args.path).with_suffix("") \
        .with_name(Path(args.path).stem + "_out")
    try:
        cfg = _apply_overrides(cfg, args)
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
        except MasobsError as exc:
            return _fail(_exit_code(exc), str(exc))
        try:
            runs.append((experiment, _apply_overrides(experiment.config, args)))
        except MasobsError as exc:
            return _fail(_exit_code(exc), f"{experiment.key}: {exc}")
    overall_ok = True
    for experiment, cfg in runs:
        print(f"[{experiment.key}] {experiment.title}")
        try:
            trace = sim_mod.run_scenario(cfg)
        except MasobsError as exc:
            return _fail(_exit_code(exc), f"{experiment.key}: {exc}")
        # an override may change the gains, so its checks are fitted to the
        # config that ran, and only once that run has succeeded
        checks = experiment.checks if cfg is experiment.config \
            else experiment.checks_for(cfg)
        lines = []
        for name, fn in checks:
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
        sg, ids, _ = sensing_from_json(obj)
        assignment = loc_mod.dagc(sg, ids=ids, seed=args.seed)
    except MasobsError as exc:
        return _fail(_exit_code(exc), f"cannot parse sensing scenario: {exc}")
    oriented = DirectedGraph.from_edges(sg.agent_count, assignment.oriented_edges)
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
    p.add_argument("--policy", default="global", choices=obs_mod.MU_RULES)
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
