"""The benchmark workloads: how each makes its inputs from the seed, which
program calls a run makes, how its set-up is measured, and which outputs
are checked.

Nothing here imports masobs at module level, so a worker process can start
its clock before the package is imported.
"""

from __future__ import annotations

import io
import json
import math
import time
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

# large-mas: one random model; probing set-up takes about 7 s, stepping about 19 s
LARGE_M = 12           # agents
LARGE_N = 26           # plant state dimension; z = n (m + 2) = 364
LARGE_EDGES = (72, 74)  # communication plus dynamics edges, the bulk of the probing cost
LARGE_STEPS = 120000
LARGE_RECORDS = 15     # record_every = LARGE_STEPS / LARGE_RECORDS
LARGE_H_RHO = 0.1      # dt times the spectral radius of the closed loop, at most
LARGE_MAX_GROWTH = 12.0  # max Re eig(A) * t_end, at most

# ring-dense: double-integrator ring localization, recorded every step
RING_M = 6
RING_STEPS = 4000
RING_DT = 0.05
RING_GAIN_BLOCK = [[-1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0],
                   [0.0, 0.0, -1.5, 0.0], [0.0, 0.0, 0.0, -1.5]]
RING_FINAL_PAIR_LIMIT = 1e-3

EXPERIMENTS = ("5A-basic", "5A-noise", "5A-join", "5A-leave", "5B-known", "5B-unknown")


def _cli(argv):
    """``masobs`` with its stdout captured; returns (exit code, stdout)."""
    from masobs import cli
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main([str(a) for a in argv])
    return rc, buf.getvalue()


def one_step_file_setup(path: Path) -> float:
    """Seconds to parse a scenario file and run it for a single step."""
    from masobs import cli, sim
    start = time.perf_counter()
    cfg = cli.scenario_from_file(json.loads(path.read_text()))
    sim.run_scenario(replace(cfg, t_end=cfg.dt))
    return time.perf_counter() - start


def _bundle_facts(out_dirs):
    """Steps integrated and trace size over the bundles that were written."""
    steps, size, written = 0, 0, []
    for out in out_dirs:
        csv, meta = out / "trace.csv", out / "metadata.json"
        if not (csv.is_file() and meta.is_file()):
            continue
        config = json.loads(meta.read_text())["config"]
        steps += int(round(config["t_end"] / config["dt"]))
        size += csv.stat().st_size
        written.append(out)
    return steps, size / 1e6, written


def stacked_a(model_obj):
    """Stacked plant matrix built from the blocks of a model file."""
    import numpy as np
    dims = [len(agent["A"]) for agent in model_obj["agents"]]
    off = np.concatenate(([0], np.cumsum(dims)))
    a = np.zeros((off[-1], off[-1]))
    for i, agent in enumerate(model_obj["agents"]):
        a[off[i]:off[i + 1], off[i]:off[i + 1]] = agent["A"]
    for cpl in model_obj.get("state_couplings", []):
        i, j = cpl["i"] - 1, cpl["j"] - 1
        a[off[i]:off[i + 1], off[j]:off[j + 1]] = cpl["block"]
    return a, {k + 1: d for k, d in enumerate(dims)}


# ----------------------------------------------------------------------

class ReproduceAll:
    """``masobs reproduce all`` as shipped; it has no seeded input."""

    name = "reproduce-all"
    outputs = ("reproduce",)   # directories under work that a round writes

    def prepare(self, seed, work):
        pass

    def run(self, work):
        rc, out = _cli(["reproduce", "all", "--out", work / "reproduce"])
        return {"rc": rc, "stdout": out}

    def setup(self, work):
        from masobs import scenarios, sim
        total = 0.0
        for key in EXPERIMENTS:
            start = time.perf_counter()
            cfg = scenarios.build_experiment(key).config
            sim.run_scenario(replace(cfg, t_end=cfg.dt, events=()))
            total += time.perf_counter() - start
        return total

    def outcome(self, work):
        steps, mb, written = _bundle_facts([work / "reproduce" / k for k in EXPERIMENTS])
        return len(EXPERIMENTS), len(EXPERIMENTS) - len(written), steps, mb

    def check(self, work, result):
        import checks
        root = work / "reproduce"
        found = [("exit code 0", result["rc"] == 0, f"exit code {result['rc']}")]
        summaries = {k: (root / k / "summary.txt").read_text()
                     for k in EXPERIMENTS if (root / k / "summary.txt").is_file()}
        found.append(("check lines PASS",
                      *checks.check_pass_lines(result["stdout"], EXPERIMENTS, summaries)))
        for key in EXPERIMENTS:
            if not (root / key / "trace.csv").is_file():
                continue
            tr = checks.read_trace(root / key / "trace.csv")
            config = json.loads((root / key / "metadata.json").read_text())["config"]
            found.append((f"{key} norms", *checks.check_norms(tr)))
            if key == "5A-basic":
                a, dims = stacked_a(config["model"])
                want = checks.expm_states(a, config["initial_state"], tr.times, dims)
                found.append((f"{key} plant", *checks.check_states(
                    tr, want, 1e-8, "x against expm(A t) x0")))
            elif key == "5B-known":
                found.append((f"{key} positions", *checks.check_states(
                    tr, _single_integrator_states(config, tr.times), 1e-9,
                    "positions against the closed form")))
            elif key in ("5A-join", "5A-leave"):
                event = config["events"][0]
                kind = "join" if "join" in event else "leave"
                dt = config["dt"]
                t_event = round(event["time"] / dt) * dt
                found.append((f"{key} absent agent", *checks.check_absence(
                    tr, event[kind]["label"], t_event, dt, joins=kind == "join")))
        return found


def _single_integrator_states(config, times):
    """p0 + (a / w) (cos(phi) - cos(w t + phi)) for every agent."""
    import checks
    import numpy as np
    x0 = np.asarray(config["initial_state"], float)
    want = {}
    for lab, sig in config["inputs"].items():
        lab = int(lab)
        p0 = x0[2 * (lab - 1):2 * lab]
        want[lab] = p0 + checks.sinusoid_integral(
            sig["amplitude"], sig["frequency"], sig["phase"], times)
    return want


class LargeMas:
    """One seeded random model run through ``masobs run``, recorded sparsely."""

    name = "large-mas"
    scenario = "large_mas.json"
    outputs = ("large_mas_out",)

    def prepare(self, seed, work):
        from masobs import sim
        cfg = large_mas_config(seed, LARGE_M, LARGE_N, LARGE_EDGES)
        sim.save_scenario(cfg, work / self.scenario)

    def run(self, work):
        rc, out = _cli(["run", work / self.scenario, "--out", work / "large_mas_out"])
        return {"rc": rc, "stdout": out}

    def setup(self, work):
        return one_step_file_setup(work / self.scenario)

    def outcome(self, work):
        steps, mb, written = _bundle_facts([work / "large_mas_out"])
        return 1, 1 - len(written), steps, mb

    def check(self, work, result):
        import checks
        import numpy as np
        from masobs import mas, observer
        found = [("exit code 0", result["rc"] == 0, f"exit code {result['rc']}")]
        out = work / "large_mas_out"
        if not (out / "trace.csv").is_file():
            return found
        tr = checks.read_trace(out / "trace.csv")
        scenario = json.loads((work / self.scenario).read_text())
        found.append(("norms", *checks.check_norms(tr)))
        a, dims = stacked_a(scenario["model"])
        want = checks.expm_states(a, scenario["initial_state"], tr.times, dims)
        found.append(("plant", *checks.check_states(tr, want, 1e-8,
                                                    "x against expm(A t) x0")))
        model = mas.model_from_json(scenario["model"])
        used = json.loads((out / "metadata.json").read_text())["gains"][0]
        gains = observer.ObserverGains(
            luenberger={int(k): np.asarray(v) for k, v in used["luenberger"].items()},
            mu=used["mu"], input_mode=used["input_mode"],
            weights={int(k): np.asarray(v) for k, v in used["weights"].items()})
        dyn = observer.assemble_error_dynamics(model, gains)
        found.append(("error dynamics", *checks.check_error_expm(
            tr, dyn.r, dyn.ordering, scenario["record_every"])))
        return found


def large_mas_config(seed, m, n, edge_band=None):
    """Seeded random model with m agents and state dimension n, ``auto``
    Luenberger gains and the ``global`` coupling gain.  ``edge_band`` bounds
    the communication plus dynamics edge count.  dt is the largest power of
    two with dt * rho <= LARGE_H_RHO, rho the spectral radius of the closed
    loop (plant and error dynamics), so every step count is exact in binary.
    Models whose plant grows by more than e^LARGE_MAX_GROWTH over the run
    are drawn again."""
    import numpy as np
    from masobs import mas, observer, sim, synth
    rng = np.random.default_rng(seed)
    policy = sim.GainPolicy(luenberger="auto", weights="binary", mu="global")
    while True:
        model = synth.random_mas_model(rng, m=m, max_state=3, unstable_diagonals=True)
        edges = len(model.communication_graph.edges) + len(model.dynamics_graph.edges)
        if model.n != n or (edge_band is not None
                            and not edge_band[0] <= edges <= edge_band[1]):
            continue
        gains, _ = sim.resolve_gains(model, policy)
        r = observer.assemble_error_dynamics(model, gains).r
        a, _ = stacked_a(mas.model_to_json(model))
        eig_a = np.linalg.eigvals(a)
        rho = max(np.max(np.abs(np.linalg.eigvals(r))), np.max(np.abs(eig_a)))
        dt = 2.0 ** -math.ceil(math.log2(rho / LARGE_H_RHO))
        if np.max(eig_a.real) * LARGE_STEPS * dt <= LARGE_MAX_GROWTH:
            break
    return sim.ScenarioConfig(
        model=model, policy=policy, t_end=LARGE_STEPS * dt, dt=dt, seed=seed,
        record_every=LARGE_STEPS // LARGE_RECORDS,
        initial_state=tuple(rng.uniform(-1.0, 1.0, model.n)))


class RingDense:
    """Double-integrator ring localization file, recorded every step."""

    name = "ring-dense"
    scenario = "ring_dense.json"
    outputs = ("ring_dense_out",)

    def prepare(self, seed, work):
        import numpy as np
        rng = np.random.default_rng(seed)
        m = RING_M
        ring = [(i, i % m + 1) for i in range(1, m + 1)]
        amp = rng.uniform(0.05, 0.2, 2)
        signal = {"type": "sinusoid", "amplitude": amp.tolist(),
                  "frequency": float(rng.uniform(0.02, 0.1)),
                  "phase": rng.uniform(0.0, 2.0 * math.pi, 2).tolist()}
        obj = {
            "kind": "localization",
            "sensing": {"agents": m, "relative_edges": [[j, i] for i, j in ring],
                        "anchors": [1]},
            "communication": {"nodes": m, "edges": [[i, j, 1.0] for i, j in ring]
                              + [[j, i, 1.0] for i, j in ring]},
            "order": "double", "h": 2, "gain_block": RING_GAIN_BLOCK,
            "weight_rule": "binary", "input_mode": "full",
            "inputs": {str(i): signal for i in range(1, m + 1)},
            "initial_positions": rng.uniform(0.0, 20.0, (m, 2)).tolist(),
            "initial_velocities": rng.uniform(-0.5, 0.5, (m, 2)).tolist(),
            "t_end": RING_STEPS * RING_DT, "dt": RING_DT, "seed": seed,
        }
        (work / self.scenario).write_text(json.dumps(obj, indent=2) + "\n")

    def run(self, work):
        rc, out = _cli(["run", work / self.scenario, "--out", work / "ring_dense_out"])
        return {"rc": rc, "stdout": out}

    def setup(self, work):
        return one_step_file_setup(work / self.scenario)

    def outcome(self, work):
        steps, mb, written = _bundle_facts([work / "ring_dense_out"])
        return 1, 1 - len(written), steps, mb

    def check(self, work, result):
        import checks
        import numpy as np
        found = [("exit code 0", result["rc"] == 0, f"exit code {result['rc']}")]
        out = work / "ring_dense_out"
        if not (out / "trace.csv").is_file():
            return found
        tr = checks.read_trace(out / "trace.csv")
        scenario = json.loads((work / self.scenario).read_text())
        found.append(("norms", *checks.check_norms(tr)))
        want = {}
        for lab in range(1, RING_M + 1):
            sig = scenario["inputs"][str(lab)]
            p0 = np.asarray(scenario["initial_positions"][lab - 1])
            v0 = np.asarray(scenario["initial_velocities"][lab - 1])
            args = (sig["amplitude"], sig["frequency"], sig["phase"], tr.times)
            want[lab] = np.hstack([
                p0 + v0 * tr.times[:, None] + checks.sinusoid_double_integral(*args),
                v0 + checks.sinusoid_integral(*args)])
        found.append(("kinematics", *checks.check_states(
            tr, want, 1e-9, "positions and velocities against the closed form")))
        found.append(("final pair errors",
                      *checks.check_final_pairs(tr, RING_FINAL_PAIR_LIMIT)))
        return found


WORKLOADS = {w.name: w for w in (ReproduceAll(), LargeMas(), RingDense())}
