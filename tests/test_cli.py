import json
import os
import subprocess
import sys

import numpy as np
import pytest

from masobs import cli
from masobs.mas import model_to_json, save_model
from masobs.scenarios import (build_experiment, coupled_triple_model,
                              coupled_triple_scenario, plugin_join_scenario,
                              plugin_leave_scenario, ring_sensing_graph, RING_IDS)
from masobs.observer import consensus_weight_set
from masobs.sim import read_trace_csv, save_scenario, scenario_to_json


@pytest.fixture
def triple_model_file(tmp_path):
    path = tmp_path / "model.json"
    save_model(coupled_triple_model(), path)
    return path


def _ring_sensing_payload():
    sg = ring_sensing_graph()
    return {
        "agents": sg.agent_count,
        "relative_edges": [list(e) for e in sg.relative_edges],
        "anchors": list(sg.anchors),
        "ids": {str(k): v for k, v in RING_IDS.items()},
    }


@pytest.fixture
def ring_sensing_file(tmp_path):
    path = tmp_path / "sensing.json"
    path.write_text(json.dumps(_ring_sensing_payload()))
    return path


def _ring_localization_payload(order):
    sg = ring_sensing_graph()
    payload = {
        "kind": "localization",
        "sensing": {
            "agents": sg.agent_count,
            "relative_edges": [list(e) for e in sg.relative_edges],
            "anchors": list(sg.anchors),
            "ids": {str(k): v for k, v in RING_IDS.items()},
        },
        "communication": {"nodes": 6, "edges": [
            [i, i % 6 + 1, 1.0] for i in range(1, 7)] + [
            [i % 6 + 1, i, 1.0] for i in range(1, 7)]},
        "order": order,
        "inputs": {str(i): {"type": "sinusoid", "amplitude": [-0.1, 0.1],
                            "frequency": 0.01, "phase": [0.0, 1.5707963267948966]}
                   for i in range(1, 7)},
        "initial_positions": [[5, 7], [3, 4], [5, 2], [10, 2], [12, 4], [10, 7]],
        "t_end": 2.0, "dt": 0.01, "record_every": 10,
    }
    if order == "double":
        payload["initial_velocities"] = [[0.1, 0.0]] * 6
    return payload


class TestCheck:
    def test_valid_model_passes(self, triple_model_file, capsys):
        assert cli.main(["check", str(triple_model_file)]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3

    def test_cyclic_interactions_fail(self, tmp_path, capsys):
        payload = model_to_json(coupled_triple_model())
        payload["state_couplings"].append({"i": 1, "j": 2, "block": [[1.0], [0.0]]})
        payload["dynamics_edges"].append([2, 1])
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["check", str(path)]) == 2
        assert "FAIL ordering consistency" in capsys.readouterr().out

    def test_sensing_scenario_passes(self, ring_sensing_file, capsys):
        assert cli.main(["check", str(ring_sensing_file)]) == 0
        out = capsys.readouterr().out
        assert "PASS global observability" in out
        assert "PASS per-agent observability" in out

    def test_sensing_communication_edge_out_of_range_fails(self, ring_sensing_file,
                                                           tmp_path, capsys):
        payload = json.loads(ring_sensing_file.read_text())
        payload["communication"] = {"nodes": 6, "edges": [
            [i, i % 6 + 1, 1.0] for i in range(1, 7)] + [[1, 9, 1.0]]}
        path = tmp_path / "bad_comm.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("FAIL structure: "), captured.out

    def test_missing_file(self, tmp_path):
        assert cli.main(["check", str(tmp_path / "nope.json")]) == 1


class TestGains:
    def test_directed_policy_trail(self, triple_model_file, capsys, tmp_path):
        out_path = tmp_path / "gains.json"
        code = cli.main(["gains", str(triple_model_file), "--policy", "directed",
                         "--m-bar", "4", "--out", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "coupling gain bound: 574.197" in out
        assert "selected coupling gain: 575" in out
        payload = json.loads(out_path.read_text())
        assert payload["mu"] == 575
        assert set(payload["luenberger"]) == {"1", "2", "3"}

    def test_undirected_policy(self, triple_model_file, capsys, tmp_path):
        code = cli.main(["gains", str(triple_model_file), "--policy", "undirected",
                         "--m-bar", "3", "--out", str(tmp_path / "g.json")])
        assert code == 0
        assert "selected coupling gain: 23" in capsys.readouterr().out

    def test_disconnected_graph_exits_two(self, tmp_path):
        payload = model_to_json(coupled_triple_model())
        payload["communication"] = {"nodes": 3, "edges": [[1, 2, 1.0], [2, 3, 1.0]]}
        path = tmp_path / "weak.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["gains", str(path), "--policy", "global"]) == 2


class TestRun:
    def test_run_writes_bundle(self, tmp_path, capsys):
        scenario_path = tmp_path / "scenario.json"
        save_scenario(coupled_triple_scenario(t_end=1.0), scenario_path)
        out_dir = tmp_path / "out"
        assert cli.main(["run", str(scenario_path), "--out", str(out_dir)]) == 0
        assert (out_dir / "trace.csv").exists()
        assert (out_dir / "metadata.json").exists()
        assert (out_dir / "plot.gp").exists()
        header, data = read_trace_csv(out_dir / "trace.csv")
        assert header[0] == "t" and header[-1] == "E_norm"
        meta = json.loads((out_dir / "metadata.json").read_text())
        assert meta["config"]["t_end"] == 1.0
        # the emitted trace re-validates against the metadata summary
        idx = {name: k for k, name in enumerate(header)}
        for key, value in meta["summary"]["pair_final"].items():
            i, j = key.split("->")
            assert data[-1, idx[f"err[{i}][{j}]"]] == pytest.approx(value, abs=1e-9)
        assert data[-1, idx["E_norm"]] == pytest.approx(
            meta["summary"]["total_final"], abs=1e-9)

    def test_bad_path_exits_one(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "missing.json")]) == 1

    def test_seed_override_changes_noise_only(self, tmp_path):
        scenario_path = tmp_path / "noisy.json"
        save_scenario(coupled_triple_scenario(noise=True, t_end=1.0), scenario_path)
        cli.main(["run", str(scenario_path), "--out", str(tmp_path / "a")])
        cli.main(["run", str(scenario_path), "--out", str(tmp_path / "b"),
                  "--seed", "99"])
        _, a = read_trace_csv(tmp_path / "a" / "trace.csv")
        _, b = read_trace_csv(tmp_path / "b" / "trace.csv")
        assert not np.array_equal(a, b)
        clean_path = tmp_path / "clean.json"
        save_scenario(coupled_triple_scenario(noise=False, t_end=1.0), clean_path)
        cli.main(["run", str(clean_path), "--out", str(tmp_path / "c")])
        cli.main(["run", str(clean_path), "--out", str(tmp_path / "d"),
                  "--seed", "99"])
        _, c = read_trace_csv(tmp_path / "c" / "trace.csv")
        _, d = read_trace_csv(tmp_path / "d" / "trace.csv")
        assert np.array_equal(c, d)

    def test_localization_scenario_kind(self, tmp_path):
        payload = _ring_localization_payload("single")
        payload["gain_block"] = [[-1.0, 0.0], [0.0, -0.5]]
        path = tmp_path / "loc.json"
        path.write_text(json.dumps(payload))
        out_dir = tmp_path / "loc_out"
        assert cli.main(["run", str(path), "--out", str(out_dir)]) == 0
        header, data = read_trace_csv(out_dir / "trace.csv")
        assert data.shape[1] == len(header)

    @pytest.mark.parametrize("order", ["single", "double"])
    def test_localization_default_gain_block(self, tmp_path, order):
        path = tmp_path / "loc.json"
        path.write_text(json.dumps(_ring_localization_payload(order)))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "loc_out")]) == 0

    @pytest.mark.parametrize("kind, noise", [
        pytest.param("mas", {"process": -0.05}, id="negative"),
        pytest.param("mas", {"measurement": float("inf")}, id="infinite"),
        pytest.param("mas", {"process": float("nan")}, id="nan"),
        pytest.param("mas", {"process": [0.1]}, id="list-mas"),
        pytest.param("localization", {"process": [0.1]}, id="list-localization"),
    ])
    def test_bad_noise_bound_exits_one(self, tmp_path, capsys, kind, noise):
        payload = (scenario_to_json(coupled_triple_scenario(t_end=1.0)) if kind == "mas"
                   else _ring_localization_payload("single"))
        payload["noise"] = noise
        path = tmp_path / "noise.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines

    @pytest.mark.parametrize("field, value", [
        ("initial_state", [0.0]),
        ("initial_estimates", {"xhat": {"4": [0.0, 0.0, 0.0, 0.0]}}),
    ], ids=["short-initial-state", "estimate-of-unknown-agent"])
    def test_bad_initial_vector_exits_one(self, tmp_path, capsys, field, value):
        payload = scenario_to_json(coupled_triple_scenario(t_end=1.0))
        payload[field] = value
        path = tmp_path / "initial.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines

    def test_overflowing_error_norm_exits_three(self, tmp_path, capsys):
        # RK4 with h = 0.5 is unstable on this closed loop; the states stay
        # finite but their recomputed error norm overflows
        path = tmp_path / "coarse.json"
        save_scenario(build_experiment("5A-basic").config, path)
        argv = ["run", str(path), "--dt", "0.5", "--t-end", "50",
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: recomputed error norm"), lines
        assert not (tmp_path / "out").exists()


class TestBadOverrides:
    """A bad command-line override exits 1 with one ``error:`` line and
    writes no output directory."""

    @pytest.mark.parametrize("command, target, extra", [
        pytest.param("run", None, ["--dt", "0"], id="run-dt-zero"),
        pytest.param("run", None, ["--dt", "nan"], id="run-dt-nan"),
        pytest.param("run", None, ["--t-end", "0.0001"], id="run-t-end-below-dt"),
        pytest.param("run", None, ["--t-end", "inf"], id="run-t-end-inf"),
        pytest.param("run", None, ["--seed", "-1"], id="run-seed-negative"),
        pytest.param("run", None, ["--subsample", "0"], id="run-subsample-zero"),
        pytest.param("run", None, ["--subsample", "-1"], id="run-subsample-negative"),
        pytest.param("reproduce", "5A-basic", ["--dt", "-1"], id="reproduce-dt-negative"),
        pytest.param("reproduce", "5A-join", ["--t-end", "10"],
                     id="reproduce-event-after-t-end"),
        pytest.param("reproduce", "all", ["--t-end", "10"],
                     id="reproduce-all-event-after-t-end"),
        pytest.param("reproduce", "5A-basic", ["--seed", "-1"],
                     id="reproduce-seed-negative"),
        pytest.param("reproduce", "5A-basic", ["--subsample", "0"],
                     id="reproduce-subsample-zero"),
        pytest.param("reproduce", "5A-basic", ["--mu", "-1"], id="reproduce-mu-negative"),
    ])
    def test_exits_one_without_output(self, tmp_path, capsys, command, target, extra):
        if target is None:
            target = tmp_path / "scenario.json"
            save_scenario(coupled_triple_scenario(t_end=1.0), target)
        out_dir = tmp_path / "out"
        assert cli.main([command, str(target), *extra, "--out", str(out_dir)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        assert not out_dir.exists()


class TestUnwritableOutput:
    """An output path that cannot be written exits 1 with one
    ``error: cannot write`` line instead of a traceback."""

    @pytest.mark.parametrize("command, out", [
        pytest.param("run", "file/x", id="run-out-below-file"),
        pytest.param("reproduce", "file", id="reproduce-out-is-file"),
        pytest.param("dagc", "file", id="dagc-out-is-file"),
        pytest.param("gains", "file/x.json", id="gains-out-below-file"),
    ])
    def test_exits_one_with_one_line(self, tmp_path, capsys, triple_model_file,
                                     ring_sensing_file, command, out):
        (tmp_path / "file").write_text("")
        target = {"reproduce": "5A-basic", "dagc": ring_sensing_file,
                  "gains": triple_model_file}.get(command)
        if target is None:
            target = tmp_path / "scenario.json"
            save_scenario(coupled_triple_scenario(t_end=1.0), target)
        assert cli.main([command, str(target), "--out", str(tmp_path / out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write"), lines

    def test_failed_trace_writer_process(self, tmp_path, capsys, monkeypatch):
        from masobs import sim
        parent = os.getpid()
        write_rows = sim._write_rows

        def fail_in_child(fh, rows):
            if os.getpid() != parent:
                raise RuntimeError("writer process fails")
            write_rows(fh, rows)

        monkeypatch.setattr(sim, "_write_rows", fail_in_child)
        monkeypatch.setattr(sim, "VALUES_PER_WRITER", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        target = tmp_path / "scenario.json"
        save_scenario(coupled_triple_scenario(t_end=1.0), target)
        assert cli.main(["run", str(target), "--out", str(tmp_path / "out")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write"), lines
        assert os.listdir(tmp_path / "out") == []


BAD_MODELS =("non-numeric-A", "nan-weight", "edge-out-of-range", "no-communication")


# the binary consensus weights of the three-agent ring 1 -> 2 -> 3 -> 1
_BINARY_WEIGHTS = {str(j): w.tolist() for j, w in consensus_weight_set(
    coupled_triple_model().communication_graph, "binary").items()}


def _malformed_model(bad):
    """The triple model file with one defect, or intact for ``None``; for
    "unreachable-agent", a localization scenario over the triple's
    communication ring whose agent 3 is unreachable from the anchor."""
    payload = model_to_json(coupled_triple_model())
    if bad == "non-numeric-A":
        payload["agents"][0]["A"][0][0] = "x"
    elif bad == "nan-weight":
        payload["communication"]["edges"][0][2] = float("nan")
    elif bad == "edge-out-of-range":
        payload["communication"]["edges"][0][1] = 7
    elif bad == "no-communication":
        del payload["communication"]
    elif bad == "unreachable-agent":
        payload = {"kind": "localization",
                   "sensing": {"agents": 3, "relative_edges": [[1, 2]], "anchors": [1]},
                   "communication": payload["communication"], "t_end": 1.0, "dt": 0.1}
    return payload


class TestMalformedInput:
    """Each malformed input exits with its documented code and at most one
    ``error:`` line, never a traceback."""

    @pytest.mark.parametrize("command, bad, code, stderr_start", [
        *[pytest.param(["check"], bad, 2, None, id=f"check-{bad}") for bad in BAD_MODELS],
        *[pytest.param(["gains"], bad, 1, "error: cannot parse model: ",
                       id=f"gains-{bad}") for bad in BAD_MODELS],
        pytest.param(["gains", "--policy", "directed", "--m-bar", "200"], None, 1,
                     "error: ", id="gains-directed-overflow"),
        pytest.param(["gains", "--policy", "undirected", "--m-bar", "400"], None, 1,
                     "error: ", id="gains-undirected-overflow"),
        pytest.param(["run"], "unreachable-agent", 2,
                     "error: cannot parse scenario: agents [3] are unreachable",
                     id="run-unreachable-agent"),
    ])
    def test_exit_code_and_stderr(self, tmp_path, capsys, command, bad, code, stderr_start):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(_malformed_model(bad)))
        argv = [command[0], str(path), *command[1:]]
        out = tmp_path / ("gains.json" if command[0] == "gains" else "out")
        if command[0] != "check":
            argv += ["--out", str(out)]
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        if stderr_start is None:
            assert lines == []
            assert captured.out.startswith("FAIL structure: "), captured.out
        else:
            assert len(lines) == 1 and lines[0].startswith(stderr_start), lines
        if bad == "no-communication":
            assert "missing key 'communication'" in captured.out + captured.err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command, kind, path, value, code, expect", [
        pytest.param("run", "mas", "gains", [], 1, "error: cannot parse scenario: ",
                     id="run-gains-list"),
        pytest.param("run", "mas", "noise", [0.1], 1, "error: cannot parse scenario: ",
                     id="run-noise-list"),
        pytest.param("run", "mas", "inputs", [], 1, "error: cannot parse scenario: ",
                     id="run-inputs-list"),
        pytest.param("run", "mas", "gains.input_mode", "bogus", 1, "unknown input mode",
                     id="run-input-mode-unknown"),
        pytest.param("run", "mas", "gains.weights", "bogus", 1, "error: ",
                     id="run-weights-unknown"),
        pytest.param("run", "mas", "gains.mu", "x", 1, "error: ", id="run-mu-string"),
        pytest.param("run", "mas", "initial_state", ["a", 0, 0, 0], 1, "error: ",
                     id="run-initial-state-string"),
        pytest.param("run", "localization", "inputs.1.amplitude", "ab", 1, "error: ",
                     id="run-sinusoid-amplitude-string"),
        pytest.param("run", "mas", "model.communication.edges.0", [2, 1.0], 1,
                     "needs integer endpoints", id="run-float-edge-endpoint"),
        pytest.param("gains", "mas", "model.communication.edges.0", [2, 1.0], 1,
                     "error: cannot parse model: edge (2, 1.0)", id="gains-float-edge-endpoint"),
        pytest.param("check", "mas", "model.communication.edges.0", [2, 1.0], 2,
                     "FAIL structure: edge (2, 1.0)", id="check-float-edge-endpoint"),
        pytest.param("run", "mas", None, [1, 2], 1, "expected a JSON object",
                     id="run-not-an-object"),
        pytest.param("run", "mas", "gains.mu", 1e308, 3, "error: state became non-finite",
                     id="run-mu-overflow"),
        pytest.param("dagc", "sensing", "ids", {"1": 5}, 1, "ids must cover exactly",
                     id="dagc-ids-missing-agents"),
        pytest.param("dagc", "sensing", "ids.1", 0, 1, "ids must be positive",
                     id="dagc-id-zero"),
        pytest.param("check", "unreachable", None, None, 2, "FAIL global observability",
                     id="check-unreachable-agent"),
        pytest.param("check", "localization", None, None, 0, "PASS global observability",
                     id="check-localization-scenario"),
        pytest.param("dagc", "localization", None, None, 0, "agent 2: layer 0",
                     id="dagc-localization-scenario"),
        pytest.param("gains", "localization", None, None, 0, "selected coupling gain: 1",
                     id="gains-localization-scenario"),
        pytest.param("check", "sensing", "ids", {"1": "a"}, 2,
                     "FAIL structure: id of agent 1 must be an integer, got 'a'",
                     id="check-ids-not-integers"),
        pytest.param("run", "localization", "initial_postions", [[0, 0]] * 6, 1,
                     "unknown top-level key 'initial_postions'", id="run-unknown-key"),
        pytest.param("check", "sensing", "agents", 6.5, 2,
                     "FAIL structure: agents must be an integer, got 6.5",
                     id="check-agents-fraction"),
        pytest.param("dagc", "sensing", "agents", 1e308, 1,
                     "agents must be an integer, got 1e+308", id="dagc-agents-huge-float"),
        pytest.param("dagc", "sensing", "ids.1", 5.7, 1,
                     "id of agent 1 must be an integer, got 5.7", id="dagc-id-fraction"),
        pytest.param("dagc", "sensing", "relative_edges.0", [2, 1.5], 1,
                     "edge endpoint must be an integer, got 1.5", id="dagc-edge-fraction"),
        pytest.param("check", "sensing", "anchors.0", 2.5, 2,
                     "FAIL structure: anchor must be an integer, got 2.5",
                     id="check-anchor-fraction"),
        pytest.param("run", "localization", "seed", 1.5, 1,
                     "seed must be an integer, got 1.5", id="run-seed-fraction"),
        pytest.param("run", "localization", "seed", True, 1,
                     "seed must be an integer, got True", id="run-seed-bool"),
        pytest.param("run", "mas", "record_every", 7.5, 1,
                     "record_every must be an integer, got 7.5", id="run-record-every-fraction"),
        pytest.param("run", "localization", "h", 2.5, 1,
                     "h must be an integer, got 2.5", id="run-h-fraction"),
        pytest.param("run", "join", "events.0.join.label", 4.5, 1,
                     "join label must be an integer, got 4.5", id="run-join-label-fraction"),
        pytest.param("check", "mas", "model.m", 3.0, 2,
                     "FAIL structure: m must be an integer, got 3.0", id="check-m-float"),
        pytest.param("check", "mas", "model.communication.nodes", True, 2,
                     "FAIL structure: nodes must be an integer, got True", id="check-nodes-bool"),
        pytest.param("check", "localization", "initial_postions", [[0, 0]] * 6, 2,
                     "FAIL structure: unknown top-level key 'initial_postions'",
                     id="check-unknown-key"),
        pytest.param("check", "mas", "model.communication.nodes", 100_000_000, 2,
                     "FAIL structure: communication graph has 100000000 nodes for 3 agents",
                     id="check-nodes-huge"),
        pytest.param("gains", "mas", "model.communication.nodes", 100_000_000, 1,
                     "error: cannot parse model: communication graph has 100000000 nodes",
                     id="gains-nodes-huge"),
        pytest.param("run", "mas", "model.communication.nodes", 100_000_000, 1,
                     "communication graph has 100000000 nodes for 3 agents",
                     id="run-nodes-huge"),
        pytest.param("dagc", "localization", "communication.nodes", 100_000_000, 1,
                     "communication graph has 100000000 nodes for 6 agents",
                     id="dagc-nodes-huge"),
        pytest.param("run", "mas", "noise.proces", 0.05, 1, "unknown noise key 'proces'",
                     id="run-noise-key-misspelt"),
        pytest.param("run", "mas", "gains.mu_", 3, 1, "unknown gains key 'mu_'",
                     id="run-gains-key-misspelt"),
        pytest.param("run", "join", "events.0.join.lable", 4, 1, "unknown join key 'lable'",
                     id="run-join-key-misspelt"),
        pytest.param("run", "leave", "events.0.leave.comunication", [], 1,
                     "unknown leave key 'comunication'", id="run-leave-key-misspelt"),
        pytest.param("run", "join", "events.0.tme", 0.1, 1, "unknown event key 'tme'",
                     id="run-event-key-misspelt"),
        pytest.param("run", "localization", "inputs.1.phse", [0, 0], 1,
                     "unknown sinusoid input key 'phse'", id="run-input-key-misspelt"),
        pytest.param("run", "mas", "initial_estimates", {"xhatt": {}}, 1,
                     "unknown initial_estimates key 'xhatt'",
                     id="run-initial-estimates-key-misspelt"),
        pytest.param("check", "mas", "model.agents.0.D", [[1.0]], 2,
                     "FAIL structure: unknown model agent key 'D'", id="check-agent-key-unknown"),
        pytest.param("run", "mas", "model.output_couplings.0.blok", [[1.0, 1.0]], 1,
                     "unknown output_couplings key 'blok'", id="run-coupling-key-misspelt"),
        pytest.param("check", "mas", "model.communication.node", 3, 2,
                     "FAIL structure: unknown communication key 'node'",
                     id="check-communication-key-misspelt"),
        pytest.param("check", "mas", "model.dynamics", [], 2,
                     "FAIL structure: unknown model key 'dynamics'", id="check-model-key-unknown"),
        pytest.param("dagc", "localization", "sensing.anchor", [2], 1,
                     "unknown sensing key 'anchor'", id="dagc-sensing-key-misspelt"),
        pytest.param("run", "mas", "gains.m_bar", 4.5, 1,
                     "gains.m_bar must be an integer, got 4.5", id="run-m-bar-fraction"),
        *[pytest.param("run", kind, "gains.weights", _BINARY_WEIGHTS, 1,
                       "error: cannot parse scenario: gains.weights must name a weight rule: "
                       "'binary', 'normalized-in', 'normalized-out'\n",
                       id=f"run-weight-matrices-{kind}") for kind in ("mas", "leave")],
    ])
    def test_no_traceback(self, tmp_path, capsys, command, kind, path, value, code, expect):
        """The entry at dotted ``path`` of a small ``kind`` file is set to
        ``value`` (``path`` None: the whole file is ``value``, if given)."""
        payload = {"mas": lambda: scenario_to_json(coupled_triple_scenario(t_end=1.0)),
                   "join": lambda: scenario_to_json(plugin_join_scenario(
                       mu=10, t_end=0.3, dt=1e-3, event_time=0.1)),
                   "leave": lambda: scenario_to_json(plugin_leave_scenario(
                       mu=10, t_end=0.3, dt=1e-3, event_time=0.15)),
                   "localization": lambda: _ring_localization_payload("single"),
                   "sensing": _ring_sensing_payload,
                   "unreachable": lambda: _malformed_model("unreachable-agent")}[kind]()
        if path is None:
            payload = payload if value is None else value
        else:
            *parents, last = path.split(".")
            node = payload
            for key in parents:
                node = node[int(key) if isinstance(node, list) else key]
            node[int(last) if isinstance(node, list) else last] = value
        source = tmp_path / "input.json"
        source.write_text(json.dumps(payload))
        out = tmp_path / "out"
        argv = [command, str(source)] + ([] if command == "check" else ["--out", str(out)])
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        if code == 0 or command == "check":
            assert lines == [], lines
            verdicts = captured.out.splitlines()
            if command == "check":
                assert all(v.startswith(("PASS ", "FAIL ")) for v in verdicts), verdicts
                assert any(v.startswith("FAIL ") for v in verdicts) == (code != 0)
        else:
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert expect in captured.out + captured.err
        assert out.exists() == (code == 0 and command != "check")


class TestBadMargin:
    """A margin that is not a finite positive number exits 1 with one
    ``error:`` line, never a traceback."""

    @pytest.mark.parametrize("margin", ["nan", "inf", "1e308"])
    def test_gains_margin(self, triple_model_file, tmp_path, capsys, margin):
        out = tmp_path / "gains.json"
        argv = ["gains", str(triple_model_file), "--margin", margin, "--out", str(out)]
        assert cli.main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        assert not out.exists()

    @pytest.mark.parametrize("margin", ['"nan"', "[1]", "Infinity", "true"])
    def test_scenario_margin(self, tmp_path, capsys, margin):
        obj = scenario_to_json(coupled_triple_scenario(t_end=1.0))
        obj["gains"].update(luenberger="auto", margin="MARGIN")
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(obj).replace('"MARGIN"', margin))
        out_dir = tmp_path / "out"
        assert cli.main(["run", str(scenario), "--out", str(out_dir)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        assert not out_dir.exists()


class TestDagc:
    def test_ring_orientation(self, ring_sensing_file, tmp_path, capsys):
        out_dir = tmp_path / "dagc"
        assert cli.main(["dagc", str(ring_sensing_file), "--out", str(out_dir)]) == 0
        report = json.loads((out_dir / "dagc_report.json").read_text())
        assert report["layers"]["2"] == 0
        assert (out_dir / "oriented_sensing.txt").exists()
        out = capsys.readouterr().out
        assert "agent 2: layer 0" in out

    def test_pinned_ids_deterministic(self, ring_sensing_file, tmp_path):
        cli.main(["dagc", str(ring_sensing_file), "--out", str(tmp_path / "a")])
        cli.main(["dagc", str(ring_sensing_file), "--out", str(tmp_path / "b")])
        text_a = (tmp_path / "a" / "oriented_sensing.txt").read_text()
        text_b = (tmp_path / "b" / "oriented_sensing.txt").read_text()
        assert text_a == text_b

    def test_disconnected_exits_two(self, tmp_path):
        payload = {"agents": 3, "relative_edges": [[1, 2]], "anchors": [1]}
        path = tmp_path / "disc.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["dagc", str(path)]) == 2

    @pytest.mark.parametrize("field, value, extra", [
        pytest.param("agents", [3], [], id="agents-list"),
        pytest.param("ids", {str(k): "a" for k in RING_IDS}, [], id="ids-not-integers"),
        pytest.param("ids", [1, 2], [], id="ids-list"),
        pytest.param(None, None, ["--seed", "-1"], id="seed-negative"),
    ])
    def test_malformed_input_exits_one(self, ring_sensing_file, tmp_path, capsys,
                                       field, value, extra):
        if field is not None:
            payload = json.loads(ring_sensing_file.read_text())
            payload[field] = value
            ring_sensing_file.write_text(json.dumps(payload))
        out_dir = tmp_path / "dagc"
        assert cli.main(["dagc", str(ring_sensing_file), *extra, "--out", str(out_dir)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        assert not out_dir.exists()


class TestReproduce:
    @pytest.mark.parametrize("key, check", [
        pytest.param("5A-basic", "PASS final pair errors below 1e-3", id="5A-basic"),
        pytest.param("5A-noise", "PASS error within disturbance bound", id="5A-noise"),
        pytest.param("5A-join", "PASS post-event stacked error below 1e-2", id="5A-join"),
        pytest.param("5A-leave", "PASS post-event stacked error below 1e-2", id="5A-leave"),
        pytest.param("5B-known", "PASS final position errors below 1e-3", id="5B-known"),
        pytest.param("5B-unknown", "PASS error within unknown-input bound", id="5B-unknown"),
    ])
    def test_experiment_bundle_replays(self, tmp_path, capsys, key, check):
        out_root = tmp_path / "repro"
        assert cli.main(["reproduce", key, "--out", str(out_root)]) == 0
        out = capsys.readouterr().out
        assert check in out
        bundle = out_root / key
        assert (bundle / "summary.txt").exists()
        # the bundle is self-contained: replaying its recorded config
        # reproduces the trace byte for byte (events, sinusoid inputs and
        # own-only input mode included)
        meta = json.loads((bundle / "metadata.json").read_text())
        replay_path = tmp_path / "replay.json"
        replay_path.write_text(json.dumps(meta["config"]))
        assert cli.main(["run", str(replay_path), "--out", str(tmp_path / "replay")]) == 0
        assert (tmp_path / "replay" / "trace.csv").read_bytes() == \
            (bundle / "trace.csv").read_bytes()

    @pytest.mark.parametrize("mu, code, start, end", [
        pytest.param("40", 0, "  PASS exponential envelope: ", "(kappa=4.38, eta=1.53)",
                     id="hurwitz"),
        pytest.param("3", 2, "  FAIL exponential envelope: ",
                     "error dynamics: matrix is not Hurwitz; no decay envelope exists",
                     id="not-hurwitz"),
    ])
    def test_mu_override_is_judged_by_its_own_gains(self, tmp_path, capsys, mu, code,
                                                    start, end):
        argv = ["reproduce", "5A-basic", "--mu", mu, "--t-end", "5",
                "--out", str(tmp_path / "repro")]
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = [v for v in captured.out.splitlines() if v.startswith(start)]
        assert len(lines) == 1 and lines[0].endswith(end), captured.out

    def test_alias_accepted(self, tmp_path):
        assert cli.main(["reproduce", "coupled-basic",
                         "--out", str(tmp_path / "alias")]) == 0

    def test_unknown_experiment(self, tmp_path):
        assert cli.main(["reproduce", "nope", "--out", str(tmp_path)]) == 1


class TestEntryPoint:
    def test_module_invocation(self, triple_model_file):
        proc = subprocess.run(
            [sys.executable, "-m", "masobs.cli", "check", str(triple_model_file)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.count("PASS") == 3

    @pytest.mark.parametrize("dt", ["1e-300", "5e-324"])
    def test_too_many_steps_refused_at_once(self, tmp_path, dt):
        scenario = tmp_path / "scenario.json"
        save_scenario(coupled_triple_scenario(t_end=1.0), scenario)
        out_dir = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "masobs.cli", "run", str(scenario), "--dt", dt,
             "--t-end", "1", "--out", str(out_dir)],
            capture_output=True, text=True, timeout=15)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: dt={dt}"), lines
        assert not out_dir.exists()

    def test_scipy_loaded_only_on_first_use(self, tmp_path):
        payload = _ring_localization_payload("single")
        payload["gain_block"] = [[-1.0, 0.0], [0.0, -0.5]]
        scenario = tmp_path / "loc.json"
        scenario.write_text(json.dumps(payload))
        argv = ["run", str(scenario), "--out", str(tmp_path / "out")]
        # a fresh interpreter, so the modules this test process loaded do not count
        script = f"""
import sys
def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))
import masobs
assert not scipy_modules(), scipy_modules()
from masobs import cli
assert cli.main({argv!r}) == 0
assert not scipy_modules(), scipy_modules()
from masobs.observer import design_gains
from masobs.scenarios import coupled_triple_model
gains, _ = design_gains(coupled_triple_model(), luenberger="auto")
assert sorted(gains.luenberger) == [1, 2, 3]
assert "scipy.signal" not in sys.modules, scipy_modules()
"""
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_usage_error(self):
        assert cli.main(["frobnicate"]) == 1
