"""Reference figures for the README: set-up time of large-mas-type models
over the agent count, and ``fit_decay_envelope`` at m = 8.

    PYTHONPATH=src python3 perfbench/scaling.py

Each model is a seeded ``synth.random_mas_model`` with state dimension
n = round(13 m / 6) (26 at m = 12, as in the large-mas workload), ``auto``
Luenberger gains and the ``global`` coupling gain, saved as a scenario
file; set-up is the time to parse that file and run it for one step, as in
the large-mas workload.  Prints a Markdown table.
"""

import tempfile
import time
from pathlib import Path

import workloads

SEED = 1
AGENTS = (4, 8, 12, 16)


def main():
    from masobs import observer, sim
    print("| m | n | z | one-step set-up (s) |")
    print("|---|---|---|---|")
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for m in AGENTS:
            n = round(workloads.LARGE_N * m / workloads.LARGE_M)
            cfg = workloads.large_mas_config(SEED, m, n)
            path = Path(tmp) / f"m{m}.json"
            sim.save_scenario(cfg, path)
            seconds = workloads.one_step_file_setup(path)
            print(f"| {m} | {n} | {n * (m + 2)} | {seconds:.2f} |", flush=True)
    cfg = workloads.large_mas_config(SEED, 8, round(workloads.LARGE_N * 8 / workloads.LARGE_M))
    gains, _ = sim.resolve_gains(cfg.model, cfg.policy)
    r = observer.assemble_error_dynamics(cfg.model, gains).r
    start = time.perf_counter()
    observer.fit_decay_envelope(r)
    print(f"\nfit_decay_envelope at m = 8 (R is {r.shape[0]} x {r.shape[1]}, 200 samples): "
          f"{time.perf_counter() - start:.2f} s")


if __name__ == "__main__":
    main()
