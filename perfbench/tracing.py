"""In-memory spans and call counts around public masobs functions.

The tracer wraps functions from outside the package: every module attribute
(and the one class attribute) that refers to a target function is replaced
by a wrapper, so calls through ``module.name`` and through names imported
with ``from .x import name`` are both seen.  A target that no longer exists
is skipped and reports 0 calls.

Each span records its name, start, end and parent span in flat arrays; the
arrays stay in memory and are written once, by :meth:`Tracer.dump`.
Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from functools import wraps

# (span name, module, attribute path, mode); "count" wrappers keep a call
# count only, for functions called hundreds of thousands of times per run.
# Every span child of run_scenario except integrate_step counts as set-up,
# so assembly helpers are spanned even though no metric reports them.
TARGETS = (
    ("cli.main", "masobs.cli", "main", "span"),
    ("scenarios.build_experiment", "masobs.scenarios", "build_experiment", "span"),
    ("observer.fit_decay_envelope", "masobs.observer", "fit_decay_envelope", "span"),
    ("observer.error_disturbance_matrices", "masobs.observer",
     "error_disturbance_matrices", "span"),
    ("observer.assemble_error_dynamics", "masobs.observer",
     "assemble_error_dynamics", "span"),
    ("observer.design_gains", "masobs.observer", "design_gains", "span"),
    ("observer.observer_derivative", "masobs.observer", "observer_derivative", "span"),
    ("observer.unpack_observer_state", "masobs.observer", "unpack_observer_state", "span"),
    ("mas.model_from_json", "masobs.mas", "model_from_json", "span"),
    ("mas.stack", "masobs.mas", "stack", "span"),
    ("mas.check_node_observability", "masobs.mas", "check_node_observability", "span"),
    ("mas.check_topological_consistency", "masobs.mas",
     "check_topological_consistency", "span"),
    ("graphs.is_strongly_connected", "masobs.graphs", "is_strongly_connected", "span"),
    ("localization.dagc", "masobs.localization", "dagc", "span"),
    ("localization.build_localization_mas", "masobs.localization",
     "build_localization_mas", "span"),
    ("sim.run_scenario", "masobs.sim", "run_scenario", "span"),
    ("sim.linearize_segment", "masobs.sim", "_linearize_segment", "span"),
    ("sim.integrate_step", "masobs.sim", "integrate_step", "span"),
    ("sim.apply_event", "masobs.sim", "apply_event", "span"),
    ("sim.write_trace_csv", "masobs.sim", "write_trace_csv", "span"),
    ("sim.write_metadata", "masobs.sim", "write_metadata", "span"),
    ("mas.state_slice", "masobs.mas", "MasModel.state_slice", "count"),
)

# the structural checks a run performs before gain design
VALIDATION = ("mas.check_node_observability", "mas.check_topological_consistency",
              "graphs.is_strongly_connected")


class Tracer:
    """Span recorder; create one per process, then :meth:`install` it."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.stack = []
        self.counters = {}

    def _span_wrapper(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        span_name, start, end, parent = self.span_name, self.start, self.end, self.parent
        stack = self.stack
        clock = time.perf_counter_ns

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, name, fn):
        cell = self.counters.setdefault(name, [0])

        @wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Import the target modules (``import masobs`` leaves out
        ``masobs.cli``) and wrap every target that exists."""
        owners = {}
        for _, modname, _, _ in TARGETS:
            try:
                owners[modname] = importlib.import_module(modname)
            except ImportError:
                owners[modname] = None
        modules = [mod for key, mod in sys.modules.items()
                   if mod is not None and (key == "masobs" or key.startswith("masobs."))]
        for name, modname, path, mode in TARGETS:
            owner = owners[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                if mode == "count":
                    self.counters.setdefault(name, [0])
                else:
                    self.names.append(name)
                continue
            wrap = self._span_wrapper if mode == "span" else self._count_wrapper
            wrapper = wrap(name, original)
            if outer:
                setattr(owner, attr, wrapper)
            else:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    # -- summaries -----------------------------------------------------

    def _arrays(self):
        import numpy as np
        return (np.asarray(self.span_name, dtype=np.int32),
                np.asarray(self.start, dtype=np.int64),
                np.asarray(self.end, dtype=np.int64),
                np.asarray(self.parent, dtype=np.int64))

    def layers(self):
        """Per-name calls, total seconds and self seconds, plus the two
        derived quantities the benchmark reports (validation time and the
        run_scenario time left to stepping)."""
        import numpy as np
        names, start, end, parent = self._arrays()
        dur = (end - start).astype(float) * 1e-9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur)) if len(dur) else np.zeros(0)
        own = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            out[name] = {"calls": int(mask.sum()), "total_s": float(dur[mask].sum()),
                         "self_s": float(own[mask].sum())}
        for name, cell in self.counters.items():
            out[name] = {"calls": int(cell[0]), "total_s": 0.0, "self_s": 0.0}
        group = [self.names.index(n) for n in VALIDATION if n in self.names]
        in_group = np.isin(names, group)
        parent_in_group = np.zeros(len(names), bool)
        parent_in_group[has_parent] = np.isin(names[parent[has_parent]], group)
        validation_s = float(dur[in_group & ~parent_in_group].sum())
        # stepping time: run_scenario self time plus its integrate_step children
        run_id = self.names.index("sim.run_scenario")
        step_id = self.names.index("sim.integrate_step")
        runs = names == run_id
        step_children = (names == step_id) & has_parent
        step_children[step_children] = names[parent[step_children]] == run_id
        stepping_s = float(own[runs].sum() + dur[step_children].sum())
        return out, validation_s, stepping_s

    def dump(self, path):
        """Write every span to ``path`` (a compressed .npz): ``span_name``
        indexes ``names``, ``parent`` indexes the spans (-1 for a root)."""
        import numpy as np
        names, start, end, parent = self._arrays()
        np.savez_compressed(
            path, names=np.array(self.names), span_name=names, start_ns=start,
            end_ns=end, parent=parent,
            counters=json.dumps({k: v[0] for k, v in self.counters.items()}))
