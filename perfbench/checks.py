"""Output checks computed apart from the program.

Every check reads a trace file as written by ``masobs`` and compares it
with a value the benchmark computes itself: norms recomputed from the
stored states, matrix exponentials of matrices built from the model
blocks, closed-form integrator trajectories, or the NaN pattern an
absent agent must leave.  A check returns ``(ok, detail)``.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
import scipy.linalg

EPS = float(np.finfo(float).eps)
NORM_RTOL = 1e-12      # stored norms against recomputed ones
# check_error_expm: relative tolerance on |E(0)| for the discretisation, and
# the factor of the per-step rounding floor
ERROR_RTOL = 1e-8
ROUNDING_FACTOR = 16.0
_STATE = re.compile(r"^x\[(\d+)\]\[(\d+)\]$")


class Trace:
    """Column access to one ``trace.csv``."""

    def __init__(self, header, data):
        self.header = list(header)
        self.data = np.atleast_2d(np.asarray(data, dtype=float))
        self.index = {name: pos for pos, name in enumerate(self.header)}
        self.times = self.data[:, 0]
        dims = {}
        for name in self.header:
            hit = _STATE.match(name)
            if hit:
                lab = int(hit.group(1))
                dims[lab] = dims.get(lab, 0) + 1
        self.labels = tuple(sorted(dims))
        self.dims = dims

    def _cols(self, names):
        return self.data[:, [self.index[n] for n in names]]

    def x(self, j):
        return self._cols([f"x[{j}][{c + 1}]" for c in range(self.dims[j])])

    def xbar(self, j):
        return self._cols([f"xbar[{j}][{c + 1}]" for c in range(self.dims[j])])

    def xhat(self, i, j):
        return self._cols([f"xhat[{i}][{j}][{c + 1}]" for c in range(self.dims[j])])

    def column(self, name):
        return self.data[:, self.index[name]]

    def state_magnitude(self):
        """Norm over every stored state and estimate column, per row."""
        block = self.data[:, [pos for pos, name in enumerate(self.header)
                              if name.startswith(("x[", "xbar[", "xhat["))]]
        return np.sqrt(np.nansum(block ** 2, axis=1))


def read_trace(path) -> Trace:
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return Trace(header, data)


def _row_norm(diff):
    return np.sqrt(np.sum(diff * diff, axis=1))


def _same(got, want, rtol):
    """Elementwise agreement, with NaN required exactly where expected."""
    nan_got, nan_want = np.isnan(got), np.isnan(want)
    close = np.abs(got - want) <= rtol * np.abs(want) + 1e-300
    return (nan_got == nan_want) & (nan_got | close)


def check_norms(tr: Trace):
    """``err[i][j]``, ``errbar[j]`` and ``E_norm`` equal the norms of the
    differences of the stored ``x``, ``xbar`` and ``xhat`` columns."""
    bad = 0
    total_sq = np.zeros(len(tr.times))
    for j in tr.labels:
        xj = tr.x(j)
        bar = _row_norm(tr.xbar(j) - xj)
        bad += int(np.sum(~_same(tr.column(f"errbar[{j}]"), bar, NORM_RTOL)))
        total_sq += np.where(np.isnan(bar), 0.0, bar ** 2)
        for i in tr.labels:
            err = _row_norm(tr.xhat(i, j) - xj)
            bad += int(np.sum(~_same(tr.column(f"err[{i}][{j}]"), err, NORM_RTOL)))
            total_sq += np.where(np.isnan(err), 0.0, err ** 2)
    bad += int(np.sum(~_same(tr.column("E_norm"), np.sqrt(total_sq), NORM_RTOL)))
    cells = len(tr.times) * (len(tr.labels) ** 2 + len(tr.labels) + 1)
    return bad == 0, f"{bad} of {cells} norm cells differ from the recomputed norms"


def check_states(tr: Trace, expected: dict, rtol: float, what: str):
    """Stored plant states equal ``expected[label]`` (rows x dim arrays)
    within ``rtol`` relative to the larger of the row's and the first
    row's expected norm."""
    worst = 0.0
    for lab, want in expected.items():
        got = tr.x(lab)
        scale = np.maximum(_row_norm(want), np.linalg.norm(want[0]))
        dev = _row_norm(got - want) / np.maximum(scale, 1e-300)
        worst = max(worst, float(np.max(np.where(np.isnan(dev), np.inf, dev))))
    return worst <= rtol, f"{what}: worst relative deviation {worst:.3e} (limit {rtol:g})"


def expm_states(a, x0, times, dims):
    """``expm(A t) x0`` split into per-agent blocks (agents 1..m in order)."""
    a = np.asarray(a, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    rows = np.array([scipy.linalg.expm(a * t) @ x0 for t in times])
    out, start = {}, 0
    for lab in sorted(dims):
        out[lab] = rows[:, start:start + dims[lab]]
        start += dims[lab]
    return out


def sinusoid_integral(amp, freq, phase, t):
    """Integral over [0, t] of amp * sin(freq s + phase), per channel."""
    amp, phase = np.asarray(amp, float), np.asarray(phase, float)
    t = np.asarray(t, float)[:, None]
    return (amp / freq) * (np.cos(phase) - np.cos(freq * t + phase))


def sinusoid_double_integral(amp, freq, phase, t):
    """Double integral over [0, t] of amp * sin(freq s + phase)."""
    amp, phase = np.asarray(amp, float), np.asarray(phase, float)
    t = np.asarray(t, float)[:, None]
    return (amp / freq) * np.cos(phase) * t \
        - (amp / freq ** 2) * (np.sin(freq * t + phase) - np.sin(phase))


def check_error_expm(tr: Trace, r, ordering, steps_per_row: int):
    """The stacked error E = [xbar_j - x_j; xhat^(1..m)_j - x_j] (targets in
    ``ordering``) follows ``expm(R t) E(0)``.  Rows are ``steps_per_row``
    steps and a fixed time h apart, so row k is expected at
    ``expm(R h)^k E(0)``, one matrix exponential for the whole trace.

    The tolerance is ``ERROR_RTOL * |E(0)|`` for the discretisation plus a
    double-precision floor: every step rounds the state z at about
    eps * |z|, and those errors accumulate like a random walk, so after k
    steps the floor is ``ROUNDING_FACTOR * eps * |z(t)| * sqrt(k)``."""
    parts = []
    for j in ordering:
        xj = tr.x(j)
        parts.append(tr.xbar(j) - xj)
        parts += [tr.xhat(i, j) - xj for i in tr.labels]
    e = np.hstack(parts)
    e0 = e[0]
    h = tr.times[1] - tr.times[0]
    if not np.allclose(tr.times, h * np.arange(len(tr.times)), rtol=1e-12, atol=0.0):
        return False, "rows are not evenly spaced in time"
    propagate = scipy.linalg.expm(np.asarray(r, dtype=float) * h)
    steps = np.maximum(np.arange(len(tr.times)) * steps_per_row, 1)
    floor = ROUNDING_FACTOR * EPS * tr.state_magnitude() * np.sqrt(steps)
    worst, want = 0.0, e0
    for row in range(len(tr.times)):
        if row:
            want = propagate @ want
        bound = ERROR_RTOL * np.linalg.norm(e0) + floor[row]
        dev = float(np.linalg.norm(e[row] - want))
        worst = max(worst, dev / bound if math.isfinite(dev) else math.inf)
    return worst <= 1.0, f"worst deviation {worst:.3e} of the allowed bound"


def _label_columns(tr: Trace, label):
    own = []
    for pos, name in enumerate(tr.header):
        labels = [int(v) for v in re.findall(r"\[(\d+)\]", name)]
        if name.startswith(("x[", "xbar[")):
            labels = labels[:1]
        elif name.startswith("xhat["):
            labels = labels[:2]
        if label in labels:
            own.append(pos)
    return own


def check_absence(tr: Trace, label: int, t_event: float, dt: float, joins: bool):
    """Every column that involves ``label`` is NaN exactly while the agent
    is absent (before a join, from a leave on) and every other column is
    finite throughout."""
    own = _label_columns(tr, label)
    others = [pos for pos in range(1, len(tr.header)) if pos not in set(own)]
    before = tr.times < t_event - 0.5 * dt
    absent = before if joins else ~before
    block = np.isnan(tr.data[:, own])
    wrong = int(np.sum(~block[absent]) + np.sum(block[~absent]))
    wrong_others = int(np.sum(~np.isfinite(tr.data[:, others])))
    ok = wrong == 0 and wrong_others == 0 and absent.any() and (~absent).any()
    return ok, (f"agent {label}: {wrong} cells break the NaN pattern, "
                f"{wrong_others} non-finite cells in other columns")


def check_final_pairs(tr: Trace, threshold: float):
    """Final |xhat^(i)_j - x_j| below ``threshold`` for every pair (i, j),
    recomputed from the stored states."""
    worst = 0.0
    for j in tr.labels:
        xj = tr.x(j)[-1]
        for i in tr.labels:
            worst = max(worst, float(np.linalg.norm(tr.xhat(i, j)[-1] - xj)))
    return worst < threshold, f"worst final pair error {worst:.3e} (limit {threshold:g})"


def check_pass_lines(stdout: str, keys, summaries: dict):
    """``masobs reproduce`` printed at least one check line per experiment,
    every one reads PASS, and so does every line of each summary.txt."""
    current, seen, failed = None, {k: 0 for k in keys}, []
    for line in stdout.splitlines():
        head = re.match(r"^\[([^\]]+)\]", line)
        if head:
            current = head.group(1)
            continue
        verdict = line.strip().split(" ", 1)[0]
        if verdict in ("PASS", "FAIL") and current in seen:
            seen[current] += 1
            if verdict != "PASS":
                failed.append(current)
    for key, text in summaries.items():
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or any(not ln.startswith("PASS ") for ln in lines):
            failed.append(f"{key}/summary.txt")
    missing = [k for k, count in seen.items() if count == 0]
    ok = not failed and not missing
    return ok, (f"{sum(seen.values())} check lines; failed: {failed or 'none'}; "
                f"without checks: {missing or 'none'}")
