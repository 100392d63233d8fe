"""Each output check accepts a consistent trace and rejects the same trace
with one value perturbed.

    python3 -m pytest perfbench/test_checks.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402

DIMS = {1: 2, 2: 1, 3: 2}
TIMES = np.linspace(0.0, 2.0, 21)


def make_trace(x, xbar, xhat, times=TIMES, dims=DIMS):
    """Trace in the program's column layout, norms computed as it does."""
    labels = sorted(dims)
    header, cols = ["t"], [times[:, None]]
    for name, store in (("x", x), ("xbar", xbar)):
        for j in labels:
            header += [f"{name}[{j}][{c + 1}]" for c in range(dims[j])]
            cols.append(store[j])
    for i in labels:
        for j in labels:
            header += [f"xhat[{i}][{j}][{c + 1}]" for c in range(dims[j])]
            cols.append(xhat[(i, j)])
    total = np.zeros(len(times))
    for i in labels:
        for j in labels:
            err = np.linalg.norm(xhat[(i, j)] - x[j], axis=1)
            header.append(f"err[{i}][{j}]")
            cols.append(err[:, None])
            total += np.where(np.isnan(err), 0.0, err ** 2)
    for j in labels:
        bar = np.linalg.norm(xbar[j] - x[j], axis=1)
        header.append(f"errbar[{j}]")
        cols.append(bar[:, None])
        total += np.where(np.isnan(bar), 0.0, bar ** 2)
    header.append("E_norm")
    cols.append(np.sqrt(total)[:, None])
    return checks.Trace(header, np.hstack(cols))


def random_states(rng, times=TIMES, dims=DIMS):
    x = {j: rng.standard_normal((len(times), d)) for j, d in dims.items()}
    xbar = {j: x[j] + 0.1 * rng.standard_normal(x[j].shape) for j in dims}
    xhat = {(i, j): x[j] + 0.1 * rng.standard_normal(x[j].shape)
            for i in dims for j in dims}
    return x, xbar, xhat


def perturbed(tr, column, row=5, rel=1e-6):
    data = tr.data.copy()
    pos = tr.index[column]
    data[row, pos] += rel * max(abs(data[row, pos]), 1.0)
    return checks.Trace(tr.header, data)


@pytest.mark.parametrize("column", ["x[1][2]", "xbar[3][1]", "xhat[2][3][2]",
                                    "err[3][1]", "errbar[2]", "E_norm"])
def test_norms_reject_one_perturbed_value(column):
    tr = make_trace(*random_states(np.random.default_rng(0)))
    assert checks.check_norms(tr)[0]
    assert not checks.check_norms(perturbed(tr, column))[0]


def test_norms_reject_a_missing_nan():
    x, xbar, xhat = random_states(np.random.default_rng(1))
    x[2][:4] = np.nan
    tr = make_trace(x, xbar, xhat)
    assert checks.check_norms(tr)[0]
    data = tr.data.copy()
    data[1, tr.index["err[1][2]"]] = 0.5
    assert not checks.check_norms(checks.Trace(tr.header, data))[0]


def test_expm_states_reject_one_perturbed_value():
    rng = np.random.default_rng(2)
    n = sum(DIMS.values())
    a = rng.standard_normal((n, n))
    x0 = rng.standard_normal(n)
    want = checks.expm_states(a, x0, TIMES, DIMS)
    tr = make_trace(want, *random_states(rng)[1:])
    assert checks.check_states(tr, want, 1e-8, "plant")[0]
    assert not checks.check_states(perturbed(tr, "x[3][1]"), want, 1e-8, "plant")[0]


def test_closed_form_integrators_reject_one_perturbed_value():
    amp, freq, phase = [0.1, -0.2], 0.05, [0.3, 1.9]
    p0, v0 = np.array([1.0, 2.0]), np.array([0.1, -0.3])
    dims = {1: 4, 2: 2}
    want = {1: np.hstack([p0 + v0 * TIMES[:, None]
                          + checks.sinusoid_double_integral(amp, freq, phase, TIMES),
                          v0 + checks.sinusoid_integral(amp, freq, phase, TIMES)]),
            2: p0 + checks.sinusoid_integral(amp, freq, phase, TIMES)}
    # the closed forms themselves: derivative of position is velocity
    h = 1e-6
    mid = checks.sinusoid_double_integral(amp, freq, phase, np.array([1.0 - h, 1.0 + h]))
    vel = checks.sinusoid_integral(amp, freq, phase, np.array([1.0]))
    assert np.allclose((mid[1] - mid[0]) / (2 * h), vel[0], atol=1e-8)
    rng = np.random.default_rng(3)
    _, xbar, xhat = random_states(rng, dims=dims)
    tr = make_trace(want, xbar, xhat, dims=dims)
    assert checks.check_states(tr, want, 1e-9, "closed form")[0]
    for column in ("x[1][2]", "x[1][4]", "x[2][1]"):
        assert not checks.check_states(perturbed(tr, column), want, 1e-9, "closed form")[0]


def test_error_expm_rejects_one_perturbed_value():
    rng = np.random.default_rng(4)
    m = len(DIMS)
    size = (m + 1) * sum(DIMS.values())
    r = rng.standard_normal((size, size)) - 4.0 * np.eye(size)
    e0 = rng.standard_normal(size)
    ordering = (2, 1, 3)
    e = np.array([scipy.linalg.expm(r * t) @ e0 for t in TIMES])
    x = {j: 10.0 * rng.standard_normal((len(TIMES), d)) for j, d in DIMS.items()}
    xbar, xhat, pos = {}, {}, 0
    for j in ordering:
        d = DIMS[j]
        xbar[j] = x[j] + e[:, pos:pos + d]
        pos += d
        for i in sorted(DIMS):
            xhat[(i, j)] = x[j] + e[:, pos:pos + d]
            pos += d
    tr = make_trace(x, xbar, xhat)
    assert checks.check_error_expm(tr, r, ordering, 100)[0]
    for column in ("xhat[3][2][1]", "xbar[1][2]", "x[2][1]"):
        assert not checks.check_error_expm(perturbed(tr, column), r, ordering, 100)[0]


@pytest.mark.parametrize("joins", [True, False])
def test_absence_rejects_one_wrong_cell(joins):
    x, xbar, xhat = random_states(np.random.default_rng(5))
    t_event, dt = 1.0, TIMES[1] - TIMES[0]
    absent = TIMES < t_event - 0.5 * dt if joins else TIMES >= t_event - 0.5 * dt
    x[3][absent] = np.nan
    xbar[3][absent] = np.nan
    for i in DIMS:
        xhat[(i, 3)][absent] = np.nan
        xhat[(3, i)][absent] = np.nan
    tr = make_trace(x, xbar, xhat)
    assert checks.check_absence(tr, 3, t_event, dt, joins)[0]
    row_absent = int(np.flatnonzero(absent)[0])
    row_present = int(np.flatnonzero(~absent)[0])
    for column, row, value in (("x[3][1]", row_absent, 0.5),
                               ("xhat[1][3][2]", row_present, math.nan),
                               ("x[1][1]", row_present, math.nan)):
        data = tr.data.copy()
        data[row, tr.index[column]] = value
        assert not checks.check_absence(checks.Trace(tr.header, data), 3, t_event,
                                        dt, joins)[0]


def test_final_pairs_reject_one_perturbed_value():
    x, xbar, xhat = random_states(np.random.default_rng(6))
    for key in xhat:
        xhat[key][-1] = x[key[1]][-1] + 1e-6
    tr = make_trace(x, xbar, xhat)
    assert checks.check_final_pairs(tr, 1e-3)[0]
    data = tr.data.copy()
    data[-1, tr.index["xhat[2][1][1]"]] += 1e-2
    assert not checks.check_final_pairs(checks.Trace(tr.header, data), 1e-3)[0]


def test_pass_lines_reject_one_fail():
    keys = ("A", "B")
    stdout = "[A] first\n  PASS one: ok\n  PASS two: ok\n[B] second\n  PASS three: ok\n"
    summaries = {"A": "PASS one: ok\nPASS two: ok\n", "B": "PASS three: ok\n"}
    assert checks.check_pass_lines(stdout, keys, summaries)[0]
    assert not checks.check_pass_lines(stdout.replace("PASS two", "FAIL two"),
                                       keys, summaries)[0]
    assert not checks.check_pass_lines(stdout, keys, {**summaries, "B": "FAIL three\n"})[0]
    assert not checks.check_pass_lines("[A] first\n  PASS one: ok\n[B] second\n",
                                       keys, summaries)[0]
