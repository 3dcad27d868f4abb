"""Output checks, computed apart from the program.

Each check recomputes what it needs from the inputs with the benchmark's own
code (power curve, ramp recursion, sign runs, battery recursion) or tests a
property the method must have.  None compares with a stored copy of an
earlier output.  A check raises ``CheckFailed`` when an output is wrong; any
other exception means the check could not run.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# The built-in model: a 2 MW turbine with a 4 / 13 / 25 m/s band, a 0.36 MWh
# battery started half full, fees in EUR/MWh.
CUT_IN, RATED, CUT_OUT, CAPACITY = 4.0, 13.0, 25.0, 2.0
SOC_MIN, SOC_MAX, SOC_INIT = 0.0, 0.36, 0.18
UP_FEE, DOWN_FEE = 21.52, 26.50
#: Charges below this many MW count as battery idle.
IDLE_TOLERANCE = 1e-9
#: Criterion-9 tolerance on the penalty mean and the validation errors.
TOLERANCE_PCT = 25.0


class CheckFailed(AssertionError):
    """An artifact contradicts what the benchmark computed on its own."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and float rows of an artifact CSV, skipping ``#`` comment lines."""
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return lines[0].strip().split(","), np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def power_curve(speeds: np.ndarray) -> np.ndarray:
    """Cubic ramp between cut-in and rated speed, rated output up to cut-out."""
    ramp = CAPACITY * (speeds**3 - CUT_IN**3) / (RATED**3 - CUT_IN**3)
    out = np.where(speeds >= RATED, CAPACITY, ramp)
    return np.where((speeds <= CUT_IN) | (speeds > CUT_OUT), 0.0, out)


def check_power(out: Path, input_speeds: np.ndarray | None) -> None:
    """``power.csv`` is the power curve applied to the input wind.

    ``input_speeds`` is the history the benchmark wrote, or ``None`` when the
    program generated the wind itself (then ``wind.csv`` is the input).
    """
    _, wind = read_table(out / "wind.csv")
    speeds = wind[:, 1]
    if input_speeds is not None:
        _require(
            speeds.shape == input_speeds.shape and bool(np.all(speeds == input_speeds)),
            "wind.csv differs from the wind history given as input",
        )
    _, power = read_table(out / "power.csv")
    _require(power.shape[0] == speeds.size, "power.csv and wind.csv differ in length")
    err = np.abs(power[:, 1] - power_curve(speeds))
    k = int(np.argmax(err))
    _require(float(err[k]) <= 1e-12, f"power.csv row {k} is {err[k]:.3g} MW off the power curve")


def check_ramp(out: Path, tag: str, limit_mw: float) -> None:
    """Injected power moves at most ``limit`` per hour and follows ``e`` when free.

    No-bind identity: where the generated power is within the limit of the
    previous injected value, the injected value equals the generated one;
    where it is beyond, the injected value moves by exactly the limit.
    """
    _, rows = read_table(out / f"corrected_{tag}.csv")
    _, power = read_table(out / "power.csv")
    e, eb = rows[:, 1], rows[:, 2]
    _require(bool(np.array_equal(e, power[:, 1])), f"corrected_{tag}.csv: e differs from power.csv")
    _require(eb[0] == e[0], f"corrected_{tag}.csv: e_bar(0) != e(0)")
    step = np.diff(eb)
    worst = float(np.max(np.abs(step)))
    _require(worst <= limit_mw + 1e-12, f"corrected_{tag}.csv: ramp step {worst!r} > {limit_mw}")
    gap = e[1:] - eb[:-1]
    free = np.abs(gap) <= limit_mw - 1e-12
    _require(bool(np.all(eb[1:][free] == e[1:][free])), f"corrected_{tag}.csv: e_bar != e on a free step")
    bound = np.abs(gap) >= limit_mw + 1e-12
    moved = np.abs(step[bound] - np.sign(gap[bound]) * limit_mw)
    _require(
        moved.size == 0 or float(moved.max()) <= 1e-12,
        f"corrected_{tag}.csv: a binding step does not move by the limit",
    )


def _states(out: Path, tag: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-step battery state (sign of e - e_bar) and absolute charge."""
    _, rows = read_table(out / f"corrected_{tag}.csv")
    diff = rows[:, 1] - rows[:, 2]
    states = np.where(diff > IDLE_TOLERANCE, 1, np.where(diff < -IDLE_TOLERANCE, -1, 0))
    return states, np.abs(diff)


def check_kernel(out: Path, tag: str) -> None:
    """Kernel counts equal the sign runs of ``e - e_bar``; rows of ``q`` sum to 1."""
    states, _ = _states(out, tag)
    starts = [0] + (np.flatnonzero(np.diff(states)) + 1).tolist()
    visits: dict[int, int] = {}
    counts: dict[tuple[int, int, int], int] = {}
    # Every run but the last has an observed end; the last is censored.
    for a, b in zip(starts, starts[1:]):
        i, j, x = int(states[a]), int(states[b]), b - a
        visits[i] = visits.get(i, 0) + 1
        counts[(i, j, x)] = counts.get((i, j, x), 0) + 1
    with open(out / f"kernel_{tag}.json") as fh:
        doc = json.load(fh)
    got = {int(i): int(c) for i, c in doc["visits"].items()}
    _require(got == visits, f"kernel_{tag}.json visits {got} != sign-run count {visits}")
    for i, row in doc["q"].items():
        total = math.fsum(v for kk in row.values() for v in kk.values())
        _require(abs(total - 1.0) <= 1e-12, f"kernel_{tag}.json: row {i} of q sums to {total!r}")
        for j, kk in row.items():
            for x, v in kk.items():
                n = counts.get((int(i), int(j), int(x)), 0)
                _require(
                    abs(v * visits[int(i)] - n) <= 1e-9,
                    f"kernel_{tag}.json: q[{i}][{j}][{x}] = {v!r} but {n} of {visits[int(i)]} visits",
                )


def check_moments(out: Path, tag: str, horizon: int, paths: int) -> None:
    """Mean finite, nonnegative and nondecreasing; ``se_mean = std / sqrt(n)``."""
    header, rows = read_table(out / f"moments_{tag}.csv")
    _require(header == ["t", "mean", "std", "se_mean"], f"moments_{tag}.csv header {header}")
    _require(rows.shape[0] == horizon, f"moments_{tag}.csv has {rows.shape[0]} rows, want {horizon}")
    _require(bool(np.array_equal(rows[:, 0], np.arange(1, horizon + 1))), f"moments_{tag}.csv: t != 1..T")
    mean = rows[:, 1]
    _require(bool(np.all(np.isfinite(mean)) and np.all(mean >= 0.0)), f"moments_{tag}.csv: bad mean")
    _require(bool(np.all(np.diff(mean) >= 0.0)), f"moments_{tag}.csv: mean decreases")
    se = rows[:, 2] / math.sqrt(paths)
    _require(
        bool(np.allclose(rows[:, 3], se, rtol=1e-12, atol=0.0)),
        f"moments_{tag}.csv: se_mean != std / sqrt({paths})",
    )


def empirical_penalty_mean(out: Path, tag: str, horizon: int, rate: float) -> tuple[float, int]:
    """Mean discounted penalty over complete windows of the observed series.

    The battery starts half full at step 0; charging fills it up to the
    maximum, discharging empties it down to the minimum, and the fee is paid
    on the part of a charge that does not fit.  Window ``d`` covers steps
    ``d*T + 1 .. (d+1)*T`` and is discounted from its own start.
    """
    states, charges = _states(out, tag)
    pen = [0.0]
    s = SOC_INIT
    for z, c in zip(states[1:].tolist(), charges[1:].tolist()):
        if z == 1:
            pen.append(UP_FEE * max(c - (SOC_MAX - s), 0.0))
            s = min(s + c, SOC_MAX)
        elif z == -1:
            pen.append(DOWN_FEE * max(c - (s - SOC_MIN), 0.0))
            s = max(s - c, SOC_MIN)
        else:
            pen.append(0.0)
    n_days = (len(pen) - 1) // horizon
    windows = np.asarray(pen[1 : n_days * horizon + 1]).reshape(n_days, horizon)
    weights = np.exp(-rate * np.arange(1, horizon + 1))
    return float((windows @ weights).mean()), n_days


def check_penalty_mean(out: Path, tag: str, horizon: int, rate: float) -> None:
    """Simulated mean ``W(T)`` within 25% of the empirical one."""
    emp, _ = empirical_penalty_mean(out, tag, horizon, rate)
    _, rows = read_table(out / f"moments_{tag}.csv")
    sim = float(rows[-1, 1])
    _require(emp > 0.0, f"limit {tag}: empirical W(T) is zero")
    gap = 100.0 * abs(sim - emp) / emp
    _require(gap <= TOLERANCE_PCT, f"limit {tag}: simulated W(T) {sim:.4g} is {gap:.1f}% off {emp:.4g}")


def check_validation(out: Path, tag: str, horizon: int, n_steps: int) -> None:
    """Groups compared, mean L2 < 25%, first-moment MAPE <= 25%, window count."""
    with open(out / f"validation_{tag}.json") as fh:
        doc = json.load(fh)
    _require(bool(doc["groups"]), f"validation_{tag}.json: no groups compared")
    l2 = doc["mean_l2_average_pct"]
    _require(l2 is not None and l2 < TOLERANCE_PCT, f"validation_{tag}.json: mean L2 {l2}")
    mape = doc["penalty"]["mape_first_moment_pct"]
    _require(mape is not None and mape <= TOLERANCE_PCT, f"validation_{tag}.json: MAPE {mape}")
    want = (n_steps - 1) // horizon
    _require(doc["n_days"] == want, f"validation_{tag}.json: n_days {doc['n_days']} != {want}")


def output_checks(out: Path, workload, input_speeds: np.ndarray | None) -> list:
    """Named zero-argument checks covering every artifact of one run."""
    checks = [("power", lambda: check_power(out, input_speeds))]
    for frac in workload.limits:
        tag, mw = f"{frac:g}", frac * CAPACITY
        checks += [
            (f"ramp_{tag}", lambda tag=tag, mw=mw: check_ramp(out, tag, mw)),
            (f"kernel_{tag}", lambda tag=tag: check_kernel(out, tag)),
            (f"moments_{tag}", lambda tag=tag: check_moments(out, tag, workload.horizon, workload.paths)),
            (
                f"penalty_{tag}",
                lambda tag=tag: check_penalty_mean(out, tag, workload.horizon, workload.discount_rate),
            ),
            (
                f"validation_{tag}",
                lambda tag=tag: check_validation(out, tag, workload.horizon, workload.hours),
            ),
        ]
    return checks


def check_same_artifacts(a: Path, b: Path) -> None:
    """Two output directories hold the same files, byte for byte."""
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    _require(names_a == names_b, f"artifact sets differ: {names_a} vs {names_b}")
    for name in names_a:
        _require((a / name).read_bytes() == (b / name).read_bytes(), f"{name} differs")
