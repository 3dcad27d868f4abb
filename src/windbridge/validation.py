"""Real-versus-simulated comparisons: relative L2 errors of per-class bridge
means/covariances, MAPE of penalty moments, and the empirical battery
recursion that turns an observed power pair into penalty paths.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .bridge import _chunks
from .errors import InputError
from .segmentation import SegmentTable, complete_classes
from .simulate import BatterySpec, ChargeModel, PenaltySpec, _check_horizon, battery_recursion, mc_moments

__all__ = [
    "rel_l2_error",
    "mape_detail",
    "GroupComparison",
    "ComparisonReport",
    "compare_segments",
    "empirical_penalty",
    "daily_penalty_moments",
    "day_start_conditions",
]

#: Simulated paths per compared class: this many times the real count, at least ``MIN_SIM_PATHS``.
SIM_PATH_MULTIPLIER = 3
MIN_SIM_PATHS = 100


def rel_l2_error(real, sim) -> float:
    """``100 * ||real - sim|| / ||real||`` (Frobenius norm for matrices)."""
    real = np.asarray(real, dtype=float)
    sim = np.asarray(sim, dtype=float)
    if real.shape != sim.shape:
        raise InputError(f"shape mismatch: {real.shape} vs {sim.shape}")
    base = float(np.linalg.norm(real))
    if base == 0.0:
        raise InputError("relative error undefined for an all-zero baseline")
    return 100.0 * float(np.linalg.norm(real - sim)) / base


def mape_detail(real, sim) -> tuple[float, int]:
    """Mean absolute percentage error, skipping zero baseline entries.

    Returns ``(value, n_skipped)``.
    """
    real = np.asarray(real, dtype=float)
    sim = np.asarray(sim, dtype=float)
    if real.shape != sim.shape:
        raise InputError(f"shape mismatch: {real.shape} vs {sim.shape}")
    keep = real != 0.0
    skipped = int((~keep).sum())
    if not keep.any():
        raise InputError("MAPE undefined: every baseline entry is zero")
    value = 100.0 * float(np.mean(np.abs(real[keep] - sim[keep]) / np.abs(real[keep])))
    return value, skipped


@dataclass
class GroupComparison:
    i: int
    j: int
    x: int
    n_real: int
    n_sim: int
    l2_mean_pct: float
    l2_cov_pct: float | None


@dataclass
class ComparisonReport:
    """Per-class L2 errors of the classes with at least ``eligibility`` observations."""

    groups: list[GroupComparison] = field(default_factory=list)
    eligibility: int = 30

    @property
    def mean_l2_average_pct(self) -> float | None:
        if not self.groups:
            return None
        return float(np.mean([g.l2_mean_pct for g in self.groups]))

    def to_dict(self) -> dict:
        return {
            "eligibility": self.eligibility,
            "groups": [asdict(g) for g in self.groups],
            "mean_l2_average_pct": self.mean_l2_average_pct,
        }

    def csv_rows(self) -> list[list]:
        rows = [["i", "j", "x", "n_real", "n_sim", "l2_mean_pct", "l2_cov_pct"]]
        for g in self.groups:
            rows.append([
                g.i, g.j, g.x, g.n_real, g.n_sim,
                repr(float(g.l2_mean_pct)),
                "" if g.l2_cov_pct is None else repr(float(g.l2_cov_pct)),
            ])
        return rows


def compare_segments(
    table: SegmentTable,
    charge_model: ChargeModel,
    rng: np.random.Generator | int | None = None,
    eligibility: int = 30,
) -> ComparisonReport:
    """Compare per-class sample means and covariances, real versus simulated.

    Only classes with at least ``eligibility`` complete observations are
    compared, and ``eligibility`` must be at least 2 for a sample covariance;
    each gets ``n_sim = max(SIM_PATH_MULTIPLIER * n_real, MIN_SIM_PATHS)``
    simulated paths.  Covariance entries use the n-1 convention on both
    sides; classes whose real covariance is identically zero report no
    covariance error.

    Stream rule, all from ``rng``: the eligible classes, in sorted ``(i, j,
    x)`` order with ``n_sim`` rows each, are split into runs of whole
    classes of about ``CHUNK_POINTS`` simulated points (``n_sim * x``) by
    :func:`~windbridge.bridge._chunks`, and each run is drawn by one
    :meth:`ChargeModel.charge_block` call, run after run.  A run of one
    class draws what :meth:`ChargeModel.charge_paths` draws.
    """
    if eligibility < 2:
        raise InputError(f"eligibility must be >= 2, got {eligibility}")
    rng = np.random.default_rng(rng)
    report = ComparisonReport(eligibility=eligibility)
    classes = [(key, rows) for key, rows in complete_classes(table).items() if rows.size >= eligibility]
    keys = np.array([key for key, _ in classes], dtype=np.int64).reshape(-1, 3)
    n_real = np.array([rows.size for _, rows in classes], dtype=np.int64)
    n_sim = np.maximum(SIM_PATH_MULTIPLIER * n_real, MIN_SIM_PATHS)
    points = n_sim * keys[:, 2]
    for a, b in _chunks(points):
        block = charge_model.charge_block(*np.repeat(keys[a:b], n_sim[a:b], axis=0).T, rng)
        sims = np.split(block, np.cumsum(points[a:b])[:-1])
        for ((i, j, x), rows), n, flat in zip(classes[a:b], n_sim[a:b].tolist(), sims):
            real = table.charge_matrix(rows, x)
            sim = flat.reshape(n, x)
            l2_mean = rel_l2_error(real.mean(axis=0), sim.mean(axis=0))
            cov_real = np.atleast_2d(np.cov(real, rowvar=False, ddof=1))
            cov_sim = np.atleast_2d(np.cov(sim, rowvar=False, ddof=1))
            l2_cov = None
            if float(np.linalg.norm(cov_real)) > 0.0:
                l2_cov = rel_l2_error(cov_real, cov_sim)
            report.groups.append(
                GroupComparison(
                    i=i, j=j, x=x, n_real=rows.size, n_sim=n,
                    l2_mean_pct=l2_mean, l2_cov_pct=l2_cov,
                )
            )
    return report


def empirical_penalty(
    states: np.ndarray,
    charges: np.ndarray,
    battery: BatterySpec,
    fees: PenaltySpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the battery recursion on observed per-step states and charges.

    Returns ``(soc, penalty)`` arrays aligned with the input steps; step 0
    keeps ``battery.soc_init`` and a zero penalty.  :func:`battery_recursion`
    checks the input.
    """
    return battery_recursion(states, charges, battery, fees, battery.soc_init)


def daily_penalty_moments(
    penalty: np.ndarray, horizon: int = 24, discount_rate: float = 0.0
) -> tuple[np.ndarray, np.ndarray, int]:
    """Fold a long penalty series into windows and average the discounted sums.

    Window ``d`` covers steps ``d*horizon + 1 .. (d+1)*horizon`` with
    window-relative discounting; :func:`mc_moments` averages them as it does
    simulated paths.  Returns per-step first and second moments of the
    cumulative discounted penalty plus the number of complete windows.
    """
    _check_horizon(horizon)
    m = np.asarray(penalty, dtype=float)
    n_days = (m.size - 1) // horizon
    if n_days < 2:
        raise InputError(f"series too short for two {horizon}-step windows")
    table = mc_moments(m[1 : n_days * horizon + 1].reshape(n_days, horizon), discount_rate)
    return table.mean, table.second, n_days


def day_start_conditions(
    table: SegmentTable, soc: np.ndarray, horizon: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """States, backward times, and SOC observed at each window boundary.

    The run in progress at each window start is looked up in ``table.start``;
    the backward time is how many steps into that run the window starts.
    """
    _check_horizon(horizon)
    starts = np.arange((table.charges.size - 1) // horizon) * horizon
    run = np.searchsorted(table.start, starts, side="right") - 1
    return table.i[run], starts - table.start[run], np.asarray(soc)[starts]
