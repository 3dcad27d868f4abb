"""Real-versus-simulated comparisons: relative L2 errors of per-class bridge
means/covariances, MAPE of penalty moments, and the empirical battery
recursion that turns an observed power pair into penalty paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .segmentation import SegmentTable, backward_times, complete_classes
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
    """Per-class L2 errors plus whatever penalty MAPEs the caller attaches."""

    groups: list[GroupComparison] = field(default_factory=list)
    eligibility: int = 30
    mape_first_moment_pct: float | None = None
    mape_second_moment_pct: float | None = None
    mape_skipped_zero_real: int = 0

    @property
    def mean_l2_average_pct(self) -> float | None:
        if not self.groups:
            return None
        return float(np.mean([g.l2_mean_pct for g in self.groups]))

    def to_dict(self) -> dict:
        return {
            "eligibility": self.eligibility,
            "groups": [
                {
                    "i": g.i, "j": g.j, "x": g.x,
                    "n_real": g.n_real, "n_sim": g.n_sim,
                    "l2_mean_pct": g.l2_mean_pct, "l2_cov_pct": g.l2_cov_pct,
                }
                for g in self.groups
            ],
            "mean_l2_average_pct": self.mean_l2_average_pct,
            "penalty": {
                "mape_first_moment_pct": self.mape_first_moment_pct,
                "mape_second_moment_pct": self.mape_second_moment_pct,
                "skipped_zero_real": self.mape_skipped_zero_real,
            },
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
    compared; each gets ``max(SIM_PATH_MULTIPLIER * n_real, MIN_SIM_PATHS)`` simulated
    paths, drawn in one :meth:`ChargeModel.charge_paths` call per class, class
    after class from ``rng``.  Covariance entries use the n-1 convention on
    both sides; classes whose real covariance is identically zero report no
    covariance error.
    """
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    report = ComparisonReport(eligibility=eligibility)
    for (i, j, x), rows in complete_classes(table).items():
        n_real = rows.size
        if n_real < eligibility:
            continue
        real = table.charge_matrix(rows, x)
        n_sim = max(SIM_PATH_MULTIPLIER * n_real, MIN_SIM_PATHS)
        sim = charge_model.charge_paths(i, j, x, n_sim, rng)
        l2_mean = rel_l2_error(real.mean(axis=0), sim.mean(axis=0))
        cov_real = np.atleast_2d(np.cov(real, rowvar=False, ddof=1))
        cov_sim = np.atleast_2d(np.cov(sim, rowvar=False, ddof=1))
        l2_cov = None
        if float(np.linalg.norm(cov_real)) > 0.0:
            l2_cov = rel_l2_error(cov_real, cov_sim)
        report.groups.append(
            GroupComparison(
                i=i, j=j, x=x, n_real=n_real, n_sim=n_sim,
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
    states: np.ndarray,
    table: SegmentTable,
    soc: np.ndarray,
    horizon: int = 24,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """States, backward times, and SOC observed at each window boundary.

    ``states`` and ``table`` are what :func:`extract_segments` returns.
    """
    _check_horizon(horizon)
    starts = np.arange((len(states) - 1) // horizon) * horizon
    return states[starts], backward_times(table)[starts], np.asarray(soc)[starts]
