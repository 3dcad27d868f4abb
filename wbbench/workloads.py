"""The benchmark's workloads and the inputs it generates for them.

Each workload stresses a different part of the pipeline (see README.md):

* ``default``: the built-in profile (synthetic wind, 1/5/7% limits, horizon
  24); Monte Carlo paths are a large share of the run.
* ``decade``: ten years of hourly wind written by the benchmark itself and read
  back through ``wind_csv``; CSV ingest, the ramp loop, segmentation, fitting
  and the per-class segment comparison dominate.
* ``monthly``: one limit, horizon 720 with discounting; long penalty paths of
  many sojourns each dominate.

Sizes are cut down from the full profiles so that one run, set-up included,
stays near 45 s on a 2-core machine; README.md gives the reason.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: 2010-01-01 .. 2019-12-31, hourly: 3652 days.
DECADE_HOURS = 87_648
#: Lag-one correlation of the decade history; the program's synthetic default is 0.9.
DECADE_PERSISTENCE = 0.95
WEIBULL_SHAPE = 2.0
WEIBULL_SCALE = 8.0


@dataclass(frozen=True)
class Workload:
    name: str
    hours: int
    limits: tuple[float, ...]
    paths: int
    horizon: int
    discount_rate: float = 0.0
    #: True: the benchmark writes the wind history and the run reads it as a CSV.
    wind_csv: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("default", hours=10_000, limits=(0.01, 0.05, 0.07), paths=600, horizon=24),
        Workload(
            "decade", hours=DECADE_HOURS, limits=(0.05,), paths=1500, horizon=24, wind_csv=True
        ),
        Workload(
            "monthly", hours=50_000, limits=(0.05,), paths=100, horizon=720,
            discount_rate=0.001,
        ),
    )
}


def decade_wind(hours: int, seed: int) -> np.ndarray:
    """Hourly wind speeds with Weibull marginals and AR(1) persistence.

    Generated here, apart from the program's own synthetic generator, so the
    program receives it only as an input file.
    """
    rng = np.random.default_rng([seed, 0xDECADE])
    eps = rng.standard_normal(hours).tolist()
    phi = DECADE_PERSISTENCE
    innov = math.sqrt(1.0 - phi * phi)
    speeds = np.empty(hours)
    z = eps[0]
    for k in range(hours):
        if k:
            z = phi * z + innov * eps[k]
        u = 0.5 * math.erfc(-z / math.sqrt(2.0))
        speeds[k] = WEIBULL_SCALE * (-math.log1p(-u)) ** (1.0 / WEIBULL_SHAPE)
    return speeds


def write_wind_input(path: Path, speeds: np.ndarray) -> None:
    """Write ``timestamp,speed_ms`` rows, one contiguous hour apart."""
    start = datetime.datetime(2010, 1, 1)
    hour = datetime.timedelta(hours=1)
    with open(path, "w") as fh:
        fh.write("timestamp,speed_ms\n")
        for k, v in enumerate(speeds.tolist()):
            fh.write(f"{(start + k * hour).isoformat()},{v!r}\n")


def run_config(workload: Workload, seed: int, out_dir: Path, wind_path: Path | None):
    """The ``RunConfig`` a user would write for this workload."""
    from windbridge.pipeline import RunConfig, SyntheticWindSpec
    from windbridge.simulate import DEFAULT_FEES, PenaltySpec

    fees = PenaltySpec(
        up_fee=DEFAULT_FEES.up_fee,
        down_fee=DEFAULT_FEES.down_fee,
        discount_rate=workload.discount_rate,
    )
    return RunConfig(
        out_dir=out_dir,
        wind_csv=wind_path if workload.wind_csv else None,
        synthetic=SyntheticWindSpec(n_steps=workload.hours),
        limits=workload.limits,
        fees=fees,
        horizon=workload.horizon,
        n_paths=workload.paths,
        seed=seed,
    )
