"""Wind-to-power conversion, ramp-rate correction, and synthetic wind generation.

The generated power ``e(k)`` is what the turbine produces at hour ``k``; the
corrected power ``e_bar(k)`` is what is actually injected into the grid once
the ramp-rate policy caps hour-to-hour variations at ``limit`` MW.
The battery absorbs (or supplies) the difference ``|e - e_bar|``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from .errors import InputError

__all__ = [
    "TurbineSpec",
    "RampPolicy",
    "PowerSeries",
    "DEFAULT_TURBINE",
    "wind_to_power",
    "apply_ramp_limit",
    "generate_synthetic_wind",
    "read_wind_csv",
    "write_wind_csv",
    "read_power_csv",
    "write_power_csv",
]


def require_finite(spec) -> None:
    """Raise :class:`InputError` naming the first field of ``spec`` that is NaN or infinite."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if not np.isfinite(value):
            raise InputError(f"{type(spec).__name__}.{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class TurbineSpec:
    """Static turbine parameters: operating wind band and rated capacity (MW)."""

    cut_in_speed: float
    rated_speed: float
    cut_out_speed: float
    rated_capacity: float

    def __post_init__(self) -> None:
        require_finite(self)
        if not (0.0 < self.cut_in_speed < self.rated_speed < self.cut_out_speed):
            raise InputError(
                "turbine speeds must satisfy 0 < cut_in < rated < cut_out, got "
                f"{self.cut_in_speed}, {self.rated_speed}, {self.cut_out_speed}"
            )
        if self.rated_capacity <= 0.0:
            raise InputError(f"rated_capacity must be positive, got {self.rated_capacity}")


#: 2 MW turbine with a 4 / 13 / 25 m/s operating band.
DEFAULT_TURBINE = TurbineSpec(
    cut_in_speed=4.0, rated_speed=13.0, cut_out_speed=25.0, rated_capacity=2.0
)


@dataclass(frozen=True)
class RampPolicy:
    """Ramp-rate limitation: at most ``limit`` MW of change per hourly step."""

    limit: float

    def __post_init__(self) -> None:
        if self.limit <= 0.0:
            raise InputError(f"ramp limit must be positive, got {self.limit}")


@dataclass
class PowerSeries:
    """Generated power ``e(k)`` and, once corrected, injected power ``e_bar(k)``."""

    generated: np.ndarray
    corrected: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.generated = np.asarray(self.generated, dtype=float)
        if self.generated.ndim != 1 or self.generated.size == 0:
            raise InputError("generated power must be a non-empty 1-d array")
        if not np.all(np.isfinite(self.generated) & (self.generated >= 0.0)):
            raise InputError("generated power must be finite and nonnegative")
        if self.corrected is not None:
            self.corrected = np.asarray(self.corrected, dtype=float)
            if self.corrected.shape != self.generated.shape:
                raise InputError("corrected series must match the generated series length")
            if not np.all(np.isfinite(self.corrected) & (self.corrected >= 0.0)):
                raise InputError("corrected power must be finite and nonnegative")

    def __len__(self) -> int:
        return int(self.generated.size)


def wind_to_power(speed, turbine: TurbineSpec):
    """Convert wind speed (m/s) to turbine output (MW).

    Cubic ramp-up between cut-in and rated speed, rated capacity on the
    plateau up to cut-out, zero outside the operating band.  Band edges:
    the cut-in speed maps to 0, the rated and cut-out speeds map to rated
    capacity, anything faster than cut-out maps to 0.

    Accepts a scalar or an array; returns the matching shape.
    """
    v = np.asarray(speed, dtype=float)
    if not np.all(np.isfinite(v) & (v >= 0.0)):
        raise InputError("wind speed must be finite and nonnegative")
    vi3 = turbine.cut_in_speed**3
    vr3 = turbine.rated_speed**3
    ramp = turbine.rated_capacity * (v**3 - vi3) / (vr3 - vi3)
    power = np.where(v <= turbine.cut_in_speed, 0.0, ramp)
    power = np.where(v >= turbine.rated_speed, turbine.rated_capacity, power)
    power = np.where(v > turbine.cut_out_speed, 0.0, power)
    if np.isscalar(speed) or np.ndim(speed) == 0:
        return float(power)
    return power


def apply_ramp_limit(
    series: PowerSeries,
    policy: RampPolicy,
    initial_corrected: float | None = None,
    capacity: float | None = None,
) -> PowerSeries:
    """Apply the ramp-rate correction and return a new series with ``corrected`` set.

    Each step the injected power follows the generated power except that it may
    not move by more than ``policy.limit`` from its previous value:
    up-ramping events are capped at ``e_bar(k-1) + limit`` and down-ramping
    events at ``e_bar(k-1) - limit``.  The first value defaults to the first
    generated value when ``initial_corrected`` is not given.

    ``capacity``, when provided, clamps the output to ``[0, capacity]`` to guard
    against floating-point drift; the recursion itself cannot leave that band.
    """
    e = series.generated
    if e.size < 1:
        raise InputError("cannot correct an empty series")
    first = float(e[0]) if initial_corrected is None else float(initial_corrected)
    if capacity is not None and not (0.0 <= first <= capacity):
        raise InputError(f"initial corrected power {first} outside [0, {capacity}]")
    step = policy.limit
    out = np.empty_like(e)
    prev = first
    out[0] = prev
    values = e.tolist()
    for k in range(1, len(values)):
        ek = values[k]
        hi = prev + step
        lo = prev - step
        if ek > hi:
            prev = hi
        elif ek < lo:
            prev = lo
        else:
            prev = ek
        if prev < 0.0:
            prev = 0.0
        elif capacity is not None and prev > capacity:
            prev = capacity
        out[k] = prev
    return PowerSeries(generated=e, corrected=out)


def generate_synthetic_wind(
    n_steps: int,
    shape: float = 2.0,
    scale: float = 8.0,
    autocorrelation: float = 0.0,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Generate an hourly wind-speed series with Weibull marginals.

    A stationary Gaussian AR(1) process with lag-one correlation
    ``autocorrelation`` is mapped through the standard normal CDF and the
    Weibull quantile function, so the marginal distribution is exactly
    Weibull(shape, scale) at every lag while keeping realistic persistence.

    Deterministic for a fixed ``seed``.
    """
    if n_steps < 1:
        raise InputError(f"n_steps must be >= 1, got {n_steps}")
    if shape <= 0.0 or scale <= 0.0:
        raise InputError(f"Weibull parameters must be positive, got {shape}, {scale}")
    if not (0.0 <= autocorrelation < 1.0):
        raise InputError(f"autocorrelation must lie in [0, 1), got {autocorrelation}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    phi = autocorrelation
    eps = rng.standard_normal(n_steps)
    z = np.empty(n_steps)
    z[0] = eps[0]
    innov = np.sqrt(1.0 - phi * phi)
    for k in range(1, n_steps):
        z[k] = phi * z[k - 1] + innov * eps[k]
    u = ndtr(z)
    return scale * (-np.log1p(-u)) ** (1.0 / shape)


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

WIND_HEADER = ["timestamp", "speed_ms"]
POWER_HEADER = ["k", "e", "e_bar"]


def _open_rows(path: Path):
    """Yield ``(line number, fields)`` for each row that is neither blank nor a comment."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            yield reader.line_num, row


def _malformed(path: Path, line: int, row: list[str], header: list[str]) -> InputError:
    return InputError(f"{path}:{line}: malformed row {','.join(row)!r}, want {','.join(header)}")


def read_wind_csv(path: str | Path) -> np.ndarray:
    """Read an hourly wind series (header ``timestamp,speed_ms``) into m/s values."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"wind input file not found: {path}")
    rows = _open_rows(path)
    try:
        _, header = next(rows)
    except StopIteration:
        raise InputError(f"empty wind file: {path}") from None
    if [c.strip() for c in header] != WIND_HEADER:
        raise InputError(f"unexpected wind header {header!r} in {path}, want {WIND_HEADER}")
    speeds = []
    for line, row in rows:
        try:
            _, speed = row
            speeds.append(float(speed))
        except ValueError:
            raise _malformed(path, line, row, WIND_HEADER) from None
    if not speeds:
        raise InputError(f"no wind rows in {path}")
    return np.asarray(speeds)


def write_wind_csv(path: str | Path, speeds: np.ndarray, comment: str | None = None) -> None:
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(WIND_HEADER)
        for k, v in enumerate(np.asarray(speeds, dtype=float)):
            writer.writerow([k, repr(float(v))])


def write_power_csv(path: str | Path, series: PowerSeries, comment: str | None = None) -> None:
    """Write ``k,e`` or, when the series is corrected, ``k,e,e_bar`` rows."""
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        if series.corrected is None:
            writer.writerow(POWER_HEADER[:2])
            for k, e in enumerate(series.generated.tolist()):
                writer.writerow([k, repr(e)])
        else:
            writer.writerow(POWER_HEADER)
            for k, (e, eb) in enumerate(zip(series.generated.tolist(), series.corrected.tolist())):
                writer.writerow([k, repr(e), repr(eb)])


def read_power_csv(path: str | Path) -> PowerSeries:
    path = Path(path)
    if not path.exists():
        raise InputError(f"power file not found: {path}")
    rows = _open_rows(path)
    try:
        header = [c.strip() for c in next(rows)[1]]
    except StopIteration:
        raise InputError(f"empty power file: {path}") from None
    if header not in (POWER_HEADER, POWER_HEADER[:2]):
        raise InputError(f"unexpected power header {header!r} in {path}")
    es, ebs = [], []
    for line, row in rows:
        if len(row) != len(header):
            raise _malformed(path, line, row, header)
        try:
            int(row[0])  # k must be an integer; the series keeps only the row order
            es.append(float(row[1]))
            if len(header) == 3:
                ebs.append(float(row[2]))
        except ValueError:
            raise _malformed(path, line, row, header) from None
    if not es:
        raise InputError(f"no power rows in {path}")
    corrected = np.asarray(ebs) if ebs else None
    return PowerSeries(generated=np.asarray(es), corrected=corrected)
