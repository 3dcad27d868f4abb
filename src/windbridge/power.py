"""Wind-to-power conversion, ramp-rate correction, and synthetic wind generation.

The generated power ``e(k)`` is what the turbine produces at hour ``k``; the
corrected power ``e_bar(k)`` is what is actually injected into the grid once
the ramp-rate policy caps hour-to-hour variations at ``limit`` MW.
The battery absorbs (or supplies) the difference ``|e - e_bar|``.
"""

from __future__ import annotations

import csv
import itertools
import warnings
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
        require_finite(self)
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

    Accepts a scalar or an array; returns an array of the matching shape.
    """
    v = np.asarray(speed, dtype=float)
    if not np.all(np.isfinite(v) & (v >= 0.0)):
        raise InputError("wind speed must be finite and nonnegative")
    vi3 = turbine.cut_in_speed**3
    vr3 = turbine.rated_speed**3
    ramp = turbine.rated_capacity * (v**3 - vi3) / (vr3 - vi3)
    power = np.where(v <= turbine.cut_in_speed, 0.0, ramp)
    power = np.where(v >= turbine.rated_speed, turbine.rated_capacity, power)
    return np.where(v > turbine.cut_out_speed, 0.0, power)


def apply_ramp_limit(series: PowerSeries, policy: RampPolicy, capacity: float) -> PowerSeries:
    """Apply the ramp-rate correction and return a new series with ``corrected`` set.

    The injected power starts at the first generated value, then follows the
    generated power except that it may not move by more than ``policy.limit``
    per step: up-ramping events are capped at ``e_bar(k-1) + limit`` and
    down-ramping events at ``e_bar(k-1) - limit``.  A generated value above
    ``capacity`` raises :class:`InputError` naming its step.  Within
    ``[0, capacity]`` every corrected value is ``e(k)`` or a capped value
    strictly between ``e(k)`` and ``e_bar(k-1)``, so it stays in that band.
    """
    e = series.generated
    above = np.flatnonzero(e > capacity)
    if above.size:
        k = int(above[0])
        raise InputError(f"generated power {e[k]} at step {k} outside [0, {capacity}]")
    step = policy.limit
    prev = float(e[0])
    out = np.empty_like(e)
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
        out[k] = prev
    return PowerSeries(generated=e, corrected=out)


def _check_wind_law(shape: float, scale: float, autocorrelation: float) -> None:
    """Reject Weibull parameters or an AR(1) correlation that no wind series has."""
    if shape <= 0.0 or scale <= 0.0:
        raise InputError(f"Weibull parameters must be positive, got {shape}, {scale}")
    if not (0.0 <= autocorrelation < 1.0):
        raise InputError(f"autocorrelation must lie in [0, 1), got {autocorrelation}")


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
    _check_wind_law(shape, scale, autocorrelation)
    rng = np.random.default_rng(seed)
    phi = float(autocorrelation)
    innov = float(np.sqrt(1.0 - phi * phi))
    z = rng.standard_normal(n_steps).tolist()  # Python floats: numpy scalars' bits, faster
    for k in range(1, n_steps):
        z[k] = phi * z[k - 1] + innov * z[k]
    u = ndtr(np.array(z))
    return scale * (-np.log1p(-u)) ** (1.0 / shape)


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

WIND_HEADER = ["timestamp", "speed_ms"]
POWER_HEADER = ["k", "e", "e_bar"]
#: How an error names a column, where not by its header name.
_LABELS = {"speed_ms": "wind speed"}


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


def _scan_columns(path: Path, header: list[str], key: type) -> list[np.ndarray]:
    """The float columns of every data row, read one row at a time by the csv module.

    Each row must have one field per ``header`` name, its first field must
    parse as ``key`` and the others as floats; the first bad row raises an
    :class:`InputError` naming its file and line.
    """
    rows = _open_rows(path)
    next(rows)
    columns = [[] for _ in header[1:]]
    for line, row in rows:
        if len(row) != len(header):
            raise _malformed(path, line, row, header)
        try:
            key(row[0])
            values = [float(v) for v in row[1:]]
        except ValueError:
            raise _malformed(path, line, row, header) from None
        for column, v in zip(columns, values):
            column.append(v)
    return [np.asarray(column, dtype=float) for column in columns]


def _read_columns(path: Path, kind: str, check_header, key: type) -> list[np.ndarray]:
    """The float columns after the ``key`` column of a ``kind`` CSV file.

    Leading blank and ``#`` rows are skipped, and ``check_header`` receives
    the header row and returns its stripped names.  The data rows are parsed
    in one ``np.loadtxt`` call.  That parse accepts no row the csv module
    rejects, but it refuses some that the csv module reads (quoted fields,
    ``1_0``, ``#`` rows after the header, integers beyond int64), and it
    takes a ``"`` or ``#`` opening a free-form first field as data, where the
    csv module starts a quoted field or skips a comment row.  Such files,
    files without data rows and any parse that warns are read again by
    :func:`_scan_columns`, which returns what the csv module reads or raises
    the ``path:line`` error.  Once every row has parsed, the first value
    that is not finite and nonnegative, in row order and then column order,
    raises an :class:`InputError` naming its file, line and column.
    """
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next((row for row in rows if row and not row[0].startswith("#")), None)
        if header is None:
            raise InputError(f"empty {kind} file: {path}")
        header = check_header(header)
        # The first field is only checked: an int64 k, or one byte of a free-form timestamp.
        dtype = [(header[0], np.int64 if key is int else "S1")] + [(n, float) for n in header[1:]]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(fh, delimiter=",", comments=None, dtype=dtype, ndmin=1)
        except (ValueError, Warning):
            table = None
    if table is None or (key is str and np.isin(table[header[0]], [b'"', b"#"]).any()):
        columns = _scan_columns(path, header, key)
    else:
        columns = [np.ascontiguousarray(table[name]) for name in header[1:]]
    if columns[0].size == 0:
        raise InputError(f"no {kind} rows in {path}")
    bad = np.column_stack([~(np.isfinite(c) & (c >= 0.0)) for c in columns])
    if bad.any():
        at, col = np.argwhere(bad)[0]
        # the header is the first row that is neither blank nor a comment
        line, row = next(itertools.islice(_open_rows(path), int(at) + 1, None))
        name = _LABELS.get(header[col + 1], header[col + 1])
        raise InputError(f"{path}:{line}: {name} must be finite and nonnegative, got {row[col + 1]!r}")
    return columns


#: Rows formatted per write, which bounds the strings alive at once.
_WRITE_CHUNK = 4096


def _write_columns(
    path: str | Path, header: list[str], columns: list[np.ndarray], comment: str | None
) -> None:
    r"""Write the row index ``k`` and one ``repr`` per float column, as ``csv.writer`` would.

    The comment line ends in ``\n`` and every other row in ``\r\n``, the
    csv module's excel line terminator; no field a float's ``repr`` or an
    int gives needs quoting.
    """
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\r\n")
        n = len(columns[0])
        for lo in range(0, n, _WRITE_CHUNK):
            hi = min(lo + _WRITE_CHUNK, n)
            # A list's repr joins each float's own repr with ", ", which no float repr contains.
            cells = [map(str, range(lo, hi))]
            cells += [repr(column[lo:hi].tolist())[1:-1].split(", ") for column in columns]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def read_wind_csv(path: str | Path) -> np.ndarray:
    """Read an hourly wind series (header ``timestamp,speed_ms``) into m/s values."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"wind input file not found: {path}")

    def check_header(header: list[str]) -> list[str]:
        if [c.strip() for c in header] != WIND_HEADER:
            raise InputError(f"unexpected wind header {header!r} in {path}, want {WIND_HEADER}")
        return WIND_HEADER

    (speeds,) = _read_columns(path, "wind", check_header, str)
    return speeds


def write_wind_csv(path: str | Path, speeds: np.ndarray, comment: str | None = None) -> None:
    _write_columns(path, WIND_HEADER, [np.asarray(speeds, dtype=float)], comment)


def write_power_csv(path: str | Path, series: PowerSeries, comment: str | None = None) -> None:
    """Write ``k,e`` or, when the series is corrected, ``k,e,e_bar`` rows."""
    if series.corrected is None:
        _write_columns(path, POWER_HEADER[:2], [series.generated], comment)
    else:
        _write_columns(path, POWER_HEADER, [series.generated, series.corrected], comment)


def read_power_csv(path: str | Path) -> PowerSeries:
    path = Path(path)
    if not path.is_file():
        raise InputError(f"power file not found: {path}")

    def check_header(header: list[str]) -> list[str]:
        header = [c.strip() for c in header]
        if header not in (POWER_HEADER, POWER_HEADER[:2]):
            raise InputError(f"unexpected power header {header!r} in {path}")
        return header

    columns = _read_columns(path, "power", check_header, int)
    return PowerSeries(*columns)
