"""Charge-bridge mathematics: peak extraction, triangle baseline, clipping, and
the two-piece pinned Brownian bridge that drives the stochastic part of a run.

A charging (or discharging) run of class ``(i, j, x)`` is a row of absolute
charges ``c(1..x)``; a whole class is an ``(n, x)`` matrix, one row per run,
and every function here takes either.  The path is pinned to zero at ``k = 0``
and ``k = x+1``, which no row stores.  It splits into a deterministic triangle
``g`` rising to the peak ``(tau, h)`` plus an error process, itself a Brownian
bridge pinned to zero at 0, ``tau`` and ``x+1`` and clipped so the
reconstructed charge stays inside ``[0, rho - (k-1)*limit]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = [
    "SIGMA_FLOOR",
    "CLIP_TOLERANCE",
    "BridgeParams",
    "ErrorPath",
    "extract_peak",
    "triangle_path",
    "compute_initial_power",
    "decompose",
    "error_bounds",
    "clip_error",
    "bb_transition",
    "write_bridge_csv",
    "sample_latent_bridge",
]

#: Volatilities at or below this are treated as "no noise": the charge path is
#: the clipped triangle.
SIGMA_FLOOR = 1e-6

#: Error values within this distance of a clip bound are flagged as clipped.
CLIP_TOLERANCE = 1e-9


@dataclass(frozen=True)
class BridgeParams:
    """Per-segment bridge parameters: ceiling proxy, peak location/height, volatility.

    The fields may also be equal-length 1-d arrays, one entry per path of a
    batch; :func:`triangle_path`, :func:`error_bounds` and :func:`clip_error`
    then return one row per path.
    """

    rho: float
    tau: int
    h: float
    sigma: float = SIGMA_FLOOR


@dataclass
class ErrorPath:
    """Signed deviation from the triangle at ``k = 1..x`` with clip flags.

    ``values`` and ``clipped`` have the shape of the charges they came from:
    ``(x,)`` for one run, ``(n, x)`` for a class.

    :func:`clip_error` also keeps the triangle ``g(1..x)`` it clipped against
    in ``triangle``, so that ``triangle + values`` is the charge path.
    """

    values: np.ndarray
    clipped: np.ndarray
    triangle: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        self.clipped = np.asarray(self.clipped, dtype=bool)
        if self.values.shape != self.clipped.shape:
            raise InputError("error values and clip flags must have equal length")


def extract_peak(charges) -> tuple:
    """Peak time ``tau`` and height ``h`` of a charge row, or of each row of a matrix.

    ``tau`` counts from ``k = 1``; ties go to the smallest ``k``.
    """
    c = np.asarray(charges, dtype=float)
    return np.argmax(c, axis=-1) + 1, c.max(axis=-1)


def _per_path(value):
    """A batch's array of one value per path as an ``(n, 1)`` column; a scalar as is."""
    return value[:, None] if isinstance(value, np.ndarray) else value


def _all(condition) -> bool:
    """Whether a scalar condition, or every entry of a batch's, holds."""
    if isinstance(condition, np.ndarray):
        return bool(np.logical_and.reduce(condition, axis=None))
    return bool(condition)


def triangle_path(params: BridgeParams, x: int) -> np.ndarray:
    """Triangle baseline ``g(k)``, ``k = 0..x+1``: up to ``(tau, h)``, down to 0 at ``x+1``.

    Shape ``(x+2,)``, or ``(n, x+2)`` for a batch of ``n`` parameter sets.
    """
    tau, h = _per_path(params.tau), _per_path(params.h)
    if not _all((1 <= tau) & (tau <= x)):
        raise InputError(f"peak time {params.tau} outside {{1..{x}}}")
    k = np.arange(x + 2, dtype=float)
    up = h * k / tau
    down = h * (x + 1 - k) / (x + 1 - tau)
    return np.where(k <= tau, up, down)


def compute_initial_power(i: int, entry_power, x: int, limit: float, capacity: float):
    """Charge-ceiling proxy ``rho`` for runs of ``x`` steps entered at ``entry_power``.

    Discharging runs use the entry power itself (shifted one ramp step back
    and floored so a ``x+1``-step discharge stays feasible); charging runs
    use the headroom to rated capacity, mirrored the same way.  One ``rho``
    per entry power.
    """
    p = np.asarray(entry_power, dtype=float)
    if i == -1:
        return np.minimum(np.maximum(p - limit, limit * (x + 1)), capacity)
    if i == 1:
        return np.maximum(np.maximum(capacity - (p - limit), capacity - limit * (x + 1)), 0.0)
    raise InputError("initial power is defined only for charging or discharging segments")


def decompose(charges, params: BridgeParams, limit: float) -> ErrorPath:
    """Error process ``E(k) = c(k) - g(k)``, ``k = 1..x``, of a charge row or matrix.

    Values within ``CLIP_TOLERANCE`` of (or beyond) the clip bounds are
    flagged; those points carry no information about the latent bridge.
    """
    c = np.asarray(charges, dtype=float)
    lower, upper = error_bounds(params, c.shape[-1], limit)
    values = c + lower  # lower == -g(1..x)
    clipped = (values <= lower + CLIP_TOLERANCE) | (values >= upper - CLIP_TOLERANCE)
    return ErrorPath(values=values, clipped=clipped)


def error_bounds(params: BridgeParams, x: int, limit: float) -> tuple[np.ndarray, np.ndarray]:
    """Clip band for the error process: ``-g(k) <= E(k) <= rho - (k-1)*limit - g(k)``."""
    g = triangle_path(params, x)[..., 1 : x + 1]
    k = np.arange(1, x + 1, dtype=float)
    lower = -g
    upper = _per_path(params.rho) - (k - 1.0) * limit - g
    return lower, upper


def clip_error(latent: np.ndarray, params: BridgeParams, x: int, limit: float) -> ErrorPath:
    """Clamp a latent path into the feasible band, flagging where it was moved.

    ``latent`` has shape ``(x,)``, or ``(n, x)`` for a batch of ``n`` parameter
    sets.
    """
    y = np.asarray(latent, dtype=float)
    lower, upper = error_bounds(params, x, limit)
    if y.shape != lower.shape:
        raise InputError(f"latent path must have shape {lower.shape}")
    if np.any(upper < lower):
        *row, k = np.argwhere(upper < lower)[0]
        rho, tau, h = (np.asarray(v)[tuple(row)] for v in (params.rho, params.tau, params.h))
        raise InputError(
            f"inconsistent bridge parameters: clip band empty at k={k + 1} "
            f"(rho={float(rho)}, tau={int(tau)}, h={float(h)}, x={x})"
        )
    values = np.minimum(np.maximum(y, lower), upper)
    return ErrorPath(values=values, clipped=values != y, triangle=-lower)


def bb_transition(
    y_prev: float, s: float, t: float, horizon: float, sigma: float
) -> tuple[float, float]:
    """Mean and variance of a Brownian bridge pinned at ``(horizon, 0)``.

    Conditional on the value ``y_prev`` at time ``s``, the bridge at time
    ``t`` is Gaussian with mean ``y_prev * (T-t)/(T-s)`` and variance
    ``sigma^2 * (t-s)(T-t)/(T-s)``.
    """
    if not 0 <= s < t:
        raise InputError(f"need 0 <= s < t, got s={s}, t={t}")
    if t >= horizon:
        raise InputError(f"transition time {t} must precede the pinning time {horizon}")
    if sigma <= 0:
        raise InputError(f"sigma must be positive, got {sigma}")
    mean = y_prev * (horizon - t) / (horizon - s)
    var = sigma * sigma * (t - s) * (horizon - t) / (horizon - s)
    return mean, var


def write_bridge_csv(path, charges, comment: str | None = None) -> None:
    """Dump one charge row ``c(1..x)`` as ``k,value`` rows over ``k = 0..x+1``.

    The pinned endpoints ``k = 0`` and ``k = x+1`` are written as zeros.
    """
    values = [0.0, *np.asarray(charges, dtype=float).tolist(), 0.0]
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write("k,value\n")
        for k, v in enumerate(values):
            fh.write(f"{k},{v!r}\n")


def sample_latent_bridge(
    x: int, tau: int, sigma: float, rng: np.random.Generator, n_paths: int = 1
) -> np.ndarray:
    """Sample the latent two-piece bridge at ``k = 1..x`` (shape ``(n_paths, x)``).

    Two independent Brownian motions are pinned into bridges on ``[0, tau]``
    and ``[tau, x+1]``; both pieces vanish at ``tau``, so every sampled path
    has ``Y(tau) == 0`` exactly.  ``sigma`` is one volatility for every path
    or an array of ``n_paths``, one per path.  The normals are drawn as an
    ``(n_paths, tau)`` block, then an ``(n_paths, x+1-tau)`` block if
    ``tau < x``: ``x`` normals per path when ``tau == x``, else ``x+1``.
    """
    if not 1 <= tau <= x:
        raise InputError(f"peak time {tau} outside {{1..{x}}}")
    sigma = _per_path(sigma)
    if not _all(sigma > 0):
        raise InputError(f"sigma must be positive, got {sigma}")
    out = np.empty((n_paths, x))

    w1 = np.cumsum(rng.standard_normal((n_paths, tau)), axis=1)
    k1 = np.arange(1, tau + 1, dtype=float)
    piece1 = sigma * (w1 - (k1 / float(tau)) * w1[:, -1:])
    out[:, :tau] = piece1

    if x > tau:
        span = x + 1 - tau
        w2 = np.cumsum(rng.standard_normal((n_paths, span)), axis=1)
        k2 = np.arange(1, span, dtype=float)
        piece2 = sigma * (w2[:, :-1] - (k2 / float(span)) * w2[:, -1:])
        out[:, tau:] = piece2
    return out
