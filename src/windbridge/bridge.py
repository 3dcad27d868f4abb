"""Charge-bridge mathematics: peak extraction, triangle baseline, clipping, and
the two-piece pinned Brownian bridge that drives the stochastic part of a run.

A charging (or discharging) run of class ``(i, j, x)`` is a row of absolute
charges ``c(1..x)``; a whole class is an ``(n, x)`` matrix, one row per run.
The path is pinned to zero at ``k = 0`` and ``k = x+1``, which no row stores.
It splits into a deterministic triangle ``g`` rising to the peak ``(tau, h)``
plus an error process, itself a Brownian bridge pinned to zero at 0, ``tau``
and ``x+1`` and clipped so the reconstructed charge stays inside
``[0, rho - (k-1)*limit]``.

The band's ``(rho, tau, h)`` are values or arrays that broadcast: scalars
or one per row for :func:`decompose` and :func:`clip_error`, which read ``x``
from the last axis, and any broadcasting arrays, such as one entry per point
of runs laid end to end, for :func:`triangle` and :func:`clip_to_band`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = [
    "SIGMA_FLOOR",
    "CLIP_TOLERANCE",
    "ErrorPath",
    "extract_peak",
    "triangle",
    "compute_initial_power",
    "decompose",
    "clip_error",
    "clip_to_band",
    "bb_transition",
    "write_bridge_csv",
    "sample_latent_bridge",
    "latent_bridges",
]

#: Volatilities at or below this are treated as "no noise": the charge path is
#: the clipped triangle.
SIGMA_FLOOR = 1e-6

#: Error values within this distance of a clip bound are flagged as clipped.
CLIP_TOLERANCE = 1e-9

#: Points that the block routines work through at a time: whole classes (or
#: segments) of about this many candidates or charge values, which bounds
#: their temporaries in long blocks.
CHUNK_POINTS = 4096


@dataclass
class ErrorPath:
    """Signed deviation from the triangle at ``k = 1..x`` with clip flags.

    Both have the shape of the charges or latent values they came from:
    ``(x,)`` for one run, ``(n, x)`` for a class with ``(rho, tau, h)`` per row.
    """

    values: np.ndarray
    clipped: np.ndarray

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


def _first(mask: np.ndarray, *values):
    """The entries of ``values``, broadcast to the shape of ``mask``, at its first true point."""
    at = np.unravel_index(np.argmax(mask), mask.shape)
    return (np.broadcast_to(v, mask.shape)[at] for v in values)


def triangle(tau, h, x, k):
    """``g(k)`` of the triangle through ``(0, 0)``, ``(tau, h)`` and ``(x+1, 0)``.

    The arguments broadcast; a peak time outside ``{1..x}`` raises.
    """
    outside = np.asarray((tau < 1) | (tau > x))
    if outside.any():
        t, n = _first(outside, tau, x)
        raise InputError(f"peak time {int(t)} outside {{1..{int(n)}}}")
    up = h * k / tau
    down = h * (x + 1 - k) / (x + 1 - tau)
    return np.where(k <= tau, up, down)


def compute_initial_power(i, entry_power, x, limit: float, capacity: float):
    """Charge-ceiling proxy ``rho`` for runs of ``x`` steps entered at ``entry_power``.

    Discharging runs (``i == -1``) use the entry power itself (shifted one
    ramp step back and floored so a ``x+1``-step discharge stays feasible);
    charging runs (``i == 1``) use the headroom to rated capacity, mirrored
    the same way.  ``i``, ``entry_power`` and ``x`` are values or arrays that
    broadcast, such as one side and entry power per run of one sojourn
    length; one ``rho`` per entry is returned.  A side other than -1 or +1
    raises.
    """
    side = np.asarray(i)
    if np.any((side != -1) & (side != 1)):
        raise InputError("initial power is defined only for charging or discharging segments")
    p = np.asarray(entry_power, dtype=float)
    reach = limit * (np.asarray(x) + 1)
    discharging = np.minimum(np.maximum(p - limit, reach), capacity)
    charging = np.maximum(np.maximum(capacity - (p - limit), capacity - reach), 0.0)
    return np.where(side == -1, discharging, charging)


def _per_row(rho, tau, h, shape: tuple) -> tuple:
    """``(rho, tau, h, x, k)`` at steps ``k = 1..x`` of rows of ``shape``, per-row values as columns."""
    if any(np.shape(v) not in ((), shape[:-1]) for v in (rho, tau, h)):
        raise InputError(f"need one (rho, tau, h) for all rows of shape {shape} or one per row")
    rho, tau, h = (np.expand_dims(v, -1) for v in (rho, tau, h))
    return rho, tau, h, shape[-1], np.arange(1, shape[-1] + 1, dtype=float)


def _band(rho, tau, h, x, k, limit):
    """Clip band ``(-g(k), rho - (k-1)*limit - g(k))``; the arguments broadcast."""
    g = triangle(tau, h, x, k)
    return -g, rho - (k - 1.0) * limit - g


def decompose(charges, rho, tau, h, limit: float) -> ErrorPath:
    """Error process ``E(k) = c(k) - g(k)``, ``k = 1..x``, of a charge row or matrix.

    Values within ``CLIP_TOLERANCE`` of (or beyond) the clip band are
    flagged; those points carry no information about the latent bridge.
    """
    c = np.asarray(charges, dtype=float)
    lower, upper = _band(*_per_row(rho, tau, h, c.shape), limit)
    values = c + lower  # lower == -g(1..x)
    clipped = (values <= lower + CLIP_TOLERANCE) | (values >= upper - CLIP_TOLERANCE)
    return ErrorPath(values=values, clipped=clipped)


def clip_to_band(latent, rho, tau, h, x, k, limit: float) -> tuple[np.ndarray, np.ndarray]:
    """Clamp latent values at steps ``k`` into the clip band of their run.

    Every argument broadcasts to the shape of ``latent``.  Returns the
    clamped values and the lower bound ``-g(k)``.  An empty band raises
    :class:`InputError` naming the first offending point.
    """
    lower, upper = _band(rho, tau, h, x, k, limit)
    empty = upper < lower
    if empty.any():
        r, t, p, n, s = _first(empty, rho, tau, h, x, k)
        raise InputError(
            f"inconsistent bridge parameters: clip band empty at k={int(s)} "
            f"(rho={float(r)}, tau={int(t)}, h={float(p)}, x={int(n)})"
        )
    return np.minimum(np.maximum(latent, lower), upper), lower


def clip_error(latent, rho, tau, h, limit: float) -> ErrorPath:
    """Clamp a latent row or ``(n, x)`` matrix into its band, flagging where it was moved."""
    y = np.asarray(latent, dtype=float)
    values, _ = clip_to_band(y, *_per_row(rho, tau, h, y.shape), limit)
    return ErrorPath(values=values, clipped=values != y)


def bb_transition(y_prev, s, t, horizon, sigma):
    """Mean and variance of a Brownian bridge pinned at ``(horizon, 0)``.

    Conditional on the value ``y_prev`` at time ``s``, the bridge at time
    ``t`` is Gaussian with mean ``y_prev * (T-t)/(T-s)`` and variance
    ``sigma^2 * (t-s)(T-t)/(T-s)``.  The arguments are values or arrays that
    broadcast; a bad time or volatility raises, naming the first offending point.
    """
    order = ~((np.asarray(s) >= 0) & np.less(s, t))
    if order.any():
        a, b = _first(order, s, t)
        raise InputError(f"need 0 <= s < t, got s={a}, t={b}")
    late = np.greater_equal(t, horizon)
    if late.any():
        a, b = _first(late, t, horizon)
        raise InputError(f"transition time {a} must precede the pinning time {b}")
    flat = np.less_equal(sigma, 0)
    if flat.any():
        (a,) = _first(flat, sigma)
        raise InputError(f"sigma must be positive, got {a}")
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
    or an array of ``n_paths``, one per path.  Each path draws its ``tau``
    normals and then, if ``tau < x``, its ``x+1-tau``, one path after
    another, so ``n_paths`` rows equal as many one-row draws in sequence.
    The one-sojourn case of :func:`latent_bridges`.
    """
    if not 1 <= tau <= x:
        raise InputError(f"peak time {tau} outside {{1..{x}}}")
    if not np.all(np.asarray(sigma) > 0):
        raise InputError(f"sigma must be positive, got {sigma}")
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), (n_paths,))
    z = rng.standard_normal(n_paths * (x + (tau < x)))
    return latent_bridges(np.full(n_paths, x), np.full(n_paths, tau), sigma, z).reshape(n_paths, x)


def _ragged(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment and position within it of each entry of segments of ``lengths``, laid end to end."""
    seg = np.repeat(np.arange(lengths.size), lengths)
    return seg, np.arange(seg.size) - (np.cumsum(lengths) - lengths)[seg]


def _chunks(sizes: np.ndarray) -> list[tuple[int, int]]:
    """Runs ``[a, b)`` of consecutive items of ``sizes``, about ``CHUNK_POINTS`` in total each.

    An item starts a new run when the total before it lies in a later
    ``CHUNK_POINTS`` bin than the previous item's.  So a run holds fewer than
    ``CHUNK_POINTS`` points of items and then one last item of any size: a
    large item joins the run it begins in, and the next item starts afresh.
    """
    before = np.cumsum(sizes) - sizes
    edges = np.flatnonzero(np.r_[True, np.diff(before // CHUNK_POINTS) > 0])
    return list(zip(edges.tolist(), np.r_[edges[1:], sizes.size].tolist()))


def latent_bridges(x, tau, sigma, z: np.ndarray) -> np.ndarray:
    """Latent two-piece bridges of many runs from one array of normals, flat.

    Run ``r`` has sojourn ``x[r]``, peak time ``tau[r]`` and volatility
    ``sigma[r]``.  It takes the next ``tau[r]`` normals of ``z`` for its
    ``[0, tau]`` piece and then, if ``tau[r] < x[r]``, the next
    ``x[r]+1-tau[r]`` for its ``[tau, x+1]`` piece, so the runs draw one
    after another and a block equals its one-row :func:`sample_latent_bridge`
    draws in order, bit for bit.  Returns the values at ``k = 1..x[r]`` of
    every run, laid end to end in run order.
    """
    x, tau = (np.asarray(v, dtype=np.int64) for v in (x, tau))
    # the pieces in the order of z: each run's [0, tau], then its [tau, x+1]
    # if tau < x; a piece of m normals is pinned at m, and the second drops
    # its last value, the pin at x+1
    length = np.stack([tau, np.where(tau < x, x + 1 - tau, 0)], axis=1).ravel()
    run = np.repeat(np.arange(x.size), 2)
    kept = length - np.tile([0, 1], x.size)
    live = length > 0
    length, run, kept = length[live], run[live], kept[live]

    if z.size != length.sum():
        raise InputError(f"need {length.sum()} normals, got {z.size}")
    # prefix sums along the rows of a zero-padded matrix of pieces: each adds
    # its normals in order, as a cumsum along its own row does
    piece, col = _ragged(length)
    w = np.zeros((length.size, int(length.max(initial=0))))
    w[piece, col] = z
    np.cumsum(w, axis=1, out=w)
    piece, col = _ragged(kept)
    m = length[piece]
    return np.asarray(sigma, dtype=float)[run[piece]] * (w[piece, col] - ((col + 1.0) / m) * w[piece, m - 1])
