"""Path simulation: per-segment charge paths, battery SOC and penalty paths,
and Monte Carlo estimation of the discounted cumulative penalty moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .bridge import SIGMA_FLOOR, _chunks, _ragged, clip_to_band, latent_bridges
from .errors import InputError, SimulationError
from .estimation import EmpiricalCopulaSampler, SigmaModel, _copulas, predict_sigma_batch
from .power import _check_integer, require_finite
from .segmentation import SemiMarkovKernel, _whole

__all__ = [
    "BatterySpec",
    "PenaltySpec",
    "PenaltyPath",
    "ChargeModel",
    "DEFAULT_BATTERY",
    "DEFAULT_FEES",
    "battery_recursion",
    "sample_step_grids",
    "simulate_penalty_path",
    "discounted_penalty",
    "MomentTable",
    "mc_moments",
]


@dataclass(frozen=True)
class BatterySpec:
    """State-of-charge band (MWh) and where the battery starts inside it."""

    soc_min: float
    soc_max: float
    soc_init: float

    def __post_init__(self) -> None:
        require_finite(self)
        if not self.soc_min <= self.soc_max:
            raise InputError(f"need soc_min <= soc_max, got {self.soc_min} > {self.soc_max}")
        if not self.soc_min <= self.soc_init <= self.soc_max:
            raise InputError(f"initial SOC {self.soc_init} outside [{self.soc_min}, {self.soc_max}]")


@dataclass(frozen=True)
class PenaltySpec:
    """Fees (per MWh) for unserved charge/discharge and the per-step discount rate."""

    up_fee: float
    down_fee: float
    discount_rate: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.up_fee < 0 or self.down_fee < 0:
            raise InputError("fees must be nonnegative")
        if self.discount_rate < 0:
            raise InputError("discount rate must be nonnegative")


#: 0.36 MWh module, started half full.
DEFAULT_BATTERY = BatterySpec(soc_min=0.0, soc_max=0.36, soc_init=0.18)
#: Up/down regulation fees in EUR/MWh.
DEFAULT_FEES = PenaltySpec(up_fee=21.52, down_fee=26.50, discount_rate=0.0)


class ChargeModel:
    """Fitted samplers and volatility models for one ramp limit, and the copula
    table of its samplers.

    Each non-idle class ``(i, j, x)`` a kernel enters needs its own fitted
    sampler, as a kernel and a model fitted from one segment table always have;
    any other class raises :class:`SimulationError` naming it.  The model
    builds its samplers' copula table once, when it is built, by one
    :func:`~windbridge.estimation._copulas` pass, which refuses a sampler that
    cannot make a copula; every :meth:`charge_block` draws from it.
    ``samplers`` is a read-only mapping, so the table cannot fall behind it.
    """

    def __init__(
        self,
        samplers: dict[tuple[int, int, int], EmpiricalCopulaSampler],
        sigma_models: dict[tuple[int, int], SigmaModel],
        limit: float,
        capacity: float,
        sigma_default: float = SIGMA_FLOOR,
    ):
        self.samplers = MappingProxyType(dict(samplers))
        self._table = _copulas(self.samplers.values())
        self._rows = {key: c for c, key in enumerate(self.samplers)}
        self.sigma_models = dict(sigma_models)
        self.limit = float(limit)
        self.capacity = float(capacity)
        self.sigma_default = float(sigma_default)

    def _row(self, key: tuple[int, int, int]) -> int:
        """The copula table's class of the fitted class ``key``."""
        row = self._rows.get(key)
        if row is None:
            raise SimulationError("no fitted sampler for class (i={}, j={}, x={})".format(*key))
        return row

    def sampler_for(self, i: int, j: int, x: int) -> tuple[EmpiricalCopulaSampler, bool]:
        """``(sampler, False)`` for the fitted class ``(i, j, x)``.  The flag is
        always ``False``, since no class draws from another's sampler; the
        benchmark tracer's ``fallbacks`` counter reads it."""
        self._row((i, j, x))
        return self.samplers[(i, j, x)], False

    def sigma_model_for(self, i: int, j: int) -> SigmaModel:
        return self.sigma_models.get((i, j)) or SigmaModel.constant(self.sigma_default)

    def charge_path(self, i: int, j: int, x: int, rng: np.random.Generator) -> np.ndarray:
        """Charge path ``c(1..x)``; identically zero in the idle state."""
        return self.charge_paths(i, j, x, 1, rng)[0]

    def charge_paths(
        self, i: int, j: int, x: int, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """``n`` charge paths ``c(1..x)`` of class ``(i, j, x)``, shape ``(n, x)``.

        The one-class case of :meth:`charge_block`: one ``sample_n(n)`` draws
        the ``(rho, tau, h)`` rows, then each row with noise draws its latent
        bridge, row after row.  For ``n = 1`` the draws are those of one
        sampler draw followed by one latent bridge.  Identically zero in the
        idle state.
        """
        keys = np.broadcast_to(np.array([[i], [j], [x]]), (3, n))
        return self.charge_block(*keys, rng).reshape(n, x)

    def charge_block(self, i, j, x, rng: np.random.Generator) -> np.ndarray:
        """Charges ``c(1..x)`` of many runs from one vectorised pass, laid end to end.

        ``i``, ``j`` and ``x`` hold each run's class; the runs may come in
        any order.  Returns the ``x[r]`` charges of every run at that run's
        offset in the given order.  The runs are drawn sorted by class ``(i,
        j, x)``, a stable sort that keeps each class's runs in their given
        order, so interleaving the classes changes no run's charges.  Idle
        runs are zeros and draw nothing.  A state, successor or sojourn that
        is not a whole number raises :class:`InputError` naming it.  Each
        volatility is predicted from its row, one :func:`predict_sigma_batch`
        per ``(i, j)`` pair; volatilities at the floor draw no bridge and give
        the clipped triangle.  Every value lies in ``[0, rho - (k-1)*limit]``;
        the pinned zeros at ``k = 0`` and ``k = x+1`` are not stored.  A
        one-step run predicts no volatility and draws no bridge: it is its
        peak clipped into the band, ``min(max(h, 0), rho)``.

        Stream rule, all from ``rng``:

        1. the ``(rho, tau, h)`` rows of every non-idle class, drawn from the
           model's copula table by the rounds of :func:`sample_classes`: each
           round draws one ``(S, 3)`` normal array, of which every class still
           short of rows takes ``max(short, 64)`` candidates in sorted class
           order, keeping its first accepted ones in order.  Candidates past a class's last kept
           one are drawn but not evaluated, which moves nothing while
           ``MAX_REJECTIONS > 63`` (see :func:`sample_classes`);
        2. every bridge with volatility above the floor, by
           :func:`latent_bridges`, run after run in sorted order: each
           takes its ``tau`` normals and then, if ``tau < x``, its
           ``x+1-tau``, as a one-row :func:`sample_latent_bridge` does.

        With one class this is one :meth:`EmpiricalCopulaSampler.sample_n`
        followed by one one-row :func:`sample_latent_bridge` per noisy row.
        The copula rounds work through whole classes and the bridges through
        runs, about ``CHUNK_POINTS`` candidates or points at a time, each
        chunk drawing its own slice of the normals in turn; that bounds the
        temporaries of long blocks and changes no draw.
        """
        i, j, x = (_whole(name, v) for name, v in (("state", i), ("successor", j), ("sojourn", x)))
        if x.size and x.min() < 1:
            raise InputError(f"sojourn must be >= 1, got {x.min()}")
        out = np.zeros(int(x.sum()))
        order = np.lexsort((x, j, i))
        live = order[i[order] != 0]
        offset = (np.cumsum(x) - x)[live]
        i, j, x = i[live], j[live], x[live]
        if live.size == 0:
            return out
        starts = np.flatnonzero(np.r_[True, (np.diff(i) != 0) | (np.diff(j) != 0) | (np.diff(x) != 0)])
        counts = np.diff(np.r_[starts, live.size])
        keys = list(zip(i[starts].tolist(), j[starts].tolist(), x[starts].tolist()))
        rows = [self._row(key) for key in keys]
        names = [f"(i={a}, j={b}, x={c})" for a, b, c in keys]
        rho, tau, h = self._table.draw(rows, counts, rng, names)

        sigma = np.zeros(live.size)
        pair = np.flatnonzero(np.r_[True, (np.diff(i) != 0) | (np.diff(j) != 0)])
        for lo, hi in zip(pair.tolist(), np.r_[pair[1:], live.size].tolist()):
            rows = lo + np.flatnonzero(x[lo:hi] > 1)  # a one-step run has no bridge to scale
            if rows.size:
                model = self.sigma_model_for(int(i[lo]), int(j[lo]))
                sigma[rows] = predict_sigma_batch(model, rho[rows], tau[rows], h[rows], x[rows])
        # volatilities within rounding of the floor count as "no noise"
        noisy = sigma > SIGMA_FLOOR * (1.0 + 1e-9)
        normals = np.where(noisy, x + (tau < x), 0)
        for lo, hi in _chunks(x):
            run, col = _ragged(x[lo:hi])
            run += lo
            bridged = lo + np.flatnonzero(noisy[lo:hi])
            latent = np.zeros(run.size)
            latent[noisy[run]] = latent_bridges(
                x[bridged], tau[bridged], sigma[bridged], rng.standard_normal(int(normals[lo:hi].sum()))
            )
            values, lower = clip_to_band(
                latent, rho[run], tau[run], h[run], x[run], col + 1.0, self.limit
            )
            out[offset[run] + col] = -lower + values
        return out


@dataclass
class PenaltyPath:
    """One simulated trajectory of the battery state, its SOC and its penalties.

    Each array has shape ``(horizon+1,)``, over ``k = 0..horizon``.
    ``states`` is ``int8``; ``soc[0]`` is the initial SOC and
    ``penalty[0] == 0``.  The discounted cumulative penalty ``W`` is
    :func:`discounted_penalty` of ``penalty``, taken where it is read.
    """

    states: np.ndarray
    soc: np.ndarray
    penalty: np.ndarray


def discounted_penalty(penalty: np.ndarray, rate: float) -> np.ndarray:
    """Running sum of ``penalty[..., m] * exp(-rate * m)`` along the last axis.

    Nondecreasing for nonnegative penalties; a rate that is not finite and
    nonnegative raises :class:`InputError`.  Rows of a 2-d array
    are independent paths or windows, each discounted from its own column 0;
    a 2-d cumsum adds along each row in the order a 1-d one does, so every row
    equals the one-row result bit for bit.
    """
    if not (np.isfinite(rate) and rate >= 0):
        raise InputError(f"discount rate must be finite and nonnegative, got {rate}")
    m = np.asarray(penalty, dtype=float)
    weights = np.exp(-rate * np.arange(m.shape[-1]))
    return np.cumsum(m * weights, axis=-1)


def battery_recursion(
    states: np.ndarray,
    charges: np.ndarray,
    battery: BatterySpec,
    fees: PenaltySpec,
    soc0,
) -> tuple[np.ndarray, np.ndarray]:
    """Capped state-of-charge and penalty recursion over aligned steps.

    Charging (+1) moves the SOC up, capped at ``soc_max``; discharging (-1)
    moves it down, floored at ``soc_min``; idle (0) leaves it unchanged.  The
    fee is charged on whatever part of the charge did not fit.  ``states`` and
    ``charges`` are one ``(T,)`` row with a scalar ``soc0``, or a ``(P, T)``
    block with one ``soc0`` per row; ``(soc, penalty)`` come back in the same
    shape.  Step 0 holds ``soc0`` and a zero penalty: its state and charge are
    never used.

    Each step is one clamp, ``S = min(max(S + d, soc_min), soc_max)``, with
    the signed charge ``d`` equal to ``+c``, ``-c`` or ``0`` by state: the
    two-sided reflection of the charge walk on the band.  It gives the
    one-branch-per-state recursion bit for bit only while every charge is
    nonnegative and every SOC starts in the band, so a misaligned shape, an
    initial SOC outside the band, and, at steps 1 and on, a state other than
    -1, 0 or 1 or a negative or non-finite charge raise :class:`InputError`
    naming the row and step.  The fees are computed afterwards from the SOC
    before each step in one array pass, about ``CHUNK_POINTS`` values at a
    time.  Penalties fall as ``soc_max`` grows only up to rounding (172 of
    50,000 entries rose, by at most 7.1e-15), so compare a sizing curve with
    a tolerance.

    The path is chosen by row count.  One row runs the clamp on Python floats;
    two or more run it column by column on the ``P``-vector of SOCs, with
    three in-place ufuncs a step.  Measured on 2 cores with Python 3.11, the
    column form costs about 2 us a step for any small ``P`` and the float
    form about 0.14 us a step and row: one 87,648-step row takes 0.012 s as
    floats and about 0.2 s as columns, 128 rows of 721 steps take 4 ms as
    columns, and at 721 steps the two break even near 15 rows.
    """
    z = np.asarray(states)
    c = np.asarray(charges, dtype=float)
    if z.shape != c.shape or z.ndim not in (1, 2):
        raise InputError(f"states {z.shape} and charges {c.shape} must be one aligned row or block")
    if z.shape[-1] == 0:
        raise InputError("need at least one step")
    one_row = z.ndim == 1
    z, c = np.atleast_2d(z, c)
    s0 = np.asarray(soc0, dtype=float).reshape(-1)
    lo, hi = battery.soc_min, battery.soc_max
    if s0.size != z.shape[0]:
        raise InputError(f"soc0 has {s0.size} entries for {z.shape[0]} rows")
    _first_bad("initial SOC", s0, ~((s0 >= lo) & (s0 <= hi)), f"must lie in [{lo}, {hi}]")
    z1, c1 = z[:, 1:], c[:, 1:]  # step 0's state and charge are never used
    _first_bad("state", z1, (z1 != 1) & (z1 != 0) & (z1 != -1), "must be -1, 0 or 1")
    _first_bad("charge", c1, ~(np.isfinite(c1) & (c1 >= 0.0)), "must be finite and nonnegative")

    n_rows, n_steps = c.shape
    soc = np.empty((n_rows, n_steps))
    soc[:, 0] = s0
    # the signed charges wait in the penalty buffer until the fee pass
    penalty = np.multiply(z, c, out=np.empty((n_rows, n_steps)))
    if n_rows == 1:
        s = float(s0[0])
        path = [s]
        # the clamp spelt out: same values as min(max(...)), a fifth of its time
        for d in penalty[0, 1:].tolist():
            s += d
            if s < lo:
                s = lo
            elif s > hi:
                s = hi
            path.append(s)
        soc[0] = path
    else:
        for t in range(1, n_steps):
            col = soc[:, t]
            np.add(soc[:, t - 1], penalty[:, t], out=col)
            np.maximum(col, lo, out=col)
            np.minimum(col, hi, out=col)

    penalty[:, 0] = 0.0
    for a, b in _chunks(np.full(n_steps - 1, n_rows)):
        prev, cc, zz = soc[:, a:b], c[:, a + 1 : b + 1], z[:, a + 1 : b + 1]
        up = fees.up_fee * np.maximum(cc - (hi - prev), 0.0)
        down = fees.down_fee * np.maximum(cc - (prev - lo), 0.0)
        penalty[:, a + 1 : b + 1] = np.where(zz == 1, up, np.where(zz == -1, down, 0.0))
    return (soc[0], penalty[0]) if one_row else (soc, penalty)


def _first_bad(what: str, values: np.ndarray, bad: np.ndarray, rule: str) -> None:
    """Raise an :class:`InputError` naming the first flagged entry of a row or block.

    ``values`` and ``bad`` are ``(P,)`` per row or ``(P, T-1)`` over steps
    ``1..T-1``.
    """
    if bad.any():
        where = np.argwhere(bad)[0]
        at = f"row {where[0]}" + (f", step {where[1] + 1}" if bad.ndim == 2 else "")
        raise InputError(f"{what} at {at} {rule}, got {values[tuple(where)]}")


def _check_horizon(horizon: int) -> None:
    """Reject a penalty window that is not a whole number of steps, at least one."""
    _check_integer("horizon", horizon)
    if horizon < 1:
        raise InputError(f"horizon must be >= 1, got {horizon}")


def sample_step_grids(
    kernel: SemiMarkovKernel,
    charge_model: ChargeModel,
    initial_states,
    rng: np.random.Generator,
    initial_backwards,
    *,
    horizon: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-step states and charges of a block of paths, one per entry of ``initial_states``.

    Row ``n`` starts in state ``initial_states[n]``, ``initial_backwards[n]``
    steps into its first sojourn, whose total length is drawn
    conditional on exceeding that.  Two phases, all from ``rng``:

    1. the jump chains of every row, round by round, until its time passes
       ``horizon`` (:meth:`SemiMarkovKernel.sample_chains`, which reads the
       start arrays);
    2. the charges of every segment of the block, row by row and in time
       order, from one :meth:`ChargeModel.charge_block` pass (the stream
       rule is in its docstring).

    The segments of the block, laid end to end, give one state per step
    (each entered state repeated over its sojourn) and one charge per step.
    A row's segments tile its time from ``-initial_backwards[n]`` on and run
    past ``horizon``, so its steps ``0..horizon`` are one window of
    ``horizon+1`` consecutive entries, ``initial_backwards[n]`` past the start
    of its first segment: a segment entered with backward time ``b`` skips
    its first ``b`` charge values.

    Returns ``(states, charges)``, an ``int8`` and a float grid of shape
    ``(P, horizon+1)``; step 0's charge is never used.  Neither depends on
    the battery, so :func:`battery_recursion` prices one block for any
    number of batteries on common random numbers.
    """
    _check_horizon(horizon)
    chain, sojourn = kernel.sample_chains(initial_states, rng, initial_backwards, horizon=horizon)
    row, rnd = np.nonzero(sojourn)  # row by row, each row's segments in time order
    i, x = chain[row, rnd], sojourn[row, rnd]
    charge = charge_model.charge_block(i, chain[row, rnd + 1], x, rng)
    state = np.repeat(i.astype(np.int8), x)
    length = sojourn.sum(axis=1)
    start = np.cumsum(length) - length + np.ravel(initial_backwards).astype(int)
    window = start[:, None] + np.arange(horizon + 1)
    return state[window], charge[window]


def simulate_penalty_path(
    kernel: SemiMarkovKernel,
    charge_model: ChargeModel,
    battery: BatterySpec,
    fees: PenaltySpec,
    *,
    horizon: int,
    initial_state: int = 0,
    initial_soc: float | None = None,
    initial_backward: int = 0,
    seed=None,
) -> PenaltyPath:
    """One row of :func:`sample_step_grids` priced by :func:`battery_recursion`.

    ``seed`` may be a generator; ``initial_soc`` defaults to
    ``battery.soc_init``.  A positive ``initial_backward`` resumes ``b``
    steps into the first sojourn: its total length is drawn conditional on
    exceeding ``b`` and the first ``b`` charge values are skipped.
    """
    states, charges = sample_step_grids(
        kernel, charge_model, [initial_state], np.random.default_rng(seed), [initial_backward],
        horizon=horizon,
    )
    soc0 = battery.soc_init if initial_soc is None else initial_soc
    return PenaltyPath(states[0], *battery_recursion(states[0], charges[0], battery, fees, soc0))


@dataclass
class MomentTable:
    """Per-step sampling moments of the discounted cumulative penalty."""

    steps: np.ndarray
    mean: np.ndarray
    second: np.ndarray
    std: np.ndarray
    se_mean: np.ndarray


def mc_moments(windows: np.ndarray, discount_rate: float = 0.0) -> MomentTable:
    """Sampling moments of ``W(t) = sum_{1<=k<=t} M(k) exp(-r k)``, ``t = 1..T``.

    ``windows`` has shape ``(n, T)``: row ``n`` holds ``M(1..T)`` of the
    ``n``-th path or observed window, each discounted from its own step 0.
    Returns the per-step mean, raw second moment, sample standard deviation
    (n-1 denominator) and Monte Carlo standard error of the mean.
    """
    m = np.asarray(windows, dtype=float)
    if m.ndim != 2 or m.shape[0] < 2 or m.shape[1] < 1:
        raise InputError(f"need (n, T) windows with n >= 2 and T >= 1, got shape {m.shape}")
    n, steps = m.shape
    # step 0 enters as -0.0, the exact additive identity, so every sum starts
    # at step 1 bit for bit
    padded = np.full((n, steps + 1), -0.0)
    padded[:, 1:] = m
    w = discounted_penalty(padded, discount_rate)[:, 1:]
    std = w.std(axis=0, ddof=1)
    return MomentTable(
        steps=np.arange(1, steps + 1),
        mean=w.mean(axis=0),
        second=(w**2).mean(axis=0),
        std=std,
        se_mean=std / np.sqrt(n),
    )
