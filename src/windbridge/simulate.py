"""Path simulation: per-segment charge paths, battery SOC and penalty paths,
and Monte Carlo estimation of the discounted cumulative penalty moments.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .bridge import (
    SIGMA_FLOOR,
    BridgeParams,
    clip_error,
    sample_latent_bridge,
)
from .errors import InputError, SimulationError
from .estimation import (
    EmpiricalCopulaSampler,
    SigmaModel,
    attainable_param_support,
    predict_sigma_batch,
)
from .power import require_finite
from .segmentation import SemiMarkovKernel

__all__ = [
    "BatterySpec",
    "PenaltySpec",
    "PenaltyPath",
    "ChargeModel",
    "DEFAULT_BATTERY",
    "DEFAULT_FEES",
    "battery_recursion",
    "simulate_penalty_paths",
    "simulate_penalty_path",
    "discounted_penalty",
    "MomentTable",
    "mc_moments",
]

logger = logging.getLogger(__name__)


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
    """Registry of fitted samplers and volatility models for one ramp limit.

    Sojourns without a fitted sampler for their (i, j) pair fall back to the
    nearest fitted sojourn length, with the drawn parameters clamped into the
    support of the actual length; a length that no attainable ``rho`` can
    carry raises :class:`SimulationError`.
    """

    def __init__(
        self,
        samplers: dict[tuple[int, int, int], EmpiricalCopulaSampler],
        sigma_models: dict[tuple[int, int], SigmaModel],
        limit: float,
        capacity: float,
        sigma_default: float = SIGMA_FLOOR,
    ):
        self.samplers = dict(samplers)
        self.sigma_models = dict(sigma_models)
        self.limit = float(limit)
        self.capacity = float(capacity)
        self.sigma_default = float(sigma_default)
        xs: dict[tuple[int, int], list[int]] = {}
        for (i, j, x) in self.samplers:
            xs.setdefault((i, j), []).append(x)
        self._x_by_pair = {pair: np.sort(np.asarray(v)) for pair, v in xs.items()}

    def sampler_for(self, i: int, j: int, x: int) -> tuple[EmpiricalCopulaSampler, bool]:
        """Exact sampler if fitted, else the nearest-sojourn fallback."""
        key = (i, j, x)
        if key in self.samplers:
            return self.samplers[key], False
        xs = self._x_by_pair.get((i, j))
        if xs is None or xs.size == 0:
            raise SimulationError(f"no fitted sampler for pair (i={i}, j={j})")
        nearest = int(xs[np.argmin(np.abs(xs - x))])
        logger.debug("no sampler for (%d, %d, x=%d); falling back to x=%d", i, j, x, nearest)
        return self.samplers[(i, j, nearest)], True

    def sigma_model_for(self, i: int, j: int) -> SigmaModel:
        model = self.sigma_models.get((i, j))
        if model is None:
            return SigmaModel.constant(self.sigma_default)
        return model

    def charge_path(self, i: int, j: int, x: int, rng: np.random.Generator) -> np.ndarray:
        """Charge path ``c(1..x)``; identically zero in the idle state."""
        return self.charge_paths(i, j, x, 1, rng)[0]

    def charge_paths(
        self, i: int, j: int, x: int, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """``n`` charge paths ``c(1..x)`` of class ``(i, j, x)``, shape ``(n, x)``.

        One ``sample_n(n)`` draws the ``(rho, tau, h)`` rows, each volatility
        is predicted from its row, and the latent bridges are sampled one
        group of equal ``tau`` at a time, in increasing ``tau``; volatilities
        at the floor draw no bridge and give the clipped triangle.  Every
        value lies in ``[0, rho - (k-1)*limit]``; the pinned zeros at ``k = 0``
        and ``k = x+1`` are not stored.  For ``n = 1`` the draws are those of
        one sampler draw followed by one latent bridge.  A one-step path is
        ``min(max(h, 0), rho)`` and predicts no volatility.  Identically zero
        in the idle state.
        """
        if x < 1:
            raise InputError(f"sojourn must be >= 1, got {x}")
        if i == 0:
            return np.zeros((n, x))
        sampler, fell_back = self.sampler_for(i, j, x)
        rho, tau, h = sampler.sample_n(n, rng)
        if fell_back:
            rho, tau, h = self._clamp_to_sojourn(i, j, x, rho, tau, h)
        if x == 1:
            return np.minimum(np.maximum(h, 0.0), rho)[:, None]
        sigma = predict_sigma_batch(self.sigma_model_for(i, j), rho, tau, h, x)
        params = BridgeParams(rho=rho, tau=tau, h=h, sigma=sigma)
        # rows by peak time; volatilities within rounding of the floor count
        # as "no noise" and draw no bridge
        groups: dict[int, list[int]] = {}
        noise_floor = SIGMA_FLOOR * (1.0 + 1e-9)
        for r, (t, s) in enumerate(zip(tau.tolist(), sigma.tolist())):
            if s > noise_floor:
                groups.setdefault(t, []).append(r)
        latent = np.zeros((n, x))
        for t in sorted(groups):
            rows = groups[t]
            latent[rows] = sample_latent_bridge(x, t, sigma[rows], rng, n_paths=len(rows))
        err = clip_error(latent, params, x, self.limit)
        return err.triangle + err.values

    def _clamp_to_sojourn(
        self, i: int, j: int, x: int, rho: np.ndarray, tau: np.ndarray, h: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Move nearest-sojourn draws into the attainable support of length ``x``.

        ``rho`` is also floored at ``(x-1)*limit``, the least ceiling under
        which a charge path of ``x`` steps stays nonnegative.
        """
        support = attainable_param_support(i, x, self.limit, self.capacity)
        rho_needed = (x - 1) * self.limit
        if rho_needed > support.rho_max:
            raise SimulationError(
                f"no attainable rho covers a sojourn of {x} steps for "
                f"(i={i}, j={j}, x={x}): needs {rho_needed}, support ends at {support.rho_max}"
            )
        support = replace(support, rho_min=max(support.rho_min, rho_needed))
        rho, tau, h = support.clamp(rho, tau, h)
        return rho, tau.astype(int), h


@dataclass
class PenaltyPath:
    """One simulated trajectory of the battery and its penalties.

    Step arrays run over ``k = 0..T``; ``soc[0]`` is the initial state of
    charge and ``penalty[0] == 0``.  ``discounted`` is the running
    discount-weighted sum of ``penalty``.
    """

    states: np.ndarray
    jump_times: np.ndarray
    step_states: np.ndarray
    soc: np.ndarray
    penalty: np.ndarray
    discounted: np.ndarray
    backward: np.ndarray


def discounted_penalty(penalty: np.ndarray, rate: float) -> np.ndarray:
    """Running sum of ``penalty[..., m] * exp(-rate * m)`` along the last axis.

    Nondecreasing for r >= 0 and nonnegative penalties.  Rows of a 2-d array
    are independent paths or windows, each discounted from its own column 0.
    """
    if rate < 0:
        raise InputError("discount rate must be nonnegative")
    m = np.asarray(penalty, dtype=float)
    weights = np.exp(-rate * np.arange(m.shape[-1]))
    return np.cumsum(m * weights, axis=-1)


def battery_recursion(
    states: np.ndarray,
    charges: np.ndarray,
    battery: BatterySpec,
    fees: PenaltySpec,
    soc0: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Capped state-of-charge and penalty recursion over aligned steps.

    Charging (+1) moves the SOC up, capped at ``soc_max``; discharging (-1)
    moves it down, floored at ``soc_min``; the fee is charged on whatever part
    of the charge did not fit.  Any other state leaves the SOC unchanged.
    Step 0 holds ``soc0`` and a zero penalty: its state and charge are never
    used.  Returns ``(soc, penalty)`` with one entry per step.
    """
    zs = np.asarray(states).tolist()
    cs = np.asarray(charges, dtype=float).tolist()
    if not zs:
        raise InputError("need at least one step")
    s = float(soc0)
    soc = [s]
    penalty = [0.0]
    for state, c in zip(zs[1:], cs[1:]):
        if state == 1:
            m = fees.up_fee * max(c - (battery.soc_max - s), 0.0)
            s = min(s + c, battery.soc_max)
        elif state == -1:
            m = fees.down_fee * max(c - (s - battery.soc_min), 0.0)
            s = max(s - c, battery.soc_min)
        else:
            m = 0.0
        soc.append(s)
        penalty.append(m)
    return np.asarray(soc), np.asarray(penalty)


def simulate_penalty_paths(
    kernel: SemiMarkovKernel,
    charge_model: ChargeModel,
    battery: BatterySpec,
    fees: PenaltySpec,
    initial_states,
    rng: np.random.Generator,
    initial_socs=None,
    initial_backwards=None,
    horizon: int | None = None,
    n_transitions: int | None = None,
) -> list[PenaltyPath]:
    """Simulate a block of penalty paths, one per entry of ``initial_states``.

    Row ``n`` starts in state ``initial_states[n]`` with SOC
    ``initial_socs[n]`` (default ``battery.soc_init``), ``initial_backwards[n]``
    steps (default 0) into its first sojourn, whose total length is drawn
    conditional on exceeding that.  Three phases, all from ``rng``:

    1. the jump chains of every row, round by round
       (:meth:`SemiMarkovKernel.sample_chains`);
    2. the charges: one :meth:`ChargeModel.charge_paths` call per distinct
       ``(i, j, x)`` over the block, in sorted class order, scattered into a
       grid of per-step states and charges; a segment entered with backward
       time ``b`` skips its first ``b`` charge values;
    3. :func:`battery_recursion` row by row, then :func:`discounted_penalty`
       on the block.

    Each row runs ``n_transitions`` jumps or until ``horizon`` steps are
    covered, whichever comes first (at least one of the two must be given).
    """
    z0 = np.asarray(initial_states, dtype=int)
    n_rows = z0.size
    b0 = np.zeros(n_rows, dtype=int) if initial_backwards is None else np.asarray(initial_backwards, dtype=int)
    soc0 = np.full(n_rows, battery.soc_init) if initial_socs is None else np.asarray(initial_socs, dtype=float)
    outside = (soc0 < battery.soc_min) | (soc0 > battery.soc_max)
    if outside.any():
        raise InputError(f"initial SOC {soc0[outside][0]} outside the battery band")

    chains, length, states, backward, charges = _step_grids(
        kernel, charge_model, z0, b0, rng, horizon, n_transitions
    )
    soc = np.zeros(charges.shape)
    penalty = np.zeros(charges.shape)
    for n, steps in enumerate(length.tolist()):
        soc[n, :steps], penalty[n, :steps] = battery_recursion(
            states[n, :steps], charges[n, :steps], battery, fees, soc0[n]
        )
    # a 2-d cumsum adds along each row in the order a 1-d one does, so every
    # row equals its one-row result bit for bit
    discounted = discounted_penalty(penalty, fees.discount_rate)
    return [
        PenaltyPath(
            states=chains.states[n, : jumps + 1],
            jump_times=chains.jump_times[n, : jumps + 1],
            step_states=states[n, :steps],
            soc=soc[n, :steps],
            penalty=penalty[n, :steps],
            discounted=discounted[n, :steps],
            backward=backward[n, :steps],
        )
        for n, (steps, jumps) in enumerate(zip(length.tolist(), chains.counts.tolist()))
    ]


def _step_grids(kernel, charge_model, z0, b0, rng, horizon, n_transitions):
    """Phases 1 and 2 of :func:`simulate_penalty_paths`.

    Returns the jump chains, each row's step count, and ``(P, width)`` grids
    of per-step states, backward times and charges.  A function of its own so
    that the per-segment arrays are freed before phase 3 allocates its grids:
    at horizon 720 that lowers the peak resident memory by about 2 MB.
    """
    chains = kernel.sample_chains(z0, rng, b0, horizon=horizon, n_transitions=n_transitions)
    end = chains.jump_times[np.arange(z0.size), chains.counts]
    length = end if horizon is None else np.minimum(end, horizon + 1)
    width = int(length.max())

    # One entry per segment, row-major; then grouped by class, in sorted order.
    row, rnd = np.nonzero(np.arange(chains.sojourns.shape[1]) < chains.counts[:, None])
    i, j, x = chains.states[row, rnd], chains.states[row, rnd + 1], chains.sojourns[row, rnd]
    entry = chains.jump_times[row, rnd] - np.where(rnd == 0, b0[row], 0)
    order = np.lexsort((x, j, i))
    row, i, j, x, entry = row[order], i[order], j[order], x[order], entry[order]
    bounds = np.flatnonzero(np.diff(i) | np.diff(j) | np.diff(x)) + 1

    # Step t of a segment entered at time e has backward time t - e and
    # charge c(t - e + 1); steps before 0 were spent before the path began.
    # Step 0's charge is never used.
    states = np.zeros((z0.size, width), dtype=int)
    backward = np.zeros((z0.size, width), dtype=int)
    charges = np.zeros((z0.size, width))
    for lo, hi in zip(np.r_[0, bounds].tolist(), np.r_[bounds, row.size].tolist()):
        ci, cj, cx = int(i[lo]), int(j[lo]), int(x[lo])
        k = np.arange(cx)
        t = entry[lo:hi, None] + k
        keep = (t >= 0) & (t < width)
        r, t = np.broadcast_to(row[lo:hi, None], t.shape)[keep], t[keep]
        states[r, t] = ci
        backward[r, t] = np.broadcast_to(k, keep.shape)[keep]
        if ci != 0:
            charges[r, t] = charge_model.charge_paths(ci, cj, cx, hi - lo, rng)[keep]
    return chains, length, states, backward, charges


def simulate_penalty_path(
    kernel: SemiMarkovKernel,
    charge_model: ChargeModel,
    battery: BatterySpec,
    fees: PenaltySpec,
    n_transitions: int | None = None,
    initial_state: int = 0,
    initial_soc: float | None = None,
    initial_backward: int = 0,
    seed=None,
    horizon: int | None = None,
) -> PenaltyPath:
    """Simulate the renewal chain with its SOC and penalty processes.

    The one-row case of :func:`simulate_penalty_paths`.  A positive
    ``initial_backward`` resumes ``b`` steps into the first sojourn: its total
    length is drawn conditional on exceeding ``b`` and the first ``b`` charge
    values are skipped.  Runs ``n_transitions`` jumps or until ``horizon``
    steps are covered, whichever comes first (at least one of the two must be
    given).
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    soc0 = battery.soc_init if initial_soc is None else float(initial_soc)
    return simulate_penalty_paths(
        kernel, charge_model, battery, fees, [initial_state], rng,
        initial_socs=[soc0], initial_backwards=[initial_backward],
        horizon=horizon, n_transitions=n_transitions,
    )[0]


@dataclass
class MomentTable:
    """Per-step sampling moments of the discounted cumulative penalty."""

    steps: np.ndarray
    mean: np.ndarray
    second: np.ndarray
    std: np.ndarray
    se_mean: np.ndarray
    n_paths: int


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
        n_paths=n,
    )
