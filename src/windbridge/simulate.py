"""Path simulation: per-segment charge paths, battery SOC and penalty paths,
and Monte Carlo estimation of the discounted cumulative penalty moments.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .bridge import (
    SIGMA_FLOOR,
    BridgeParams,
    clip_error,
    sample_latent_bridge,
)
from .errors import InputError, SimulationError
from .estimation import (
    ParamSampler,
    SigmaModel,
    attainable_param_support,
    predict_sigma_batch,
)
from .segmentation import SemiMarkovKernel

__all__ = [
    "BatterySpec",
    "PenaltySpec",
    "PenaltyPath",
    "ChargeModel",
    "DEFAULT_BATTERY",
    "DEFAULT_FEES",
    "battery_recursion",
    "simulate_penalty_path",
    "discounted_penalty",
    "window_sums",
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
        samplers: dict[tuple[int, int, int], ParamSampler],
        sigma_models: dict[tuple[int, int], SigmaModel],
        limit: float,
        capacity: float,
        sigma_default: float = SIGMA_FLOOR,
        sigma_floor: float = SIGMA_FLOOR,
    ):
        self.samplers = dict(samplers)
        self.sigma_models = dict(sigma_models)
        self.limit = float(limit)
        self.capacity = float(capacity)
        self.sigma_default = float(sigma_default)
        self.sigma_floor = float(sigma_floor)
        xs: dict[tuple[int, int], list[int]] = {}
        for (i, j, x) in self.samplers:
            xs.setdefault((i, j), []).append(x)
        self._x_by_pair = {pair: np.sort(np.asarray(v)) for pair, v in xs.items()}

    def sampler_for(self, i: int, j: int, x: int) -> tuple[ParamSampler, bool]:
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
            return SigmaModel.constant(self.sigma_default, self.sigma_floor)
        return model

    def charge_path(self, i: int, j: int, x: int, rng: np.random.Generator) -> np.ndarray:
        """Charge path ``c(0..x+1)``; identically zero in the idle state."""
        return self.charge_paths(i, j, x, 1, rng)[0]

    def charge_paths(
        self, i: int, j: int, x: int, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """``n`` charge paths ``c(0..x+1)`` of class ``(i, j, x)``, shape ``(n, x+2)``.

        One ``sample_n(n)`` draws the ``(rho, tau, h)`` rows, each volatility
        is predicted from its row, and the latent bridges are sampled one
        group of equal ``tau`` at a time, in increasing ``tau``; volatilities
        at the floor draw no bridge and give the clipped triangle.  Every
        value lies in ``[0, rho - (k-1)*limit]`` and the endpoints are exactly
        zero.  For ``n = 1`` the draws are those of one sampler draw followed
        by one latent bridge.  Identically zero in the idle state.
        """
        if x < 1:
            raise InputError(f"sojourn must be >= 1, got {x}")
        out = np.zeros((n, x + 2))
        if i == 0:
            return out
        sampler, fell_back = self.sampler_for(i, j, x)
        rho, tau, h = sampler.sample_n(n, rng)
        if fell_back:
            rho, tau, h = self._clamp_to_sojourn(i, j, x, rho, tau, h)
        sigma = predict_sigma_batch(self.sigma_model_for(i, j), rho, tau, h, x)
        if x == 1:
            out[:, 1] = np.minimum(np.maximum(h, 0.0), rho)
            return out
        params = BridgeParams(rho=rho, tau=tau, h=h, sigma=sigma)
        # rows by peak time; volatilities within rounding of the floor count
        # as "no noise" and draw no bridge
        groups: dict[int, list[int]] = {}
        noise_floor = self.sigma_floor * (1.0 + 1e-9)
        for r, (t, s) in enumerate(zip(tau.tolist(), sigma.tolist())):
            if s > noise_floor:
                groups.setdefault(t, []).append(r)
        latent = np.zeros((n, x))
        for t in sorted(groups):
            rows = groups[t]
            latent[rows] = sample_latent_bridge(x, t, sigma[rows], rng, n_paths=len(rows))
        err = clip_error(latent, params, x, self.limit)
        out[:, 1 : x + 1] = err.triangle + err.values
        return out

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


def window_sums(windows: np.ndarray, rate: float) -> np.ndarray:
    """``W(t) = sum_{1<=k<=t} M(k) exp(-rate k)`` for each row of ``windows``.

    ``windows`` has shape ``(n, T)`` and holds ``M(1..T)``; the result has the
    same shape.  Step 0 enters as ``-0.0``, the exact additive identity, so
    every sum starts at step 1 bit for bit.
    """
    n, steps = windows.shape
    padded = np.full((n, steps + 1), -0.0)
    padded[:, 1:] = windows
    return discounted_penalty(padded, rate)[:, 1:]


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

    Sojourns come from the kernel's sojourn marginal, successors from its
    conditional transition law, charges from ``charge_model``, and the SOC
    and penalty from :func:`battery_recursion`.  A positive
    ``initial_backward`` resumes ``b`` steps into the first sojourn: its total
    length is drawn conditional on exceeding ``b`` and the first ``b`` charge
    values are skipped.

    Runs ``n_transitions`` jumps or until ``horizon`` steps are covered,
    whichever comes first (at least one of the two must be given).
    """
    if n_transitions is None and horizon is None:
        raise InputError("give n_transitions, horizon, or both")
    if n_transitions is not None and n_transitions < 1:
        raise InputError("need at least one transition")
    if initial_backward < 0:
        raise InputError("backward time must be nonnegative")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    soc0 = battery.soc_init if initial_soc is None else float(initial_soc)
    if not battery.soc_min <= soc0 <= battery.soc_max:
        raise InputError(f"initial SOC {soc0} outside the battery band")

    states = [int(initial_state)]
    jump_times = [0]
    backward = [int(initial_backward)]
    step_states: list[int] = [int(initial_state)]
    step_charges = [0.0]

    state = int(initial_state)
    time = 0
    n = 0
    truncated = False
    while not truncated:
        if n_transitions is not None and n >= n_transitions:
            break
        if horizon is not None and time > horizon:
            break
        offset = initial_backward if n == 0 else 0
        x = kernel.sample_sojourn(state, rng, longer_than=offset)
        nxt = kernel.sample_successor(state, x, rng)
        charges = charge_model.charge_path(state, nxt, x, rng)
        # The segment entered at `time` covers steps time..time+x-offset-1;
        # the charge at step t has in-segment index B(t)+1.  S(0) is exogenous,
        # so the charge landing on step 0 never moves it.
        for d in range(x - offset):
            t = time + d
            if t == 0:
                continue
            if horizon is not None and t > horizon:
                truncated = True
                break
            step_charges.append(charges[offset + d + 1])
            backward.append(offset + d)
            step_states.append(state)
        time += x - offset
        jump_times.append(time)
        states.append(nxt)
        state = nxt
        n += 1

    z = np.asarray(step_states, dtype=int)
    soc, penalty = battery_recursion(z, step_charges, battery, fees, soc0)
    return PenaltyPath(
        states=np.asarray(states, dtype=int),
        jump_times=np.asarray(jump_times, dtype=int),
        step_states=z,
        soc=soc,
        penalty=penalty,
        discounted=discounted_penalty(penalty, fees.discount_rate),
        backward=np.asarray(backward, dtype=int),
    )


@dataclass
class MomentTable:
    """Per-step sampling moments of the discounted cumulative penalty."""

    steps: np.ndarray
    moments: list[np.ndarray] = field(default_factory=list)
    mean: np.ndarray = field(default=None)  # type: ignore[assignment]
    std: np.ndarray = field(default=None)  # type: ignore[assignment]
    se_mean: np.ndarray = field(default=None)  # type: ignore[assignment]
    n_paths: int = 0


def mc_moments(
    path_generator,
    n_paths: int,
    horizon: int,
    order: int = 2,
    fees: PenaltySpec = DEFAULT_FEES,
) -> MomentTable:
    """Monte Carlo sampling moments of ``W(t) = sum_{k<=t} M(k) exp(-r k)``.

    ``path_generator(n)`` must return the penalty array ``M(0..>=horizon)`` of
    the ``n``-th path.  Returns the first ``order`` raw moments per step plus
    the sample standard deviation (n-1 denominator) and the Monte Carlo
    standard error of the mean.
    """
    if n_paths < 2:
        raise InputError("need at least 2 paths for moment estimates")
    if order < 1:
        raise InputError("moment order must be >= 1")
    if horizon < 1:
        raise InputError("horizon must be >= 1")
    m_paths = np.empty((n_paths, horizon))
    for n in range(n_paths):
        try:
            m = np.asarray(path_generator(n), dtype=float)
        except Exception as exc:  # noqa: BLE001 - annotate the failing path
            raise SimulationError(f"path {n} failed: {exc}") from exc
        if m.size < horizon + 1:
            raise SimulationError(
                f"path {n} covers {m.size - 1} steps, needs at least {horizon}"
            )
        m_paths[n] = m[1 : horizon + 1]
    w = window_sums(m_paths, fees.discount_rate)
    moments = [w.mean(axis=0)]
    for a in range(2, order + 1):
        moments.append((w**a).mean(axis=0))
    std = w.std(axis=0, ddof=1)
    return MomentTable(
        steps=np.arange(1, horizon + 1),
        moments=moments,
        mean=moments[0],
        std=std,
        se_mean=std / np.sqrt(n_paths),
        n_paths=n_paths,
    )
