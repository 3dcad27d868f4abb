from dataclasses import replace

import numpy as np
import pytest

from windbridge.estimation import EmpiricalCopulaSampler
from windbridge.pipeline import build_model_doc, charge_model_from_doc
from windbridge.power import (
    DEFAULT_TURBINE,
    PowerSeries,
    RampPolicy,
    apply_ramp_limit,
    generate_synthetic_wind,
    wind_to_power,
)
from windbridge.segmentation import STATES, estimate_kernel, extract_segments

LIMIT = 0.02
CAPACITY = DEFAULT_TURBINE.rated_capacity


def nested_q(kernel):
    """The kernel's nested form ``q[i][j][x]`` with int keys, read from its ``to_dict``."""
    return {
        int(i): {int(j): {int(x): v for x, v in kk.items()} for j, kk in jj.items()}
        for i, jj in kernel.to_dict()["q"].items()
    }


def kernel_states(kernel):
    """The states the kernel leaves, in order."""
    return [i for i in STATES if kernel.Q[i + 1].any()]


def sojourn_pmf(kernel, i):
    """The sojourns of ``i`` with positive probability, and their probabilities."""
    h = kernel.Q[i + 1].sum(axis=0)
    xs = np.flatnonzero(h)
    return xs, h[xs]


def successor_pmf(kernel, i, x):
    """``Q[i + 1, j + 1, x] / h_i(x)`` for every successor ``j`` with positive probability."""
    column = kernel.Q[i + 1, :, x]
    return {j: float(p) for j, p in zip(STATES, column / column.sum()) if p > 0.0}


def fixed_count_chains(kernel, initial_states, rng, n):
    """``n`` jumps of every row, drawn round by round as ``sample_chains`` draws them.

    Each round draws every row's sojourn, then its successor; round 0
    conditions the sojourns on exceeding zero steps, as ``sample_chains``
    does.  Returns ``(states, sojourns)`` of shapes ``(P, n + 1)`` and ``(P, n)``.
    """
    state = np.array(initial_states, dtype=int)
    states, sojourns = [state], []
    for r in range(n):
        x = kernel.sample_sojourns(state, rng, np.zeros(state.size, dtype=int) if r == 0 else None)
        state = kernel.sample_successors(state, x, rng)
        states.append(state)
        sojourns.append(x)
    return np.column_stack(states), np.column_stack(sojourns)


def occupancy(kernel, i, b, horizon):
    """The exact law ``P(Z_t = j)`` of the state at ``t = 0..horizon`` of a path
    started in state ``i``, ``b`` steps into its sojourn; row ``j + 1`` of a
    ``(3, horizon + 1)`` array.

    Solves the Markov renewal equation on ``kernel.Q``, each source row scaled
    to sum to 1 as the draws scale it.  With ``S_k(n) = P(X_k > n)``, the
    density ``r_j(s)`` of a jump into ``j`` at time ``s`` obeys
    ``r_j(s) = Q[i,j,b+s]/S_i(b) + sum_k sum_{1<=u<s} r_k(u) Q[k,j,s-u]``, and
    ``P(Z_t = j) = 1{j=i} S_i(b+t)/S_i(b) + sum_{1<=u<=t} r_j(u) S_j(t-u)``
    (Barbu & Limnios, *Semi-Markov Chains and Hidden Semi-Markov Models*, 2008,
    ch. 3).
    """
    total = kernel.Q.sum(axis=(1, 2))
    q = np.zeros((3, 3, max(kernel.Q.shape[2], b + horizon + 1)))
    q[:, :, : kernel.Q.shape[2]] = kernel.Q / np.where(total > 0.0, total, 1.0)[:, None, None]
    h = q.sum(axis=1)
    survive = np.zeros_like(h)  # S_k(n) = sum_{x > n} h_k(x), zero past the longest sojourn
    survive[:, :-1] = np.cumsum(h[:, ::-1], axis=1)[:, ::-1][:, 1:]

    first = survive[i + 1, b]
    r = np.zeros((3, horizon + 1))
    r[:, 1:] = q[i + 1, :, b + 1 : b + horizon + 1] / first
    for s in range(2, horizon + 1):
        u = np.arange(1, s)
        r[:, s] += np.einsum("ku,kju->j", r[:, u], q[:, :, s - u])
    law = np.zeros((3, horizon + 1))
    law[i + 1] = survive[i + 1, b : b + horizon + 1] / first
    for t in range(1, horizon + 1):
        u = np.arange(1, t + 1)
        law[:, t] += (r[:, u] * survive[:, t - u]).sum(axis=1)
    return law


def jump_times(sojourns, initial_backwards):
    """Column ``r`` is when each row entered its state ``r``; column 0 is 0.

    A row that starts ``b`` steps into its first sojourn ``x`` first jumps at
    ``x - b``; past a row's last jump its zero sojourns repeat its end time.
    """
    times = np.cumsum(sojourns, axis=1) - np.asarray(initial_backwards)[:, None]
    return np.column_stack((np.zeros(len(sojourns), dtype=int), times))


class DegenerateSampler(EmpiricalCopulaSampler):
    """Always returns one fixed triplet: a stand-in for a fitted sampler.

    A copula over one-point marginals, so it draws as a fitted sampler does
    (one round of at least 64 candidates).  Its support is narrowed to a box
    around the point, which need not lie in the attainable support it is
    given.
    """

    def __init__(self, support, rho: float, tau: int, h: float):
        # at rho, h_max(rho, tau) = h + limit, the box's ceiling at the point
        box = replace(
            support, rho_min=rho, rho_max=rho, h_offset=h + (tau + 1) * support.limit - rho
        )
        super().__init__(box, np.eye(3), ([rho], [tau], [h]), n_obs=1)


@pytest.fixture(scope="session")
def corrected_series():
    """20k hours of synthetic wind power, ramp-corrected at 1% of capacity."""
    speeds = generate_synthetic_wind(20_000, 2.0, 8.0, 0.9, seed=42)
    series = PowerSeries(generated=wind_to_power(speeds, DEFAULT_TURBINE))
    return apply_ramp_limit(series, RampPolicy(limit=LIMIT), capacity=CAPACITY)


@pytest.fixture(scope="session")
def renewal_data(corrected_series):
    """Per-step states and the segment table of ``corrected_series``."""
    return extract_segments(corrected_series)


@pytest.fixture(scope="session")
def fitted_kernel(renewal_data):
    _, table = renewal_data
    done = ~table.censored
    return estimate_kernel(table.i[done], table.j[done], table.x[done])


@pytest.fixture(scope="session")
def fitted_model(renewal_data):
    _, table = renewal_data
    doc = build_model_doc(table, limit=LIMIT, capacity=CAPACITY, seed_key=(7,))
    return charge_model_from_doc(doc)
