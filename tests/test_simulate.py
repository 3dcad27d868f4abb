from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from windbridge.bridge import (
    SIGMA_FLOOR,
    clip_error,
    sample_latent_bridge,
    triangle,
)
from windbridge.errors import EstimationError, InputError, SimulationError
from windbridge.estimation import (
    REGRESSOR_NAMES,
    EmpiricalCopulaSampler,
    SigmaModel,
    attainable_param_support,
    predict_sigma,
    predict_sigma_batch,
)
from windbridge.segmentation import SemiMarkovKernel
from windbridge.simulate import (
    BatterySpec,
    ChargeModel,
    PenaltySpec,
    battery_recursion,
    discounted_penalty,
    mc_moments,
    sample_step_grids,
    simulate_penalty_path,
)

from conftest import (
    DegenerateSampler,
    fixed_count_chains,
    jump_times,
    kernel_states,
    occupancy,
    sojourn_pmf,
    successor_pmf,
)

LIMIT = 0.02
CAPACITY = 2.0


def degenerate_model(entries, sigma=SIGMA_FLOOR):
    """ChargeModel with fixed parameters per (i, j, x)."""
    samplers = {}
    for (i, j, x), (rho, tau, h) in entries.items():
        sup = attainable_param_support(i, x, LIMIT, CAPACITY)
        samplers[(i, j, x)] = DegenerateSampler(sup, rho=rho, tau=tau, h=h)
    sigma_models = {key[:2]: SigmaModel.constant(sigma) for key in entries}
    return ChargeModel(
        samplers=samplers, sigma_models=sigma_models,
        limit=LIMIT, capacity=CAPACITY, sigma_default=sigma,
    )


def cycle_kernel(x=3):
    """Deterministic cycle +1 -> 0 -> -1 -> +1 with fixed sojourn."""
    q = {1: {0: {x: 1.0}}, 0: {-1: {x: 1.0}}, -1: {1: {x: 1.0}}}
    return SemiMarkovKernel(q, {1: 1, 0: 1, -1: 1})


CYCLE_ENTRIES = {(1, 0, 3): (1.9, 2, 0.5), (-1, 1, 3): (1.0, 2, 0.5)}


def cycle_oracle(state, backward, soc0, n_steps, battery, fees):
    """SOC, penalty and discounted sum of the x = 3 cycle under ``CYCLE_ENTRIES``,
    step by step, started ``backward`` steps into a sojourn in ``state``."""
    charge_for = {
        1: np.minimum(triangle(2, 0.5, 3, np.arange(5)), 1.9 - np.arange(-1, 4) * LIMIT),
        0: np.zeros(5),
        -1: np.minimum(triangle(2, 0.5, 3, np.arange(5)), 1.0 - np.arange(-1, 4) * LIMIT),
    }
    order = {1: 0, 0: -1, -1: 1}
    s_prev = soc0
    soc = [s_prev]
    pen = [0.0]
    seg_start = -backward
    for t in range(1, n_steps + 1):
        if t - seg_start >= 3:
            state = order[state]
            seg_start = t
        b = t - seg_start
        c = float(charge_for[state][b + 1])
        if state == 1:
            m = fees.up_fee * max(c - (battery.soc_max - s_prev), 0.0)
            s_prev = min(s_prev + c, battery.soc_max)
        elif state == -1:
            m = fees.down_fee * max(c - (s_prev - battery.soc_min), 0.0)
            s_prev = max(s_prev - c, battery.soc_min)
        else:
            m = 0.0
        soc.append(s_prev)
        pen.append(m)
    w = np.cumsum(np.asarray(pen) * np.exp(-fees.discount_rate * np.arange(n_steps + 1)))
    return np.asarray(soc), np.asarray(pen), w


def chains_and_backward(kernel, grid, seed, initial_states, initial_backwards=None):
    """The jump chains ``(states, sojourns)`` and backward-time grid of a block
    drawn from ``default_rng(seed)``.

    ``grid`` is the block's state grid, or one path's state row.  The jump
    chains are the first thing a block draws, so the same seed gives the same
    chains.  Backward times are read off them one step at a time, and the
    states they give must be the grid's.
    """
    grid = np.atleast_2d(grid)
    z0 = np.atleast_1d(initial_states)
    b0 = np.zeros(z0.size, dtype=int) if initial_backwards is None else np.atleast_1d(initial_backwards)
    horizon = grid.shape[1] - 1
    chain, sojourns = kernel.sample_chains(z0, np.random.default_rng(seed), b0, horizon=horizon)
    times = jump_times(sojourns, b0)
    states = np.zeros_like(grid)
    backward = np.zeros(grid.shape, dtype=int)
    for n, jumps in enumerate((sojourns > 0).sum(axis=1).tolist()):
        for r in range(jumps):
            entry = int(times[n, r]) - (int(b0[n]) if r == 0 else 0)
            for k in range(int(sojourns[n, r])):
                if 0 <= entry + k <= horizon:
                    states[n, entry + k] = chain[n, r]
                    backward[n, entry + k] = k
    np.testing.assert_array_equal(states, grid)
    return (chain, sojourns), backward


def oracle_charge_path(model, i, j, x, rng):
    """One charge path composed from the scalar primitives, step by step."""
    sampler, fell_back = model.sampler_for(i, j, x)
    rho, tau, h = (v[0] for v in sampler.sample_n(1, rng))
    rho, tau, h = float(rho), int(tau), float(h)
    if fell_back:
        sup = attainable_param_support(i, x, model.limit, model.capacity)
        rho = max(min(max(rho, sup.rho_min), sup.rho_max), (x - 1) * model.limit)
        tau = min(max(tau, 1), x)
        h = min(max(h, 1e-15), max(float(sup.h_max(rho, tau)), 1e-15))
    sigma = predict_sigma(model.sigma_model_for(i, j), rho, tau, h, x)
    if x == 1:
        return np.array([min(max(h, 0.0), rho)])
    latent = np.zeros(x)
    if sigma > SIGMA_FLOOR * (1.0 + 1e-9):
        latent = sample_latent_bridge(x, tau, sigma, rng)[0]
    return triangle(tau, h, x, np.arange(1, x + 1)) + clip_error(latent, rho, tau, h, model.limit).values


class TestChargeSimulation:
    def test_floor_sigma_gives_clipped_triangle(self):
        model = degenerate_model({(1, 0, 5): (0.5, 2, 0.3)}, sigma=SIGMA_FLOOR)
        c = model.charge_paths(1, 0, 5, 3, np.random.default_rng(0))
        g = triangle(2, 0.3, 5, np.arange(1, 6))
        expected = np.minimum(g, 0.5 - np.arange(5) * LIMIT)
        for row in c:
            np.testing.assert_array_equal(row, np.maximum(expected, 0.0))

    def test_band_respected(self):
        model = degenerate_model({(-1, 0, 8): (1.0, 3, 0.4)}, sigma=0.05)
        rng = np.random.default_rng(1)
        for _ in range(200):
            c = model.charge_path(-1, 0, 8, rng)
            assert c.shape == (8,)
            k = np.arange(8)
            assert np.all(c >= -1e-12)
            assert np.all(c <= 1.0 - k * LIMIT + 1e-12)

    def test_single_step_segment(self):
        model = degenerate_model({(1, 0, 1): (2.0, 1, 0.8)}, sigma=0.3)
        c = model.charge_path(1, 0, 1, np.random.default_rng(0))
        np.testing.assert_array_equal(c, [0.8])

    def test_one_step_batch_predicts_no_sigma(self):
        # lambda = 1, prediction x - 2: outside the inverse transform domain at x = 1
        def flooring():
            return SigmaModel(
                lam=1.0, coef=np.array([-2.0, 0, 0, 0, 1.0] + [0.0] * 6),
                feature_names=REGRESSOR_NAMES, adj_r2=1.0, resid_std=0.0,
                n_outliers_removed=0, n_obs=0,
            )

        probe = flooring()
        assert predict_sigma(probe, 2.0, 1, 0.8, 1) == SIGMA_FLOOR
        assert probe.floored_predictions == 1
        model = degenerate_model({(1, 0, 1): (2.0, 1, 0.8)}, sigma=0.3)
        model.sigma_models[(1, 0)] = flooring()
        c = model.charge_paths(1, 0, 1, 50, np.random.default_rng(0))
        np.testing.assert_array_equal(c, np.full((50, 1), 0.8))
        assert model.sigma_models[(1, 0)].floored_predictions == 0

    def test_deterministic_given_seed(self):
        model = degenerate_model({(1, 0, 6): (1.9, 2, 0.6)}, sigma=0.08)
        a = model.charge_path(1, 0, 6, np.random.default_rng(99))
        b = model.charge_path(1, 0, 6, np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)

    def test_nearest_sojourn_fallback(self):
        model = degenerate_model({(1, 0, 4): (1.9, 2, 0.6)})
        rng = np.random.default_rng(2)
        c = model.charge_path(1, 0, 9, rng)  # no sampler for x=9
        assert c.shape == (9,)
        k = np.arange(9)
        assert np.all(c <= 1.9 - k * LIMIT + 1e-12)

    def test_missing_pair_errors(self):
        model = degenerate_model({(1, 0, 4): (1.9, 2, 0.6)})
        with pytest.raises(SimulationError, match=r"\(i=-1, j=0\)"):
            model.charge_path(-1, 0, 4, np.random.default_rng(3))

    def test_fallback_past_largest_fitted_sojourn(self):
        # both sides stay in the band well past the largest fitted sojourn; on
        # the charging side a low rho clamped into the support of x=60 would
        # leave the clip band empty at k=x, so the fallback floors it at
        # (x-1)*limit
        model = degenerate_model(
            {(1, 0, 4): (0.5, 2, 0.3), (-1, 1, 4): (1.0, 2, 0.5)}, sigma=0.05
        )
        for i, j, x in [(1, 0, 60), (-1, 1, 95)]:
            c = model.charge_paths(i, j, x, 50, np.random.default_rng(4))
            assert c.shape == (50, x)
            assert np.all(c >= 0.0)
            # nothing is left to charge at the last step of the floored ceiling
            if i == 1:
                np.testing.assert_allclose(c[:, -1], 0.0, atol=1e-12)

    def test_fallback_without_attainable_rho_names_class(self):
        model = degenerate_model({(1, 0, 4): (1.9, 2, 0.6), (-1, 1, 4): (1.0, 2, 0.5)})
        # (x-1)*limit = 2.18 MW exceeds every attainable rho on both sides
        for i, j in [(1, 0), (-1, 1)]:
            with pytest.raises(SimulationError, match=rf"\(i={i}, j={j}, x=110\)"):
                model.charge_path(i, j, 110, np.random.default_rng(5))


class TestChargePaths:
    def check_against_oracle(self, model, keys, draws=20):
        for key in keys:
            i, j, x = key
            for d in range(draws):
                seed = (d, i + 2, j + 2, x)
                got = model.charge_paths(i, j, x, 1, np.random.default_rng(seed))
                want = oracle_charge_path(model, i, j, x, np.random.default_rng(seed))
                assert got.shape == (1, x)
                np.testing.assert_array_equal(got[0], want)

    def test_one_row_matches_oracle_on_fitted_model(self, fitted_model):
        keys = sorted(fitted_model.samplers)
        assert any(x == 1 for _, _, x in keys)
        self.check_against_oracle(fitted_model, keys, draws=5)

    def test_one_row_matches_oracle_on_fallback(self, fitted_model):
        xmax = {}
        for i, j, x in fitted_model.samplers:
            xmax[(i, j)] = max(xmax.get((i, j), 0), x)
        keys = [(i, j, x + 2) for (i, j), x in sorted(xmax.items())]
        self.check_against_oracle(fitted_model, keys)

    @pytest.mark.parametrize(
        "entries, sigma",
        [
            ({(1, 0, 1): (2.0, 1, 0.8)}, 0.3),  # x = 1: no bridge
            ({(1, 0, 6): (1.9, 6, 0.6)}, 0.08),  # tau == x: x normals, not x+1
            ({(-1, 1, 5): (1.0, 2, 0.4)}, SIGMA_FLOOR),  # floor sigma: no draw
            ({(1, 0, 4): (0.5, 2, 0.3)}, 0.05),  # fallback with the rho floor
        ],
    )
    def test_one_row_matches_oracle_on_edge_cases(self, entries, sigma):
        model = degenerate_model(entries, sigma=sigma)
        (key,) = entries
        x = 60 if key == (1, 0, 4) else key[2]
        self.check_against_oracle(model, [(key[0], key[1], x)])

    def test_large_batch_in_band(self, fitted_model):
        for (i, j, x), sampler in sorted(fitted_model.samplers.items())[:6]:
            c = fitted_model.charge_paths(i, j, x, 500, np.random.default_rng(x))
            assert c.shape == (500, x)
            k = np.arange(x)
            assert np.all(c >= -1e-12)
            assert np.all(c <= sampler.support.rho_max - k * LIMIT + 1e-12)

    def test_idle_state_is_zero(self):
        c = degenerate_model({}).charge_paths(0, 1, 4, 7, np.random.default_rng(0))
        np.testing.assert_array_equal(c, np.zeros((7, 4)))


def oracle_charge_paths(model, i, j, x, n, rng):
    """``n`` charge paths of one class from the primitives: one ``sample_n``,
    the nearest-sojourn clamp, one volatility batch, one latent bridge per
    group of equal ``tau`` in increasing ``tau``, and one clip."""
    if i == 0:
        return np.zeros((n, x))
    sampler, fell_back = model.sampler_for(i, j, x)
    rho, tau, h = sampler.sample_n(n, rng)
    if fell_back:
        sup = attainable_param_support(i, x, model.limit, model.capacity)
        sup = replace(sup, rho_min=max(sup.rho_min, (x - 1) * model.limit))
        rho, tau, h = sup.clamp(rho, tau, h)
        tau = tau.astype(int)
    if x == 1:
        return np.minimum(np.maximum(h, 0.0), rho)[:, None]
    sigma = predict_sigma_batch(model.sigma_model_for(i, j), rho, tau, h, x)
    latent = np.zeros((n, x))
    noisy = sigma > SIGMA_FLOOR * (1.0 + 1e-9)
    for t in np.unique(tau[noisy]).tolist():
        rows = np.flatnonzero(noisy & (tau == t))
        latent[rows] = sample_latent_bridge(x, t, sigma[rows], rng, n_paths=rows.size)
    g = triangle(tau[:, None], h[:, None], x, np.arange(1, x + 1))
    return g + clip_error(latent, rho, tau, h, model.limit).values


def block_keys(counts):
    """Per-row class keys of a block, sorted by class as the penalty engine sorts them."""
    keys = sorted(counts)
    return tuple(np.repeat([key[d] for key in keys], [counts[key] for key in keys]) for d in range(3))


def split_block(charges, counts):
    """The ``(n, x)`` charge matrix of each class of a block drawn from :func:`block_keys`."""
    keys = sorted(counts)
    sizes = [counts[key] * key[2] for key in keys]
    parts = np.split(charges, np.cumsum(sizes)[:-1])
    return {key: part.reshape(counts[key], key[2]) for key, part in zip(keys, parts)}


def standard_error(v):
    """Monte Carlo standard error of each column mean of ``v``."""
    return v.std(axis=0, ddof=1) / np.sqrt(v.shape[0])


class TestChargeBlock:
    def fallback_keys(self, model):
        xmax = {}
        for i, j, x in model.samplers:
            xmax[(i, j)] = max(xmax.get((i, j), 0), x)
        return [(i, j, x + 3) for (i, j), x in sorted(xmax.items())]

    def test_one_class_is_the_per_class_oracle(self, fitted_model):
        keys = sorted(fitted_model.samplers)[::4] + self.fallback_keys(fitted_model) + [(0, 1, 3)]
        for n in (1, 37, 300):
            for key in keys:
                seed = (n, key[0] + 2, key[1] + 2, key[2])
                got = fitted_model.charge_block(*block_keys({key: n}), np.random.default_rng(seed))
                want = oracle_charge_paths(fitted_model, *key, n, np.random.default_rng(seed))
                np.testing.assert_array_equal(got.reshape(n, key[2]), want)
                np.testing.assert_array_equal(
                    fitted_model.charge_paths(*key, n, np.random.default_rng(seed)), want
                )

    def test_multi_class_blocks_match_per_class_draws(self, fitted_model):
        # three classes drawn in 25 mixed blocks of 100 rows each, against one
        # charge_paths call of 2,500 rows per class: the same law
        fitted = sorted(k for k in fitted_model.samplers if k[2] in (3, 4))
        compared = [fitted[0], fitted[-1], self.fallback_keys(fitted_model)[0]]
        counts = {key: 100 for key in compared}
        counts[(0, 1, 2)] = 30
        counts[sorted(fitted_model.samplers)[0]] = 40
        rng = np.random.default_rng(2024)
        blocks = [split_block(fitted_model.charge_block(*block_keys(counts), rng), counts) for _ in range(25)]
        for key in compared:
            a = np.concatenate([block[key] for block in blocks])
            b = fitted_model.charge_paths(*key, a.shape[0], np.random.default_rng(7))
            assert a.shape == b.shape and a.shape[0] >= 2000
            mean_gap = np.abs(a.mean(axis=0) - b.mean(axis=0))
            assert np.all(mean_gap <= 4.0 * np.hypot(standard_error(a), standard_error(b))), key
            da, db = a - a.mean(axis=0), b - b.mean(axis=0)
            pa = (da[:, :, None] * da[:, None, :]).reshape(a.shape[0], -1)
            pb = (db[:, :, None] * db[:, None, :]).reshape(b.shape[0], -1)
            cov_gap = np.abs(pa.mean(axis=0) - pb.mean(axis=0))
            assert np.all(cov_gap <= 4.0 * np.hypot(standard_error(pa), standard_error(pb)) + 1e-15), key

    def test_rows_stay_in_band(self):
        entries = {
            (1, 0, 5): (1.9, 2, 0.5),
            (1, -1, 7): (1.95, 6, 1.2),
            (-1, 0, 6): (1.0, 1, 0.4),
            (-1, 1, 3): (0.3, 3, 0.25),
            (-1, 1, 1): (0.5, 1, 0.2),
        }
        model = degenerate_model(entries, sigma=0.3)
        counts = {key: 200 for key in entries}
        c = model.charge_block(*block_keys(counts), np.random.default_rng(3))
        on_ceiling = 0
        for key, rows in split_block(c, counts).items():
            ceiling = entries[key][0] - np.arange(key[2]) * LIMIT
            assert np.all(rows >= 0.0), key
            assert np.all(rows <= ceiling + 1e-12), key
            on_ceiling += int(np.sum(np.abs(rows - ceiling) <= 1e-12))
        assert on_ceiling > 0 and np.count_nonzero(c == 0.0) > 0

    def test_block_errors_name_the_class(self):
        model = degenerate_model({(1, 0, 4): (1.9, 2, 0.6), (-1, 1, 4): (1.0, 2, 0.5)})
        with pytest.raises(SimulationError, match=r"pair \(i=-1, j=0\) of class \(i=-1, j=0, x=3\)"):
            model.charge_block([-1, -1, 1], [0, 1, 0], [3, 4, 4], np.random.default_rng(0))
        with pytest.raises(SimulationError, match=r"\(i=1, j=0, x=110\)"):
            model.charge_block([-1, 1, 1], [1, 0, 0], [4, 4, 110], np.random.default_rng(0))
        # a sampler whose support lies above every value it can draw: its h
        # ceiling, at most 1e-6 - tau*limit, is below zero
        attainable = attainable_param_support(1, 5, LIMIT, CAPACITY)
        model.samplers[(1, 0, 5)] = EmpiricalCopulaSampler(
            replace(attainable, h_offset=1e-6 - attainable.rho_max),
            np.eye(3), ([1.95, 1.96], [2.0, 3.0], [0.5, 0.6]), n_obs=2,
        )
        with pytest.raises(EstimationError, match=r"10000 consecutive rejections.* in class \(i=1, j=0, x=5\)"):
            model.charge_block([-1, 1, 1], [1, 0, 0], [4, 4, 5], np.random.default_rng(0))

    def test_chunks_change_no_draw(self, fitted_model, fitted_kernel, monkeypatch):
        import windbridge.bridge as bridge

        counts = {key: 30 for key in sorted(fitted_model.samplers)[::3]}
        battery, fees = BatterySpec(0.0, 0.36, 0.18), PenaltySpec(21.52, 26.50, 0.001)
        z0 = np.resize(kernel_states(fitted_kernel), 40)
        runs = []
        for chunk in (10**9, 50, 1):
            monkeypatch.setattr(bridge, "CHUNK_POINTS", chunk)
            c = fitted_model.charge_block(*block_keys(counts), np.random.default_rng(9))
            states, charges = sample_step_grids(
                fitted_kernel, fitted_model, z0, np.random.default_rng(9), horizon=300
            )
            soc, penalty = battery_recursion(states, charges, battery, fees, np.full(z0.size, 0.18))
            _, backward = chains_and_backward(fitted_kernel, states, 9, z0)
            grids = dict(
                states=states, backward=backward, charges=charges, soc=soc, penalty=penalty,
                discounted=discounted_penalty(penalty, fees.discount_rate),
            )
            runs.append((c, grids))
        for c, grids in runs[1:]:
            np.testing.assert_array_equal(c, runs[0][0])
            for name, grid in grids.items():
                np.testing.assert_array_equal(grid, runs[0][1][name], err_msg=name)

    def test_grids_are_narrow(self, fitted_kernel, fitted_model):
        states, charges = sample_step_grids(
            fitted_kernel, fitted_model, [1], np.random.default_rng(0), horizon=50
        )
        assert states.dtype == np.int8 and states.shape == charges.shape == (1, 51)
        path = simulate_penalty_path(
            fitted_kernel, fitted_model, BatterySpec(0.0, 0.36, 0.18), PenaltySpec(1.0, 1.0),
            horizon=50, initial_state=1, seed=0,
        )
        assert [f.name for f in fields(path)] == ["states", "soc", "penalty"]
        assert path.states.dtype == np.int8
        assert path.states.tobytes() == states[0].tobytes()


class TestPenaltyPath:
    def test_idle_forever(self):
        q = {0: {0: {5: 1.0}}}
        kernel = SemiMarkovKernel(q, {0: 1})
        model = degenerate_model({})
        battery = BatterySpec(0.0, 0.36, 0.18)
        fees = PenaltySpec(21.52, 26.50)
        path = simulate_penalty_path(kernel, model, battery, fees, horizon=50, seed=0)
        assert np.all(path.penalty == 0.0)
        assert np.all(path.soc == 0.18)
        assert np.all(discounted_penalty(path.penalty, fees.discount_rate) == 0.0)

    def test_zero_capacity_battery_pays_full_fee(self):
        kernel = cycle_kernel(x=3)
        model = degenerate_model({
            (1, 0, 3): (1.9, 2, 0.5),
            (-1, 1, 3): (1.0, 2, 0.5),
        })
        battery = BatterySpec(0.0, 0.0, 0.0)
        fees = PenaltySpec(10.0, 20.0)
        # six sojourns of 3 steps: the sixth jump is the first past step 17
        path = simulate_penalty_path(kernel, model, battery, fees, horizon=17, initial_state=1, seed=1)
        _, backward = chains_and_backward(kernel, path.states, 1, 1)
        penalty = path.penalty
        for t in range(1, len(penalty)):
            st = path.states[t]
            b = backward[0, t]
            if st == 0:
                assert penalty[t] == 0.0
            else:
                seg_charges = model.charge_path(st, 0 if st == 1 else 1, 3, np.random.default_rng())
                fee = fees.up_fee if st == 1 else fees.down_fee
                assert penalty[t] == approx(fee * seg_charges[b])

    def test_soc_confinement_and_complementarity(self, fitted_kernel, fitted_model):
        battery = BatterySpec(0.0, 0.36, 0.18)
        fees = PenaltySpec(21.52, 26.50)
        path = simulate_penalty_path(
            fitted_kernel, fitted_model, battery, fees, horizon=20_000, seed=5
        )
        s, m, st = path.soc, path.penalty, path.states
        assert np.all((s >= battery.soc_min - 1e-12) & (s <= battery.soc_max + 1e-12))
        hot = m > 0
        assert np.all(st[hot] != 0)
        charging = hot & (st == 1)
        discharging = hot & (st == -1)
        assert np.all(s[charging] == battery.soc_max)
        assert np.all(s[discharging] == battery.soc_min)

    def test_seed_determinism(self, fitted_kernel, fitted_model):
        battery = BatterySpec(0.0, 0.36, 0.18)
        fees = PenaltySpec(21.52, 26.50)
        a = simulate_penalty_path(fitted_kernel, fitted_model, battery, fees, horizon=200, seed=7)
        b = simulate_penalty_path(fitted_kernel, fitted_model, battery, fees, horizon=200, seed=7)
        np.testing.assert_array_equal(a.penalty, b.penalty)
        np.testing.assert_array_equal(a.soc, b.soc)
        (states_a, _), _ = chains_and_backward(fitted_kernel, a.states, 7, 0)
        (states_b, _), _ = chains_and_backward(fitted_kernel, b.states, 7, 0)
        np.testing.assert_array_equal(states_a[0], states_b[0])

    def test_backward_resume_skips_charges(self):
        kernel = cycle_kernel(x=4)
        model = degenerate_model({
            (1, 0, 4): (1.9, 2, 0.5),
            (-1, 1, 4): (1.0, 2, 0.5),
        })
        battery = BatterySpec(0.0, 100.0, 50.0)
        fees = PenaltySpec(1.0, 1.0)
        path = simulate_penalty_path(
            kernel, model, battery, fees, horizon=1, initial_state=1, initial_backward=2, seed=0,
        )
        (_, sojourns), _ = chains_and_backward(kernel, path.states, 0, 1, 2)
        # sojourn 4 with 2 steps already elapsed: 2 remaining, jump at time 2
        assert jump_times(sojourns, [2])[0, 1] == 2
        charges = model.charge_path(1, 0, 4, np.random.default_rng())
        # step 1 has backward time b + 1 = 3 and takes c(4), row index 3
        assert path.soc[1] == approx(50.0 + charges[3])

    def test_backward_longer_than_any_sojourn(self):
        kernel = cycle_kernel(x=4)
        model = degenerate_model({(1, 0, 4): (1.9, 2, 0.5)})
        with pytest.raises(SimulationError):
            simulate_penalty_path(
                kernel, model, BatterySpec(0, 1, 0.5), PenaltySpec(1, 1),
                horizon=1, initial_state=1, initial_backward=4, seed=0,
            )

    def test_renewal_law_matches_kernel(self, fitted_kernel):
        # one block of 1,000 rows of 100 jumps each
        states, sojourns = fixed_count_chains(fitted_kernel, np.zeros(1000), np.random.default_rng(11), 100)
        sojourns, states = sojourns.ravel(), states[:, :-1].ravel()
        assert sojourns.size == 100_000 and np.all(sojourns > 0)
        for i in kernel_states(fitted_kernel):
            ks, probs = sojourn_pmf(fitted_kernel, i)
            xs = sojourns[states == i]
            emp = np.array([(xs == k).mean() for k in ks])
            assert np.abs(emp - probs).sum() < 0.05

        # the same law from a block of 4,000 rows drawn round by round
        z0 = np.resize(kernel_states(fitted_kernel), 4000)
        chain, sojourns = fitted_kernel.sample_chains(z0, np.random.default_rng(12), horizon=100)
        row, rnd = np.nonzero(sojourns)
        i_, x_ = chain[row, rnd], sojourns[row, rnd]
        j_ = chain[row, rnd + 1]
        for i in kernel_states(fitted_kernel):
            ks, probs = sojourn_pmf(fitted_kernel, i)
            xs = x_[i_ == i]
            assert xs.size > 10_000
            emp = np.array([(xs == k).mean() for k in ks])
            assert np.abs(emp - probs).sum() < 0.05
            for x in ks[:3]:
                pmf = successor_pmf(fitted_kernel, i, int(x))
                js = j_[(i_ == i) & (x_ == x)]
                emp = np.array([(js == j).mean() for j in pmf])
                assert np.abs(emp - np.array(list(pmf.values()))).sum() < 0.05

    def test_penalty_path_sojourns_follow_kernel(self, fitted_kernel, fitted_model):
        battery = BatterySpec(0.0, 0.36, 0.18)
        fees = PenaltySpec(21.52, 26.50)
        # the first 500 jumps of this stream, the last of them past step 1985
        path = simulate_penalty_path(fitted_kernel, fitted_model, battery, fees, horizon=1985, seed=11)
        (chain, sojourns), _ = chains_and_backward(fitted_kernel, path.states, 11, 0)
        jumps = int((sojourns[0] > 0).sum())
        assert jumps == 500
        for i, x in zip(chain[0, :jumps], sojourns[0, :jumps]):
            ks, _ = sojourn_pmf(fitted_kernel, int(i))
            assert int(x) in set(int(k) for k in ks)


class TestDegenerateOracle:
    def test_bitwise_match_against_recursion(self):
        model = degenerate_model(CYCLE_ENTRIES)
        battery = BatterySpec(0.0, 0.36, 0.18)
        fees = PenaltySpec(21.52, 26.50, discount_rate=0.01)
        n_steps = 1000
        path = simulate_penalty_path(
            cycle_kernel(x=3), model, battery, fees, horizon=n_steps, initial_state=1, seed=0
        )
        soc, pen, w = cycle_oracle(1, 0, battery.soc_init, n_steps, battery, fees)
        np.testing.assert_array_equal(path.soc, soc)
        np.testing.assert_array_equal(path.penalty, pen)
        np.testing.assert_array_equal(discounted_penalty(path.penalty, fees.discount_rate), w)


class TestPenaltyBlock:
    def test_rows_match_one_row_paths_and_oracle(self):
        kernel, model = cycle_kernel(x=3), degenerate_model(CYCLE_ENTRIES)
        battery = BatterySpec(0.0, 0.36, 0.18)
        fees = PenaltySpec(21.52, 26.50, discount_rate=0.002)
        z0 = np.array([1, 0, -1, 1, 0, -1, 1, 0, -1])
        b0 = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
        s0 = np.array([0.18, 0.0, 0.36, 0.05, 0.3, 0.2, 0.36, 0.1, 0.0])
        horizon = 200
        states, charges = sample_step_grids(kernel, model, z0, np.random.default_rng(0), b0, horizon=horizon)
        soc, penalty = battery_recursion(states, charges, battery, fees, s0)
        block = dict(states=states, soc=soc, penalty=penalty)
        assert penalty.shape == (z0.size, horizon + 1)
        (chain, sojourns), backward = chains_and_backward(kernel, states, 0, z0, b0)
        times = jump_times(sojourns, b0)
        discounted = discounted_penalty(penalty, fees.discount_rate)
        for n in range(z0.size):
            one = simulate_penalty_path(
                kernel, model, battery, fees, horizon=horizon, initial_state=int(z0[n]),
                initial_soc=float(s0[n]), initial_backward=int(b0[n]), seed=n,
            )
            (one_chain, one_sojourns), one_backward = chains_and_backward(kernel, one.states, n, z0[n], b0[n])
            jumps = int((sojourns[n] > 0).sum())
            assert (one_sojourns[0] > 0).sum() == jumps
            one_times = jump_times(one_sojourns, [b0[n]])
            for name, got, want in (("states", chain, one_chain), ("jump_times", times, one_times)):
                np.testing.assert_array_equal(got[n, : jumps + 1], want[0, : jumps + 1], err_msg=name)
            for name in ("states", "soc", "penalty"):
                np.testing.assert_array_equal(block[name][n], getattr(one, name), err_msg=name)
            one_discounted = discounted_penalty(one.penalty, fees.discount_rate)
            np.testing.assert_array_equal(discounted[n], one_discounted, err_msg="discounted")
            np.testing.assert_array_equal(backward[n], one_backward[0], err_msg="backward")
            want_soc, want_pen, w = cycle_oracle(int(z0[n]), int(b0[n]), float(s0[n]), horizon, battery, fees)
            np.testing.assert_array_equal(soc[n], want_soc)
            np.testing.assert_array_equal(penalty[n], want_pen)
            np.testing.assert_array_equal(discounted[n], w)
            assert states[n, 0] == z0[n] and backward[n, 0] == b0[n]

    def test_conditioned_first_sojourns_exceed_backward(self, fitted_kernel):
        rng = np.random.default_rng(12)
        z0 = rng.choice(kernel_states(fitted_kernel), 3000)
        longest = np.array([fitted_kernel.max_sojourn(int(z)) for z in z0])
        b0 = (rng.random(3000) * longest).astype(int)
        _, sojourns = fitted_kernel.sample_chains(z0, rng, b0, horizon=24)
        assert np.all(sojourns[:, 0] > b0)
        np.testing.assert_array_equal(jump_times(sojourns, b0)[:, 1], sojourns[:, 0] - b0)
        assert b0.max() > 0

    def test_short_blocks_and_transition_counts(self, fitted_kernel, fitted_model):
        battery, fees = BatterySpec(0.0, 0.36, 0.18), PenaltySpec(21.52, 26.50)
        horizon = 4
        z0 = np.zeros(5, dtype=int)
        states, charges = sample_step_grids(
            fitted_kernel, fitted_model, z0, np.random.default_rng(3), horizon=horizon
        )
        soc, penalty = battery_recursion(states, charges, battery, fees, np.full(5, 0.18))
        (chain, sojourns), backward = chains_and_backward(fitted_kernel, states, 3, z0)
        times, counts = jump_times(sojourns, np.zeros(5, dtype=int)), (sojourns > 0).sum(axis=1)
        assert chain.shape == times.shape == (5, counts.max() + 1)
        for n, jumps in enumerate(counts.tolist()):
            # a row stops at its first jump past the horizon
            assert times[n, jumps - 1] <= horizon < times[n, jumps]
        discounted = discounted_penalty(penalty, fees.discount_rate)
        for grid in (states, backward, charges, soc, penalty, discounted):
            assert grid.shape == (5, horizon + 1)

    def test_initial_soc_outside_band_rejected(self):
        grids = sample_step_grids(
            cycle_kernel(x=3), degenerate_model(CYCLE_ENTRIES), [1, 0, -1], np.random.default_rng(0),
            horizon=5,
        )
        with pytest.raises(InputError, match=r"^initial SOC at row 2 must lie in \[0.0, 0.36\], got 0.5$"):
            battery_recursion(
                *grids, BatterySpec(0.0, 0.36, 0.18), PenaltySpec(1.0, 1.0), [0.1, 0.2, 0.5]
            )

    @pytest.mark.parametrize(
        "name, size",
        [("initial_socs", 2), ("initial_socs", 4), ("initial_backwards", 2), ("initial_backwards", 4)],
    )
    def test_start_arrays_must_match_the_states(self, name, size):
        # backward times are read where the states are drawn, SOCs where they are priced
        kernel, model, rng = cycle_kernel(x=3), degenerate_model(CYCLE_ENTRIES), np.random.default_rng(0)
        if name == "initial_backwards":
            with pytest.raises(InputError, match=f"^initial_backwards has {size} entries for 3 initial states$"):
                sample_step_grids(kernel, model, [1, 0, -1], rng, np.zeros(size, dtype=int), horizon=5)
        else:
            grids = sample_step_grids(kernel, model, [1, 0, -1], rng, horizon=5)
            with pytest.raises(InputError, match=f"^soc0 has {size} entries for 3 rows$"):
                battery_recursion(
                    *grids, BatterySpec(0.0, 0.36, 0.18), PenaltySpec(1.0, 1.0), np.full(size, 0.18)
                )

    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_jump_chains_reject_mismatched_backward_times(self, size):
        with pytest.raises(InputError, match=f"^initial_backwards has {size} entries for 3 initial states$"):
            cycle_kernel(x=3).sample_chains(
                [1, 0, -1], np.random.default_rng(0), np.zeros(size, dtype=int), horizon=5
            )

    def test_jump_chains_take_a_scalar_backward_time_for_one_row(self):
        kernel = cycle_kernel(x=4)
        scalar = kernel.sample_chains(1, np.random.default_rng(0), 2, horizon=5)
        listed = kernel.sample_chains([1], np.random.default_rng(0), [2], horizon=5)
        for got, want in zip(scalar, listed):
            np.testing.assert_array_equal(got, want)

    def test_step_grids_take_a_scalar_backward_time_for_one_row(self, fitted_kernel, fitted_model):
        draw = dict(kernel=fitted_kernel, charge_model=fitted_model, horizon=5)
        scalar = sample_step_grids(initial_states=0, rng=np.random.default_rng(0), initial_backwards=2, **draw)
        listed = sample_step_grids(initial_states=[0], rng=np.random.default_rng(0), initial_backwards=[2], **draw)
        for got, want in zip(scalar, listed):
            assert got.shape == (1, 6)
            assert got.tobytes() == want.tobytes()

    def test_renewal_oracle_on_a_cycle(self):
        # the x = 3 cycle is deterministic: its law is the drawn path, one-hot
        states, _ = sample_step_grids(
            cycle_kernel(x=3), degenerate_model(CYCLE_ENTRIES), [1], np.random.default_rng(0), [1],
            horizon=8,
        )
        one_hot = np.stack([states[0] == j for j in (-1, 0, 1)]).astype(float)
        np.testing.assert_array_equal(occupancy(cycle_kernel(x=3), 1, 1, 8), one_hot)

    @pytest.mark.parametrize(
        "start", [(0, 0), (1, 0), (1, 2), (-1, 1)], ids=["idle", "charging", "charging-b2", "discharging-b1"]
    )
    def test_state_grid_follows_the_renewal_law(self, fitted_kernel, fitted_model, start):
        # 72 cells (state, t = 1..24) of 4,000 rows against the exact law
        i, b = start
        n, horizon = 4000, 24
        law = occupancy(fitted_kernel, i, b, horizon)
        np.testing.assert_allclose(law.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)
        states, _ = sample_step_grids(
            fitted_kernel, fitted_model, np.full(n, i), np.random.default_rng(2008), np.full(n, b),
            horizon=horizon,
        )
        assert np.all(states[:, 0] == i)
        p = law[:, 1:]
        freq = np.stack([(states[:, 1:] == j).mean(axis=0) for j in (-1, 0, 1)])
        assert np.all(freq[p == 0.0] == 0.0)
        live = p > 0.0
        z = (freq[live] - p[live]) / np.sqrt(p[live] * (1.0 - p[live]) / n)
        assert np.abs(z).max() < 4.5


class TestSpecs:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "spec, values",
        [
            (BatterySpec, dict(soc_min=0.0, soc_max=0.36, soc_init=0.18)),
            (PenaltySpec, dict(up_fee=21.52, down_fee=26.50, discount_rate=0.0)),
        ],
    )
    def test_non_finite_field_rejected(self, spec, values, value):
        for name in values:
            with pytest.raises(InputError, match=f"{spec.__name__}.{name} must be finite"):
                spec(**{**values, name: value})


def branch_recursion(states, charges, battery, fees, soc0):
    """The capped SOC and penalty recursion of one row, step by step on Python
    floats with one branch per state: the reference for :func:`battery_recursion`."""
    s = float(soc0)
    soc = [s]
    penalty = [0.0]
    for state, c in zip(np.asarray(states).tolist()[1:], np.asarray(charges, dtype=float).tolist()[1:]):
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


@st.composite
def recursion_blocks(draw):
    """A battery and a ``(P, T)`` block of states, charges and initial SOCs.

    ``P`` is 1, 2 or 130 and ``T`` may be 1.  The band may have zero width;
    the charges may all be zero or reach past the band, and some equal the
    band's width exactly; the initial SOCs sit at either bound or in between.
    """
    n_rows = draw(st.sampled_from([1, 2, 130]))
    n_steps = draw(st.integers(min_value=1, max_value=40))
    soc_min = draw(st.floats(min_value=0.0, max_value=0.5))
    width = draw(st.sampled_from([0.0, 0.36]) | st.floats(min_value=0.0, max_value=0.5))
    reach = draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    start = draw(st.sampled_from(["min", "max", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    battery = BatterySpec(soc_min, soc_min + width, soc_min)
    states = rng.integers(-1, 2, (n_rows, n_steps)).astype(np.int8)
    charges = rng.uniform(0.0, reach * max(width, 0.1), (n_rows, n_steps))
    charges[rng.random((n_rows, n_steps)) < 0.2] = width
    lo, hi = battery.soc_min, battery.soc_max
    soc0 = {
        "min": np.full(n_rows, lo),
        "max": np.full(n_rows, hi),
        "mixed": rng.choice([lo, hi, lo + 0.5 * width], n_rows),
    }[start]
    return battery, states, charges, soc0


class TestBatteryRecursion:
    @settings(max_examples=150, deadline=None)
    @given(case=recursion_blocks())
    def test_block_matches_branch_oracle_bit_for_bit(self, case):
        battery, states, charges, soc0 = case
        fees = PenaltySpec(21.52, 26.50)
        soc, pen = battery_recursion(states, charges, battery, fees, soc0)
        assert soc.shape == pen.shape == states.shape
        for n in range(states.shape[0]):
            want_soc, want_pen = branch_recursion(states[n], charges[n], battery, fees, soc0[n])
            assert soc[n].tobytes() == want_soc.tobytes()
            assert pen[n].tobytes() == want_pen.tobytes()
        if states.shape[0] == 1:
            row_soc, row_pen = battery_recursion(states[0], charges[0], battery, fees, soc0[0])
            assert row_soc.shape == row_pen.shape == states[0].shape
            assert row_soc.tobytes() == soc[0].tobytes()
            assert row_pen.tobytes() == pen[0].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        n_rows=st.sampled_from([1, 2, 130]),
        n_steps=st.integers(min_value=1, max_value=40),
        soc_min=st.floats(min_value=0.0, max_value=0.5),
        widths=st.lists(st.floats(min_value=0.0, max_value=0.5), min_size=2, max_size=2),
        start=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_penalty_never_rises_with_capacity(self, n_rows, n_steps, soc_min, widths, start, seed):
        # common grids priced at two capacities, soc_min and soc_init fixed:
        # s_big - s_small stays in [0, cap_big - cap_small] on every path
        small, big = sorted(widths)
        soc_init = soc_min + start * small
        rng = np.random.default_rng(seed)
        states = rng.integers(-1, 2, (n_rows, n_steps))
        charges = rng.uniform(0.0, 0.4, (n_rows, n_steps))
        fees = PenaltySpec(21.52, 26.50)
        runs = [
            battery_recursion(states, charges, BatterySpec(soc_min, soc_min + w, soc_init), fees,
                              np.full(n_rows, soc_init))
            for w in (small, big)
        ]
        (soc_small, pen_small), (soc_big, pen_big) = runs
        assert np.all(pen_big <= pen_small + 1e-12)
        gap = soc_big - soc_small
        assert np.all(gap >= -1e-12) and np.all(gap <= big - small + 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(st.sampled_from([-1, 0, 1]), st.floats(min_value=0.0, max_value=1.0)),
            min_size=1, max_size=60,
        ),
        soc_min=st.floats(min_value=0.0, max_value=0.5),
        width=st.floats(min_value=0.0, max_value=0.5),
        start=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_confinement_complementarity_and_idle(self, steps, soc_min, width, start):
        battery = BatterySpec(soc_min, soc_min + width, soc_min + start * width)
        z = np.array([s for s, _ in steps])
        c = np.array([c for _, c in steps])
        soc, pen = battery_recursion(z, c, battery, PenaltySpec(21.52, 26.50), battery.soc_init)
        assert soc.shape == pen.shape == z.shape
        assert soc[0] == battery.soc_init and pen[0] == 0.0
        assert np.all((soc >= battery.soc_min) & (soc <= battery.soc_max))
        assert np.all(pen >= 0.0)
        # a penalty is paid only against a full (charging) or empty (discharging) battery
        hot = pen > 0.0
        assert np.all(soc[hot & (z == 1)] == battery.soc_max)
        assert np.all(soc[hot & (z == -1)] == battery.soc_min)
        idle = np.flatnonzero(z[1:] == 0) + 1
        assert np.all(soc[idle] == soc[idle - 1])
        assert np.all(pen[idle] == 0.0)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            battery_recursion(np.array([], int), np.array([]), BatterySpec(0, 1, 0.5),
                              PenaltySpec(1, 1), 0.5)

    @pytest.mark.parametrize(
        "states, charges, soc0, message",
        [
            ([0, 1], [0.0, -0.5], 0.1, "charge at row 0, step 1 must be finite and nonnegative, got -0.5"),
            ([[0, 1, -1], [0, -1, 1]], [[0.0, 0.1, 0.1], [0.0, 0.1, np.nan]], [0.1, 0.1],
             "charge at row 1, step 2 must be finite and nonnegative, got nan"),
            ([0, 1, 2], [0.0, 0.1, 0.1], 0.1, "state at row 0, step 2 must be -1, 0 or 1, got 2"),
            ([0, 1, 1], [0.0, 0.1], 0.1,
             r"states \(3,\) and charges \(2,\) must be one aligned row or block"),
            ([[0, 1], [0, -1]], [[0.0, 0.1], [0.0, 0.1]], [0.1, 0.1, 0.1], "soc0 has 3 entries for 2 rows"),
            ([[0, 1], [0, -1]], [[0.0, 0.1], [0.0, 0.1]], [0.1, 0.4],
             r"initial SOC at row 1 must lie in \[0.0, 0.36\], got 0.4"),
        ],
        ids=["negative-charge", "nan-charge", "unknown-state", "misaligned", "soc0-count", "soc0-outside"],
    )
    def test_bad_input_rejected_naming_row_and_step(self, states, charges, soc0, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            battery_recursion(np.array(states), np.array(charges), BatterySpec(0.0, 0.36, 0.18),
                              PenaltySpec(1.0, 1.0), soc0)

    def test_step_zero_is_never_read(self):
        # step 0's state and charge are never used, so they are not checked either
        soc, pen = battery_recursion(np.array([7, 1]), np.array([np.nan, 0.1]),
                                     BatterySpec(0.0, 0.36, 0.18), PenaltySpec(1.0, 1.0), 0.18)
        assert soc.tolist() == [0.18, 0.18 + 0.1] and pen.tolist() == [0.0, 0.0]


class TestDiscountedPenalty:
    def test_zero_rate(self):
        np.testing.assert_array_equal(discounted_penalty([0.0, 1.0, 1.0], 0.0), [0, 1, 2])

    def test_log_two_rate(self):
        w = discounted_penalty([0.0, 1.0, 1.0], np.log(2.0))
        assert w[2] == approx(0.75)

    def test_huge_rate_keeps_only_step_zero(self):
        w = discounted_penalty([2.0, 1.0, 1.0], 1e3)
        np.testing.assert_allclose(w, [2.0, 2.0, 2.0])

    def test_nondecreasing(self):
        rng = np.random.default_rng(0)
        m = rng.uniform(0, 5, 100)
        w = discounted_penalty(m, 0.05)
        assert np.all(np.diff(w) >= 0.0)

    @settings(max_examples=100, deadline=None)
    @given(
        n_rows=st.integers(min_value=1, max_value=130),
        n_steps=st.integers(min_value=1, max_value=800),
        rate=st.one_of(st.sampled_from([0.0, 0.001]), st.floats(min_value=0.0, max_value=5.0)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_rows_equal_one_row_calls_bit_for_bit(self, n_rows, n_steps, rate, seed):
        rng = np.random.default_rng(seed)
        shape = (n_rows, n_steps)
        m = np.where(rng.random(shape) < 0.3, 0.0, rng.exponential(5.0, shape))
        w = discounted_penalty(m, rate)
        for n in range(n_rows):
            assert w[n].tobytes() == discounted_penalty(m[n], rate).tobytes(), n


class TestMcMoments:
    def test_all_zero_paths(self):
        table = mc_moments(np.zeros((10, 24)))
        assert np.all(table.mean == 0.0) and np.all(table.std == 0.0)

    def test_deterministic_unit_penalty(self):
        table = mc_moments(np.ones((10, 24)))
        np.testing.assert_allclose(table.mean, np.arange(1, 25))
        np.testing.assert_allclose(table.std, 0.0)

    def test_two_path_toy(self):
        table = mc_moments(np.array([[0.0], [2.0]]))
        assert table.mean[0] == approx(1.0)
        assert table.std[0] == approx(np.sqrt(2.0))

    def test_minimum_paths(self):
        for shape in [(1, 24), (10, 0), (24,), (2, 3, 4)]:
            with pytest.raises(InputError, match="n >= 2 and T >= 1"):
                mc_moments(np.zeros(shape))
