import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from windbridge.bridge import SIGMA_FLOOR, decompose
from windbridge.errors import EstimationError, InputError, InsufficientDataError
from windbridge.estimation import (
    SigmaModel,
    attainable_param_support,
    fit_joint_density,
    fit_sigma_regression,
    mle_sigma,
)
from windbridge.pipeline import build_model_doc, charge_model_from_doc
from windbridge.power import RampPolicy, apply_ramp_limit
from windbridge.segmentation import SegmentTable, complete_classes, extract_segments
from windbridge.simulate import BatterySpec, PenaltySpec, mc_moments, sample_step_grids
from windbridge.validation import (
    compare_segments,
    daily_penalty_moments,
    day_start_conditions,
    empirical_penalty,
    mape_detail,
    rel_l2_error,
)

LIMIT = 0.02
CAPACITY = 2.0


def class_table(i, j, charges):
    """Complete runs of one class ``(i, j, x)``, one per row of ``charges``, end to end."""
    charges = np.asarray(charges, dtype=float)
    n, x = charges.shape
    return SegmentTable(
        i=np.full(n, i), j=np.full(n, j), x=np.full(n, x), start=np.arange(n) * x,
        entry_power=np.ones(n), censored=np.zeros(n, dtype=bool), charges=charges.ravel(),
    )


def per_run_model_doc(table, limit, capacity, min_group_sample=10, seed_key=()):
    """The fitted model document, one run at a time: each run's charges padded
    with zeros at ``k = 0`` and ``k = x+1``, its peak scanned over the interior,
    ``rho`` from Python floats and one one-row ``decompose`` per run."""

    def pooled(sigmas):
        return float(np.exp(np.mean(np.log(np.maximum(sigmas, SIGMA_FLOOR)))))

    samplers, sigma_obs = {}, {}
    for (i, j, x), rows in complete_classes(table).items():
        triplets = []
        for r in rows.tolist():
            start = int(table.start[r])
            padded = np.zeros(x + 2)
            padded[1 : x + 1] = table.charges[start : start + x]
            tau = int(np.argmax(padded[1 : x + 1])) + 1
            h = float(padded[tau])
            entry = float(table.entry_power[r])
            if i == -1:
                rho = min(max(entry - limit, limit * (x + 1)), capacity)
            else:
                rho = max(capacity - (entry - limit), capacity - limit * (x + 1), 0.0)
            if h <= 0.0:
                continue
            triplets.append((rho, tau, h))
            if x >= 2:
                err = decompose(padded[1 : x + 1], rho, tau, h, limit)
                try:
                    s_hat = mle_sigma(err, tau, x)
                except InsufficientDataError:
                    continue
                sigma_obs.setdefault((i, j), []).append((s_hat, rho, tau, h, x))
        if not triplets:
            continue
        rng = np.random.default_rng(np.random.SeedSequence((*seed_key, i + 2, j + 2, x)))
        support = attainable_param_support(i, x, limit, capacity)
        sampler = fit_joint_density(triplets, support, min_sample=min_group_sample, rng=rng)
        samplers[f"{i},{j},{x}"] = sampler.to_dict()

    all_sigmas = [obs[0] for pair in sigma_obs.values() for obs in pair]
    sigma_models = {}
    for pair in sorted(sigma_obs):
        obs = np.asarray(sigma_obs[pair], dtype=float)
        try:
            model = fit_sigma_regression(obs)
        except (InsufficientDataError, EstimationError):
            model = SigmaModel.constant(pooled(obs[:, 0]))
        sigma_models[f"{pair[0]},{pair[1]}"] = model.to_dict()
    return {
        "limit_mw": limit,
        "capacity_mw": capacity,
        "sigma_default": pooled(all_sigmas) if all_sigmas else SIGMA_FLOOR,
        "samplers": samplers,
        "sigma_models": sigma_models,
    }


class TestRelL2:
    def test_identical_is_zero(self):
        assert rel_l2_error([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_zero_simulation_is_hundred(self):
        assert rel_l2_error([3.0, 4.0], [0.0, 0.0]) == approx(100.0)

    def test_hand_norm(self):
        assert rel_l2_error([1.0, 0.0], [1.0, 1.0]) == approx(100.0)

    def test_matrix_uses_frobenius(self):
        real = np.array([[2.0, 0.0], [0.0, 1.0]])
        sim = np.zeros((2, 2))
        assert rel_l2_error(real, sim) == approx(100.0)

    def test_zero_baseline_rejected(self):
        with pytest.raises(InputError):
            rel_l2_error([0.0, 0.0], [1.0, 1.0])

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            rel_l2_error([1.0], [1.0, 2.0])

    @settings(max_examples=50, deadline=None)
    @given(
        vec=st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=8),
        scale=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scale_invariance(self, vec, scale):
        real = np.asarray(vec) + 10.0
        sim = real + 0.5
        assert rel_l2_error(real * scale, sim * scale) == approx(rel_l2_error(real, sim), rel=1e-9)


class TestMape:
    def test_hand_example(self):
        assert mape_detail([1.0, 2.0, 4.0], [1.1, 1.8, 4.4]) == (approx(10.0), 0)

    def test_identical_is_zero(self):
        assert mape_detail([1.0, 2.0], [1.0, 2.0]) == (0.0, 0)

    def test_zero_entries_skipped_and_counted(self):
        value, skipped = mape_detail([0.0, 2.0, 4.0], [5.0, 2.2, 4.4])
        assert skipped == 1
        assert value == approx(10.0)

    def test_all_zero_rejected(self):
        with pytest.raises(InputError):
            mape_detail([0.0, 0.0], [1.0, 2.0])

    @settings(max_examples=50, deadline=None)
    @given(
        perm_seed=st.integers(min_value=0, max_value=100),
        scale=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_permutation_and_scale_invariance(self, perm_seed, scale):
        rng = np.random.default_rng(perm_seed)
        real = rng.uniform(1.0, 5.0, 10)
        sim = real * rng.uniform(0.8, 1.2, 10)
        p = rng.permutation(10)
        value, _ = mape_detail(real, sim)
        assert mape_detail(real[p], sim[p])[0] == approx(value, rel=1e-9)
        assert mape_detail(real * scale, sim * scale)[0] == approx(value, rel=1e-9)


class TestCompareSegments:
    def test_eligibility_and_path_count_rules(self, fitted_model):
        rng = np.random.default_rng(0)

        def group(i, j, x, n):
            high = 0.4 if i == 1 else 0.3
            return class_table(i, j, [rng.uniform(0.05, high, x) for _ in range(n)])

        key = next(iter(fitted_model.samplers))
        i, j, x = key
        report = compare_segments(group(i, j, x, 29), fitted_model, rng=1)
        assert report.groups == []  # 29 observations: excluded

        report40 = compare_segments(group(i, j, x, 40), fitted_model, rng=1)
        assert report40.groups[0].n_sim == 120  # 3 * 40 > 100

        report30 = compare_segments(group(i, j, x, 30), fitted_model, rng=1)
        assert report30.groups[0].n_sim == 100  # max(90, 100)

    def test_self_consistency_oracle(self, fitted_model):
        """Refit on the model's own simulations; errors stay small."""
        rng = np.random.default_rng(5)
        key = max(fitted_model.samplers, key=lambda k: fitted_model.samplers[k].n_obs)
        i, j, x = key
        sims = class_table(i, j, [fitted_model.charge_path(i, j, x, rng) for _ in range(1000)])
        refit = charge_model_from_doc(build_model_doc(sims, LIMIT, CAPACITY))
        report = compare_segments(sims, refit, rng=7)
        assert len(report.groups) == 1
        assert report.groups[0].l2_mean_pct < 10.0

    def test_deterministic_given_seed(self, renewal_data, fitted_model):
        _, table = renewal_data
        a = compare_segments(table, fitted_model, rng=3)
        b = compare_segments(table, fitted_model, rng=3)
        assert [g.__dict__ for g in a.groups] == [g.__dict__ for g in b.groups]

    def test_one_batch_per_class_from_rng(self, renewal_data, fitted_model):
        _, table = renewal_data
        report = compare_segments(table, fitted_model, rng=3)
        rng = np.random.default_rng(3)
        expected = []
        for (i, j, x), rows in complete_classes(table).items():
            if rows.size < report.eligibility:
                continue
            real = np.vstack([table.charges[s : s + x] for s in table.start[rows]])
            n_sim = max(3 * rows.size, 100)
            sim = fitted_model.charge_paths(i, j, x, n_sim, rng)
            expected.append(rel_l2_error(real.mean(axis=0), sim.mean(axis=0)))
        assert len(expected) >= 2
        assert [g.l2_mean_pct for g in report.groups] == expected

    def test_real_data_errors_are_moderate(self, renewal_data, fitted_model):
        _, table = renewal_data
        report = compare_segments(table, fitted_model, rng=11)
        assert report.groups, "expected at least one eligible class"
        assert report.mean_l2_average_pct < 25.0


class TestBuildModelDoc:
    def test_default_fits_of_a_thin_class_are_equal(self):
        # 4 runs, fewer than min_group_sample: the class is bootstrap-augmented
        charges = np.random.default_rng(2).uniform(0.05, 0.4, (4, 3))
        table = class_table(1, 0, charges)
        def fit(**kwargs):  # as text, where NaN equals NaN
            return json.dumps(build_model_doc(table, LIMIT, CAPACITY, **kwargs), sort_keys=True)

        assert fit() == fit()
        assert fit() != fit(seed_key=(1,))

    @pytest.mark.parametrize("limit", [LIMIT, 0.1])
    def test_class_fit_matches_per_run_loop(self, corrected_series, limit):
        series = apply_ramp_limit(corrected_series, RampPolicy(limit=limit), capacity=CAPACITY)
        _, table = extract_segments(series)
        doc = build_model_doc(table, limit, CAPACITY, seed_key=(7,))
        assert json.dumps(doc) == json.dumps(per_run_model_doc(table, limit, CAPACITY, seed_key=(7,)))


class TestEmpiricalPenalty:
    def test_matches_manual_recursion(self):
        states = np.array([0, 1, 1, 0, -1, -1])
        charges = np.array([0.0, 0.3, 0.2, 0.0, 0.5, 0.1])
        battery = BatterySpec(0.0, 0.36, 0.18)
        fees = PenaltySpec(10.0, 20.0)
        soc, pen = empirical_penalty(states, charges, battery, fees)
        # step 1: charge 0.3 with headroom 0.18 -> 0.12 spill
        assert soc[1] == 0.36 and pen[1] == approx(10.0 * 0.12)
        # step 2: full battery, whole 0.2 spills
        assert soc[2] == 0.36 and pen[2] == approx(10.0 * 0.2)
        assert pen[3] == 0.0 and soc[3] == 0.36
        # step 4: discharge 0.5 against 0.36 stored
        assert soc[4] == 0.0 and pen[4] == approx(20.0 * (0.5 - 0.36))
        assert pen[5] == approx(20.0 * 0.1)

    def test_neutral_only(self):
        soc, pen = empirical_penalty(
            np.zeros(5, int), np.zeros(5), BatterySpec(0, 1, 0.4), PenaltySpec(1, 1)
        )
        assert np.all(soc == 0.4) and np.all(pen == 0.0)


class TestDailyFolding:
    def test_window_moments(self):
        pen = np.zeros(49)
        pen[1] = 2.0   # hour 1 of day 0
        pen[25] = 4.0  # hour 1 of day 1
        first, second, n_days = daily_penalty_moments(pen, horizon=24)
        assert n_days == 2
        assert first[0] == approx(3.0)
        assert np.all(first == 3.0)
        assert second[0] == approx((4.0 + 16.0) / 2.0)

    def test_discounting_window_relative(self):
        pen = np.zeros(49)
        pen[2] = 1.0
        pen[26] = 1.0
        r = 0.5
        first, _, _ = daily_penalty_moments(pen, horizon=24, discount_rate=r)
        assert first[1] == approx(np.exp(-r * 2))

    def test_too_short(self):
        with pytest.raises(InputError):
            daily_penalty_moments(np.zeros(10), horizon=24)

    def test_matches_mc_moments_on_the_same_windows(self):
        horizon, n_days, r = 6, 5, 0.1
        # three trailing steps make no complete window and are dropped
        pen = np.random.default_rng(3).uniform(0.0, 2.0, n_days * horizon + 1 + 3)
        first, second, got_days = daily_penalty_moments(pen, horizon, r)
        # window d as a path: its step 0 is step d*horizon of the series
        windows = np.stack([pen[d * horizon : (d + 1) * horizon + 1] for d in range(n_days)])
        table = mc_moments(windows[:, 1:], r)
        assert got_days == n_days
        np.testing.assert_array_equal(first, table.mean)
        np.testing.assert_array_equal(second, table.second)

    def test_day_start_conditions(self, renewal_data, corrected_series):
        states, table = renewal_data
        n = len(corrected_series)
        charges = np.abs(corrected_series.generated - corrected_series.corrected)
        soc, _ = empirical_penalty(
            states, charges, BatterySpec(0, 0.36, 0.18), PenaltySpec(1, 1)
        )
        z0, b0, s0 = day_start_conditions(states, table, soc, horizon=24)
        assert len(z0) == (n - 1) // 24
        assert set(np.unique(z0)) <= {-1, 0, 1}
        assert np.all(b0 >= 0)
        assert np.all((s0 >= 0) & (s0 <= 0.36))

    @pytest.mark.parametrize("horizon", [0, -1, -3])
    def test_horizon_below_one_rejected(self, horizon, renewal_data, fitted_kernel, fitted_model):
        states, table = renewal_data
        calls = [
            lambda: daily_penalty_moments(np.zeros(100), horizon=horizon),
            lambda: day_start_conditions(states, table, np.zeros(len(states)), horizon=horizon),
            lambda: sample_step_grids(
                fitted_kernel, fitted_model, [1, 0], np.random.default_rng(0), horizon=horizon
            ),
        ]
        for call in calls:
            with pytest.raises(InputError, match=rf"^horizon must be >= 1, got {horizon}$"):
                call()
