"""Acceptance suite: one test per release criterion, each at its stated scale
and tolerance, printing a PASS line with its runtime (run with ``pytest -s``).
"""

import json
import time

import numpy as np
import pytest
from pytest import approx

from windbridge.bridge import (
    ErrorPath,
    decompose,
    extract_peak,
    sample_latent_bridge,
    triangle,
)
from windbridge.estimation import (
    SigmaModel,
    attainable_param_support,
    fit_joint_density,
    fit_sigma_regression,
    mle_sigma,
)
from windbridge.pipeline import RunConfig, SyntheticWindSpec, run_pipeline
from windbridge.power import PowerSeries, RampPolicy, apply_ramp_limit
from windbridge.segmentation import SemiMarkovKernel, complete_classes, estimate_kernel
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

from conftest import DegenerateSampler, fixed_count_chains, nested_q, sojourn_pmf, successor_pmf

LIMIT = 0.02
CAPACITY = 2.0


class timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def report(n, elapsed, budget, detail):
    print(f"\n[acceptance] criterion {n}: PASS ({elapsed:.1f} s < {budget:.0f} s) {detail}")


def test_criterion_01_ramp_correction_invariant():
    with timer() as t:
        rng = np.random.default_rng(1001)
        total = 0
        for series_idx in range(20):
            n = 50_000
            e = rng.uniform(0.0, CAPACITY, n)
            limit = float(rng.uniform(0.005, 0.5))
            out = apply_ramp_limit(PowerSeries(generated=e), RampPolicy(limit=limit), capacity=CAPACITY)
            eb = out.corrected
            assert np.all(np.abs(np.diff(eb)) <= limit + 1e-12)
            no_bind = (e[1:] >= eb[:-1] - limit) & (e[1:] <= eb[:-1] + limit)
            np.testing.assert_array_equal(eb[1:][no_bind], e[1:][no_bind])
            total += n
        assert total == 1_000_000
        hand = apply_ramp_limit(
            PowerSeries(generated=np.array([1.00, 1.50, 1.01, 0.90, 1.03])),
            RampPolicy(limit=0.02),
        )
        np.testing.assert_allclose(hand.corrected, [1.00, 1.02, 1.01, 0.99, 1.01], atol=1e-15)
    assert t.elapsed < 10.0
    report(1, t.elapsed, 10, "1e6 ramp-corrected steps, band + no-bind identity + 5-point example")


def test_criterion_02_kernel_identities_and_round_trip():
    with timer() as t:
        q = {
            1: {0: {1: 0.25, 2: 0.25, 5: 0.1}, -1: {1: 0.2, 3: 0.2}},
            0: {1: {1: 0.3, 2: 0.2, 8: 0.1}, -1: {2: 0.25, 4: 0.15}},
            -1: {0: {1: 0.45, 3: 0.15}, 1: {2: 0.3, 6: 0.1}},
        }
        kernel = SemiMarkovKernel(q, {1: 1, 0: 1, -1: 1})
        # one block of 1,000 rows of 100 jumps each
        states, sojourns = fixed_count_chains(kernel, np.zeros(1000), np.random.default_rng(1002), 100)
        assert np.all((sojourns > 0).sum(axis=1) == 100)
        back = estimate_kernel(states[:, :-1], states[:, 1:], sojourns)
        back_q = nested_q(back)
        # defining identities hold to 1e-12 on the estimate
        for i in sorted(back_q):
            assert sum(v for jj in back_q[i].values() for v in jj.values()) == approx(1.0, abs=1e-12)
            xs, probs = sojourn_pmf(back, i)
            for k, hv in zip(xs.tolist(), probs):
                assert hv == approx(sum(back_q[i][j].get(k, 0.0) for j in back_q[i]), abs=1e-12)
                cond = successor_pmf(back, i, k)
                assert sum(cond.values()) == approx(1.0, abs=1e-12)
                for j, c in cond.items():
                    assert c == approx(back_q[i][j][k] / hv, abs=1e-12)
        # L1 recovery of the generating kernel, per source state
        for i in q:
            err = sum(
                abs(back_q[i].get(j, {}).get(k, 0.0) - q[i][j][k]) for j in q[i] for k in q[i][j]
            )
            assert err < 0.05, f"state {i}: L1 error {err}"
    assert t.elapsed < 30.0
    report(2, t.elapsed, 30, "identities at 1e-12; 1e5-transition round trip, per-state L1 < 0.05")


def test_criterion_03_bridge_math(renewal_data):
    with timer() as t:
        _, table = renewal_data
        checked = 0
        for (i, j, x), rows in complete_classes(table).items():
            charges = table.charge_matrix(rows, x)
            tau, h = extract_peak(charges)
            err = decompose(charges, np.full(rows.size, CAPACITY), tau, h, LIMIT)
            recon = triangle(tau[:, None], h[:, None], x, np.arange(1, x + 1)) + err.values
            np.testing.assert_allclose(recon, charges, rtol=0, atol=1e-14)
            checked += rows.size
        assert checked > 1000

        x, tau, sigma, n = 6, 3, 1.0, 100_000
        paths = sample_latent_bridge(x, tau, sigma, np.random.default_rng(1003), n_paths=n)
        assert np.all(paths[:, tau - 1] == 0.0)
        cov = np.cov(paths, rowvar=False, ddof=1)

        def piece_cov(s, v):
            if s <= tau and v <= tau:
                return min(s, v) - s * v / tau
            if s > tau and v > tau:
                s2, v2 = s - tau, v - tau
                return min(s2, v2) - s2 * v2 / (x + 1 - tau)
            return 0.0

        for s in range(1, x + 1):
            for v in range(1, x + 1):
                if s == tau or v == tau:
                    continue
                want = piece_cov(s, v)
                got = cov[s - 1, v - 1]
                if want == 0.0:
                    assert abs(got) < 0.02
                else:
                    assert got == approx(want, rel=0.02), (s, v, got, want)
    assert t.elapsed < 60.0
    report(3, t.elapsed, 60, f"reconstruction on {checked} segments; 1e5-path covariance within 2%")


def test_criterion_04_sigma_mle_recovery():
    with timer() as t:
        rng = np.random.default_rng(1004)
        true_sigma, x, tau = 0.05, 50, 17
        sq = []
        for _ in range(200):
            y = sample_latent_bridge(x, tau, true_sigma, rng)[0]
            err = ErrorPath(values=y, clipped=np.zeros(x, bool))
            sq.append(mle_sigma(err, tau, x) ** 2)
        pooled = float(np.sqrt(np.mean(sq)))
        assert pooled == approx(true_sigma, rel=0.05)
    assert t.elapsed < 10.0
    report(4, t.elapsed, 10, f"pooled sigma {pooled:.4f} vs true 0.05 on 200 length-50 bridges")


def test_criterion_05_box_cox_regression_recovery():
    with timer() as t:
        rng = np.random.default_rng(1005)
        n = 500
        rho = rng.uniform(0.5, 1.5, n)
        tau = rng.integers(1, 10, n).astype(float)
        h = rng.uniform(0.05, 0.5, n)
        x = rng.integers(2, 20, n).astype(float)
        log_sigma = -4.0 + 3.0 * h + 0.15 * tau + 1.0 * rho * h + 0.01 * rng.standard_normal(n)
        obs = np.column_stack([np.exp(log_sigma), rho, tau, h, x])
        model = fit_sigma_regression(obs)
        assert abs(model.lam - 0.0) <= 0.1
        assert model.adj_r2 > 0.99
    assert t.elapsed < 10.0
    report(5, t.elapsed, 10, f"lambda {model.lam:+.2f} within 0.1 of 0, adj R2 {model.adj_r2:.4f} > 0.99")


def test_criterion_06_sampler_support():
    with timer() as t:
        rng = np.random.default_rng(1006)
        n_configs = 6
        for c in range(n_configs):
            side = int(rng.choice([-1, 1]))
            x = int(rng.integers(1, 25))
            limit = float(rng.uniform(0.01, 0.2))
            support = attainable_param_support(side, x, limit, CAPACITY)
            pts = []
            while len(pts) < 50:
                rho = rng.uniform(support.rho_min, support.rho_max)
                tau = int(rng.integers(1, x + 1))
                hmax = float(support.h_max(rho, tau))
                if hmax <= 1e-9:
                    continue
                pts.append((rho, tau, rng.uniform(0.05, 0.95) * hmax))
            sampler = fit_joint_density(pts, support, rng=rng)
            rho_s, tau_s, h_s = sampler.sample_n(10_000, rng)
            assert np.all(support.contains(rho_s, tau_s, h_s))
            assert np.all(tau_s == tau_s.astype(int))
            assert np.all((tau_s >= 1) & (tau_s <= x))
    assert t.elapsed < 30.0
    report(6, t.elapsed, 30, f"{n_configs} randomized classes x 1e4 draws, all inside the box")


def test_criterion_07_soc_penalty_oracle(fitted_kernel, fitted_model):
    with timer() as t:
        # deterministic cycle against an explicit recursion, bitwise
        q = {1: {0: {3: 1.0}}, 0: {-1: {3: 1.0}}, -1: {1: {3: 1.0}}}
        kernel = SemiMarkovKernel(q, {1: 1, 0: 1, -1: 1})
        entries = {(1, 0, 3): (1.9, 2, 0.5), (-1, 1, 3): (1.0, 2, 0.5)}
        samplers = {
            key: DegenerateSampler(attainable_param_support(key[0], key[2], LIMIT, CAPACITY), *val)
            for key, val in entries.items()
        }
        model = ChargeModel(
            samplers=samplers,
            sigma_models={k[:2]: SigmaModel.constant(1e-6) for k in entries},
            limit=LIMIT, capacity=CAPACITY, sigma_default=1e-6,
        )
        battery = BatterySpec(0.0, 0.36, 0.18)
        fees = PenaltySpec(21.52, 26.50, discount_rate=0.002)
        n_steps = 1000
        path = simulate_penalty_path(
            kernel, model, battery, fees, horizon=n_steps, initial_state=1, seed=0
        )

        charge_for = {
            1: np.minimum(triangle(2, 0.5, 3, np.arange(5)), 1.9 - np.arange(-1, 4) * LIMIT),
            0: np.zeros(5),
            -1: np.minimum(triangle(2, 0.5, 3, np.arange(5)), 1.0 - np.arange(-1, 4) * LIMIT),
        }
        nxt = {1: 0, 0: -1, -1: 1}
        s_prev, state, seg_start = battery.soc_init, 1, 0
        soc, pen = [s_prev], [0.0]
        for step in range(1, n_steps + 1):
            if step - seg_start >= 3:
                state, seg_start = nxt[state], step
            c = float(charge_for[state][step - seg_start + 1])
            if state == 1:
                pen.append(fees.up_fee * max(c - (battery.soc_max - s_prev), 0.0))
                s_prev = min(s_prev + c, battery.soc_max)
            elif state == -1:
                pen.append(fees.down_fee * max(c - (s_prev - battery.soc_min), 0.0))
                s_prev = max(s_prev - c, battery.soc_min)
            else:
                pen.append(0.0)
            soc.append(s_prev)
        w = np.cumsum(np.asarray(pen) * np.exp(-fees.discount_rate * np.arange(n_steps + 1)))
        np.testing.assert_array_equal(path.soc, soc)
        np.testing.assert_array_equal(path.penalty, pen)
        np.testing.assert_array_equal(discounted_penalty(path.penalty, fees.discount_rate), w)

        # confinement + complementarity over 1e5 randomized steps
        long_path = simulate_penalty_path(
            fitted_kernel, fitted_model, battery, fees, horizon=100_000, seed=1007
        )
        s, m, st = long_path.soc, long_path.penalty, long_path.states
        assert s.size > 100_000
        assert np.all((s >= battery.soc_min - 1e-12) & (s <= battery.soc_max + 1e-12))
        charging = (m > 0) & (st == 1)
        discharging = (m > 0) & (st == -1)
        assert np.all(st[m > 0] != 0)
        assert np.all(s[charging] == battery.soc_max)
        assert np.all(s[discharging] == battery.soc_min)
    assert t.elapsed < 30.0
    report(7, t.elapsed, 30, "bitwise oracle over 1e3 steps; confinement over 1e5 steps")


def test_criterion_08_mc_moment_estimator(fitted_kernel, fitted_model):
    with timer() as t:
        fees0 = PenaltySpec(1.0, 1.0, discount_rate=0.0)
        table = mc_moments(np.ones((50, 24)), fees0.discount_rate)
        np.testing.assert_array_equal(table.mean, np.arange(1.0, 25.0))
        np.testing.assert_array_equal(table.std, np.zeros(24))

        toy = mc_moments(np.array([[0.0], [2.0]]), fees0.discount_rate)
        assert toy.mean[0] == 1.0 and toy.std[0] == approx(np.sqrt(2.0))

        battery = BatterySpec(0.0, 0.36, 0.18)
        fees = PenaltySpec(21.52, 26.50)
        horizon = 24
        ses = {}
        block = 128
        for n_paths in (100, 1000, 10_000):
            # whole idle-start blocks, one stream per block, truncated to n_paths
            penalty = np.concatenate([
                battery_recursion(
                    *sample_step_grids(
                        fitted_kernel, fitted_model, np.zeros(block, dtype=int),
                        np.random.default_rng(np.random.SeedSequence((1008, n_paths, b))),
                        horizon=horizon,
                    ),
                    battery, fees, np.full(block, battery.soc_init),
                )[1]
                for b in range(-(-n_paths // block))
            ])[:n_paths]
            ses[n_paths] = float(mc_moments(penalty[:, 1:], fees.discount_rate).se_mean[-1])
        for a, b in ((100, 1000), (1000, 10_000), (100, 10_000)):
            ratio = ses[a] / ses[b]
            theory = np.sqrt(b / a)
            assert ratio == approx(theory, rel=0.2), (a, b, ratio, theory)
    assert t.elapsed < 120.0
    report(8, t.elapsed, 120, f"closed forms exact; SE ratios {ses[100]/ses[1000]:.2f}, "
                              f"{ses[1000]/ses[10_000]:.2f} vs sqrt(10)=3.16 within 20%")


@pytest.fixture(scope="module")
def full_pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_run")
    cfg = RunConfig(
        out_dir=out,
        synthetic=SyntheticWindSpec(n_steps=50_000),
        limits=(0.01, 0.05, 0.07),
        n_paths=1500,
        seed=424242,
    )
    with timer() as t:
        run_pipeline(cfg)
    return cfg, t.elapsed


def test_criterion_09_end_to_end_self_consistency(full_pipeline):
    cfg, elapsed = full_pipeline
    details = []
    for frac in cfg.limits:
        doc = json.loads((cfg.out_dir / f"validation_{cfg.limit_tag(frac)}.json").read_text())
        avg_l2 = doc["mean_l2_average_pct"]
        mape1 = doc["penalty"]["mape_first_moment_pct"]
        assert doc["groups"], f"limit {frac}: no classes with >= 30 observations"
        assert avg_l2 < 25.0, f"limit {frac}: mean L2 average {avg_l2}"
        assert mape1 <= 25.0, f"limit {frac}: first-moment MAPE {mape1}"
        details.append(f"{frac:g}: L2 {avg_l2:.1f}%, MAPE {mape1:.1f}%")
    assert elapsed < 600.0
    report(9, elapsed, 600, "5e4 hours, three limits (" + "; ".join(details) + ")")


def test_criterion_10_pipeline_determinism(tmp_path):
    with timer() as t:
        runs = []
        for name in ("a", "b"):
            cfg = RunConfig(
                out_dir=tmp_path / name,
                synthetic=SyntheticWindSpec(n_steps=10_000),
                limits=(0.01, 0.05, 0.07),
                n_paths=100,
                seed=99,
            )
            runs.append(sorted(run_pipeline(cfg), key=lambda p: p.name))
        for pa, pb in zip(*runs):
            assert pa.name == pb.name
            assert pa.read_bytes() == pb.read_bytes(), f"{pa.name} differs between reruns"
    report(10, t.elapsed, 600, f"{len(runs[0])} artifacts byte-identical across reruns")
