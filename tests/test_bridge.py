import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from windbridge.bridge import (
    BridgeParams,
    ChargeBridge,
    ErrorPath,
    bb_transition,
    clip_error,
    compute_initial_power,
    decompose,
    embed_bridge,
    error_bounds,
    extract_peak,
    sample_latent_bridge,
    triangle_path,
)
from windbridge.errors import InputError
from windbridge.segmentation import complete_classes

LIMIT = 0.02
CAPACITY = 2.0


def complete_runs(table):
    """``(i, j, entry_power, charges)`` of every uncensored charging or discharging run."""
    for (i, j, x), rows in complete_classes(table).items():
        for entry_power, charges in zip(table.entry_power[rows], table.charge_matrix(rows, x)):
            yield i, j, entry_power, charges


class TestEmbedAndPeak:
    def test_embedding(self):
        bridge = embed_bridge(1, 0, [0.3, 0.5, 0.2])
        np.testing.assert_allclose(bridge.values, [0, 0.3, 0.5, 0.2, 0])

    def test_single_step(self):
        bridge = embed_bridge(-1, 0, [0.4])
        np.testing.assert_allclose(bridge.values, [0, 0.4, 0])

    def test_all_zero(self):
        bridge = embed_bridge(1, 0, [0.0, 0.0])
        assert np.all(bridge.values == 0.0)

    def test_idle_state_rejected(self):
        with pytest.raises(InputError):
            embed_bridge(0, 0, [0.0])

    def test_peak(self):
        bridge = embed_bridge(1, 0, [0.3, 0.5, 0.2])
        assert extract_peak(bridge) == (2, 0.5)

    def test_peak_tie_breaks_to_smallest(self):
        bridge = embed_bridge(1, 0, [0.4, 0.4])
        assert extract_peak(bridge) == (1, 0.4)

    def test_peak_single(self):
        bridge = embed_bridge(1, 0, [0.7])
        assert extract_peak(bridge) == (1, 0.7)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=30))
    def test_peak_matches_scan_oracle(self, charges):
        bridge = embed_bridge(1, 0, charges)
        tau, h = extract_peak(bridge)
        best_k, best_v = 1, charges[0]
        for k, v in enumerate(charges, start=1):
            if v > best_v:
                best_k, best_v = k, v
        assert (tau, h) == (best_k, best_v)


class TestTriangle:
    def test_apex_and_endpoints(self):
        path = triangle_path(BridgeParams(rho=1.0, tau=2, h=0.8), 4)
        assert path[2] == approx(0.8)
        assert path[0] == 0.0
        assert path[5] == 0.0

    def test_hand_value(self):
        path = triangle_path(BridgeParams(rho=1.0, tau=2, h=1.0), 4)
        np.testing.assert_allclose(path, [0.0, 0.5, 1.0, 2.0 / 3.0, 1.0 / 3.0, 0.0])

    def test_path_matches_scalar(self):
        # the piecewise-linear formula, one time at a time
        def g(t, tau, h, x):
            return h * t / tau if t <= tau else h * (x + 1 - t) / (x + 1 - tau)

        for tau in (1, 3, 7):
            path = triangle_path(BridgeParams(rho=1.0, tau=tau, h=0.6), 7)
            for t in range(9):
                assert path[t] == approx(g(t, tau, 0.6, 7))

    def test_invalid_tau(self):
        with pytest.raises(InputError):
            triangle_path(BridgeParams(rho=1.0, tau=5, h=1.0), 4)
        with pytest.raises(InputError):
            triangle_path(BridgeParams(rho=1.0, tau=0, h=1.0), 4)


class TestInitialPower:
    def test_discharging_example(self):
        assert compute_initial_power(-1, 1.5, 4, 0.02, 2.0) == approx(1.48)

    def test_charging_example(self):
        assert compute_initial_power(1, 1.5, 4, 0.02, 2.0) == approx(1.9)

    def test_discharging_lower_clamp(self):
        assert compute_initial_power(-1, 0.0, 4, 0.02, 2.0) == approx(0.02 * 5)

    def test_idle_rejected(self):
        with pytest.raises(InputError):
            compute_initial_power(0, 1.0, 3, 0.02, 2.0)


class TestDecomposeAndClip:
    def test_reconstruction_identity(self):
        charges = [0.31, 0.55, 0.41]
        bridge = embed_bridge(1, 0, charges)
        tau, h = extract_peak(bridge)
        params = BridgeParams(rho=1.0, tau=tau, h=h)
        err = decompose(bridge, params)
        g = triangle_path(params, 3)
        np.testing.assert_array_equal(g[1:4] + err.values, bridge.values[1:4])

    def test_error_zero_at_peak(self):
        bridge = embed_bridge(1, 0, [0.2, 0.9, 0.1])
        tau, h = extract_peak(bridge)
        err = decompose(bridge, BridgeParams(rho=2.0, tau=tau, h=h))
        assert err.values[tau - 1] == 0.0

    def test_triangle_shaped_bridge_has_zero_error(self):
        params = BridgeParams(rho=5.0, tau=2, h=0.6)
        g = triangle_path(params, 4)
        bridge = ChargeBridge(values=g, i=1, j=0, x=4)
        err = decompose(bridge, params)
        np.testing.assert_array_equal(err.values, np.zeros(4))

    def test_clip_passthrough(self):
        params = BridgeParams(rho=1.0, tau=2, h=0.3)
        err = clip_error(np.zeros(4), params, 4, LIMIT)
        np.testing.assert_array_equal(err.values, np.zeros(4))
        assert not err.clipped.any()

    def test_clip_floor(self):
        params = BridgeParams(rho=1.0, tau=2, h=0.3)
        g = triangle_path(params, 4)[1:5]
        err = clip_error(np.full(4, -1e3), params, 4, LIMIT)
        np.testing.assert_array_equal(err.values, -g)
        assert err.clipped.all()

    def test_clip_ceiling(self):
        params = BridgeParams(rho=1.0, tau=2, h=0.3)
        g = triangle_path(params, 4)[1:5]
        k = np.arange(1, 5)
        err = clip_error(np.full(4, 1e3), params, 4, LIMIT)
        np.testing.assert_allclose(err.values, params.rho - (k - 1) * LIMIT - g)
        assert err.clipped.all()

    def test_inconsistent_parameters(self):
        # rho < (x-1)*limit leaves an empty band at the last step
        params = BridgeParams(rho=0.01, tau=1, h=0.005)
        with pytest.raises(InputError, match="inconsistent"):
            clip_error(np.zeros(5), params, 5, 0.02)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_clip_respects_bounds(self, seed):
        rng = np.random.default_rng(seed)
        x = int(rng.integers(1, 20))
        tau = int(rng.integers(1, x + 1))
        rho = float(rng.uniform((x + 1) * LIMIT, 2.0))
        h = float(rng.uniform(1e-6, max(rho - tau * LIMIT, 2e-6)))
        params = BridgeParams(rho=rho, tau=tau, h=h)
        y = rng.normal(scale=0.5, size=x)
        err = clip_error(y, params, x, LIMIT)
        lower, upper = error_bounds(params, x, LIMIT)
        assert np.all(err.values >= lower) and np.all(err.values <= upper)
        c = triangle_path(params, x)[1 : x + 1] + err.values
        assert np.all(c >= -1e-12)
        assert np.all(c <= rho - (np.arange(x)) * LIMIT + 1e-12)

    def test_batch_matches_rows(self):
        rng = np.random.default_rng(12)
        x = 7
        tau = rng.integers(1, x + 1, size=30)
        rho = rng.uniform((x + 1) * LIMIT, 2.0, size=30)
        h = rng.uniform(1e-6, rho - tau * LIMIT)
        y = rng.normal(scale=0.5, size=(30, x))
        batch = BridgeParams(rho=rho, tau=tau, h=h)
        g = triangle_path(batch, x)
        err = clip_error(y, batch, x, LIMIT)
        for r in range(30):
            row = BridgeParams(rho=float(rho[r]), tau=int(tau[r]), h=float(h[r]))
            np.testing.assert_array_equal(g[r], triangle_path(row, x))
            one = clip_error(y[r], row, x, LIMIT)
            np.testing.assert_array_equal(err.values[r], one.values)
            np.testing.assert_array_equal(err.clipped[r], one.clipped)
            np.testing.assert_array_equal(err.triangle[r], g[r, 1 : x + 1])

    def test_batch_names_inconsistent_row(self):
        batch = BridgeParams(rho=np.array([1.0, 0.01]), tau=np.array([2, 1]), h=np.array([0.3, 0.005]))
        with pytest.raises(InputError, match=r"k=2 \(rho=0.01, tau=1, h=0.005, x=5\)"):
            clip_error(np.zeros((2, 5)), batch, 5, 0.02)


class TestRealDataBounds:
    def test_charging_side_bound_is_exact(self, renewal_data):
        """Charging charges never exceed rho - (k-1)*limit."""
        _, table = renewal_data
        checked = 0
        for i, _, entry_power, charges in complete_runs(table):
            if i != 1:
                continue
            rho = compute_initial_power(i, entry_power, charges.size, LIMIT, CAPACITY)
            bound = rho - np.arange(charges.size) * LIMIT
            assert np.all(charges <= bound + 1e-9)
            assert np.all(charges >= -1e-12)
            checked += 1
        assert checked > 100

    def test_discharging_side_bound_with_ramp_slack(self, renewal_data):
        """Discharging charges can exceed the band by at most one ramp step,
        which happens exactly when generated power drops below the limit."""
        _, table = renewal_data
        checked = 0
        for i, _, entry_power, charges in complete_runs(table):
            if i != -1:
                continue
            rho = compute_initial_power(i, entry_power, charges.size, LIMIT, CAPACITY)
            bound = rho - np.arange(charges.size) * LIMIT
            assert np.all(charges <= bound + LIMIT + 1e-9)
            checked += 1
        assert checked > 100

    def test_reconstruction_on_extracted_segments(self, renewal_data):
        _, table = renewal_data
        for i, j, _, charges in complete_runs(table):
            bridge = embed_bridge(i, j, charges)
            tau, h = extract_peak(bridge)
            params = BridgeParams(rho=2.0, tau=tau, h=h)
            err = decompose(bridge, params)
            g = triangle_path(params, bridge.x)
            recon = g[1 : bridge.x + 1] + err.values
            np.testing.assert_allclose(recon, bridge.values[1 : bridge.x + 1], rtol=0, atol=1e-14)


class TestBridgeTransition:
    def test_standard_bridge_variance(self):
        mean, var = bb_transition(0.0, 0, 3, 6, 1.0)
        assert mean == 0.0
        assert var == approx(1.5)

    def test_pinning_limit(self):
        mean, var = bb_transition(0.7, 0, 5, 6, 1.0)
        assert var == approx(1.0 * 5 * 1 / 6)
        mean2, var2 = bb_transition(0.7, 0, 5.999, 6, 1.0)
        assert var2 < 0.01 and abs(mean2) < 0.001

    def test_sigma_scaling(self):
        _, v1 = bb_transition(0.0, 1, 2, 6, 1.0)
        _, v2 = bb_transition(0.0, 1, 2, 6, 2.0)
        assert v2 == approx(4.0 * v1)

    def test_time_validation(self):
        with pytest.raises(InputError):
            bb_transition(0.0, 0, 6, 6, 1.0)
        with pytest.raises(InputError):
            bb_transition(0.0, 3, 2, 6, 1.0)


class TestLatentBridge:
    def test_pinned_at_tau_exactly(self):
        rng = np.random.default_rng(0)
        paths = sample_latent_bridge(6, 3, 1.0, rng, n_paths=500)
        assert np.all(paths[:, 2] == 0.0)

    def test_moment_match_small(self):
        rng = np.random.default_rng(1)
        x, tau, sigma = 6, 3, 1.0
        paths = sample_latent_bridge(x, tau, sigma, rng, n_paths=200_00)
        assert np.all(np.abs(paths.mean(axis=0)) < 0.05)
        # first-piece covariance: sigma^2 (s^t - s t / tau)
        cov = np.cov(paths[:, 0], paths[:, 1], ddof=1)
        assert cov[0, 0] == approx(1 * (1 - 1 / tau), rel=0.05)
        assert cov[0, 1] == approx(1 - 2 / tau, rel=0.1)

    def test_pieces_independent(self):
        rng = np.random.default_rng(2)
        paths = sample_latent_bridge(6, 3, 1.0, rng, n_paths=20_000)
        cross = np.corrcoef(paths[:, 1], paths[:, 4])[0, 1]
        assert abs(cross) < 0.05

    def test_tau_equals_x(self):
        rng = np.random.default_rng(3)
        paths = sample_latent_bridge(4, 4, 0.5, rng, n_paths=10)
        assert paths.shape == (10, 4)
        assert np.all(paths[:, 3] == 0.0)

    def test_per_path_sigma_scales_each_row(self):
        sigma = np.array([0.1, 0.5, 2.0])
        paths = sample_latent_bridge(6, 2, sigma, np.random.default_rng(4), n_paths=3)
        unit = sample_latent_bridge(6, 2, 1.0, np.random.default_rng(4), n_paths=3)
        np.testing.assert_array_equal(paths, sigma[:, None] * unit)
        with pytest.raises(InputError, match="positive"):
            sample_latent_bridge(6, 2, np.array([0.1, 0.0]), np.random.default_rng(4), n_paths=2)


class TestBridgeCsv:
    def test_layout(self, tmp_path):
        from windbridge.bridge import write_bridge_csv

        bridge = embed_bridge(1, 0, [0.3, 0.5])
        path = tmp_path / "bridge.csv"
        write_bridge_csv(path, bridge, comment="stamp")
        lines = path.read_text().splitlines()
        assert lines[0] == "# stamp"
        assert lines[1] == "k,value"
        assert lines[2] == "0,0.0"
        assert lines[3] == "1,0.3"
        assert lines[-1] == "3,0.0"
