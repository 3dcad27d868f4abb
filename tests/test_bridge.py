import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from windbridge.bridge import (
    CHUNK_POINTS,
    ErrorPath,
    _chunks,
    bb_transition,
    clip_error,
    clip_to_band,
    compute_initial_power,
    decompose,
    extract_peak,
    latent_bridges,
    sample_latent_bridge,
    triangle,
    write_bridge_csv,
)
from windbridge.errors import InputError
from windbridge.segmentation import complete_classes

LIMIT = 0.02
CAPACITY = 2.0


def complete_runs(table):
    """``(i, j, x, entry_powers, charges)`` of every class of uncensored charging or
    discharging runs, charges as an ``(n, x)`` matrix."""
    for (i, j, x), rows in complete_classes(table).items():
        yield i, j, x, table.entry_power[rows], table.charge_matrix(rows, x)


class TestEmbedAndPeak:
    def test_all_zero(self):
        # a flat run: height 0, which the fit skips
        assert extract_peak([0.0, 0.0]) == (1, 0.0)

    def test_idle_state_rejected(self):
        with pytest.raises(InputError):
            compute_initial_power(0, np.array([1.0, 0.5]), 3, LIMIT, CAPACITY)

    def test_peak(self):
        assert extract_peak([0.3, 0.5, 0.2]) == (2, 0.5)

    def test_peak_tie_breaks_to_smallest(self):
        assert extract_peak([0.4, 0.4]) == (1, 0.4)

    def test_peak_single(self):
        assert extract_peak([0.7]) == (1, 0.7)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=30))
    def test_peak_matches_scan_oracle(self, charges):
        tau, h = extract_peak(charges)
        best_k, best_v = 1, charges[0]
        for k, v in enumerate(charges, start=1):
            if v > best_v:
                best_k, best_v = k, v
        assert (tau, h) == (best_k, best_v)

    def test_matrix_rows_match_row_peaks(self):
        charges = np.array([[0.3, 0.5, 0.2], [0.4, 0.4, 0.1], [0.0, 0.0, 0.0], [0.1, 0.2, 0.9]])
        tau, h = extract_peak(charges)
        assert tau.tolist() == [2, 1, 1, 3]
        assert h.tolist() == [0.5, 0.4, 0.0, 0.9]
        for row, t, v in zip(charges, tau, h):
            assert extract_peak(row) == (t, v)


class TestTriangle:
    def test_apex_and_endpoints(self):
        path = triangle(2, 0.8, 4, np.arange(6))
        assert path[2] == approx(0.8)
        assert path[0] == 0.0
        assert path[5] == 0.0

    def test_hand_value(self):
        path = triangle(2, 1.0, 4, np.arange(6))
        np.testing.assert_allclose(path, [0.0, 0.5, 1.0, 2.0 / 3.0, 1.0 / 3.0, 0.0])

    def test_path_matches_scalar(self):
        # the piecewise-linear formula, one time at a time
        def g(t, tau, h, x):
            return h * t / tau if t <= tau else h * (x + 1 - t) / (x + 1 - tau)

        for tau in (1, 3, 7):
            path = triangle(tau, 0.6, 7, np.arange(9))
            for t in range(9):
                assert path[t] == approx(g(t, tau, 0.6, 7))

    def test_invalid_tau(self):
        # one check behind the triangle and every clip band, naming the first
        # bad peak: one run's, or a class's with one peak per row
        for tau, first in ((5, 5), (0, 0), ([2, 5, 0], 5)):
            tau = np.asarray(tau)
            rho, h, k = np.full(tau.shape, 1.0), np.full(tau.shape, 0.01), np.arange(1.0, 5.0)
            per_row = np.zeros(tau.shape + (4,))
            per_point = [np.broadcast_to(np.expand_dims(v, -1), per_row.shape).ravel() for v in (rho, tau, h)]
            calls = [
                lambda: triangle(np.expand_dims(tau, -1), 1.0, 4, np.arange(6)),
                lambda: decompose(per_row, rho, tau, h, LIMIT),
                lambda: clip_error(per_row, rho, tau, h, LIMIT),
                lambda: clip_to_band(per_row.ravel(), *per_point, 4, np.resize(k, per_row.size), LIMIT),
            ]
            for call in calls:
                with pytest.raises(InputError, match=rf"^peak time {first} outside \{{1\.\.4\}}$"):
                    call()


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

    @pytest.mark.parametrize("i", [-1, 1])
    def test_array_matches_scalars(self, i):
        entry = np.array([0.0, 0.01, 0.5, 1.5, 1.99, 2.0])
        rho = compute_initial_power(i, entry, 4, 0.02, 2.0)
        assert rho.shape == entry.shape
        for e, r in zip(entry.tolist(), rho.tolist()):
            assert compute_initial_power(i, e, 4, 0.02, 2.0) == r

    def test_one_side_per_row_matches_scalars(self):
        side = np.array([-1, 1, 1, -1, 1, -1])
        entry = np.array([0.0, 0.01, 0.5, 1.5, 1.99, 2.0])
        rho = compute_initial_power(side, entry, 4, 0.02, 2.0)
        for i, e, r in zip(side.tolist(), entry.tolist(), rho.tolist()):
            assert np.float64(compute_initial_power(i, e, 4, 0.02, 2.0)).tobytes() == np.float64(r).tobytes()
        with pytest.raises(InputError, match="charging or discharging"):
            compute_initial_power(np.array([1, 0, -1]), entry[:3], 4, 0.02, 2.0)


class TestDecomposeAndClip:
    def test_reconstruction_identity(self):
        charges = [0.31, 0.55, 0.41]
        tau, h = extract_peak(charges)
        err = decompose(charges, 1.0, tau, h, LIMIT)
        g = triangle(tau, h, 3, np.arange(5))
        np.testing.assert_array_equal(g[1:4] + err.values, charges)

    def test_error_zero_at_peak(self):
        charges = [0.2, 0.9, 0.1]
        tau, h = extract_peak(charges)
        err = decompose(charges, 2.0, tau, h, LIMIT)
        assert err.values[tau - 1] == 0.0

    def test_triangle_shaped_bridge_has_zero_error(self):
        g = triangle(2, 0.6, 4, np.arange(6))
        err = decompose(g[1:5], 5.0, 2, 0.6, LIMIT)
        np.testing.assert_array_equal(err.values, np.zeros(4))

    def test_decompose_flags_clip_bounds(self):
        # the peak sits on its own triangle, the last step on the ceiling
        err = decompose([0.5, 0.3, 0.46], 0.5, 1, 0.5, LIMIT)
        assert err.clipped.tolist() == [True, False, True]

    def test_decompose_batch_matches_rows(self):
        rng = np.random.default_rng(13)
        x = 6
        charges = rng.uniform(0.0, 0.5, size=(40, x))
        tau, h = extract_peak(charges)
        rho = rng.uniform(0.5, 2.0, size=40)
        batch = decompose(charges, rho, tau, h, LIMIT)
        assert batch.values.shape == batch.clipped.shape == (40, x)
        for r in range(40):
            one = decompose(charges[r], float(rho[r]), int(tau[r]), float(h[r]), LIMIT)
            np.testing.assert_array_equal(batch.values[r], one.values)
            np.testing.assert_array_equal(batch.clipped[r], one.clipped)

    def test_clip_passthrough(self):
        err = clip_error(np.zeros(4), 1.0, 2, 0.3, LIMIT)
        np.testing.assert_array_equal(err.values, np.zeros(4))
        assert not err.clipped.any()

    def test_clip_floor(self):
        g = triangle(2, 0.3, 4, np.arange(1, 5))
        err = clip_error(np.full(4, -1e3), 1.0, 2, 0.3, LIMIT)
        np.testing.assert_array_equal(err.values, -g)
        assert err.clipped.all()

    def test_clip_ceiling(self):
        rho = 1.0
        g = triangle(2, 0.3, 4, np.arange(1, 5))
        k = np.arange(1, 5)
        err = clip_error(np.full(4, 1e3), rho, 2, 0.3, LIMIT)
        np.testing.assert_allclose(err.values, rho - (k - 1) * LIMIT - g)
        assert err.clipped.all()

    def test_inconsistent_parameters(self):
        # rho < (x-1)*limit leaves an empty band at the last step
        with pytest.raises(InputError, match="inconsistent"):
            clip_error(np.zeros(5), 0.01, 1, 0.005, 0.02)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_clip_respects_bounds(self, seed):
        rng = np.random.default_rng(seed)
        x = int(rng.integers(1, 20))
        tau = int(rng.integers(1, x + 1))
        rho = float(rng.uniform((x + 1) * LIMIT, 2.0))
        h = float(rng.uniform(1e-6, max(rho - tau * LIMIT, 2e-6)))
        y = rng.normal(scale=0.5, size=x)
        err = clip_error(y, rho, tau, h, LIMIT)
        k = np.arange(1, x + 1)
        g = triangle(tau, h, x, k)
        lower, upper = -g, rho - (k - 1) * LIMIT - g
        assert np.all(err.values >= lower) and np.all(err.values <= upper)
        c = g + err.values
        assert np.all(c >= -1e-12)
        assert np.all(c <= rho - (np.arange(x)) * LIMIT + 1e-12)

    def test_batch_matches_rows(self):
        rng = np.random.default_rng(12)
        x = 7
        tau = rng.integers(1, x + 1, size=30)
        rho = rng.uniform((x + 1) * LIMIT, 2.0, size=30)
        h = rng.uniform(1e-6, rho - tau * LIMIT)
        y = rng.normal(scale=0.5, size=(30, x))
        k = np.arange(x + 2)
        g = triangle(tau[:, None], h[:, None], x, k)
        err = clip_error(y, rho, tau, h, LIMIT)
        for r in range(30):
            row = float(rho[r]), int(tau[r]), float(h[r])
            np.testing.assert_array_equal(g[r], triangle(row[1], row[2], x, k))
            one = clip_error(y[r], *row, LIMIT)
            np.testing.assert_array_equal(err.values[r], one.values)
            np.testing.assert_array_equal(err.clipped[r], one.clipped)
            np.testing.assert_array_equal(
                g[r, 1 : x + 1] + err.values[r], triangle(row[1], row[2], x, k)[1 : x + 1] + one.values
            )

    def test_flat_block_matches_class_matrices(self):
        # runs of several classes laid end to end, one (rho, tau, h, x, k) per point
        # as the penalty engine clips them, against one clip_error per class matrix
        rng = np.random.default_rng(14)
        sizes = {1: 3, 2: 5, 4: 7, 7: 6, 12: 4}
        rho, tau, h, latent = {}, {}, {}, {}
        for x, n in sizes.items():
            tau[x] = rng.integers(1, x + 1, size=n)
            rho[x] = rng.uniform((x + 1) * LIMIT, 2.0, size=n)
            h[x] = rng.uniform(1e-6, rho[x] - tau[x] * LIMIT)
            latent[x] = rng.normal(scale=0.5, size=(n, x))
        x_run = np.repeat(list(sizes), list(sizes.values()))
        run = np.repeat(np.arange(x_run.size), x_run)
        k = np.arange(run.size) - (np.cumsum(x_run) - x_run)[run] + 1.0
        per_run = [np.concatenate([v[x] for x in sizes]) for v in (rho, tau, h)]
        flat = np.concatenate([latent[x].ravel() for x in sizes])
        values, lower = clip_to_band(flat, *(v[run] for v in per_run), x_run[run], k, LIMIT)
        np.testing.assert_array_equal(lower, -triangle(per_run[1][run], per_run[2][run], x_run[run], k))
        ends = np.cumsum([x * n for x, n in sizes.items()])[:-1]
        for (x, n), got, y in zip(sizes.items(), np.split(values, ends), np.split(flat, ends)):
            err = clip_error(latent[x], rho[x], tau[x], h[x], LIMIT)
            np.testing.assert_array_equal(got.reshape(n, x), err.values)
            np.testing.assert_array_equal((got != y).reshape(n, x), err.clipped)

    def test_parameters_are_one_for_all_or_one_per_row(self):
        rho, tau, h = np.ones(3), np.full(3, 2), np.full(3, 0.3)
        for values, params in (
            (np.zeros(4), (rho, tau, h)),  # per-row values for one row
            (np.zeros((2, 4)), (rho, tau, h)),  # three values for two rows
            (np.zeros((3, 4)), (1.0, 2, h[:2])),
        ):
            for call in (decompose, clip_error):
                with pytest.raises(InputError, match="one per row"):
                    call(values, *params, LIMIT)

    def test_batch_names_inconsistent_row(self):
        rho, tau, h = np.array([1.0, 0.01]), np.array([2, 1]), np.array([0.3, 0.005])
        with pytest.raises(InputError, match=r"k=2 \(rho=0.01, tau=1, h=0.005, x=5\)"):
            clip_error(np.zeros((2, 5)), rho, tau, h, 0.02)


class TestRealDataBounds:
    def test_charging_side_bound_is_exact(self, renewal_data):
        """Charging charges never exceed rho - (k-1)*limit."""
        _, table = renewal_data
        checked = 0
        for i, _, x, entry_powers, charges in complete_runs(table):
            if i != 1:
                continue
            rho = compute_initial_power(i, entry_powers, x, LIMIT, CAPACITY)
            bound = rho[:, None] - np.arange(x) * LIMIT
            assert np.all(charges <= bound + 1e-9)
            assert np.all(charges >= -1e-12)
            checked += len(charges)
        assert checked > 100

    def test_discharging_side_bound_with_ramp_slack(self, renewal_data):
        """Discharging charges can exceed the band by at most one ramp step,
        which happens exactly when generated power drops below the limit."""
        _, table = renewal_data
        checked = 0
        for i, _, x, entry_powers, charges in complete_runs(table):
            if i != -1:
                continue
            rho = compute_initial_power(i, entry_powers, x, LIMIT, CAPACITY)
            bound = rho[:, None] - np.arange(x) * LIMIT
            assert np.all(charges <= bound + LIMIT + 1e-9)
            checked += len(charges)
        assert checked > 100

    def test_reconstruction_on_extracted_segments(self, renewal_data):
        _, table = renewal_data
        for _, _, x, _, charges in complete_runs(table):
            tau, h = extract_peak(charges)
            err = decompose(charges, np.full(len(charges), 2.0), tau, h, LIMIT)
            recon = triangle(tau[:, None], h[:, None], x, np.arange(1, x + 1)) + err.values
            np.testing.assert_allclose(recon, charges, rtol=0, atol=1e-14)


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

    def test_arrays_match_scalars_and_name_the_first_bad_point(self):
        y, s, t, horizon = np.array([0.7, -0.2, 1e-6]), np.array([0, 1, 2]), np.array([5, 2, 3]), 6
        mean, var = bb_transition(y, s, t, horizon, 2.0)
        for r in range(3):
            one = bb_transition(float(y[r]), int(s[r]), int(t[r]), horizon, 2.0)
            assert (mean[r], var[r]) == one
        with pytest.raises(InputError, match="s=3, t=2"):
            bb_transition(y, np.array([0, 3, 4]), np.array([1, 2, 3]), horizon, 1.0)
        with pytest.raises(InputError, match="time 6 must precede the pinning time 6"):
            bb_transition(y, s, np.array([5, 6, 7]), horizon, 1.0)
        with pytest.raises(InputError, match="got -1.0"):
            bb_transition(y, s, t, horizon, np.array([1.0, -1.0, 0.0]))


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


class TestLatentBridgeBlock:
    @settings(max_examples=100, deadline=None)
    @given(
        runs=st.lists(
            st.integers(min_value=1, max_value=15).flatmap(
                lambda x: st.tuples(
                    st.just(x),
                    st.integers(min_value=1, max_value=x),
                    st.floats(min_value=1e-3, max_value=10.0),
                )
            ),
            min_size=1,
            max_size=40,
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_layout_is_one_run_draw_after_another(self, runs, seed):
        x, tau, sigma = (np.array(v) for v in zip(*runs))
        total = int(np.sum(x + (tau < x)))
        got = latent_bridges(x, tau, sigma, np.random.default_rng(seed).standard_normal(total))

        # run after run, each one one-row sample_latent_bridge from one generator
        oracle = np.random.default_rng(seed)
        want = np.concatenate([sample_latent_bridge(n, t, s, oracle)[0] for n, t, s in runs])
        assert got.tobytes() == want.tobytes()

    def test_wrong_number_of_normals(self):
        with pytest.raises(InputError, match="need 7 normals"):
            latent_bridges([6], [2], [1.0], np.zeros(6))


class TestChunks:
    def test_a_large_item_joins_the_run_it_begins_in(self):
        # 5,000 points begin at 10, inside the first run's bin: the run keeps
        # them, and the item after them, beginning at 5,010, starts afresh
        assert CHUNK_POINTS == 4096
        assert _chunks(np.array([10, 5000, 10, 10])) == [(0, 2), (2, 4)]

    @settings(max_examples=100, deadline=None)
    @given(sizes=st.lists(st.integers(min_value=0, max_value=3 * CHUNK_POINTS), min_size=1, max_size=40))
    def test_runs_hold_the_items_that_begin_in_one_bin(self, sizes):
        sizes = np.array(sizes)
        runs = _chunks(sizes)
        assert runs[0][0] == 0 and runs[-1][1] == sizes.size
        assert all(a < b and b == c for (a, b), (c, _) in zip(runs, runs[1:]))
        for a, b in runs:
            # every item but the last begins in the run's first item's bin, and
            # every run but the last reaches past the end of that bin
            into_bin = int(sizes[:a].sum()) % CHUNK_POINTS
            assert into_bin + sizes[a : b - 1].sum() < CHUNK_POINTS
            assert b == sizes.size or into_bin + sizes[a:b].sum() >= CHUNK_POINTS


class TestBridgeCsv:
    def test_layout(self, tmp_path):
        path = tmp_path / "bridge.csv"
        write_bridge_csv(path, np.array([0.3, 0.5]), comment="stamp")
        lines = path.read_text().splitlines()
        assert lines[0] == "# stamp"
        assert lines[1] == "k,value"
        assert lines[2] == "0,0.0"
        assert lines[3] == "1,0.3"
        assert lines[-1] == "3,0.0"

    def test_single_step_pinned_at_both_ends(self, tmp_path):
        path = tmp_path / "bridge.csv"
        write_bridge_csv(path, [0.4])
        assert path.read_text().splitlines() == ["k,value", "0,0.0", "1,0.4", "2,0.0"]
