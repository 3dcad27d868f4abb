import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx
from scipy.special import gamma

from windbridge.errors import InputError
from windbridge.power import (
    DEFAULT_TURBINE,
    PowerSeries,
    RampPolicy,
    TurbineSpec,
    apply_ramp_limit,
    generate_synthetic_wind,
    read_power_csv,
    read_wind_csv,
    wind_to_power,
    write_power_csv,
    write_wind_csv,
)


class TestWindToPower:
    def test_reference_points(self):
        assert wind_to_power(3.0, DEFAULT_TURBINE) == 0.0
        assert wind_to_power(13.0, DEFAULT_TURBINE) == 2.0
        assert wind_to_power(26.0, DEFAULT_TURBINE) == 0.0
        # cubic interpolation: 2 * (8^3 - 4^3) / (13^3 - 4^3)
        exact = 2.0 * (8.0**3 - 4.0**3) / (13.0**3 - 4.0**3)
        assert wind_to_power(8.0, DEFAULT_TURBINE) == approx(exact, abs=1e-15)
        assert wind_to_power(8.0, DEFAULT_TURBINE) == approx(0.42006, abs=1e-5)

    def test_band_edges(self):
        assert wind_to_power(4.0, DEFAULT_TURBINE) == 0.0
        assert wind_to_power(25.0, DEFAULT_TURBINE) == 2.0
        assert wind_to_power(25.0 + 1e-9, DEFAULT_TURBINE) == 0.0

    def test_vectorized(self):
        out = wind_to_power(np.array([0.0, 8.0, 30.0]), DEFAULT_TURBINE)
        assert out.shape == (3,)
        assert out[0] == 0.0 and out[2] == 0.0

    def test_negative_speed_rejected(self):
        with pytest.raises(InputError):
            wind_to_power(-1.0, DEFAULT_TURBINE)

    def test_non_finite_speed_rejected(self):
        with pytest.raises(InputError, match="finite"):
            wind_to_power(np.array([10, 11, 12, np.nan, 14, 14.0]), DEFAULT_TURBINE)
        with pytest.raises(InputError, match="finite"):
            wind_to_power(np.inf, DEFAULT_TURBINE)

    @settings(max_examples=200, deadline=None)
    @given(
        v1=st.floats(min_value=0.0, max_value=25.0),
        v2=st.floats(min_value=0.0, max_value=25.0),
    )
    def test_monotone_up_to_cut_out(self, v1, v2):
        lo, hi = sorted([v1, v2])
        assert wind_to_power(lo, DEFAULT_TURBINE) <= wind_to_power(hi, DEFAULT_TURBINE)

    @settings(max_examples=100, deadline=None)
    @given(v=st.floats(min_value=0.0, max_value=100.0))
    def test_range(self, v):
        p = wind_to_power(v, DEFAULT_TURBINE)
        assert 0.0 <= p <= DEFAULT_TURBINE.rated_capacity

    def test_spec_validation(self):
        with pytest.raises(InputError):
            TurbineSpec(cut_in_speed=5.0, rated_speed=4.0, cut_out_speed=25.0, rated_capacity=2.0)
        with pytest.raises(InputError):
            TurbineSpec(cut_in_speed=4.0, rated_speed=13.0, cut_out_speed=25.0, rated_capacity=0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["cut_in_speed", "rated_speed", "cut_out_speed", "rated_capacity"])
    def test_non_finite_spec_rejected(self, name, value):
        values = dict(cut_in_speed=4.0, rated_speed=13.0, cut_out_speed=25.0, rated_capacity=2.0)
        with pytest.raises(InputError, match=f"TurbineSpec.{name} must be finite"):
            TurbineSpec(**{**values, name: value})


class TestRampLimit:
    def test_hand_computed_example(self):
        series = PowerSeries(generated=np.array([1.00, 1.50, 1.01, 0.90, 1.03]))
        out = apply_ramp_limit(series, RampPolicy(limit=0.02), initial_corrected=1.00)
        np.testing.assert_allclose(out.corrected, [1.00, 1.02, 1.01, 0.99, 1.01], atol=1e-15)

    def test_constant_series_untouched(self):
        series = PowerSeries(generated=np.full(50, 0.7))
        out = apply_ramp_limit(series, RampPolicy(limit=0.02))
        np.testing.assert_array_equal(out.corrected, series.generated)

    def test_huge_limit_never_binds(self):
        rng = np.random.default_rng(0)
        series = PowerSeries(generated=rng.uniform(0, 2, 200))
        out = apply_ramp_limit(series, RampPolicy(limit=5.0))
        np.testing.assert_array_equal(out.corrected[1:], series.generated[1:])

    def test_default_initial_is_first_value(self):
        series = PowerSeries(generated=np.array([0.5, 0.5]))
        out = apply_ramp_limit(series, RampPolicy(limit=0.1))
        assert out.corrected[0] == 0.5

    def test_empty_series_rejected(self):
        with pytest.raises(InputError):
            PowerSeries(generated=np.array([]))

    def test_non_finite_power_rejected(self):
        with pytest.raises(InputError, match="generated power must be finite"):
            PowerSeries(generated=np.array([1.0, 1.2, np.nan, 1.9]))
        with pytest.raises(InputError, match="corrected power must be finite"):
            PowerSeries(generated=np.ones(3), corrected=np.array([1.0, np.inf, 1.0]))

    def test_negative_power_rejected(self):
        with pytest.raises(InputError, match="generated power must be finite and nonnegative"):
            PowerSeries(generated=np.array([1.0, -0.2]))
        with pytest.raises(InputError, match="corrected power must be finite and nonnegative"):
            PowerSeries(generated=np.ones(2), corrected=np.array([1.0, -0.2]))

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=60),
        limit=st.floats(min_value=1e-4, max_value=1.0),
    )
    def test_ramp_invariant_and_idempotence(self, data, limit):
        series = PowerSeries(generated=np.array(data))
        out = apply_ramp_limit(series, RampPolicy(limit=limit), capacity=2.0)
        e, eb = series.generated, out.corrected
        assert np.all(np.abs(np.diff(eb)) <= limit + 1e-12)
        assert np.all((eb >= 0.0) & (eb <= 2.0))
        # a step binds exactly when the input leaves the band around the
        # previous output; everywhere else the output equals the input
        no_bind = (e[1:] >= eb[:-1] - limit) & (e[1:] <= eb[:-1] + limit)
        np.testing.assert_array_equal(eb[1:][no_bind], e[1:][no_bind])
        # correcting an already-corrected series changes nothing
        again = apply_ramp_limit(
            PowerSeries(generated=eb), RampPolicy(limit=limit),
            initial_corrected=eb[0], capacity=2.0,
        )
        np.testing.assert_array_equal(again.corrected, eb)


class TestSyntheticWind:
    def test_weibull_mean(self):
        shape, scale = 2.0, 8.0
        w = generate_synthetic_wind(100_000, shape, scale, autocorrelation=0.0, seed=123)
        analytic = scale * gamma(1.0 + 1.0 / shape)
        assert w.mean() == approx(analytic, rel=0.02)

    def test_deterministic_given_seed(self):
        a = generate_synthetic_wind(1000, 2.0, 8.0, 0.8, seed=5)
        b = generate_synthetic_wind(1000, 2.0, 8.0, 0.8, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_single_step(self):
        w = generate_synthetic_wind(1, 2.0, 8.0, seed=0)
        assert w.shape == (1,) and w[0] >= 0.0

    def test_nonnegative(self):
        w = generate_synthetic_wind(5000, 1.5, 6.0, 0.95, seed=9)
        assert np.all(w >= 0.0)

    def test_bad_parameters(self):
        with pytest.raises(InputError):
            generate_synthetic_wind(0, 2.0, 8.0)
        with pytest.raises(InputError):
            generate_synthetic_wind(10, -1.0, 8.0)
        with pytest.raises(InputError):
            generate_synthetic_wind(10, 2.0, 8.0, autocorrelation=1.0)


class TestCsvRoundTrips:
    def test_wind_round_trip(self, tmp_path):
        w = generate_synthetic_wind(50, 2.0, 8.0, seed=1)
        path = tmp_path / "wind.csv"
        write_wind_csv(path, w, comment="stamp")
        np.testing.assert_array_equal(read_wind_csv(path), w)

    def test_power_round_trip(self, tmp_path):
        series = PowerSeries(generated=np.array([0.1, 0.9, 0.3]))
        out = apply_ramp_limit(series, RampPolicy(limit=0.2))
        path = tmp_path / "power.csv"
        write_power_csv(path, out, comment="stamp")
        back = read_power_csv(path)
        np.testing.assert_array_equal(back.generated, out.generated)
        np.testing.assert_array_equal(back.corrected, out.corrected)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            read_wind_csv(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "wind.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InputError, match="header"):
            read_wind_csv(path)

    @pytest.mark.parametrize("row", ["1", "1,abc", "1,6.0,7", "1,6.0,"])
    def test_malformed_wind_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "wind.csv"
        path.write_text(f"timestamp,speed_ms\n0,5.2\n{row}\n2,6.0\n")
        with pytest.raises(InputError, match=r"wind\.csv:3: malformed row"):
            read_wind_csv(path)

    @pytest.mark.parametrize(
        "text",
        [
            "k,e\n0,1.0\n1\n",
            "k,e\n0,1.0\n1,abc\n",
            "k,e,e_bar\n0,1.0,1.0\n1,1.2\n",
            "k,e\n0,1.0\n1,1.2,7\n",
            "k,e,e_bar\n0,1.0,1.0\n1,1.2,1.2,\n",
            "k,e\n0,1.0\n1.5,1.2\n",
            "k,e\n0,1.0\nx,1.2\n",
        ],
    )
    def test_malformed_power_row_names_file_and_line(self, tmp_path, text):
        path = tmp_path / "power.csv"
        path.write_text(text)
        with pytest.raises(InputError, match=r"power\.csv:3: malformed row"):
            read_power_csv(path)

    def test_power_csv_k_is_the_row_index(self, tmp_path):
        path = tmp_path / "power.csv"
        write_power_csv(path, PowerSeries(generated=np.array([0.5, 0.25]), corrected=np.array([0.5, 0.3])))
        assert path.read_text().splitlines() == ["k,e,e_bar", "0,0.5,0.5", "1,0.25,0.3"]

    def test_iso_timestamps_accepted(self, tmp_path):
        path = tmp_path / "wind.csv"
        path.write_text(
            "timestamp,speed_ms\n"
            "2015-01-01T00:00:00,5.2\n"
            "2015-01-01T01:00:00,6.1\n"
            "2015-01-01T02:00:00,7.4\n"
        )
        np.testing.assert_allclose(read_wind_csv(path), [5.2, 6.1, 7.4])
