import csv
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx
from scipy.special import gamma, ndtr

from windbridge import power
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

    def test_scalar_gives_a_zero_dimensional_array(self):
        out = wind_to_power(8.0, DEFAULT_TURBINE)
        assert isinstance(out, np.ndarray) and out.shape == ()

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
        out = apply_ramp_limit(series, RampPolicy(limit=0.02), capacity=2.0)
        np.testing.assert_allclose(out.corrected, [1.00, 1.02, 1.01, 0.99, 1.01], atol=1e-15)

    def test_constant_series_untouched(self):
        series = PowerSeries(generated=np.full(50, 0.7))
        out = apply_ramp_limit(series, RampPolicy(limit=0.02), capacity=2.0)
        np.testing.assert_array_equal(out.corrected, series.generated)

    def test_huge_limit_never_binds(self):
        rng = np.random.default_rng(0)
        series = PowerSeries(generated=rng.uniform(0, 2, 200))
        out = apply_ramp_limit(series, RampPolicy(limit=5.0), capacity=2.0)
        np.testing.assert_array_equal(out.corrected[1:], series.generated[1:])

    def test_default_initial_is_first_value(self):
        series = PowerSeries(generated=np.array([0.5, 0.5]))
        out = apply_ramp_limit(series, RampPolicy(limit=0.1), capacity=2.0)
        assert out.corrected[0] == 0.5

    def test_first_value_above_capacity_rejected(self):
        with pytest.raises(InputError, match=r"generated power 2.5 at step 0 outside \[0, 2.0\]"):
            apply_ramp_limit(PowerSeries(generated=np.array([2.5, 1.0])), RampPolicy(limit=0.1), 2.0)

    def test_later_value_above_capacity_rejected(self):
        # the first value above capacity is named, not silently capped
        generated = np.array([1.0, 2.0, 1.9, 2.25, 3.0])
        with pytest.raises(InputError, match=r"generated power 2.25 at step 3 outside \[0, 2.0\]"):
            apply_ramp_limit(PowerSeries(generated=generated), RampPolicy(limit=0.1), 2.0)

    @pytest.mark.parametrize("limit", [np.nan, np.inf])
    def test_non_finite_limit_rejected(self, limit):
        # either limit would leave [0, 1.5, 0.2, 1.9] uncorrected
        with pytest.raises(InputError, match=f"RampPolicy.limit must be finite, got {limit}"):
            RampPolicy(limit=limit)

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
        again = apply_ramp_limit(PowerSeries(generated=eb), RampPolicy(limit=limit), capacity=2.0)
        np.testing.assert_array_equal(again.corrected, eb)


def synthetic_wind_numpy_scalars(n_steps, shape, scale, autocorrelation, seed):
    """The synthetic wind series with its AR(1) recursion on numpy scalars: the
    reference that the Python-float recursion must equal bit for bit."""
    rng = np.random.default_rng(seed)
    phi = autocorrelation
    eps = rng.standard_normal(n_steps)
    z = np.empty(n_steps)
    z[0] = eps[0]
    innov = np.sqrt(1.0 - phi * phi)
    for k in range(1, n_steps):
        z[k] = phi * z[k - 1] + innov * eps[k]
    u = ndtr(z)
    return scale * (-np.log1p(-u)) ** (1.0 / shape)


class TestSyntheticWind:
    @pytest.mark.parametrize("n_steps", [1, 2, 5000])
    @pytest.mark.parametrize("autocorrelation", [0.0, 0.9])
    def test_matches_numpy_scalar_recursion(self, n_steps, autocorrelation):
        got = generate_synthetic_wind(n_steps, 2.0, 8.0, autocorrelation, seed=1)
        want = synthetic_wind_numpy_scalars(n_steps, 2.0, 8.0, autocorrelation, seed=1)
        assert got.tobytes() == want.tobytes()

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
        out = apply_ramp_limit(series, RampPolicy(limit=0.2), capacity=2.0)
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

    @pytest.mark.parametrize(
        "text, line, name, field",
        [
            ("k,e\n0,1.0\n1,nan\n", 3, "e", "nan"),
            ("k,e,e_bar\n0,1.0,1.0\n1,1.2,-0.5\n2,inf,1.0\n", 3, "e_bar", "-0.5"),
            ("# stamp\nk,e,e_bar\n\n0,1.0,1.0\n# note\n1,-inf,nan\n", 6, "e", "-inf"),
        ],
    )
    def test_bad_power_value_names_file_line_and_column(self, tmp_path, text, line, name, field):
        path = tmp_path / "corrected_0.05.csv"
        path.write_text(text)
        message = f"{path}:{line}: {name} must be finite and nonnegative, got {field!r}"
        with pytest.raises(InputError) as info:
            read_power_csv(path)
        assert str(info.value) == message

    def test_bad_wind_speed_names_file_and_line(self, tmp_path):
        path = tmp_path / "wind.csv"
        path.write_text("timestamp,speed_ms\n0,5.0\n1,nan\n2,-3\n")
        with pytest.raises(InputError, match=r"wind\.csv:3: wind speed must be finite and nonnegative, got 'nan'"):
            read_wind_csv(path)
        path.write_text("# stamp\ntimestamp,speed_ms\n\n0,5.0\n# note\n1,6.0\n2,-3\n")
        with pytest.raises(InputError, match=r"wind\.csv:7: .* got '-3'"):
            read_wind_csv(path)
        # a malformed row anywhere is reported before a bad speed
        path.write_text("timestamp,speed_ms\n0,nan\n1,abc\n")
        with pytest.raises(InputError, match=r"wind\.csv:3: malformed row"):
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

    @pytest.mark.parametrize("text", ["timestamp,speed_ms\n", "# c\ntimestamp,speed_ms\n\n# x\n\n"])
    def test_wind_file_without_rows(self, tmp_path, text):
        path = tmp_path / "wind.csv"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InputError, match=r"no wind rows in .*wind\.csv"):
                read_wind_csv(path)
        assert caught == []

    @pytest.mark.parametrize("text", ["k,e,e_bar\n", "# c\nk,e\n\n# x\n\n"])
    def test_power_file_without_rows(self, tmp_path, text):
        path = tmp_path / "power.csv"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InputError, match=r"no power rows in .*power\.csv"):
                read_power_csv(path)
        assert caught == []


# ---------------------------------------------------------------------------
# Row-by-row oracles: the csv-module readers and writers the column code
# replaced.  The column code must return bit-equal arrays, raise the same
# errors and write the same bytes.
# ---------------------------------------------------------------------------


def _oracle_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            yield reader.line_num, row


def _oracle_malformed(path, line, row, header):
    return InputError(f"{path}:{line}: malformed row {','.join(row)!r}, want {','.join(header)}")


def oracle_read_wind_csv(path):
    path = Path(path)
    rows = _oracle_rows(path)
    try:
        _, header = next(rows)
    except StopIteration:
        raise InputError(f"empty wind file: {path}") from None
    if [c.strip() for c in header] != power.WIND_HEADER:
        raise InputError(f"unexpected wind header {header!r} in {path}, want {power.WIND_HEADER}")
    speeds, fields = [], []
    for line, row in rows:
        try:
            _, speed = row
            speeds.append(float(speed))
        except ValueError:
            raise _oracle_malformed(path, line, row, power.WIND_HEADER) from None
        fields.append((line, speed))
    if not speeds:
        raise InputError(f"no wind rows in {path}")
    for v, (line, speed) in zip(speeds, fields):
        if not (math.isfinite(v) and v >= 0.0):
            raise InputError(f"{path}:{line}: wind speed must be finite and nonnegative, got {speed!r}")
    return np.asarray(speeds)


def oracle_read_power_csv(path):
    path = Path(path)
    rows = _oracle_rows(path)
    try:
        header = [c.strip() for c in next(rows)[1]]
    except StopIteration:
        raise InputError(f"empty power file: {path}") from None
    if header not in (power.POWER_HEADER, power.POWER_HEADER[:2]):
        raise InputError(f"unexpected power header {header!r} in {path}")
    es, ebs, fields = [], [], []
    for line, row in rows:
        if len(row) != len(header):
            raise _oracle_malformed(path, line, row, header)
        try:
            int(row[0])
            es.append(float(row[1]))
            if len(header) == 3:
                ebs.append(float(row[2]))
        except ValueError:
            raise _oracle_malformed(path, line, row, header) from None
        fields.append((line, row))
    if not es:
        raise InputError(f"no power rows in {path}")
    for line, row in fields:
        for name, field in zip(header[1:], row[1:]):
            if not (math.isfinite(float(field)) and float(field) >= 0.0):
                raise InputError(f"{path}:{line}: {name} must be finite and nonnegative, got {field!r}")
    corrected = np.asarray(ebs) if ebs else None
    return PowerSeries(generated=np.asarray(es), corrected=corrected)


def oracle_write_wind_csv(path, speeds, comment=None):
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(power.WIND_HEADER)
        for k, v in enumerate(np.asarray(speeds, dtype=float)):
            writer.writerow([k, repr(float(v))])


def oracle_write_power_csv(path, series, comment=None):
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        if series.corrected is None:
            writer.writerow(power.POWER_HEADER[:2])
            for k, e in enumerate(series.generated.tolist()):
                writer.writerow([k, repr(e)])
        else:
            writer.writerow(power.POWER_HEADER)
            for k, (e, eb) in enumerate(zip(series.generated.tolist(), series.corrected.tolist())):
                writer.writerow([k, repr(e), repr(eb)])


def _outcome(read, path):
    """What a reader returns, bit for bit, or the error it raises."""
    try:
        result = read(path)
    except (InputError, csv.Error) as exc:
        return type(exc), str(exc)
    columns = (result,) if isinstance(result, np.ndarray) else (result.generated, result.corrected)
    return [
        None if c is None else (c.dtype.str, c.shape, c.flags.c_contiguous, c.tobytes())
        for c in columns
    ]


def _replace_field(index, value):
    def mutate(line):
        cells = line.split(",")
        cells[index % len(cells)] = value
        return [",".join(cells)]

    return mutate


#: Each mutation maps one line of a valid file to the lines that replace it.
LINE_MUTATIONS = [
    lambda line: ['"' + line.replace(",", '","') + '"'],  # every field quoted
    lambda line: ['"' + line.replace(",", '",', 1)],  # first field quoted
    lambda line: ['"' + line],  # a quote opened and not closed on the line
    _replace_field(0, "1_0"),
    _replace_field(-1, "1_0"),
    lambda line: [line, ""],
    lambda line: [line, "# note"],
    lambda line: [line, "#x,5.0"],
    lambda line: [line, "#,1,2"],
    lambda line: [line, "   "],
    lambda line: [line.rsplit(",", 1)[0]],  # a field missing
    lambda line: [line + ",7"],  # an extra field
    lambda line: [line + ","],  # a trailing empty field
    _replace_field(0, "1.5"),
    _replace_field(0, "x"),
    _replace_field(0, "1e3"),
    _replace_field(0, "99999999999999999999"),
    _replace_field(0, "+3"),
    _replace_field(0, ""),
    lambda line: [" " + line.replace(",", " , ") + " "],  # surrounding spaces
    lambda line: ["\t" + line.replace(",", "\t,") + "\t"],
    _replace_field(-1, "inf"),
    _replace_field(-1, "-inf"),
    _replace_field(-1, "nan"),
    _replace_field(-1, "-nan"),
    _replace_field(-1, "Infinity"),
    _replace_field(-1, "1e500"),
    _replace_field(-1, "-0.0"),
]


@st.composite
def csv_files(draw, kind):
    """A valid wind or power file as lines, then mutated line by line."""
    values = st.floats(min_value=0.0, max_value=40.0)
    n = draw(st.integers(1, 6))
    lines = draw(st.lists(st.sampled_from(["# stamp", "", "#a,b"]), max_size=2))
    if kind == "wind":
        lines.append(draw(st.sampled_from(["timestamp,speed_ms", " timestamp , speed_ms"])))
        stamps = draw(st.sampled_from([range(n), [f"2015-01-01T{h:02d}:00:00" for h in range(n)]]))
        lines += [f"{t},{draw(values)!r}" for t in stamps]
    else:
        width = draw(st.sampled_from([2, 3]))
        lines.append(",".join(power.POWER_HEADER[:width]))
        lines += [",".join([str(k)] + [repr(draw(values)) for _ in range(width - 1)]) for k in range(n)]
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(lines) - 1))
        lines[at:at + 1] = draw(st.sampled_from(LINE_MUTATIONS))(lines[at])
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


class TestCsvOracles:
    @pytest.mark.parametrize(
        "kind, read, oracle",
        [("wind", read_wind_csv, oracle_read_wind_csv), ("power", read_power_csv, oracle_read_power_csv)],
    )
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_readers_match_row_oracle(self, kind, read, oracle, data):
        text = data.draw(csv_files(kind))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{kind}.csv"
            with open(path, "w", newline="") as fh:
                fh.write(text)
            assert _outcome(read, path) == _outcome(oracle, path)

    @pytest.mark.parametrize(
        "read, oracle, text",
        [
            (read_wind_csv, oracle_read_wind_csv, 'timestamp,speed_ms\n"2015-01-01",5.0\n0,1_0\n'),
            (read_wind_csv, oracle_read_wind_csv, "timestamp,speed_ms\n0,5.0\n#c,9.0\n1,6.0\n"),
            (read_wind_csv, oracle_read_wind_csv, 'timestamp,speed_ms\n"x,5\n6",7\n'),
            (read_wind_csv, oracle_read_wind_csv, "timestamp,speed_ms\n0,\u0665\n"),
            (read_power_csv, oracle_read_power_csv, 'k,e\n0,1.0\n"1",2.0\n'),
            (read_power_csv, oracle_read_power_csv, "k,e\n0,1.0\n# note\n1,2.0\n"),
            (read_power_csv, oracle_read_power_csv, "k,e\n99999999999999999999,1.0\n"),
            (read_power_csv, oracle_read_power_csv, "k,e,e_bar\n1_0,1.0,1.0\n"),
        ],
    )
    def test_rows_only_the_csv_module_reads(self, tmp_path, read, oracle, text):
        """Files the one-call parse refuses or misreads, read as the csv module reads them."""
        path = tmp_path / "in.csv"
        path.write_text(text)
        outcome = _outcome(read, path)
        assert outcome == _outcome(oracle, path)
        assert not isinstance(outcome, tuple), outcome

    @pytest.mark.parametrize("comment", [None, "config_hash=abc seed=1"])
    @pytest.mark.parametrize("n", [0, 1, power._WRITE_CHUNK - 1, power._WRITE_CHUNK, power._WRITE_CHUNK + 1])
    def test_writers_match_row_oracle(self, tmp_path, n, comment):
        special = np.array([5e-324, 1e-300, 1e16, 0.1 + 0.2, -0.0, 0.0, 1.0, 123456.789, 2.0 / 3.0])
        e, e_bar = np.resize(special, n), np.resize(special[::-1], n)
        cases = [(write_wind_csv, oracle_write_wind_csv, e)]
        if n:
            cases += [
                (write_power_csv, oracle_write_power_csv, PowerSeries(e)),
                (write_power_csv, oracle_write_power_csv, PowerSeries(e, e_bar)),
            ]
        for write, oracle, data in cases:
            write(tmp_path / "new.csv", data, comment)
            oracle(tmp_path / "old.csv", data, comment)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
