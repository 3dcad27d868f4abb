import copy
import csv
import json
import re
import shutil
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from windbridge.cli import main
from windbridge.errors import InputError
from windbridge.estimation import attainable_param_support
from windbridge.pipeline import (
    BLOCK_PATHS,
    RunConfig,
    SyntheticWindSpec,
    _stamp,
    _write_json,
    charge_model_from_doc,
    config_hash,
    load_charge_model,
    load_config,
    run_pipeline,
    run_stage,
)
from windbridge.power import DEFAULT_TURBINE, read_power_csv
from windbridge.segmentation import SemiMarkovKernel
from windbridge.simulate import (
    DEFAULT_BATTERY,
    DEFAULT_FEES,
    BatterySpec,
    PenaltySpec,
    battery_recursion,
    discounted_penalty,
    mc_moments,
    sample_step_grids,
)

from conftest import sampler_doc


def small_config(out_dir, **kw):
    defaults = dict(
        out_dir=out_dir,
        synthetic=SyntheticWindSpec(n_steps=6000),
        limits=(0.01, 0.05, 0.07),
        n_paths=60,
        seed=2024,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = small_config(out)
    artifacts = run_pipeline(cfg)
    return cfg, artifacts


class TestPipeline:
    def test_fan_out_one_moment_csv_per_limit(self, pipeline_run):
        cfg, artifacts = pipeline_run
        names = {p.name for p in artifacts}
        for tag in ("0.01", "0.05", "0.07"):
            assert f"moments_{tag}.csv" in names
            assert f"corrected_{tag}.csv" in names
            assert f"kernel_{tag}.json" in names
            assert f"model_{tag}.json" in names
            assert f"validation_{tag}.json" in names

    def test_artifacts_stamped(self, pipeline_run):
        cfg, artifacts = pipeline_run
        stamp = f"config_hash={config_hash(cfg)} seed={cfg.seed}"
        for p in artifacts:
            if p.suffix == ".csv":
                assert p.read_text().splitlines()[0] == f"# {stamp}"
            else:
                doc = json.loads(p.read_text())
                assert doc["config_hash"] == config_hash(cfg)
                assert doc["seed"] == cfg.seed

    def test_no_partial_files_after_success(self, pipeline_run):
        cfg, _ = pipeline_run
        assert not list(Path(cfg.out_dir).glob("*.partial"))

    def test_moment_csv_layout(self, pipeline_run):
        cfg, _ = pipeline_run
        lines = (cfg.out_dir / "moments_0.01.csv").read_text().splitlines()
        assert lines[1] == "t,mean,std,se_mean"
        assert len(lines) == 2 + cfg.horizon

    def test_model_json_round_trip(self, pipeline_run):
        cfg, _ = pipeline_run
        path = cfg.out_dir / "model_0.01.json"
        model = load_charge_model(path)
        doc = json.loads(path.read_text())
        rebuilt = {k: sampler_doc(s) for k, s in (
            (f"{i},{j},{x}", smp) for (i, j, x), smp in model.samplers.items()
        )}
        assert rebuilt == doc["samplers"]
        assert all(not {"type", "support"} & set(entry) for entry in doc["samplers"].values())
        for (i, j, x), sampler in model.samplers.items():
            assert sampler.support == attainable_param_support(i, x, doc["limit_mw"], doc["capacity_mw"])

        # a document that still stores the type and support of each sampler loads alike
        old = copy.deepcopy(doc)
        for (i, j, x), sampler in model.samplers.items():
            entry = old["samplers"][f"{i},{j},{x}"]
            entry["type"] = "copula"
            entry["support"] = {**asdict(sampler.support), "capacity": doc["capacity_mw"]}
        reloaded = charge_model_from_doc(old)
        assert reloaded.samplers.keys() == model.samplers.keys()
        for key, sampler in model.samplers.items():
            np.testing.assert_array_equal(
                reloaded.samplers[key].sample_n(50, np.random.default_rng(9)),
                sampler.sample_n(50, np.random.default_rng(9)),
            )

    def test_kernel_json_round_trip(self, pipeline_run):
        cfg, _ = pipeline_run
        path = cfg.out_dir / "kernel_0.05.json"
        kernel = SemiMarkovKernel.from_dict(json.loads(path.read_text()))
        tmp = cfg.out_dir / "kernel_echo.json"
        _write_json(tmp, kernel.to_dict(), _stamp(cfg))
        assert SemiMarkovKernel.from_dict(json.loads(tmp.read_text())) == kernel
        tmp.unlink()

    def test_stage_composition_equals_pipeline(self, pipeline_run, tmp_path):
        cfg, artifacts = pipeline_run
        cfg2 = small_config(tmp_path / "staged")
        for stage in ("ingest", "correct", "segment", "fit", "simulate", "validate"):
            run_stage(cfg2, stage)
        for p in artifacts:
            q = cfg2.out_dir / p.name
            assert q.read_bytes() == p.read_bytes(), p.name

    def test_class_comparison_independent_of_path_count(self, pipeline_run, tmp_path):
        cfg, _ = pipeline_run
        fewer = small_config(tmp_path / "fewer", n_paths=20)
        shutil.copytree(cfg.out_dir, fewer.out_dir)
        run_stage(fewer, "validate")
        for frac in cfg.limits:
            name = f"validation_{cfg.limit_tag(frac)}.json"
            a = json.loads((cfg.out_dir / name).read_text())
            b = json.loads((fewer.out_dir / name).read_text())
            assert a["groups"] and a["groups"] == b["groups"]
            assert b["n_paths"] == 20


    def test_one_recursion_call_per_block(self, pipeline_run, tmp_path, monkeypatch):
        from windbridge import pipeline

        calls = []

        def counted(states, charges, *args):
            calls.append(states.shape)
            return battery_recursion(states, charges, *args)

        monkeypatch.setattr(pipeline, "battery_recursion", counted)
        cfg, _ = pipeline_run
        more = small_config(tmp_path / "blocks", limits=(0.05,), n_paths=300)
        shutil.copytree(cfg.out_dir, more.out_dir)
        for stage in ("simulate", "validate"):
            calls.clear()
            run_stage(more, stage)
            assert calls == [(128, cfg.horizon + 1)] * 3, stage

    def test_first_paths_independent_of_path_count(self, pipeline_run, tmp_path, monkeypatch):
        from windbridge import pipeline

        real = pipeline.mc_moments
        drawn: list[np.ndarray] = []

        def capture(windows, *args):
            drawn.append(np.array(windows))
            return real(windows, *args)

        monkeypatch.setattr(pipeline, "mc_moments", capture)
        cfg, _ = pipeline_run
        for n_paths in (100, 300):  # one partial block, then three blocks
            more = small_config(tmp_path / str(n_paths), limits=(0.05,), n_paths=n_paths)
            shutil.copytree(cfg.out_dir, more.out_dir)
            run_stage(more, "simulate")
            run_stage(more, "validate")
        sim_100, val_100, sim_300, val_300 = drawn
        assert sim_300.shape == val_300.shape == (300, cfg.horizon)
        np.testing.assert_array_equal(sim_100, sim_300[:100])
        np.testing.assert_array_equal(val_100, val_300[:100])
        assert not np.array_equal(sim_300[:100], sim_300[128:228])

    def test_a_single_start_draws_nothing_for_its_picks(self):
        rng = np.random.default_rng(np.random.SeedSequence((1, 5, 0, 0)))
        before = copy.deepcopy(rng.bit_generator.state)
        assert not rng.integers(1, size=BLOCK_PATHS).any()
        assert rng.bit_generator.state == before

    def test_simulated_moments_equal_the_idle_start_block_loop(self, pipeline_run, tmp_path):
        # simulate's blocks spelt out: every path starts idle at soc_init, and
        # picking among that one start draws nothing from the block's stream
        cfg, _ = pipeline_run
        for idx, frac in enumerate(cfg.limits):
            tag = cfg.limit_tag(frac)
            kernel = SemiMarkovKernel.from_dict(json.loads((cfg.out_dir / f"kernel_{tag}.json").read_text()))
            model = load_charge_model(cfg.out_dir / f"model_{tag}.json")
            idle = np.zeros(BLOCK_PATHS, dtype=int)
            penalty = np.concatenate([
                battery_recursion(
                    *sample_step_grids(
                        kernel, model, idle, np.random.default_rng(np.random.SeedSequence((cfg.seed, 5, idx, b))),
                        idle, horizon=cfg.horizon,
                    ),
                    cfg.battery, cfg.fees, np.full(BLOCK_PATHS, cfg.battery.soc_init),
                )[1]
                for b in range(-(-cfg.n_paths // BLOCK_PATHS))
            ])
            table = mc_moments(penalty[: cfg.n_paths, 1:], cfg.fees.discount_rate)
            oracle = tmp_path / f"oracle_{tag}.csv"
            with open(oracle, "w", newline="") as fh:
                csv.writer(fh).writerows([["t", "mean", "std", "se_mean"]] + [
                    [int(t), repr(float(m)), repr(float(s)), repr(float(se))]
                    for t, m, s, se in zip(table.steps, table.mean, table.std, table.se_mean)
                ])
            written = (cfg.out_dir / f"moments_{tag}.csv").read_bytes()
            assert written.split(b"\n", 1)[1] == oracle.read_bytes(), tag


class TestStrictJson:
    def test_thin_run_writes_only_strict_json(self, tmp_path):
        # 800 hours leave some (i, j) pairs too few runs for a regression
        cfg = RunConfig(out_dir=tmp_path, synthetic=SyntheticWindSpec(n_steps=800), n_paths=20)
        run_pipeline(cfg)

        def refuse(token):
            raise ValueError(f"non-finite JSON token {token}")

        paths = sorted(tmp_path.glob("*.json"))
        assert len(paths) == 3 * len(cfg.limits)
        docs = {p.name: json.loads(p.read_text(), parse_constant=refuse) for p in paths}
        adj_r2 = [m["adj_r2"] for m in docs["model_0.01.json"]["sigma_models"].values()]
        assert None in adj_r2
        model = load_charge_model(tmp_path / "model_0.01.json")
        assert any(np.isnan(m.adj_r2) for m in model.sigma_models.values())


class TestValidateRestart:
    def test_window_inside_the_censored_trailing_sojourn_restarts(self, tmp_path, caplog):
        from windbridge.errors import SimulationError
        from windbridge.power import generate_synthetic_wind, write_wind_csv
        from windbridge.segmentation import extract_segments
        from windbridge.simulate import simulate_penalty_path
        from windbridge.validation import day_start_conditions

        # a calm tail: one idle run far longer than any completed one, cut by
        # the end of the series
        speeds = generate_synthetic_wind(4000, 2.0, 8.0, 0.9, seed=5)
        wind_file = tmp_path / "calm_tail.csv"
        write_wind_csv(wind_file, np.concatenate([speeds, np.full(1000, 2.0)]))
        cfg = small_config(tmp_path / "out", wind_csv=wind_file, limits=(0.05,), n_paths=300)
        for stage in ("ingest", "correct", "segment", "fit", "simulate"):
            run_stage(cfg, stage)

        series = read_power_csv(cfg.out_dir / "corrected_0.05.csv")
        kernel = SemiMarkovKernel.from_dict(json.loads((cfg.out_dir / "kernel_0.05.json").read_text()))
        _, table = extract_segments(series)
        z0, b0, _ = day_start_conditions(table, np.zeros(len(series)), cfg.horizon)
        inside = np.flatnonzero(b0 >= kernel.max_sojourn(z0))
        assert inside.size and np.all(z0[inside] == 0)
        assert inside[-1] == z0.size - 1  # the last window starts in the tail
        with pytest.raises(SimulationError, match="longer than"):
            simulate_penalty_path(
                kernel, load_charge_model(cfg.out_dir / "model_0.05.json"), cfg.battery,
                cfg.fees, horizon=cfg.horizon, initial_state=0,
                initial_backward=int(b0[inside[-1]]), seed=0,
            )

        with caplog.at_level("INFO", logger="windbridge.pipeline"):
            run_stage(cfg, "validate")
        doc = json.loads((cfg.out_dir / "validation_0.05.json").read_text())
        assert 0 < doc["sojourn_restarts"] < cfg.n_paths
        assert f"{doc['sojourn_restarts']} of 300 paths" in caplog.text


class TestRunConfig:
    def test_limits_sharing_an_artifact_tag_rejected(self, tmp_path):
        with pytest.raises(InputError, match="artifact tag"):
            small_config(tmp_path, limits=(0.05, 0.05))
        with pytest.raises(InputError, match="artifact tag"):
            small_config(tmp_path, limits=(0.01, 0.05, 0.05000001))
        assert small_config(tmp_path, limits=(0.05, 0.051)).limits == (0.05, 0.051)

    @pytest.mark.parametrize("name", ["n_paths", "eligibility"])
    def test_fewer_than_two_rows_rejected(self, tmp_path, name):
        with pytest.raises(InputError, match=f"{name} must be >= 2, got 1"):
            small_config(tmp_path, **{name: 1})
        assert getattr(small_config(tmp_path, **{name: 2}), name) == 2

    @pytest.mark.parametrize("value", [0, -3])
    def test_min_group_sample_below_one_rejected(self, tmp_path, value):
        with pytest.raises(InputError, match=f"^min_group_sample must be >= 1, got {value}$"):
            small_config(tmp_path, min_group_sample=value)
        assert small_config(tmp_path, min_group_sample=1).min_group_sample == 1

    @pytest.mark.parametrize("name", ["horizon", "n_paths", "seed", "eligibility", "min_group_sample"])
    @pytest.mark.parametrize("value", [2.5, 30.5, 30.0, True, np.float64(30.0)], ids=str)
    def test_non_integer_count_rejected(self, tmp_path, name, value):
        with pytest.raises(InputError, match=f"^{name} must be an integer, got {re.escape(str(value))}$"):
            small_config(tmp_path, **{name: value})
        assert getattr(small_config(tmp_path, **{name: np.int64(30)}), name) == 30

    @pytest.mark.parametrize("value", [100.5, 6000.0, True], ids=str)
    def test_non_integer_synthetic_step_count_rejected(self, value):
        with pytest.raises(InputError, match=f"^n_steps must be an integer, got {re.escape(str(value))}$"):
            SyntheticWindSpec(n_steps=value)
        assert SyntheticWindSpec(n_steps=np.int64(6000)).n_steps == 6000

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_synthetic_spec_rejected(self, value):
        with pytest.raises(InputError, match="SyntheticWindSpec.scale must be finite"):
            SyntheticWindSpec(scale=value)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("shape", -1.0, r"Weibull parameters must be positive, got -1.0, 8.0"),
            ("scale", 0.0, r"Weibull parameters must be positive, got 2.0, 0.0"),
            ("autocorrelation", 1.0, r"autocorrelation must lie in \[0, 1\), got 1.0"),
            ("autocorrelation", -0.5, r"autocorrelation must lie in \[0, 1\), got -0.5"),
        ],
        ids=["negative-shape", "zero-scale", "unit-autocorrelation", "negative-autocorrelation"],
    )
    def test_synthetic_wind_law_rejected_at_construction(self, name, value, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            SyntheticWindSpec(**{name: value})

    def test_synthetic_wind_law_rejected_when_loading_a_config(self, tmp_path):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text("[synthetic]\nautocorrelation = 1.0\n")
        with pytest.raises(InputError, match=r"autocorrelation must lie in \[0, 1\), got 1.0"):
            load_config(cfg_file, out_dir=tmp_path)

    def test_config_hash_covers_every_output_field(self, tmp_path):
        cfg = small_config(tmp_path)
        wind = tmp_path / "wind.csv"
        wind.write_text("timestamp,speed_ms\n0,5.0\n")
        changed = {
            "wind_csv": wind,
            "synthetic": SyntheticWindSpec(n_steps=6001),
            "turbine": replace(DEFAULT_TURBINE, rated_capacity=3.0),
            "limits": (0.02,),
            "battery": BatterySpec(0.0, 1.0, 0.5),
            "fees": PenaltySpec(1.0, 1.0),
            "horizon": 12,
            "n_paths": 61,
            "seed": 2025,
            "eligibility": 31,
            "min_group_sample": 11,
        }
        assert set(changed) == {f.name for f in fields(RunConfig)} - {"out_dir", "dump_paths"}
        for name, value in changed.items():
            assert config_hash(replace(cfg, **{name: value})) != config_hash(cfg), name
        same = replace(cfg, out_dir=tmp_path / "elsewhere", dump_paths=True)
        assert config_hash(same) == config_hash(cfg)

    def test_config_hash_reads_the_wind_file_not_its_name(self, tmp_path):
        wind = tmp_path / "wind.csv"
        wind.write_text("timestamp,speed_ms\n0,5.0\n1,6.0\n")
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.csv").symlink_to(wind)
        cfg = small_config(tmp_path, wind_csv=wind)
        before = config_hash(cfg)
        for name in (tmp_path / "sub" / ".." / "wind.csv", tmp_path / "link.csv"):
            assert config_hash(replace(cfg, wind_csv=name)) == before, name
        wind.write_text("timestamp,speed_ms\n0,5.0\n1,6.5\n")
        assert config_hash(cfg) != before
        missing = tmp_path / "missing.csv"
        with pytest.raises(InputError, match=f"wind input file not found: {missing}"):
            config_hash(replace(cfg, wind_csv=missing))


class TestLoadConfig:
    def test_battery_band_without_soc_init_starts_at_its_midpoint(self, tmp_path):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text("[battery]\nsoc_min = 0.2\nsoc_max = 0.3\n")
        assert load_config(cfg_file).battery == BatterySpec(0.2, 0.3, 0.25)

    @pytest.mark.parametrize(
        "text, attr, expected",
        [
            ("[synthetic]\nscale = 7.5\n", "synthetic", SyntheticWindSpec(scale=7.5)),
            ("[turbine]\nrated_speed = 12\n", "turbine", replace(DEFAULT_TURBINE, rated_speed=12.0)),
            ("[battery]\nsoc_init = 0.1\n", "battery", replace(DEFAULT_BATTERY, soc_init=0.1)),
            ("[battery]\nsoc_max = 0.5\n", "battery", BatterySpec(0.0, 0.5, 0.25)),
            ("[fees]\ndown = 30\n", "fees", replace(DEFAULT_FEES, down_fee=30.0)),
            ("[fees]\ndiscount_rate = 0.01\n", "fees", replace(DEFAULT_FEES, discount_rate=0.01)),
        ],
    )
    def test_partial_section_keeps_the_other_defaults(self, tmp_path, text, attr, expected):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(text)
        cfg = load_config(cfg_file, out_dir=tmp_path)
        assert getattr(cfg, attr) == expected
        assert replace(cfg, **{attr: getattr(RunConfig(out_dir=tmp_path), attr)}) == RunConfig(out_dir=tmp_path)

    def test_partial_simulation_section_keeps_the_other_defaults(self, tmp_path):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text("[simulation]\npaths = 30\n")
        assert load_config(cfg_file, out_dir=tmp_path) == RunConfig(out_dir=tmp_path, n_paths=30)

    def test_percent_sign_in_a_value_is_literal(self, tmp_path):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text("[input]\nwind_csv = wind_100%.csv\n")
        assert load_config(cfg_file, out_dir=tmp_path).wind_csv == Path("wind_100%.csv")


def two_feature_sigma_model(doc):
    """``doc`` with one volatility model on the features ``const`` and ``rho`` only."""
    key = min(doc["sigma_models"])
    broken = {**doc["sigma_models"][key], "feature_names": ["const", "rho"], "coef": [0.1, 0.2]}
    return {**doc, "sigma_models": {**doc["sigma_models"], key: broken}}


def set_at(doc, path, value):
    """Set the entry of ``doc`` at ``path`` to ``value``; a ``None`` key picks the first key of its dict."""
    *head, last = path
    for key in head:
        doc = doc[min(doc) if key is None else key]
    doc[last] = value


class TestStageErrors:
    def test_missing_input_file(self, tmp_path):
        cfg = small_config(tmp_path, wind_csv=tmp_path / "absent.csv")
        with pytest.raises(Exception, match="absent.csv"):
            run_stage(cfg, "ingest")

    def test_simulate_without_model_names_path(self, tmp_path):
        cfg = small_config(tmp_path)
        with pytest.raises(Exception, match=r"kernel_0\.01\.json"):
            run_stage(cfg, "simulate")

    def test_cli_exit_codes(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path / "x"), "--stage", "simulate"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "missing upstream artifact" in captured.err

    @pytest.mark.parametrize("stage", ["correct", "segment", "fit", "simulate", "validate"])
    def test_each_error_carries_exactly_one_tag(self, tmp_path, stage):
        cfg = small_config(tmp_path / "empty")
        with pytest.raises(InputError) as info:
            run_stage(cfg, stage)
        message = str(info.value)
        assert message.startswith(f"[{stage}] missing upstream artifact: ")
        assert message.count("[") == 1

    @pytest.mark.parametrize(
        "name, breaks, match",
        [
            ("kernel_0.05.json", lambda doc: None, "JSONDecodeError"),
            ("kernel_0.05.json", lambda doc: {"visits": {}}, "KeyError: 'q'"),
            ("kernel_0.05.json", lambda doc: {"q": {"1": 5}}, "AttributeError"),
            ("model_0.05.json", lambda doc: {k: v for k, v in doc.items() if k != "sigma_default"},
             "KeyError: 'sigma_default'"),
            ("model_0.05.json", two_feature_sigma_model,
             "InputError: volatility features must be ('const',) or REGRESSOR_NAMES, got ['const', 'rho']"),
        ],
        ids=["truncated-kernel", "kernel-without-q", "kernel-row-not-a-dict", "model-without-sigma-default",
             "sigma-model-with-two-features"],
    )
    def test_broken_upstream_json_exits_with_error_line(self, pipeline_run, tmp_path, capsys, name, breaks, match):
        cfg, _ = pipeline_run
        out = tmp_path / "out"
        out.mkdir()
        for artifact in ("kernel_0.05.json", "model_0.05.json"):
            shutil.copy(cfg.out_dir / artifact, out)
        broken = breaks(json.loads((out / name).read_text()))
        (out / name).write_text("{" if broken is None else json.dumps(broken))
        rc = main(["--out", str(out), "--limit", "0.05", "--paths", "20", "--stage", "simulate"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: [simulate] broken artifact {out / name}: ")
        assert err.count("[simulate]") == 1 and match in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "path, value, match",
        [
            (("sigma_models", None, "lambda"), np.nan, "volatility model lambda must be finite, got nan"),
            (("sigma_models", None, "coef", 0), np.nan, "volatility model coef must be finite, got [nan, "),
            (("sigma_models", None, "coef", -1), np.inf, "volatility model coef must be finite, got ["),
            (("sigma_default",), np.nan, "sigma_default must be finite and positive, got nan"),
            (("limit_mw",), np.nan, "limit_mw must be finite and positive, got nan"),
            (("capacity_mw",), np.inf, "capacity_mw must be finite and positive, got inf"),
            (("samplers", None, "corr", 0, 1), np.nan, "copula corr must be finite"),
            (("samplers", None, "marginals", "rho", 0), np.nan, "copula marginal rho must be finite"),
            (("samplers", None, "marginals", "tau", -1), np.inf, "copula marginal tau must be finite"),
            (("samplers", None, "marginals", "h", 0), np.nan, "copula marginal h must be finite"),
        ],
        ids=["sigma-lambda", "sigma-coef-nan", "sigma-coef-inf", "sigma-default", "limit", "capacity",
             "copula-corr", "copula-rho", "copula-tau", "copula-h"],
    )
    def test_non_finite_model_field_exits_with_error_line(self, pipeline_run, tmp_path, capsys, path, value, match):
        cfg, _ = pipeline_run
        out = tmp_path / "out"
        out.mkdir()
        for artifact in ("kernel_0.05.json", "model_0.05.json"):
            shutil.copy(cfg.out_dir / artifact, out)
        doc = json.loads((out / "model_0.05.json").read_text())
        set_at(doc, path, value)
        (out / "model_0.05.json").write_text(json.dumps(doc))  # writes NaN and Infinity tokens
        rc = main(["--out", str(out), "--limit", "0.05", "--paths", "20", "--stage", "simulate"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: [simulate] broken artifact {out / 'model_0.05.json'}: InputError: ")
        assert err.count("[simulate]") == 1 and match in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "path, value, match",
        [
            (("samplers", None, "corr"), [[1.0, 0.0], [0.0, 1.0]], "copula corr must be 3x3, got shape (2, 2)"),
            (("samplers", None, "corr"), [], "copula corr must be 3x3, got shape (0,)"),
            (("samplers", None, "marginals", "rho"), [], "copula marginal rho must be a non-empty list, got shape (0,)"),
            (("samplers", None, "marginals", "h"), 0.5, "copula marginal h must be a non-empty list, got shape ()"),
        ],
        ids=["corr-2x2", "corr-empty", "rho-empty", "h-scalar"],
    )
    def test_misshapen_sampler_exits_with_error_line(self, pipeline_run, tmp_path, capsys, path, value, match):
        cfg, _ = pipeline_run
        out = tmp_path / "out"
        out.mkdir()
        for artifact in ("kernel_0.05.json", "model_0.05.json"):
            shutil.copy(cfg.out_dir / artifact, out)
        doc = json.loads((out / "model_0.05.json").read_text())
        set_at(doc, path, value)
        (out / "model_0.05.json").write_text(json.dumps(doc))
        rc = main(["--out", str(out), "--limit", "0.05", "--paths", "20", "--stage", "simulate"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: [simulate] broken artifact {out / 'model_0.05.json'}: InputError: {match}\n"

    @pytest.mark.parametrize(
        "stage, name, column, value",
        [
            ("correct", "power.csv", 1, "nan"),
            ("segment", "corrected_0.05.csv", 1, "inf"),
            ("segment", "corrected_0.05.csv", 2, "-0.5"),
        ],
        ids=["power-e-nan", "corrected-e-inf", "corrected-e_bar-negative"],
    )
    def test_bad_power_value_exits_with_error_line(self, pipeline_run, tmp_path, capsys, stage, name, column, value):
        cfg, _ = pipeline_run
        out = tmp_path / "out"
        out.mkdir()
        lines = (cfg.out_dir / name).read_text().splitlines()
        assert lines[0].startswith("#") and lines[1] in ("k,e", "k,e,e_bar")
        fields = lines[6].split(",")
        fields[column] = value
        lines[6] = ",".join(fields)
        (out / name).write_text("\n".join(lines) + "\n")
        rc = main(["--out", str(out), "--limit", "0.05", "--stage", stage])
        err = capsys.readouterr().err
        header = lines[1].split(",")
        assert rc == 1
        assert err == (
            f"error: [{stage}] {out / name}:7: {header[column]} must be finite and nonnegative, got {value!r}\n"
        )

    @pytest.mark.parametrize("stage", ["simulate", "validate"])
    def test_kernel_mass_at_an_unfitted_class_is_refused(self, pipeline_run, tmp_path, stage):
        # a mass too small for any path to enter is refused at load, as a large one is
        fitted, _ = pipeline_run
        cfg = replace(fitted, out_dir=tmp_path / "out", limits=(0.05,))
        shutil.copytree(fitted.out_dir, cfg.out_dir)
        path = cfg.out_dir / "kernel_0.05.json"
        doc = json.loads(path.read_text())
        row = doc["q"]["-1"]["0"]
        x = max(map(int, row)) + 1
        row["1"] -= 1e-6
        row[str(x)] = 1e-6
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError) as info:
            run_stage(cfg, stage)
        assert str(info.value) == f"[{stage}] {path}: no fitted sampler for class (i=-1, j=0, x={x})"

    @pytest.mark.parametrize("stage", ["segment", "fit", "validate"])
    def test_power_file_without_corrected_column_named(self, tmp_path, stage):
        cfg = small_config(tmp_path / "out", limits=(0.05,))
        cfg.out_dir.mkdir()
        path = cfg.out_dir / "corrected_0.05.csv"
        path.write_text("k,e\n0,1.0\n1,1.2\n2,1.1\n")
        with pytest.raises(InputError) as info:
            run_stage(cfg, stage)
        assert str(info.value) == f"[{stage}] artifact {path} has no corrected column"

    def test_directory_as_wind_file(self, tmp_path):
        wind_dir = tmp_path / "wind"
        wind_dir.mkdir()
        cfg = small_config(tmp_path / "out", wind_csv=wind_dir)
        with pytest.raises(InputError, match=f"^\\[ingest\\] wind input file not found: {re.escape(str(wind_dir))}$"):
            run_stage(cfg, "ingest")

    def test_directory_as_power_file(self, tmp_path):
        cfg = small_config(tmp_path / "out")
        (cfg.out_dir / "power.csv").mkdir(parents=True)
        with pytest.raises(InputError, match=r"^\[correct\] power file not found: .*power\.csv$"):
            run_stage(cfg, "correct")


class TestCorrectStage:
    def test_reproduces_hand_example(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "power.csv").write_text(
            "k,e\n0,1.00\n1,1.50\n2,1.01\n3,0.90\n4,1.03\n"
        )
        cfg = small_config(out, limits=(0.01,))  # 1% of 2 MW = 0.02 MW
        run_stage(cfg, "correct")
        series = read_power_csv(out / "corrected_0.01.csv")
        np.testing.assert_allclose(series.corrected, [1.00, 1.02, 1.01, 0.99, 1.01], atol=1e-14)


class TestCliFrontEnd:
    def test_full_run_and_dump(self, tmp_path, capsys):
        out = tmp_path / "cli"
        cfg_file = tmp_path / "discounted.ini"
        cfg_file.write_text("[fees]\ndiscount_rate = 0.001\n")
        rc = main([
            "--config", str(cfg_file), "--out", str(out), "--paths", "40", "--limit", "0.05",
            "--seed", "3", "--dump-paths",
        ])
        assert rc == 0
        paths = (out / "paths_0.05.csv").read_text().splitlines()
        assert paths[1] == "k,state,S,M,W"
        m, w = np.array([[float(v) for v in line.split(",")[3:]] for line in paths[2:]]).T
        assert m.size == 25 and w[-1] > 0.0
        assert w.tobytes() == discounted_penalty(m, 0.001).tobytes()

    def test_config_file(self, tmp_path):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(
            "[synthetic]\n"
            "n_steps = 4000\n"
            "autocorrelation = 0.85\n"
            "[policy]\n"
            "limits = 0.05\n"
            "[simulation]\n"
            "paths = 30\n"
            "seed = 77\n"
            "[output]\n"
            f"dir = {tmp_path / 'from_ini'}\n"
        )
        cfg = load_config(cfg_file)
        assert cfg.synthetic.n_steps == 4000
        assert cfg.limits == (0.05,)
        assert cfg.n_paths == 30
        assert cfg.seed == 77
        rc = main(["--config", str(cfg_file)])
        assert rc == 0
        assert (tmp_path / "from_ini" / "moments_0.05.csv").exists()

    def test_fit_section_reaches_config(self, tmp_path):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text("[fit]\nmin_group_sample = 5\n[validation]\neligibility = 20\n")
        cfg = load_config(cfg_file)
        assert cfg.min_group_sample == 5 and cfg.eligibility == 20
        assert config_hash(cfg) != config_hash(small_config(tmp_path, min_group_sample=10, eligibility=20))

    @pytest.mark.parametrize(
        "text, match",
        [
            ("[simulation]\npath = 30\n", r"unknown key\(s\) in \[simulation\]: path"),
            ("[simulations]\npaths = 30\n", r"unknown section \[simulations\]"),
            ("[fit]\nmin_group = 5\n", r"unknown key\(s\) in \[fit\]: min_group"),
            ("[DEFAULT]\nseed = 5\n", r"unknown key\(s\) in \[DEFAULT\]: seed"),
            ("[simulation]\nmoment_order = 2\n", r"unknown key\(s\) in \[simulation\]: moment_order"),
            ("[simulation]\npaths = 3.5\n", r"\[simulation\] paths = '3.5' is not int"),
            ("[policy]\nlimits = 0.01 five\n", r"\[policy\] limits = '0.01 five' is not a list of floats"),
            ("[validation]\neligibility = 1\n", r"eligibility must be >= 2, got 1"),
            ("[fit]\nmin_group_sample = 0\n", r"min_group_sample must be >= 1, got 0"),
            ("[fit]\nmin_group_sample = -3\n", r"min_group_sample must be >= 1, got -3"),
        ],
    )
    def test_unknown_config_entries_rejected(self, tmp_path, text, match):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(text)
        with pytest.raises(InputError, match=match):
            load_config(cfg_file)

    def test_one_path_exits_before_any_artifact(self, tmp_path, capsys):
        out = tmp_path / "one"
        rc = main(["--out", str(out), "--paths", "1", "--limit", "0.05"])
        assert rc == 1
        assert "error: n_paths must be >= 2, got 1" in capsys.readouterr().err
        assert not out.exists()

    def test_percent_sign_in_wind_path_exits_with_error_line(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(f"[input]\nwind_csv = {tmp_path / 'wind_100%.csv'}\n")
        rc = main(["--config", str(cfg_file), "--out", str(tmp_path / "out"), "--stage", "ingest"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error: [ingest] wind input file not found" in err and "wind_100%.csv" in err
        assert "Traceback" not in err

    def test_nan_fee_exits_with_error_line(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text("[fees]\ndiscount_rate = nan\n")
        out = tmp_path / "out"
        rc = main(["--config", str(cfg_file), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error: PenaltySpec.discount_rate must be finite, got nan" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["--config", str(tmp_path / "none.ini")])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    def test_directory_as_config_file(self, tmp_path, capsys):
        with pytest.raises(InputError, match=f"^config file not found: {re.escape(str(tmp_path))}$"):
            load_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["--config", str(tmp_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"error: config file not found: {tmp_path}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, match",
        [
            ("seed = 5\n[simulation]\npaths = 30\n", r"no section headers"),
            ("[fit]\nmin_group_sample = 5\n[fit]\nmin_group_sample = 6\n", r"section 'fit' already exists"),
            ("[simulation]\npaths = 30\npaths = 40\n", r"option 'paths' in section 'simulation' already exists"),
        ],
        ids=["key-before-any-section", "repeated-section", "repeated-key"],
    )
    def test_malformed_config_file_names_the_file(self, tmp_path, capsys, text, match):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(text)
        with pytest.raises(InputError, match=f"^{re.escape(str(cfg_file))}: not a readable INI file: .*{match}"):
            load_config(cfg_file)
        rc = main(["--config", str(cfg_file), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"error: {cfg_file}: not a readable INI file:" in err
        assert "Traceback" not in err

    def test_binary_config_file_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_bytes(b"\xff\xfe\x00[fit]\n")
        with pytest.raises(InputError, match=f"^{re.escape(str(cfg_file))}: not a readable INI file: "):
            load_config(cfg_file)


class TestZeroPenaltyEdge:
    def test_validate_survives_zero_penalties(self, tmp_path):
        """A battery big enough to absorb everything leaves no penalties;
        the report carries null MAPEs instead of crashing."""
        from windbridge.simulate import BatterySpec

        cfg = small_config(
            tmp_path / "bigbat", limits=(0.05,), n_paths=20,
            synthetic=SyntheticWindSpec(n_steps=3000),
            battery=BatterySpec(soc_min=0.0, soc_max=1e6, soc_init=5e5),
        )
        run_pipeline(cfg)
        doc = json.loads((cfg.out_dir / "validation_0.05.json").read_text())
        assert doc["penalty"]["mape_first_moment_pct"] is None
        assert doc["penalty"]["mape_second_moment_pct"] is None
        assert doc["penalty"]["skipped_zero_real"] == cfg.horizon


class TestFileInput:
    def test_pipeline_from_wind_file(self, tmp_path):
        from windbridge.power import generate_synthetic_wind, write_wind_csv

        wind_file = tmp_path / "measured.csv"
        write_wind_csv(wind_file, generate_synthetic_wind(4000, 2.0, 8.0, 0.9, seed=5))
        cfg = small_config(tmp_path / "from_file", wind_csv=wind_file,
                           limits=(0.01,), n_paths=30)
        run_pipeline(cfg)
        assert (cfg.out_dir / "moments_0.01.csv").exists()

    def test_config_hash_taken_once_per_stage_call(self, tmp_path, monkeypatch):
        import windbridge.pipeline as pipeline
        from windbridge.power import generate_synthetic_wind, write_wind_csv

        calls = []

        def counted(cfg):
            calls.append(cfg)
            return config_hash(cfg)

        wind_file = tmp_path / "measured.csv"
        write_wind_csv(wind_file, generate_synthetic_wind(4000, 2.0, 8.0, 0.9, seed=5))
        cfg = small_config(tmp_path / "from_file", wind_csv=wind_file, n_paths=30, dump_paths=True)
        assert len(cfg.limits) == 3
        monkeypatch.setattr(pipeline, "config_hash", counted)
        for stage in pipeline.STAGES:
            calls.clear()
            written = run_stage(cfg, stage)
            assert len(written) >= 2 and calls == [cfg], stage
            assert all(config_hash(cfg) in path.read_text() for path in written), stage

    def test_nan_wind_row_rejected_at_ingest(self, tmp_path):
        wind_file = tmp_path / "measured.csv"
        wind_file.write_text(
            "timestamp,speed_ms\n"
            "2010-01-01T00:00:00,8.5\n2010-01-01T01:00:00,nan\n2010-01-01T02:00:00,9.0\n"
        )
        cfg = small_config(tmp_path / "out", wind_csv=wind_file)
        with pytest.raises(InputError, match=r"^\[ingest\].*finite"):
            run_stage(cfg, "ingest")
        assert not (cfg.out_dir / "power.csv").exists()

    def test_malformed_wind_row_exits_with_error_line(self, tmp_path, capsys):
        wind_file = tmp_path / "measured.csv"
        wind_file.write_text("timestamp,speed_ms\n2010-01-01T00:00:00,8.5\n2010-01-01T01:00:00\n")
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(f"[input]\nwind_csv = {wind_file}\n")
        rc = main(["--config", str(cfg_file), "--out", str(tmp_path / "out"), "--stage", "ingest"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error: [ingest]" in err and "measured.csv:3: malformed row" in err
        assert "Traceback" not in err

    def test_wind_row_with_an_extra_field_exits_with_error_line(self, tmp_path, capsys):
        wind_file = tmp_path / "measured.csv"
        wind_file.write_text("timestamp,speed_ms\n2010-01-01T00:00:00,8.5,7\n2010-01-01T01:00:00,9.0\n")
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(f"[input]\nwind_csv = {wind_file}\n")
        rc = main(["--config", str(cfg_file), "--out", str(tmp_path / "out"), "--stage", "ingest"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error: [ingest]" in err and "measured.csv:2: malformed row" in err
        assert not (tmp_path / "out" / "power.csv").exists()

    def test_nan_power_row_rejected_at_correct(self, tmp_path):
        cfg = small_config(tmp_path / "out")
        cfg.out_dir.mkdir()
        (cfg.out_dir / "power.csv").write_text("k,e\n0,1.0\n1,1.2\n2,nan\n3,1.9\n")
        with pytest.raises(InputError, match=r"^\[correct\].*finite"):
            run_stage(cfg, "correct")
        assert not list(cfg.out_dir.glob("corrected_*"))

    def test_negative_power_row_rejected_at_correct(self, tmp_path):
        cfg = small_config(tmp_path / "out")
        cfg.out_dir.mkdir()
        (cfg.out_dir / "power.csv").write_text("k,e\n0,1.0\n1,-0.2\n2,1.9\n")
        with pytest.raises(InputError, match=r"^\[correct\].*nonnegative"):
            run_stage(cfg, "correct")
        assert not list(cfg.out_dir.glob("corrected_*"))


class TestPartialArtifacts:
    def test_failed_write_leaves_partial(self, tmp_path):
        from windbridge.pipeline import _atomic

        target = tmp_path / "out.csv"
        with pytest.raises(RuntimeError, match="boom"):
            with _atomic(target) as tmp:
                Path(tmp).write_text("half-written")
                raise RuntimeError("boom")
        assert not target.exists()
        assert (tmp_path / "out.csv.partial").read_text() == "half-written"
