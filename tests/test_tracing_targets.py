"""The benchmark's tracer (``wbbench/tracing.py``) wraps windbridge names by
lookup when it installs.  A name deleted or renamed in the package must fail
here, not only in a traced benchmark round; so must a counter that no longer
reads what the wrapped name takes or returns."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import windbridge.bridge as bridge
import windbridge.estimation as estimation
import windbridge.power as power
import windbridge.segmentation as segmentation
import windbridge.simulate as simulate
import windbridge.validation as validation
from windbridge.pipeline import build_model_doc, charge_model_from_doc

TRACING = Path(__file__).resolve().parents[1] / "wbbench" / "tracing.py"
LIMIT = 0.02
CAPACITY = 2.0


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("wbbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracing):
    targets = tracing.TARGETS
    assert targets
    for module, attr, _ in targets:
        mod = importlib.import_module(f"windbridge.{module}")
        if "." in attr:
            # methods are wrapped from the class's own namespace
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(mod, cls_name)), f"{module}.{attr}"
        else:
            assert callable(getattr(mod, attr, None)), f"{module}.{attr}"


# -- counters -----------------------------------------------------------------
# The pipeline does its work in block routines and calls few of the one-row
# names below, so a traced benchmark round leaves their counters unevaluated.


@pytest.fixture(scope="module")
def tiny():
    """A raw power series and the segments, kernel and charge model fitted to its correction."""
    speeds = power.generate_synthetic_wind(3000, 2.0, 8.0, 0.9, seed=42)
    raw = power.PowerSeries(generated=power.wind_to_power(speeds, power.DEFAULT_TURBINE))
    series = power.apply_ramp_limit(raw, power.RampPolicy(limit=LIMIT), capacity=CAPACITY)
    _, table = segmentation.extract_segments(series)
    done = ~table.censored
    kernel = segmentation.estimate_kernel(table.i[done], table.j[done], table.x[done])
    model = charge_model_from_doc(build_model_doc(table, LIMIT, CAPACITY))
    return raw, table, kernel, model


def floored_sigma_model():
    """A model whose one prediction lies outside the inverse Box-Cox domain."""
    return estimation.SigmaModel(
        lam=1.0, coef=np.array([-5.0]), feature_names=("const",), adj_r2=float("nan"),
        resid_std=0.0, n_outliers_removed=0, n_obs=0,
    )


def one_row_calls(model):
    """``(target, call, counter values)`` of each one-row name whose counters are asserted."""
    support = estimation.attainable_param_support(1, 4, LIMIT, CAPACITY)
    mid = (support.rho_min + support.rho_max) / 2
    (i, j, x), sampler = next(iter(sorted(model.samplers.items())))
    latent = np.array([[0.0, -1e3, 1e3, 0.0], [0.0, 0.0, 0.0, 0.0]])
    return [
        ("bridge.clip_error", lambda: bridge.clip_error(latent, 1.0, 2, 0.3, LIMIT),
         {"clipped": 2, "points": 8}),
        ("bridge.sample_latent_bridge",
         lambda: bridge.sample_latent_bridge(6, 3, 1.0, np.random.default_rng(0), 5), {"paths": 5}),
        ("estimation.predict_sigma",
         lambda: estimation.predict_sigma(floored_sigma_model(), 1.0, 2, 0.3, 4), {"floored": 1}),
        ("estimation.SupportSpec.contains",
         lambda: support.contains([mid, mid, support.rho_max + 1.0, mid], [1, 2, 2, 5], [1e-3] * 4),
         {"candidates": 4, "accepted": 2}),
        ("estimation.EmpiricalCopulaSampler.sample_n",
         lambda: sampler.sample_n(7, np.random.default_rng(1)), {"draws": 7}),
        ("simulate.ChargeModel.sampler_for", lambda: model.sampler_for(i, j, x), {"fallbacks": 0}),
    ]


def test_counter_values(tracing, tiny):
    *_, model = tiny
    for name, call, expected in one_row_calls(model):
        tracer = tracing.Tracer()
        with tracer.installed():
            call()
        assert tracer.calls[name] == 1, name
        for counter, value in expected.items():
            assert tracer.counts[f"{name}.{counter}"] == value, f"{name}.{counter}"


def test_every_counter_evaluates(tracing, tiny, tmp_path):
    raw, table, kernel, model = tiny
    battery, fees = simulate.BatterySpec(0.0, 0.36, 0.18), simulate.PenaltySpec(21.52, 26.50)
    tracer = tracing.Tracer()
    with tracer.installed():
        series = power.apply_ramp_limit(raw, power.RampPolicy(limit=LIMIT), capacity=CAPACITY)
        power.write_power_csv(tmp_path / "power.csv", series)
        power.read_power_csv(tmp_path / "power.csv")
        segmentation.extract_segments(series)
        simulate.simulate_penalty_path(kernel, model, battery, fees, horizon=24, seed=0)
        validation.compare_segments(table, model, rng=0, eligibility=5)
        for _, call, _ in one_row_calls(model):
            call()
    for module, attr, counters in tracing.TARGETS:
        for counter in counters:
            assert f"{module}.{attr}.{counter}" in tracer.counts, f"{module}.{attr}.{counter}"
    assert tracer.counts["validation.compare_segments.sim_paths"] > 0
    assert tracer.counts["simulate.simulate_penalty_path.steps"] == 24
    metrics = tracer.metrics()
    assert all(np.isfinite(v) for v in metrics.values())
    assert 0.0 < metrics["bridge.clip_error.clipped_share"] < 1.0
