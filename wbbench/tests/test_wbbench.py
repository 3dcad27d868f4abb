"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest wbbench/tests -q

A smoke run of each workload, a traced run, and for every output check an
artifact corrupted on purpose that the check must reject.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from wbbench import checks, run  # noqa: E402
from wbbench.tracing import layer_metrics  # noqa: E402
from wbbench.workloads import WORKLOADS  # noqa: E402

SEED = 3
TINY = {
    "default": dataclasses.replace(WORKLOADS["default"], hours=6_000, paths=60),
    "decade": dataclasses.replace(WORKLOADS["decade"], hours=8_760, paths=40),
    "monthly": dataclasses.replace(WORKLOADS["monthly"], hours=8_000, paths=30),
}


def tiny_run(name: str, out_root: Path, trace: bool = False) -> dict:
    return run.run(TINY[name], SEED, 0.0, trace, out_root, setup_samples=1)


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke(name, tmp_path):
    result = tiny_run(name, tmp_path / name)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    n_checks = 1 + 5 * len(TINY[name].limits)
    assert result["attempted"] == 6 + n_checks
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_matches_untraced(tmp_path):
    result = tiny_run("default", tmp_path / "t", trace=True)
    assert result["correct"] and result["failed"] == 0
    names = [name for name, _, _ in layer_metrics()]
    assert list(result["metrics"]) == names
    values = {k: m["value"] for k, m in result["metrics"].items()}
    # one call per simulated path, plus one per sojourn restart in validate
    restarts = values["validation.sojourn_restarts.count"]
    assert values["simulate.simulate_penalty_path.calls"] == 2 * 60 * 3 + restarts
    assert values["pipeline.build_model_doc.calls"] == 3
    assert 0.0 < values["estimation.copula.useful_ratio"] <= 1.0
    # the wrappers are gone afterwards
    from windbridge import pipeline, segmentation

    assert not hasattr(pipeline.extract_segments, "__wrapped__")
    assert not hasattr(pipeline.simulate_penalty_path, "__wrapped__")
    assert not hasattr(segmentation.SemiMarkovKernel.sample_sojourn, "__wrapped__")


def test_speed_sampler_scales_to_the_reference_loop():
    import signal

    from wbbench.speed import REFERENCE_S, SpeedSampler, reference_loop

    before = signal.getsignal(signal.SIGALRM)
    with SpeedSampler() as sampler:
        measured = sampler.measure(lambda: [reference_loop() for _ in range(300)])
        with pytest.raises(ZeroDivisionError):
            sampler.measure(lambda: 1 / 0)
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert measured.net_s < measured.wall_s  # the sampler ran inside the call
    # 300 loops take 300 mean loop durations, however fast the machine is
    assert measured.scaled_s == pytest.approx(300 * REFERENCE_S, rel=0.3)


def test_sojourn_restart_is_counted_inside_validate_only():
    import numpy as np
    from windbridge import simulate
    from windbridge.errors import SimulationError
    from windbridge.segmentation import SemiMarkovKernel

    from wbbench.tracing import Tracer

    # every sojourn lasts one step, so resuming three steps into one must fail
    kernel = SemiMarkovKernel({0: {1: {1: 1.0}}, 1: {0: {1: 1.0}}}, {0: 1, 1: 1})
    model = simulate.ChargeModel({}, {}, limit=0.1, capacity=2.0)
    tracer = Tracer()
    with tracer.installed():
        for stage in ("simulate", "validate"):
            with tracer.stage_span(stage), pytest.raises(SimulationError):
                simulate.simulate_penalty_path(
                    kernel, model, simulate.DEFAULT_BATTERY, simulate.DEFAULT_FEES,
                    horizon=5, initial_backward=3, seed=np.random.default_rng(0),
                )
    values = tracer.metrics()
    assert values["validation.sojourn_restarts.count"] == 1
    assert values["simulate.simulate_penalty_path.calls"] == 2


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("artifacts")
    result = tiny_run("default", root)
    assert result["correct"]
    return root / "timed"


@pytest.fixture
def out(artifacts, tmp_path):
    copy = tmp_path / "out"
    shutil.copytree(artifacts, copy)
    return copy


def edit_csv(path: Path, row: int, col: int, fn) -> None:
    """Apply ``fn`` to the float at data row ``row``, column ``col``."""
    lines = path.read_text().splitlines()
    first = next(k for k, line in enumerate(lines) if not line.startswith("#")) + 1
    cells = lines[first + row].split(",")
    cells[col] = repr(fn(float(cells[col])))
    lines[first + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def edit_json(path: Path, fn) -> None:
    doc = json.loads(path.read_text())
    fn(doc)
    path.write_text(json.dumps(doc))


W = TINY["default"]
TAG, MW = "0.05", 0.05 * checks.CAPACITY


def test_checks_pass_on_program_output(out):
    for _, check in checks.output_checks(out, W, None):
        check()


def test_power_check_rejects_shifted_power(out):
    edit_csv(out / "power.csv", 100, 1, lambda e: e + 1e-6)
    with pytest.raises(checks.CheckFailed, match="power curve"):
        checks.check_power(out, None)


def test_power_check_rejects_altered_input(out):
    _, wind = checks.read_table(out / "wind.csv")
    speeds = wind[:, 1].copy()
    speeds[5] += 0.5
    with pytest.raises(checks.CheckFailed, match="input"):
        checks.check_power(out, speeds)


def test_ramp_check_rejects_large_step(out):
    edit_csv(out / f"corrected_{TAG}.csv", 500, 2, lambda eb: eb + 2 * MW)
    with pytest.raises(checks.CheckFailed, match="ramp step"):
        checks.check_ramp(out, TAG, MW)


def test_ramp_check_rejects_unbound_deviation(out):
    _, rows = checks.read_table(out / f"corrected_{TAG}.csv")
    k = next(k for k in range(1, len(rows)) if 0.0 < rows[k, 1] < checks.CAPACITY and rows[k, 1] == rows[k, 2])
    # e(k) was reachable, so e_bar(k) must equal it
    edit_csv(out / f"corrected_{TAG}.csv", k, 2, lambda eb: eb - 1e-4)
    with pytest.raises(checks.CheckFailed):
        checks.check_ramp(out, TAG, MW)


def test_kernel_check_rejects_wrong_visits(out):
    edit_json(out / f"kernel_{TAG}.json", lambda d: d["visits"].update({"1": d["visits"]["1"] + 1}))
    with pytest.raises(checks.CheckFailed, match="visits"):
        checks.check_kernel(out, TAG)


def test_kernel_check_rejects_row_not_summing_to_one(out):
    def bump(doc):
        row = doc["q"]["-1"]
        j = next(iter(row))
        x = next(iter(row[j]))
        row[j][x] += 1e-9

    edit_json(out / f"kernel_{TAG}.json", bump)
    with pytest.raises(checks.CheckFailed, match="sums to"):
        checks.check_kernel(out, TAG)


def test_moments_check_rejects_decreasing_mean(out):
    edit_csv(out / f"moments_{TAG}.csv", W.horizon - 1, 1, lambda m: m * 0.5)
    with pytest.raises(checks.CheckFailed, match="decreases"):
        checks.check_moments(out, TAG, W.horizon, W.paths)


def test_moments_check_rejects_wrong_standard_error(out):
    edit_csv(out / f"moments_{TAG}.csv", 3, 3, lambda se: se * 1.01)
    with pytest.raises(checks.CheckFailed, match="se_mean"):
        checks.check_moments(out, TAG, W.horizon, W.paths)


def test_penalty_check_rejects_biased_mean(out):
    edit_csv(out / f"moments_{TAG}.csv", W.horizon - 1, 1, lambda m: m * 1.5)
    with pytest.raises(checks.CheckFailed, match="off"):
        checks.check_penalty_mean(out, TAG, W.horizon, W.discount_rate)


def test_penalty_recursion_by_hand(tmp_path):
    # e - e_bar = +0.3 (battery 0.18 -> 0.36, 0.12 unserved), then -0.5 (0.36 -> 0, 0.14 unserved)
    (tmp_path / "corrected_x.csv").write_text("k,e,e_bar\n0,1,1\n1,1.3,1\n2,0.5,1\n3,1,1\n4,1,1\n")
    mean, n_days = checks.empirical_penalty_mean(tmp_path, "x", 2, 0.0)
    assert n_days == 2
    want = (checks.UP_FEE * 0.12 + checks.DOWN_FEE * 0.14) / 2
    assert mean == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (lambda d: d.update(groups=[]), "no groups"),
        (lambda d: d.update(mean_l2_average_pct=25.0), "mean L2"),
        (lambda d: d["penalty"].update(mape_first_moment_pct=25.5), "MAPE"),
        (lambda d: d.update(n_days=d["n_days"] + 1), "n_days"),
    ],
)
def test_validation_check_rejects(out, corrupt, match):
    edit_json(out / f"validation_{TAG}.json", corrupt)
    with pytest.raises(checks.CheckFailed, match=match):
        checks.check_validation(out, TAG, W.horizon, W.hours)


def test_same_artifacts_check_rejects_one_byte(out, artifacts):
    path = out / f"moments_{TAG}.csv"
    data = bytearray(path.read_bytes())
    data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
    path.write_bytes(bytes(data))
    with pytest.raises(checks.CheckFailed, match="differs"):
        checks.check_same_artifacts(artifacts, out)
