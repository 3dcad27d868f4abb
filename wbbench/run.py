"""windbridge benchmark: one workload per process, timed, checked, traced.

    python3 wbbench/run.py --workload default --seed 1 --seconds 40 --trace 0

Untraced (``--trace 0``): times fresh-interpreter imports (``setup_s``), then
runs the six pipeline stages as ``windbridge --out`` does, one whole pipeline
per round, for as many rounds as fit in ``--seconds``, checks every round's
artifacts and prints the end-to-end metrics as medians over rounds.  Stage
times are scaled to a reference machine speed measured while each stage runs
(see speed.py).

Traced (``--trace 1``): each round is one untraced pipeline followed by one
traced pipeline (see tracing.py) and a byte-for-byte comparison of their
artifacts; prints the per-layer metrics and the tracing overhead.

An operation is one stage call or one output check.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is nonzero when an output is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".wbbench_out"
SETUP_SAMPLES = 3
#: Round r of a run with seed s runs the program with seed ROUND_SEEDS * s + r.
ROUND_SEEDS = 1000

sys.path[:0] = [str(SRC), str(ROOT)]

from wbbench import checks  # noqa: E402
from wbbench.speed import SpeedSampler  # noqa: E402
from wbbench.tracing import Tracer, layer_metrics  # noqa: E402
from wbbench.workloads import WORKLOADS, decade_wind, run_config, write_wind_input  # noqa: E402

if not (SRC / "windbridge" / "__init__.py").is_file():
    sys.exit(f"windbridge sources not found under {SRC}")

from windbridge.pipeline import STAGES, run_stage  # noqa: E402

MODEL_STAGES = ("ingest", "correct", "segment", "fit")
END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "model_s": "s",
    "simulate_s": "s",
    "validate_s": "s",
    "peak_rss_mb": "MB",
}
# Reported by traced runs only, from their untraced pipelines.  s_to_1pct_se
# carries the Monte Carlo noise of se_mean from 100 paths on monthly, too much
# for an end-to-end bound (see README.md); wall_s (less the reference loops)
# and reference_ms show the scaling of speed.py.
UNGATED = {
    "s_to_1pct_se": "simulate.s_to_1pct_se",
    "wall_s": "pipeline.wall_s",
    "reference_ms": "machine.reference_ms",
}


class Ledger:
    """Operations attempted and failed, and whether every output was right."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, name: str, op) -> bool:
        self.attempted += 1
        try:
            op()
        except checks.CheckFailed as exc:
            self.problems.append(f"{name}: {exc}")
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failed += 1
            print(f"operation {name} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return False
        return True


def fresh_import_seconds() -> float:
    """Wall time of a new interpreter that imports windbridge and exits."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import windbridge"], env=env, check=True)
    return time.perf_counter() - t0


def pipeline_round(workload, cfg, ledger: Ledger, input_speeds, timer) -> dict | None:
    """Run the six stages into a clean ``cfg.out_dir``; return what ``timer``
    returns for each stage.

    ``timer(stage, call)`` calls ``call()`` and returns its timing.  Returns
    ``None`` when a stage failed (the later stages are not run).
    """
    shutil.rmtree(cfg.out_dir, ignore_errors=True)
    timings = {}
    for stage in STAGES:
        failed = ledger.failed
        timings[stage] = timer(stage, lambda: ledger.run(stage, lambda: run_stage(cfg, stage)))
        if ledger.failed > failed:
            return None
    for name, check in checks.output_checks(cfg.out_dir, workload, input_speeds):
        ledger.run(name, check)
    return timings


def s_to_1pct_se(workload, out_dir: Path, simulate_s: float) -> float:
    """Projected simulate time for se_mean(T) <= 1% of mean(T) at every limit."""
    per_path = simulate_s / (workload.paths * len(workload.limits))
    needed = 0.0
    for frac in workload.limits:
        _, rows = checks.read_table(out_dir / f"moments_{frac:g}.csv")
        mean, se = rows[-1, 1], rows[-1, 3]
        needed += workload.paths * (se / (0.01 * mean)) ** 2
    return per_path * needed


def round_metrics(workload, out_dir: Path, measured: dict) -> dict:
    seconds = {stage: m.scaled_s for stage, m in measured.items()}
    return {
        "pipeline_s": sum(seconds.values()),
        "model_s": sum(seconds[s] for s in MODEL_STAGES),
        "simulate_s": seconds["simulate"],
        "validate_s": seconds["validate"],
        "s_to_1pct_se": s_to_1pct_se(workload, out_dir, seconds["simulate"]),
        "wall_s": sum(m.net_s for m in measured.values()),
        "reference_ms": 1e3 * sum(m.reference_s * m.wall_s for m in measured.values())
        / sum(m.wall_s for m in measured.values()),
    }


def artifact_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir())


def run(workload, seed: int, budget_s: float, trace: bool, out_root: Path, setup_samples: int = SETUP_SAMPLES) -> dict:
    """One benchmark run; returns the result object that ``main`` prints."""
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    input_speeds, wind_path = None, None
    if workload.wind_csv:
        input_speeds = decade_wind(workload.hours, seed)
        wind_path = out_root / "wind_input.csv"
        write_wind_input(wind_path, input_speeds)

    ledger = Ledger()
    setup = [] if trace else [fresh_import_seconds() for _ in range(setup_samples)]

    rounds: list[dict] = []
    layers: list[dict] = []
    start = time.perf_counter()
    with SpeedSampler() as sampler:
        while True:
            t0 = time.perf_counter()
            # Each round runs the program with its own seed, so medians over
            # rounds also average the Monte Carlo noise in se_mean and the
            # input-to-input differences in work.
            round_seed = ROUND_SEEDS * seed + len(rounds)
            timed_cfg = run_config(workload, round_seed, out_root / "timed", wind_path)
            measured = pipeline_round(workload, timed_cfg, ledger, input_speeds, lambda stage, call: sampler.measure(call))
            if measured is None:
                break
            rounds.append(round_metrics(workload, timed_cfg.out_dir, measured))
            print(
                f"round seed={round_seed} reference_ms={rounds[-1]['reference_ms']:.3f} wall/scaled",
                " ".join(f"{k}={m.wall_s:.3f}/{m.scaled_s:.3f}" for k, m in measured.items()),
                file=sys.stderr,
            )
            if trace:
                traced_cfg = run_config(workload, round_seed, out_root / "traced", wind_path)
                tracer = Tracer()

                def traced_timer(stage, call):
                    begin = time.perf_counter()
                    with tracer.stage_span(stage):
                        call()
                    return time.perf_counter() - begin

                with tracer.installed():
                    traced = pipeline_round(workload, traced_cfg, ledger, input_speeds, traced_timer)
                ledger.run("traced_artifacts", lambda: checks.check_same_artifacts(timed_cfg.out_dir, traced_cfg.out_dir))
                if traced is None:
                    break
                values = tracer.metrics()
                values["pipeline.artifacts.bytes"] = artifact_bytes(traced_cfg.out_dir)
                values["trace.overhead_s"] = sum(traced.values()) - rounds[-1]["wall_s"]
                values.update({layer: rounds[-1][name] for name, layer in UNGATED.items()})
                layers.append(values)
            elapsed = time.perf_counter() - start
            if elapsed + (time.perf_counter() - t0) > budget_s:
                break

    if trace:
        metrics = {name: statistics.median(v[name] for v in layers) for name in layers[0]} if layers else {}
        units = {name: unit for name, unit, _ in layer_metrics()}
    else:
        metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]} if rounds else {}
        if metrics:
            metrics["setup_s"] = statistics.median(setup)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
    return {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units if name in metrics},
        "problems": ledger.problems,
        "rounds": len(rounds),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    result = run(workload, args.seed, args.seconds, bool(args.trace), OUT / workload.name)
    for problem in result.pop("problems"):
        print(f"WRONG OUTPUT {problem}", file=sys.stderr)
    rounds = result.pop("rounds")
    print(f"{workload.name} seed={args.seed} rounds={rounds} attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] and result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
