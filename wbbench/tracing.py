"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces public functions and methods of the windbridge
modules with timing wrappers, in every module namespace that imported them,
and ``uninstall`` puts the originals back.  A span's self time is its
duration minus the time of the spans it caused.  Spans live in memory; the
benchmark reads them out after the traced pipeline has finished.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

import numpy as np


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# (module, attribute, counters): each counter maps the call's result and
# arguments to the amount it adds.  Method arguments include ``self``.
TARGETS = [
    ("power", "read_wind_csv", {}),
    ("power", "generate_synthetic_wind", {}),
    ("power", "apply_ramp_limit", {"steps": lambda r, a, k: len(a[0]) - 1}),
    ("power", "read_power_csv", {"rows": lambda r, a, k: len(r)}),
    ("power", "write_power_csv", {"rows": lambda r, a, k: len(_arg(a, k, 1, "series"))}),
    ("segmentation", "extract_segments", {"segments": lambda r, a, k: len(r[1])}),
    ("segmentation", "estimate_kernel", {}),
    ("segmentation", "SemiMarkovKernel.sample_sojourn", {}),
    ("segmentation", "SemiMarkovKernel.sample_successor", {}),
    ("bridge", "sample_latent_bridge", {"paths": lambda r, a, k: _arg(a, k, 4, "n_paths", 1)}),
    (
        "bridge",
        "clip_error",
        {"clipped": lambda r, a, k: int(r.clipped.sum()), "points": lambda r, a, k: r.clipped.size},
    ),
    ("bridge", "decompose", {}),
    ("estimation", "fit_joint_density", {}),
    ("estimation", "fit_sigma_regression", {}),
    ("estimation", "mle_sigma", {}),
    ("estimation", "EmpiricalCopulaSampler.sample_n", {"draws": lambda r, a, k: _arg(a, k, 1, "n")}),
    (
        "estimation",
        "SupportSpec.contains",
        {"candidates": lambda r, a, k: np.size(a[1]), "accepted": lambda r, a, k: int(np.sum(r))},
    ),
    ("estimation", "predict_sigma", {"floored": lambda r, a, k: int(r <= a[0].sigma_floor)}),
    ("simulate", "ChargeModel.charge_path", {}),
    ("simulate", "ChargeModel.sampler_for", {"fallbacks": lambda r, a, k: int(r[1])}),
    ("simulate", "simulate_penalty_path", {"steps": lambda r, a, k: len(r.penalty) - 1}),
    ("simulate", "mc_moments", {}),
    (
        "validation",
        "compare_segments",
        {"sim_paths": lambda r, a, k: sum(g.n_sim for g in r.groups)},
    ),
    ("validation", "empirical_penalty", {}),
    ("validation", "daily_penalty_moments", {}),
    ("pipeline", "build_model_doc", {}),
    ("pipeline", "load_charge_model", {}),
]

STAGES = ("ingest", "correct", "segment", "fit", "simulate", "validate")


def layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in a fixed order."""
    out = []
    for module, attr, counters in TARGETS:
        prefix = f"{module}.{attr}"
        out += [(f"{prefix}.calls", "count", "lower"), (f"{prefix}.self_s", "s", "lower")]
        out += [(f"{prefix}.{c}", "count", "lower") for c in counters if c not in ("clipped", "points")]
    out += [
        ("bridge.clip_error.clipped_share", "ratio", "lower"),
        ("estimation.copula.useful_ratio", "ratio", "higher"),
        ("validation.sojourn_restarts.count", "count", "lower"),
    ]
    out += [(f"pipeline.stage_{s}.self_s", "s", "lower") for s in STAGES]
    out += [("pipeline.artifacts.bytes", "count", "lower"), ("trace.overhead_s", "s", "lower")]
    out += [("simulate.s_to_1pct_se", "s", "lower")]
    out += [("pipeline.wall_s", "s", "lower"), ("machine.reference_ms", "ms", "lower")]
    return out


class Tracer:
    def __init__(self):
        self._stack: list[list[float]] = []  # child time of each open span
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.stage: str | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _close(self, name: str, t0: float, frame: list[float]) -> None:
        dt = time.perf_counter() - t0
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += dt
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dt - frame[0]

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def stage_span(self, stage: str):
        frame = [0.0]
        self._stack.append(frame)
        self.stage = stage
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(f"pipeline.stage_{stage}", t0, frame)
            self.stage = None

    def _wrap(self, name: str, fn, counters: dict):
        from windbridge.errors import SimulationError

        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except SimulationError:
                if name == "simulate.simulate_penalty_path" and tracer.stage == "validate":
                    tracer.count("validation.sojourn_restarts.count", 1)
                raise
            finally:
                tracer._close(name, t0, frame)
            for cname, counter in counters.items():
                tracer.count(f"{name}.{cname}", counter(result, args, kwargs))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("windbridge") and m is not None]
        for module, attr, counters in TARGETS:
            mod = sys.modules[f"windbridge.{module}"]
            name = f"{module}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self._wrap(name, cls.__dict__[meth], counters))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig, counters)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values of everything traced so far (zero if never called)."""
        values: dict[str, float] = {}
        for module, attr, counters in TARGETS:
            name = f"{module}.{attr}"
            values[f"{name}.calls"] = self.calls.get(name, 0)
            values[f"{name}.self_s"] = self.self_s.get(name, 0.0)
            for c in counters:
                values[f"{name}.{c}"] = self.counts.get(f"{name}.{c}", 0)
        points = values.pop("bridge.clip_error.points")
        clipped = values.pop("bridge.clip_error.clipped")
        values["bridge.clip_error.clipped_share"] = clipped / points if points else 0.0
        candidates = values["estimation.SupportSpec.contains.candidates"]
        draws = values["estimation.EmpiricalCopulaSampler.sample_n.draws"]
        values["estimation.copula.useful_ratio"] = draws / candidates if candidates else 0.0
        values["validation.sojourn_restarts.count"] = self.counts.get(
            "validation.sojourn_restarts.count", 0
        )
        for s in STAGES:
            values[f"pipeline.stage_{s}.self_s"] = self.self_s.get(f"pipeline.stage_{s}", 0.0)
        return values
