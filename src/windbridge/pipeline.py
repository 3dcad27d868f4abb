"""Batch pipeline: run configuration, artifact files, seeding, and the stages
ingest -> correct -> segment -> fit -> simulate -> validate.

Every artifact is stamped with the configuration hash and master seed, and all
randomness is drawn from streams keyed by (seed, stage, ...), so a rerun with
the same configuration is byte-identical and adding paths never perturbs
existing ones.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import cache
from pathlib import Path

import numpy as np

from .bridge import SIGMA_FLOOR, ErrorPath, compute_initial_power, decompose, extract_peak
from .errors import (
    EstimationError,
    InputError,
    InsufficientDataError,
    WindBridgeError,
)
from .estimation import (
    EmpiricalCopulaSampler,
    SigmaModel,
    attainable_param_support,
    fit_joint_density,
    fit_sigma_regression,
    mle_sigma,
)
from .power import (
    DEFAULT_TURBINE,
    PowerSeries,
    RampPolicy,
    TurbineSpec,
    _check_wind_law,
    apply_ramp_limit,
    generate_synthetic_wind,
    read_power_csv,
    read_wind_csv,
    require_finite,
    wind_to_power,
    write_power_csv,
    write_wind_csv,
)
from .segmentation import SegmentTable, SemiMarkovKernel, complete_classes, estimate_kernel, extract_segments
from .simulate import (
    DEFAULT_BATTERY,
    DEFAULT_FEES,
    BatterySpec,
    ChargeModel,
    PenaltySpec,
    _check_horizon,
    battery_recursion,
    discounted_penalty,
    mc_moments,
    sample_step_grids,
)
from .validation import (
    ComparisonReport,
    compare_segments,
    daily_penalty_moments,
    day_start_conditions,
    empirical_penalty,
    mape_detail,
)

__all__ = [
    "STAGES",
    "SyntheticWindSpec",
    "RunConfig",
    "load_config",
    "config_hash",
    "run_pipeline",
    "run_stage",
    "build_model_doc",
    "charge_model_from_doc",
    "load_charge_model",
]

logger = logging.getLogger(__name__)

STAGES = ("ingest", "correct", "segment", "fit", "simulate", "validate")
_STAGE_IDS = {name: idx + 1 for idx, name in enumerate(STAGES)}

#: Penalty paths per random stream in simulate and validate.
BLOCK_PATHS = 128


@dataclass(frozen=True)
class SyntheticWindSpec:
    n_steps: int = 50_000
    shape: float = 2.0
    scale: float = 8.0
    autocorrelation: float = 0.9

    def __post_init__(self) -> None:
        require_finite(self)
        if self.n_steps < 2:
            raise InputError("synthetic wind needs at least 2 steps")
        _check_wind_law(self.shape, self.scale, self.autocorrelation)


@dataclass
class RunConfig:
    """Everything one batch run needs; hashable into a reproducibility stamp."""

    out_dir: Path
    wind_csv: Path | None = None
    synthetic: SyntheticWindSpec = field(default_factory=SyntheticWindSpec)
    turbine: TurbineSpec = DEFAULT_TURBINE
    limits: tuple[float, ...] = (0.01, 0.05, 0.07)
    battery: BatterySpec = DEFAULT_BATTERY
    fees: PenaltySpec = DEFAULT_FEES
    horizon: int = 24
    n_paths: int = 2000
    seed: int = 12345
    eligibility: int = 30
    min_group_sample: int = 10
    dump_paths: bool = False

    def __post_init__(self) -> None:
        self.out_dir = Path(self.out_dir)
        self.limits = tuple(float(l) for l in self.limits)
        if not self.limits:
            raise InputError("at least one ramp limit is required")
        if any(not 0.0 < l <= 1.0 for l in self.limits):
            raise InputError(f"limits must be fractions in (0, 1], got {self.limits}")
        tags = [self.limit_tag(l) for l in self.limits]
        if len(set(tags)) < len(tags):
            raise InputError(f"limits {self.limits} repeat an artifact tag: {tags}")
        _check_horizon(self.horizon)
        # moments and class covariances need two rows: one has no spread
        if self.n_paths < 2:
            raise InputError(f"n_paths must be >= 2, got {self.n_paths}")
        if self.eligibility < 2:
            raise InputError(f"eligibility must be >= 2, got {self.eligibility}")
        if self.seed < 0:
            raise InputError("seed must be nonnegative")

    def limit_mw(self, fraction: float) -> float:
        return fraction * self.turbine.rated_capacity

    def limit_tag(self, fraction: float) -> str:
        return f"{fraction:g}"


def config_hash(cfg: RunConfig) -> str:
    """Short digest of every field that affects the outputs.

    Where the artifacts go and whether a sample path is dumped do not.  A wind
    file enters by the sha256 of its bytes, not by its path.
    """
    parts = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if f.name == "wind_csv" and value is not None:
            if not Path(value).is_file():
                raise InputError(f"wind input file not found: {value}")
            digest = hashlib.sha256()
            with open(value, "rb") as fh:  # in pieces: a decade of wind is 3 MB
                while piece := fh.read(1 << 16):
                    digest.update(piece)
            value = digest.hexdigest()
        if f.name not in ("out_dir", "dump_paths"):
            parts.append(f"{f.name}={value}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


#: Every section and key an INI run configuration may set.
_CONFIG_KEYS = {
    "input": {"wind_csv"},
    "synthetic": {"n_steps", "shape", "scale", "autocorrelation"},
    "turbine": {"cut_in_speed", "rated_speed", "cut_out_speed", "rated_capacity"},
    "policy": {"limits"},
    "battery": {"soc_min", "soc_max", "soc_init"},
    "fees": {"up", "down", "discount_rate"},
    "simulation": {"horizon", "paths", "seed"},
    "validation": {"eligibility"},
    "fit": {"min_group_sample"},
    "output": {"dir"},
}
#: Keys named other than the field they set; every other key names its field.
_FIELD_OF = {"up": "up_fee", "down": "down_fee", "paths": "n_paths"}


def _typed_values(parser: configparser.ConfigParser, path: Path, section: str, target) -> dict:
    """The keys set in ``section``, as ``{field: value}`` typed like ``target``'s fields."""
    out = {}
    for key, raw in parser.items(section):
        name = _FIELD_OF.get(key, key)
        kind = type(getattr(target, name))
        try:
            out[name] = kind(raw)
        except ValueError:
            raise InputError(f"{path}: [{section}] {key} = {raw!r} is not {kind.__name__}") from None
    return out


def load_config(path: str | Path, out_dir: str | Path | None = None) -> RunConfig:
    """Parse the INI-style run configuration; unknown sections and keys are errors.

    A key left out keeps the default of the field it sets, except that
    ``[battery] soc_init`` defaults to the midpoint of the configured band.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"config file not found: {path}")
    # no key refers to another, so a ``%`` in a value (a file name, say) is literal
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise InputError(f"{path}: not a readable INI file: {exc}".replace("\n", " ")) from None
    for section in parser.sections():
        if section not in _CONFIG_KEYS:
            raise InputError(
                f"{path}: unknown section [{section}]; expected one of {', '.join(sorted(_CONFIG_KEYS))}"
            )
    for section in [configparser.DEFAULTSECT, *parser.sections()]:
        unknown = sorted(set(parser[section]) - _CONFIG_KEYS.get(section, set()))
        if unknown:
            raise InputError(f"{path}: unknown key(s) in [{section}]: {', '.join(unknown)}")

    if out_dir is None:
        out_dir = parser.get("output", "dir", fallback="windbridge_out")
    cfg = RunConfig(out_dir=Path(out_dir))
    changes: dict = {}
    if parser.has_option("input", "wind_csv"):
        changes["wind_csv"] = Path(parser.get("input", "wind_csv"))
    if parser.has_option("policy", "limits"):
        raw = parser.get("policy", "limits")
        try:
            changes["limits"] = tuple(float(v) for v in raw.replace(",", " ").split())
        except ValueError:
            raise InputError(f"{path}: [policy] limits = {raw!r} is not a list of floats") from None
    for section in ("simulation", "validation", "fit"):
        if parser.has_section(section):
            changes.update(_typed_values(parser, path, section, cfg))
    for section in ("synthetic", "turbine", "battery", "fees"):
        if parser.has_section(section):
            spec = getattr(cfg, section)
            values = _typed_values(parser, path, section, spec)
            if section == "battery" and "soc_init" not in values:
                band = values.get("soc_min", spec.soc_min), values.get("soc_max", spec.soc_max)
                values["soc_init"] = (band[0] + band[1]) / 2.0
            changes[section] = replace(spec, **values)
    return replace(cfg, **changes)


# ---------------------------------------------------------------------------
# Artifact plumbing
# ---------------------------------------------------------------------------


def _stamp(cfg: RunConfig):
    """A cached call that gives the ``config_hash`` and ``seed`` of a stage call's artifacts;
    the hash reads the whole wind file, so it runs once, at the first write."""
    return cache(lambda: {"config_hash": config_hash(cfg), "seed": cfg.seed})


def _comment(stamp) -> str:
    """The stamp line of a CSV artifact."""
    return " ".join(f"{k}={v}" for k, v in stamp().items())


def _rng(cfg: RunConfig, stage: str, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((cfg.seed, _STAGE_IDS[stage], *key)))


def _require(path: Path) -> Path:
    if not path.exists():
        raise InputError(f"missing upstream artifact: {path}")
    return path


@contextmanager
def _atomic(path: Path):
    """Write to ``<name>.partial`` and publish on success; failures leave the partial."""
    tmp = path.with_name(path.name + ".partial")
    yield tmp
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def stage_ingest(cfg: RunConfig, stamp) -> list[Path]:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    if cfg.wind_csv is not None:
        speeds = read_wind_csv(cfg.wind_csv)
    else:
        speeds = generate_synthetic_wind(
            cfg.synthetic.n_steps,
            shape=cfg.synthetic.shape,
            scale=cfg.synthetic.scale,
            autocorrelation=cfg.synthetic.autocorrelation,
            seed=_rng(cfg, "ingest"),
        )
    power = wind_to_power(speeds, cfg.turbine)
    wind_path = cfg.out_dir / "wind.csv"
    power_path = cfg.out_dir / "power.csv"
    with _atomic(wind_path) as tmp:
        write_wind_csv(tmp, speeds, comment=_comment(stamp))
    with _atomic(power_path) as tmp:
        write_power_csv(tmp, PowerSeries(generated=power), comment=_comment(stamp))
    return [wind_path, power_path]


def stage_correct(cfg: RunConfig, stamp) -> list[Path]:
    series = read_power_csv(_require(cfg.out_dir / "power.csv"))
    out = []
    for frac in cfg.limits:
        policy = RampPolicy(limit=cfg.limit_mw(frac))
        corrected = apply_ramp_limit(series, policy, capacity=cfg.turbine.rated_capacity)
        path = cfg.out_dir / f"corrected_{cfg.limit_tag(frac)}.csv"
        with _atomic(path) as tmp:
            write_power_csv(tmp, corrected, comment=_comment(stamp))
        out.append(path)
    return out


def _segments(cfg: RunConfig, tag: str) -> tuple[np.ndarray, SegmentTable]:
    """The per-step states and segment table of limit ``tag``'s corrected series."""
    path = _require(cfg.out_dir / f"corrected_{tag}.csv")
    series = read_power_csv(path)
    if series.corrected is None:
        raise InputError(f"artifact {path} has no corrected column")
    return extract_segments(series)


def stage_segment(cfg: RunConfig, stamp) -> list[Path]:
    out = []
    for frac in cfg.limits:
        tag = cfg.limit_tag(frac)
        _, table = _segments(cfg, tag)
        done = ~table.censored
        kernel = estimate_kernel(table.i[done], table.j[done], table.x[done])
        path = cfg.out_dir / f"kernel_{tag}.json"
        _write_json(path, {"limit_mw": cfg.limit_mw(frac), **kernel.to_dict()}, stamp)
        out.append(path)
    return out


def _pooled_sigma(sigmas) -> float:
    """Geometric mean of volatility estimates, each floored at ``SIGMA_FLOOR``."""
    return float(np.exp(np.mean(np.log(np.maximum(sigmas, SIGMA_FLOOR)))))


def build_model_doc(
    table: SegmentTable,
    limit: float,
    capacity: float,
    min_group_sample: int = 10,
    seed_key: tuple[int, ...] = (),
) -> dict:
    """Fit every per-class sampler and per-pair volatility model.

    A thin class ``(i, j, x)`` that needs bootstrap augmentation draws from
    ``default_rng(SeedSequence((*seed_key, i + 2, j + 2, x)))``, so a fit is
    reproducible.  Returns the JSON-ready model document.
    """
    samplers: dict[str, dict] = {}
    sigma_obs: dict[tuple[int, int], list[np.ndarray]] = {}
    for (i, j, x), rows in complete_classes(table).items():
        charges = table.charge_matrix(rows, x)
        tau, h = extract_peak(charges)
        # a flat (all-zero) run carries no parameter information
        keep = h > 0.0
        if not keep.any():
            continue
        charges, tau, h = charges[keep], tau[keep], h[keep]
        rho = compute_initial_power(i, table.entry_power[rows[keep]], x, limit, capacity)
        if x >= 2:
            err = decompose(charges, rho, tau, h, limit)
            obs = []
            for r, t in enumerate(tau.tolist()):
                try:
                    s_hat = mle_sigma(ErrorPath(err.values[r], err.clipped[r]), t, x)
                except InsufficientDataError:
                    continue
                obs.append((s_hat, rho[r], t, h[r], x))
            if obs:
                sigma_obs.setdefault((i, j), []).append(np.asarray(obs, dtype=float))
        rng = np.random.default_rng(np.random.SeedSequence((*seed_key, i + 2, j + 2, x)))
        support = attainable_param_support(i, x, limit, capacity)
        sampler = fit_joint_density(
            np.column_stack((rho, tau, h)), support, min_sample=min_group_sample, rng=rng
        )
        samplers[f"{i},{j},{x}"] = sampler.to_dict()

    all_sigmas = [obs[:, 0] for blocks in sigma_obs.values() for obs in blocks]
    sigma_default = _pooled_sigma(np.concatenate(all_sigmas)) if all_sigmas else SIGMA_FLOOR

    sigma_models: dict[str, dict] = {}
    for pair in sorted(sigma_obs):
        obs = np.concatenate(sigma_obs[pair])
        try:
            model = fit_sigma_regression(obs)
        except (InsufficientDataError, EstimationError) as exc:
            logger.info(
                "sigma regression for pair %s fell back to a constant (%s)", pair, exc
            )
            model = SigmaModel.constant(_pooled_sigma(obs[:, 0]))
        sigma_models[f"{pair[0]},{pair[1]}"] = model.to_dict()

    return {
        "limit_mw": limit,
        "capacity_mw": capacity,
        "sigma_default": sigma_default,
        "samplers": samplers,
        "sigma_models": sigma_models,
    }


def charge_model_from_doc(doc: dict) -> ChargeModel:
    """Rebuild a ChargeModel; each sampler's support comes from its class, as in the fit."""
    limit, capacity = doc["limit_mw"], doc["capacity_mw"]
    samplers = {}
    for key, data in doc["samplers"].items():
        i, j, x = (int(v) for v in key.split(","))
        support = attainable_param_support(i, x, limit, capacity)
        samplers[(i, j, x)] = EmpiricalCopulaSampler.from_dict(data, support)
    sigma_models = {}
    for key, data in doc["sigma_models"].items():
        i, j = (int(v) for v in key.split(","))
        sigma_models[(i, j)] = SigmaModel.from_dict(data)
    return ChargeModel(
        samplers=samplers,
        sigma_models=sigma_models,
        limit=limit,
        capacity=capacity,
        sigma_default=doc["sigma_default"],
    )


def stage_fit(cfg: RunConfig, stamp) -> list[Path]:
    out = []
    for idx, frac in enumerate(cfg.limits):
        tag = cfg.limit_tag(frac)
        _, table = _segments(cfg, tag)
        doc = build_model_doc(
            table,
            limit=cfg.limit_mw(frac),
            capacity=cfg.turbine.rated_capacity,
            min_group_sample=cfg.min_group_sample,
            seed_key=(cfg.seed, _STAGE_IDS["fit"], idx),
        )
        path = cfg.out_dir / f"model_{tag}.json"
        _write_json(path, doc, stamp)
        out.append(path)
    return out


def load_charge_model(path: str | Path) -> ChargeModel:
    """Rebuild a ChargeModel from a fitted-model JSON artifact."""
    with open(path) as fh:
        return charge_model_from_doc(json.load(fh))


def _fitted(cfg: RunConfig, tag: str) -> tuple[SemiMarkovKernel, ChargeModel]:
    """The kernel and charge model that segment and fit wrote for limit ``tag``."""
    with open(_require(cfg.out_dir / f"kernel_{tag}.json")) as fh:
        kernel = SemiMarkovKernel.from_dict(json.load(fh))
    return kernel, load_charge_model(_require(cfg.out_dir / f"model_{tag}.json"))


def _write_json(path: Path, doc: dict, stamp) -> None:
    """Write ``doc`` stamped with the run's ``config_hash`` and ``seed``."""
    stamped = {**doc, **stamp()}
    with _atomic(path) as tmp, open(tmp, "w") as fh:
        json.dump(stamped, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_csv(path: Path, rows: list[list], stamp) -> None:
    """Write the run's stamp comment and then ``rows``, the first of which is the header."""
    with _atomic(path) as tmp, open(tmp, "w", newline="") as fh:
        fh.write(f"# {_comment(stamp)}\n")
        csv.writer(fh).writerows(rows)


def _blocks(cfg: RunConfig) -> range:
    """Indices of the path blocks that cover ``cfg.n_paths``.

    Every block is simulated in full from its own stream and only the first
    ``cfg.n_paths`` paths are used, so adding paths never perturbs existing ones.
    """
    return range(-(-cfg.n_paths // BLOCK_PATHS))


def stage_simulate(cfg: RunConfig, stamp) -> list[Path]:
    out = []
    for idx, frac in enumerate(cfg.limits):
        tag = cfg.limit_tag(frac)
        kernel, model = _fitted(cfg, tag)

        penalty = []
        for b in _blocks(cfg):
            states, charges = sample_step_grids(
                kernel, model, np.zeros(BLOCK_PATHS, dtype=int), _rng(cfg, "simulate", idx, b),
                horizon=cfg.horizon,
            )
            soc, pen = battery_recursion(
                states, charges, cfg.battery, cfg.fees, np.full(BLOCK_PATHS, cfg.battery.soc_init)
            )
            if b == 0:
                sample = [grid[0].copy() for grid in (states, soc, pen)]
            penalty.append(pen)
        table = mc_moments(np.concatenate(penalty)[: cfg.n_paths, 1:], cfg.fees.discount_rate)
        rows = [["t", "mean", "std", "se_mean"]] + [
            [int(t), repr(float(m)), repr(float(s)), repr(float(se))]
            for t, m, s, se in zip(table.steps, table.mean, table.std, table.se_mean)
        ]
        path = cfg.out_dir / f"moments_{tag}.csv"
        _write_csv(path, rows, stamp)
        out.append(path)

        if cfg.dump_paths:
            discounted = discounted_penalty(sample[2], cfg.fees.discount_rate)
            rows = [["k", "state", "S", "M", "W"]] + [
                [int(k), int(st), repr(float(s)), repr(float(m)), repr(float(w))]
                for k, (st, s, m, w) in enumerate(zip(*sample, discounted))
            ]
            dump = cfg.out_dir / f"paths_{tag}.csv"
            _write_csv(dump, rows, stamp)
            out.append(dump)
    return out


def stage_validate(cfg: RunConfig, stamp) -> list[Path]:
    out = []
    for idx, frac in enumerate(cfg.limits):
        tag = cfg.limit_tag(frac)
        states, table = _segments(cfg, tag)
        kernel, model = _fitted(cfg, tag)
        report = compare_segments(
            table, model, rng=_rng(cfg, "validate", idx, 1), eligibility=cfg.eligibility
        )

        # Empirical penalty statistics from the observed series.
        soc, pen = empirical_penalty(states, table.charges, cfg.battery, cfg.fees)
        emp_first, emp_second, n_days = daily_penalty_moments(
            pen, cfg.horizon, cfg.fees.discount_rate
        )

        # Simulated counterpart, started from empirically observed
        # window-start conditions so both sides face the same initial law.
        # A window that starts inside a sojourn at least as long as any
        # completed one (the censored trailing run) restarts that sojourn.
        z0, b0, s0 = day_start_conditions(states, table, soc, cfg.horizon)
        longest = {int(z): kernel.max_sojourn(int(z)) for z in np.unique(z0)}
        restart = b0 >= np.array([longest[int(z)] for z in z0])
        penalty, days = [], []
        for b in _blocks(cfg):
            rng = _rng(cfg, "validate", idx, 2, b)
            d = rng.integers(n_days, size=BLOCK_PATHS)
            days.append(d)
            grids = sample_step_grids(
                kernel, model, z0[d], rng, np.where(restart[d], 0, b0[d]), horizon=cfg.horizon
            )
            penalty.append(battery_recursion(*grids, cfg.battery, cfg.fees, s0[d])[1])
        restarts = int(restart[np.concatenate(days)[: cfg.n_paths]].sum())
        logger.info(
            "limit %s: %d of %d paths start inside a sojourn at least as long as "
            "any completed one and restart it", tag, restarts, cfg.n_paths,
        )
        table = mc_moments(np.concatenate(penalty)[: cfg.n_paths, 1:], cfg.fees.discount_rate)
        # penalties are nonnegative, so a step's first moment is zero exactly
        # when its second is, and an all-zero baseline leaves both MAPEs undefined
        mape_first = mape_second = None
        skipped = emp_first.size
        if emp_first.any():
            mape_first, skipped = mape_detail(emp_first, table.mean)
            mape_second, _ = mape_detail(emp_second, table.second)
        else:
            logger.info("limit %s: no nonzero empirical penalties; MAPE undefined", tag)

        doc = dict(
            limit_mw=cfg.limit_mw(frac),
            n_days=n_days,
            n_paths=cfg.n_paths,
            sojourn_restarts=restarts,
            penalty={
                "mape_first_moment_pct": mape_first,
                "mape_second_moment_pct": mape_second,
                "skipped_zero_real": skipped,
            },
            **report.to_dict(),
        )
        jpath = cfg.out_dir / f"validation_{tag}.json"
        _write_json(jpath, doc, stamp)
        cpath = cfg.out_dir / f"validation_{tag}.csv"
        _write_csv(cpath, report.csv_rows(), stamp)
        out.extend([jpath, cpath])
    return out


_STAGE_FUNCS = {
    "ingest": stage_ingest,
    "correct": stage_correct,
    "segment": stage_segment,
    "fit": stage_fit,
    "simulate": stage_simulate,
    "validate": stage_validate,
}


def run_stage(cfg: RunConfig, stage: str) -> list[Path]:
    if stage not in _STAGE_FUNCS:
        raise InputError(f"unknown stage {stage!r}; expected one of {', '.join(STAGES)}")
    logger.info("running stage %s -> %s", stage, cfg.out_dir)
    try:
        return _STAGE_FUNCS[stage](cfg, _stamp(cfg))
    except WindBridgeError as exc:
        raise type(exc)(f"[{stage}] {exc}") from exc


def run_pipeline(cfg: RunConfig) -> list[Path]:
    """Run every stage in order; artifacts land in ``cfg.out_dir``."""
    artifacts: list[Path] = []
    for stage in STAGES:
        artifacts.extend(run_stage(cfg, stage))
    return artifacts
