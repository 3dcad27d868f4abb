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

from .bridge import SIGMA_FLOOR, compute_initial_power, decompose, extract_peak
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
    fit_copula_docs,
    fit_sigma_regression,
    mle_sigma,
)
from .power import (
    DEFAULT_TURBINE,
    PowerSeries,
    RampPolicy,
    TurbineSpec,
    _check_integer,
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
        _check_integer("n_steps", self.n_steps)
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
        for name in ("n_paths", "seed", "eligibility", "min_group_sample"):
            _check_integer(name, getattr(self, name))
        # moments and class covariances need two rows: one has no spread
        if self.n_paths < 2:
            raise InputError(f"n_paths must be >= 2, got {self.n_paths}")
        if self.eligibility < 2:
            raise InputError(f"eligibility must be >= 2, got {self.eligibility}")
        if self.min_group_sample < 1:
            raise InputError(f"min_group_sample must be >= 1, got {self.min_group_sample}")
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

    The runs are read one sojourn length ``x`` at a time: one pass over the
    rows of every class ``(i, j, x)`` with that ``x`` gives their peaks,
    ``rho`` and volatility estimates.  The rows are kept in class order,
    ``(i, j, x)`` then time, so a pair's volatility observations come in
    increasing ``x``, and one :func:`fit_copula_docs` call fits every class.
    A thin class that needs bootstrap augmentation draws from
    ``default_rng(SeedSequence((*seed_key, i + 2, j + 2, x)))``, so a fit is
    reproducible.  Returns the JSON-ready model document.
    """
    classes = complete_classes(table)
    rows = np.concatenate([np.zeros(0, dtype=int), *classes.values()])
    owner = np.repeat(np.arange(len(classes)), [group.size for group in classes.values()])
    i, j, x = table.i[rows], table.j[rows], table.x[rows]
    tau, h, rho = np.zeros(rows.size, dtype=int), np.zeros(rows.size), np.zeros(rows.size)
    s_hat = np.full(rows.size, np.nan)
    # each sojourn's rows in class order: a stable sort keeps (i, j) then time
    by_x = np.argsort(x, kind="stable")
    sojourns, firsts = np.unique(x[by_x], return_index=True)
    for n, at in zip(sojourns.tolist(), np.split(by_x, firsts[1:])):
        charges = table.charge_matrix(rows[at], n)
        tau[at], h[at] = extract_peak(charges)
        # a flat (all-zero) run carries no parameter information
        live = h[at] > 0.0
        at, charges = at[live], charges[live]
        rho[at] = compute_initial_power(i[at], table.entry_power[rows[at]], n, limit, capacity)
        # a run with no informative point (NaN), such as any one-step run, gives no observation
        s_hat[at] = mle_sigma(decompose(charges, rho[at], tau[at], h[at], limit), tau[at], n)

    keep = h > 0.0
    per_class = np.bincount(owner[keep], minlength=len(classes))
    keys = [key for key, count in zip(classes, per_class.tolist()) if count]
    counts = per_class[per_class > 0]
    seeds = [np.random.SeedSequence((*seed_key, a + 2, b + 2, n)) if count < min_group_sample else None
             for (a, b, n), count in zip(keys, counts.tolist())]
    docs = fit_copula_docs(
        np.column_stack((rho, tau, h))[keep],
        counts,
        _class_supports(keys, limit, capacity),
        seeds,
        min_sample=min_group_sample,
    )
    samplers = {f"{a},{b},{n}": doc for (a, b, n), doc in zip(keys, docs)}

    # class order reads each pair's observations in increasing x, and the pairs in order
    seen = ~np.isnan(s_hat)
    sigma_default = _pooled_sigma(s_hat[seen]) if seen.any() else SIGMA_FLOOR
    observations = np.column_stack((s_hat, rho, tau, h, x))
    sigma_models: dict[str, dict] = {}
    for pair in sorted({key[:2] for key in keys}):
        obs = observations[seen & (i == pair[0]) & (j == pair[1])]
        if not len(obs):
            continue
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


def _class_supports(keys: list[tuple[int, int, int]], limit: float, capacity: float) -> list:
    """The :func:`attainable_param_support` of each class ``(i, j, x)``, from one call for all."""
    side, _, x = np.array(keys, dtype=int).reshape(-1, 3).T
    return attainable_param_support(side, x, limit, capacity).rows()


def charge_model_from_doc(doc: dict) -> ChargeModel:
    """Rebuild a ChargeModel; each sampler's support comes from its class, as in the fit."""
    for name in ("limit_mw", "capacity_mw", "sigma_default"):
        if not 0.0 < doc[name] < np.inf:
            raise InputError(f"{name} must be finite and positive, got {doc[name]}")
    limit, capacity = doc["limit_mw"], doc["capacity_mw"]
    keys = [tuple(int(v) for v in key.split(",")) for key in doc["samplers"]]
    records = map(EmpiricalCopulaSampler.from_dict, doc["samplers"].values(), _class_supports(keys, limit, capacity))
    samplers = dict(zip(keys, records))
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


def _read_artifact(path: str | Path, build):
    """``build`` of the JSON document at ``path``; a broken one raises :class:`InputError` naming it."""
    try:
        with open(path) as fh:
            return build(json.load(fh))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise InputError(f"broken artifact {path}: {type(exc).__name__}: {exc}") from None


def load_charge_model(path: str | Path) -> ChargeModel:
    """Rebuild a ChargeModel from a fitted-model JSON artifact."""
    return _read_artifact(path, charge_model_from_doc)


def _fitted(cfg: RunConfig, tag: str) -> tuple[SemiMarkovKernel, ChargeModel]:
    """The kernel and charge model that segment and fit wrote for limit ``tag``.

    Every non-idle class ``(i, j, x)`` with kernel mass needs a fitted
    sampler; the first that has none raises :class:`InputError` naming it.
    """
    kernel_path = _require(cfg.out_dir / f"kernel_{tag}.json")
    kernel = _read_artifact(kernel_path, SemiMarkovKernel.from_dict)
    model = load_charge_model(_require(cfg.out_dir / f"model_{tag}.json"))
    for i, j, x in (np.argwhere(kernel.Q > 0.0) - [1, 1, 0]).tolist():
        if i != 0 and (i, j, x) not in model.samplers:
            raise InputError(f"{kernel_path}: no fitted sampler for class (i={i}, j={j}, x={x})")
    return kernel, model


def _write_json(path: Path, doc: dict, stamp) -> None:
    """Write ``doc`` stamped with the run's ``config_hash`` and ``seed``."""
    stamped = {**doc, **stamp()}
    with _atomic(path) as tmp, open(tmp, "w") as fh:
        json.dump(stamped, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")


def _write_csv(path: Path, rows: list[list], stamp) -> None:
    """Write the run's stamp comment and then ``rows``, the first of which is the header."""
    with _atomic(path) as tmp, open(tmp, "w", newline="") as fh:
        fh.write(f"# {_comment(stamp)}\n")
        csv.writer(fh).writerows(rows)


def _penalty_moments(cfg: RunConfig, kernel, model, key: tuple, z0, b0, s0):
    """Moments of ``cfg.n_paths`` penalty paths, path ``n`` started from entry ``d[n]`` of ``(z0, b0, s0)``.

    Block ``b`` draws from ``_rng(cfg, *key, b)``: its picks ``d``, which draw nothing for one
    start, then its grids (:func:`sample_step_grids`), priced by :func:`battery_recursion`.
    Only the first ``cfg.n_paths`` paths are used, so adding paths never perturbs existing
    ones.  Returns the moments, those paths' ``d`` and ``(states, soc, penalty)`` of path 0.
    """
    penalty, picks = [], []
    for b in range(-(-cfg.n_paths // BLOCK_PATHS)):
        rng = _rng(cfg, *key, b)
        d = rng.integers(z0.size, size=BLOCK_PATHS)
        states, charges = sample_step_grids(kernel, model, z0[d], rng, b0[d], horizon=cfg.horizon)
        soc, pen = battery_recursion(states, charges, cfg.battery, cfg.fees, s0[d])
        if b == 0:
            first = [grid[0].copy() for grid in (states, soc, pen)]
        penalty.append(pen)
        picks.append(d)
    table = mc_moments(np.concatenate(penalty)[: cfg.n_paths, 1:], cfg.fees.discount_rate)
    return table, np.concatenate(picks)[: cfg.n_paths], first


def stage_simulate(cfg: RunConfig, stamp) -> list[Path]:
    out = []
    idle = np.zeros(1, dtype=int)
    for idx, frac in enumerate(cfg.limits):
        tag = cfg.limit_tag(frac)
        kernel, model = _fitted(cfg, tag)
        table, _, sample = _penalty_moments(
            cfg, kernel, model, ("simulate", idx), idle, idle, np.array([cfg.battery.soc_init])
        )
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
        z0, b0, s0 = day_start_conditions(table, soc, cfg.horizon)
        restart = b0 >= kernel.max_sojourn(z0)
        sim, days, _ = _penalty_moments(
            cfg, kernel, model, ("validate", idx, 2), z0, np.where(restart, 0, b0), s0
        )
        restarts = int(restart[days].sum())
        logger.info(
            "limit %s: %d of %d paths start inside a sojourn at least as long as "
            "any completed one and restart it", tag, restarts, cfg.n_paths,
        )
        # penalties are nonnegative, so a step's first moment is zero exactly
        # when its second is, and an all-zero baseline leaves both MAPEs undefined
        mape_first = mape_second = None
        skipped = emp_first.size
        if emp_first.any():
            mape_first, skipped = mape_detail(emp_first, sim.mean)
            mape_second, _ = mape_detail(emp_second, sim.second)
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
