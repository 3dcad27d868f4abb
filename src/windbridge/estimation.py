"""Estimation and sampling of the per-segment parameter law.

Three pieces:

* the constrained support of ``(rho, tau, h)`` per segment class,
* a rank-based Gaussian-copula sampler with empirical-quantile marginals
  (bootstrap-augmented for thin classes),
* the per-path volatility MLE and the per-(i, j) Box-Cox regression that
  predicts volatility from ``(rho, tau, h, x)`` and their pairwise products.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.linalg import qr
from scipy.special import ndtr, ndtri

from .bridge import SIGMA_FLOOR, ErrorPath, _chunks, bb_transition
from .errors import EstimationError, InputError, InsufficientDataError

__all__ = [
    "SupportSpec",
    "attainable_param_support",
    "EmpiricalCopulaSampler",
    "sample_classes",
    "fit_copula_docs",
    "fit_joint_density",
    "mle_sigma",
    "SigmaModel",
    "fit_sigma_regression",
    "predict_sigma",
    "predict_sigma_batch",
    "box_cox",
    "inv_box_cox",
    "MAX_REJECTIONS",
]

logger = logging.getLogger(__name__)

#: Consecutive rejections at which a class's fitted density is declared inconsistent.
MAX_REJECTIONS = 10_000

REGRESSOR_NAMES = (
    "const",
    "rho",
    "tau",
    "h",
    "x",
    "rho*tau",
    "rho*h",
    "rho*x",
    "tau*h",
    "tau*x",
    "h*x",
)


# ---------------------------------------------------------------------------
# Parameter support
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupportSpec:
    """Constraint region for ``(rho, tau, h)`` on one segment class, or one per row.

    ``rho`` ranges over ``[rho_min, rho_max]``, ``tau`` over ``{1..x}``, and
    ``h`` over ``(0, h_max(rho, tau)]`` with
    ``h_max = rho + h_offset - tau * limit``.  Each field is one class's
    value or an array of one value per row, so that one call tests or moves
    rows of many classes.
    """

    side: int
    x: int
    limit: float
    rho_min: float
    rho_max: float
    h_offset: float

    def __post_init__(self) -> None:
        for bad, values, rule in (
            ((self.side != -1) & (self.side != 1), self.side, "support side must be -1 or +1"),
            (self.x < 1, self.x, "sojourn must be >= 1"),
            (self.rho_min > self.rho_max, self.rho_min, "rho_min must not exceed rho_max"),
        ):
            if np.count_nonzero(bad):  # on one class's 0-d values, a sixth of np.any's cost
                raise InputError(f"{rule}, got {np.broadcast_to(values, np.shape(bad))[bad][0]}")

    def rows(self) -> list["SupportSpec"]:
        """One support per row of a per-row spec, each field a numpy scalar of its row.

        One per-row spec split into rows gives each row's own
        :func:`attainable_param_support` values, at a fraction of the cost of
        building one spec per class: its ten-odd ufuncs run once for all rows.
        """
        fields = np.broadcast_arrays(
            self.side, self.x, self.limit, self.rho_min, self.rho_max, self.h_offset
        )
        return [SupportSpec(*row) for row in zip(*fields)]

    def h_max(self, rho, tau):
        return np.asarray(rho, dtype=float) + self.h_offset - np.asarray(tau, dtype=float) * self.limit

    def contains(self, rho, tau, h) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        tau = np.asarray(tau, dtype=float)
        h = np.asarray(h, dtype=float)
        ok = (rho >= self.rho_min) & (rho <= self.rho_max)
        ok &= (tau >= 1.0) & (tau <= self.x) & (tau == np.round(tau))
        ok &= (h > 0.0) & (h <= self.h_max(rho, tau))
        return ok

    def clamp(self, rho, tau, h) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Move ``(rho, tau, h)`` to the nearest point of the support.

        ``tau`` comes back as a float in ``[1, x]``; ``h`` is kept at least
        1e-15.
        """
        rho = np.clip(rho, self.rho_min, self.rho_max)
        tau = np.clip(tau, 1.0, self.x)
        h = np.minimum(h, np.maximum(self.h_max(rho, tau), 1e-15))
        h = np.maximum(h, 1e-15)
        return rho, tau, h


def attainable_param_support(side, x, limit: float, capacity: float) -> SupportSpec:
    """Bounds actually attainable under the ramp correction.

    Derived from the initial-power formula and the per-step ramp geometry:
    every ``(rho, tau, h)`` computed from a corrected series lies inside.
    Charging side: ``rho in [max(capacity - (x+1)*limit, 0), capacity + limit]``
    and ``h <= rho - tau*limit``.  Discharging side:
    ``rho in [min((x+1)*limit, capacity), capacity]`` and
    ``h <= rho - (tau - 2)*limit`` (the entry power may exceed ``rho`` by one
    ramp step, which loosens the peak bound by two steps).  The ``h`` bounds
    are closed (attained exactly when the generated power sits at 0 or at
    rated capacity) and padded by 1e-12 MW against rounding in the power
    recursion.

    ``side`` and ``x`` are one class's values or arrays that broadcast; the
    bounds are arrays either way, 0-d for one class and one entry per row
    otherwise.  A side other than -1 or +1 is rejected by :class:`SupportSpec`.
    """
    side, x = np.asarray(side), np.asarray(x)
    charging = side == 1
    reach = (x + 1) * limit
    return SupportSpec(
        side, x, limit,
        rho_min=np.where(charging, np.maximum(capacity - reach, 0.0), np.minimum(reach, capacity)),
        rho_max=np.where(charging, capacity + limit, capacity),
        h_offset=np.where(charging, 0.0, 2.0 * limit) + 1e-12,
    )


# ---------------------------------------------------------------------------
# Parameter samplers
# ---------------------------------------------------------------------------


def _nearest_tau(tau_cont, x: int) -> np.ndarray:
    """Nearest integer in {1..x}, ties rounded up."""
    nearest = np.floor(np.asarray(tau_cont, dtype=float) + 0.5)
    return np.minimum(np.maximum(nearest, 1), x).astype(int)


class EmpiricalCopulaSampler:
    """Gaussian copula over normal scores with empirical-quantile marginals.

    The dependence is the correlation matrix of the normal scores of the
    (possibly bootstrap-augmented) observations; marginals are linearly
    interpolated empirical quantile functions.  ``tau`` is sampled as a
    continuous variable and snapped to the nearest admissible integer; draws
    are rejected until they fall inside the support.
    """

    def __init__(
        self,
        support: SupportSpec,
        corr: np.ndarray,
        marginals: tuple[np.ndarray, np.ndarray, np.ndarray],
        n_obs: int,
        bootstrap_augmented: bool = False,
    ):
        self.support = support
        self.corr = np.asarray(corr, dtype=float)
        if self.corr.shape != (3, 3):
            raise InputError(f"copula corr must be 3x3, got shape {self.corr.shape}")
        self.marginals = tuple(np.asarray(m, dtype=float) for m in marginals)
        for name, m in zip(("rho", "tau", "h"), self.marginals):
            if m.ndim != 1 or m.size == 0:
                raise InputError(f"copula marginal {name} must be a non-empty list, got shape {m.shape}")
        self.marginals = tuple(np.sort(m) for m in self.marginals)
        self.n_obs = int(n_obs)
        self.bootstrap_augmented = bool(bootstrap_augmented)
        if not np.isfinite(np.concatenate((self.corr.ravel(), *self.marginals))).all():
            named = zip(("corr", "marginal rho", "marginal tau", "marginal h"), (self.corr, *self.marginals))
            bad = [name for name, values in named if not np.isfinite(values).all()]
            raise InputError(f"copula {bad[0]} must be finite")
        self._chol = np.linalg.cholesky(_nearest_corr(self.corr))
        # plotting positions of each sorted marginal, for the quantile lookup
        self._pp = tuple((np.arange(m.size) + 0.5) / m.size for m in self.marginals)

    def _quantiles(self, z: np.ndarray) -> np.ndarray:
        """Candidate ``(rho, tau, h)`` columns, ``tau`` unrounded, from ``(m, 3)`` normals."""
        u = ndtr(z @ self._chol.T)
        return np.array([np.interp(u[:, d], self._pp[d], self.marginals[d]) for d in range(3)])

    def sample_n(self, n: int, rng: np.random.Generator):
        """``n`` draws inside the support: the one-class case of :func:`sample_classes`."""
        return sample_classes([self], [n], rng)

    def to_dict(self) -> dict:
        """The fitted values; the support is not stored, since the class fixes it."""
        return {
            "corr": self.corr.tolist(),
            "marginals": {
                "rho": self.marginals[0].tolist(),
                "tau": self.marginals[1].tolist(),
                "h": self.marginals[2].tolist(),
            },
            "n_obs": self.n_obs,
            "bootstrap_augmented": self.bootstrap_augmented,
        }

    @classmethod
    def from_dict(cls, data: dict, support: SupportSpec) -> "EmpiricalCopulaSampler":
        """Rebuild a sampler on ``support`` from :meth:`to_dict`; other keys are ignored."""
        return cls(
            support=support,
            corr=np.asarray(data["corr"]),
            marginals=(
                np.asarray(data["marginals"]["rho"]),
                np.asarray(data["marginals"]["tau"]),
                np.asarray(data["marginals"]["h"]),
            ),
            n_obs=data["n_obs"],
            bootstrap_augmented=data["bootstrap_augmented"],
        )


def sample_classes(samplers, counts, rng: np.random.Generator, names=None):
    """Draws of several classes from shared rounds, laid out class after class.

    ``counts[c]`` rows come from ``samplers[c]``.  Stream rule: each round
    draws one ``(S, 3)`` standard normal array; in the given order, every
    class still short of rows takes the next ``max(short, 64)`` rows of it as
    candidates and keeps its first accepted ones, in order.  With one class
    this is :meth:`EmpiricalCopulaSampler.sample_n`.  A class that meets
    ``MAX_REJECTIONS`` consecutive rejections raises :class:`EstimationError`,
    which names ``names[c]`` when given.
    """
    counts = np.asarray(counts, dtype=np.int64)
    start = np.cumsum(counts) - counts
    rho_out = np.empty(int(counts.sum()))
    tau_out = np.empty(rho_out.size, dtype=int)
    h_out = np.empty(rho_out.size)
    filled = np.zeros(counts.size, dtype=np.int64)
    rejects = np.zeros(counts.size, dtype=np.int64)  # each class's trailing run of rejects
    supports = [s.support for s in samplers]
    # one column per class, one row per SupportSpec field
    bounds = np.array([(s.side, s.x, s.limit, s.rho_min, s.rho_max, s.h_offset) for s in supports]).T
    while True:
        active = np.flatnonzero(filled < counts)
        if active.size == 0:
            return rho_out, tau_out, h_out
        m = np.maximum(counts - filled, 64)[active]
        # whole classes at a time, about CHUNK_POINTS candidates a chunk: the
        # chunks' normals, drawn one after another, are the round's array
        for a, b in _chunks(m):
            cls, size = active[a:b], m[a:b]
            zc = rng.standard_normal((int(size.sum()), 3))
            first = np.cumsum(size) - size
            cand = np.hstack([samplers[c]._quantiles(zc[lo : lo + n])
                              for c, lo, n in zip(cls.tolist(), first.tolist(), size.tolist())])
            owner = np.repeat(np.arange(cls.size), size)
            rows = SupportSpec(*bounds[:, cls[owner]])
            tau = _nearest_tau(cand[1], rows.x)
            ok = rows.contains(cand[0], tau, cand[2])
            # a reject's run is its key less the last accepted key before it, or less its class's
            # base (first key - 1 - trailing run), which the key spacing keeps above earlier classes
            key = np.arange(ok.size) + owner * MAX_REJECTIONS
            base = key[first] - 1 - rejects[cls]
            run = key - np.maximum.accumulate(np.where(ok, key, base[owner]))
            if run.max() >= MAX_REJECTIONS:
                c = int(cls[owner[np.argmax(run >= MAX_REJECTIONS)]])
                support, where = supports[c], "" if names is None else f" in class {names[c]}"
                raise EstimationError(
                    f"{MAX_REJECTIONS} consecutive rejections: fitted density is "
                    f"inconsistent with its support (side={support.side}, x={support.x}){where}"
                )
            rejects[cls] = run[first + size - 1]
            seen = np.cumsum(ok)  # accepted so far; ranks within a class are differences of it
            rank = seen - (seen[first] - ok[first])[owner] - 1
            short = (counts - filled)[cls]
            take = np.flatnonzero(ok & (rank < short[owner]))
            dest = (start + filled)[cls][owner[take]] + rank[take]
            rho_out[dest], tau_out[dest], h_out[dest] = cand[0, take], tau[take], cand[2, take]
            filled[cls] += np.bincount(owner[take], minlength=cls.size)


def _average_ranks(values: np.ndarray, sizes) -> tuple[np.ndarray, np.ndarray]:
    """Ranks of ``values`` within each class and each class's values sorted.

    Classes of ``sizes`` rows lie end to end.  A class's ranks run ``1..n``,
    and a run of ties shares the mean of its ranks.  One stable sort keyed
    by class orders every class at once.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    owner = np.repeat(np.arange(sizes.size), sizes)
    order = np.lexsort((values, owner))
    ordered = values[order]
    new = np.ones(ordered.size, dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]) | (owner[1:] != owner[:-1])
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], ordered.size)
    # positions within the class, so that the sums below are those of a class alone
    first = (np.cumsum(sizes) - sizes)[owner[starts]]
    starts, ends = starts - first, ends - first
    ranks = np.empty(ordered.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks, ordered


def _nearest_corr(corr: np.ndarray, floor: float = 1e-10) -> np.ndarray:
    """Push a correlation matrix to the nearest comfortably PD one."""
    vals, vecs = np.linalg.eigh(corr)
    vals = np.maximum(vals, floor)
    fixed = vecs @ np.diag(vals) @ vecs.T
    d = np.sqrt(np.diag(fixed))
    return fixed / np.outer(d, d)


def _augment(data: np.ndarray, support: SupportSpec, min_sample: int, rng) -> np.ndarray:
    """``min_sample`` bootstrap picks of a thin class's rows, jittered by 1% of each
    marginal's observed range and clamped back into the support."""
    rng = np.random.default_rng(rng)
    data = data[rng.integers(0, data.shape[0], size=min_sample)]
    widths = []
    fallback = (
        support.rho_max - support.rho_min or support.limit,
        max(support.x - 1, 1),
        max(float(np.max(data[:, 2])), support.limit),
    )
    for d in range(3):
        w = float(np.ptp(data[:, d]))
        widths.append(w if w > 0 else float(fallback[d]))
    jitter = rng.uniform(-1.0, 1.0, size=data.shape) * (0.01 * np.asarray(widths))
    data = data + jitter
    return np.column_stack(support.clamp(data[:, 0], data[:, 1], data[:, 2]))


def fit_copula_docs(triplets, counts, supports, rngs, min_sample: int = 10) -> list[dict]:
    """Fit the joint ``(rho, tau, h)`` law of many segment classes in one pass.

    Class ``c`` owns the next ``counts[c]`` rows of ``triplets``, lies on
    ``supports[c]`` and, if it has fewer than ``min_sample`` rows, is
    bootstrap-resampled up to ``min_sample`` with a small uniform jitter (1%
    of each marginal's observed range) so ranks are informative; jittered
    points are clamped back into the support.  A thin class draws from
    ``default_rng(rngs[c])``, so ``rngs[c]`` is a Generator, a seed or a
    SeedSequence; the others are not read.

    One stable sort per coordinate gives every class's average ranks and
    sorted marginal, and one ``ndtri`` gives every normal score; each class's
    correlation comes from its own ``np.corrcoef``, so a class's result is
    the same, bit for bit, whatever classes share the call.  Returns one
    :meth:`EmpiricalCopulaSampler.to_dict` document per class.
    """
    data = np.asarray(triplets, dtype=float)
    counts = np.asarray(counts, dtype=np.int64)
    if data.ndim != 2 or data.shape[1] != 3 or np.any(counts < 1) or counts.sum() != data.shape[0]:
        raise EstimationError("need a non-empty (n, 3) array of (rho, tau, h) observations per class")
    sizes = np.maximum(counts, min_sample)
    thin = np.flatnonzero(counts < min_sample).tolist()
    if thin:
        pieces = np.split(data, np.cumsum(counts)[:-1])
        for c in thin:
            pieces[c] = _augment(pieces[c], supports[c], min_sample, rngs[c])
        data = np.concatenate(pieces)

    scores = np.empty_like(data)  # C order: each class's rows are one (n, 3) block
    plotting = np.repeat(sizes + 1.0, sizes)
    marginals = []
    for d in range(3):
        ranks, ordered = _average_ranks(data[:, d], sizes)
        scores[:, d] = ndtri(ranks / plotting)
        marginals.append(ordered.tolist())
    ends = np.cumsum(sizes).tolist()
    docs = []
    for c, (a, b) in enumerate(zip([0, *ends[:-1]], ends)):
        corr = np.eye(3)  # one row has no spread, and np.corrcoef would warn
        if b - a > 1:
            with np.errstate(invalid="ignore"):
                corr = np.corrcoef(scores[a:b], rowvar=False)
            corr = np.where(np.isfinite(corr), corr, 0.0)
            np.fill_diagonal(corr, 1.0)
        docs.append({
            "corr": corr.tolist(),
            "marginals": {name: m[a:b] for name, m in zip(("rho", "tau", "h"), marginals)},
            "n_obs": int(counts[c]),
            "bootstrap_augmented": bool(counts[c] < min_sample),
        })
    return docs


def fit_joint_density(
    triplets,
    support: SupportSpec,
    min_sample: int = 10,
    rng: np.random.Generator | int | None = None,
) -> EmpiricalCopulaSampler:
    """Fit the joint ``(rho, tau, h)`` sampler for one segment class: the
    one-class case of :func:`fit_copula_docs`."""
    data = np.asarray(triplets, dtype=float)
    (doc,) = fit_copula_docs(data, data.shape[:1], [support], [rng], min_sample)
    return EmpiricalCopulaSampler.from_dict(doc, support)


# ---------------------------------------------------------------------------
# Volatility estimation
# ---------------------------------------------------------------------------


def mle_sigma(error: ErrorPath, tau, x: int) -> np.ndarray:
    """Exact Gaussian MLE of the bridge volatility of each of ``n`` error paths of ``x`` steps.

    ``error`` is an ``(n, x)`` matrix with one ``tau`` per row, such as every
    run of one sojourn length whatever its class; one volatility per row is
    returned.  Only unclipped points carry information.
    Walking the unclipped times ``u_1 < u_2 < ...`` (with ``u_0 = 0`` and
    ``Y(0) = 0``), each step contributes the squared innovation of the
    pinned-bridge transition, scaled by its variance factor; the horizon is
    ``tau`` before the peak and ``x+1`` after it.  Selections landing exactly
    on a pinning time contribute nothing and are skipped (they still serve as
    conditioning points).  The matrix takes one :func:`bb_transition` call;
    the squares are taken on Python floats and each row's mean over its own
    terms, so a row's estimate is the same, bit for bit, whatever rows share
    the call.  A row without a term is NaN.
    """
    shape = error.values.shape
    if len(shape) != 2 or shape[1] != x:
        raise InputError(f"need an (n, {x}) class of error paths, got shape {shape}")
    if np.shape(tau) != shape[:1]:
        raise InputError(f"need one tau per error path, got shape {np.shape(tau)} for {shape}")
    values, free = error.values, ~error.clipped
    k = np.broadcast_to(np.arange(1, x + 1), values.shape)
    # s: the previous unclipped time, 0 before the first; column 0 holds Y(0) = 0
    zero = np.zeros((len(values), 1), dtype=int)
    s = np.hstack((zero, np.maximum.accumulate(np.where(free, k, 0), axis=1)[:, :-1]))
    y_prev = np.take_along_axis(np.hstack((zero, values)), s, axis=1)
    tau = np.reshape(tau, (-1, 1))
    horizon = np.where(k <= tau, tau, x + 1)
    keep = free & (k != horizon)
    mean, var_factor = bb_transition(y_prev[keep], s[keep], k[keep], horizon[keep], 1.0)
    terms = np.array([d**2 for d in (values[keep] - mean).tolist()]) / var_factor
    counts = keep.sum(axis=1)
    ends = np.cumsum(counts)
    sigma = np.full(len(counts), np.nan)
    for m in np.unique(counts[counts > 0]).tolist():
        rows = np.flatnonzero(counts == m)
        sigma[rows] = np.sqrt(np.mean(terms[(ends[rows] - m)[:, None] + np.arange(m)], axis=1))
    return sigma


# ---------------------------------------------------------------------------
# Box-Cox volatility regression
# ---------------------------------------------------------------------------


def box_cox(y, lam: float):
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise InputError("Box-Cox transform requires positive values")
    if lam == 0.0:
        return np.log(y)
    return (y**lam - 1.0) / lam


def inv_box_cox(p, lam: float):
    """Inverse of :func:`box_cox`; NaN outside its domain ``lam * p + 1 > 0``.

    The power is taken one element at a time with Python floats, because
    numpy's array power can differ from the scalar one in the last bit.
    """
    p = np.asarray(p, dtype=float)
    if lam == 0.0:
        return np.exp(p)
    base = lam * p + 1.0
    power = 1.0 / lam
    values = [b**power if b > 0 else np.nan for b in base.ravel().tolist()]
    return np.array(values).reshape(base.shape)


@dataclass
class SigmaModel:
    """Fitted volatility regression for one (i, j) pair."""

    lam: float
    coef: np.ndarray
    feature_names: tuple[str, ...]
    adj_r2: float
    resid_std: float
    n_outliers_removed: int
    n_obs: int
    floored_predictions: int = 0  # diagnostic counter, not serialized
    #: Least predicted volatility; the same for every model and not serialized.
    sigma_floor: ClassVar[float] = SIGMA_FLOOR

    def __post_init__(self) -> None:
        self.coef = np.asarray(self.coef, dtype=float)
        self.feature_names = tuple(self.feature_names)
        if self.feature_names not in (("const",), REGRESSOR_NAMES):
            raise InputError(
                f"volatility features must be ('const',) or REGRESSOR_NAMES, got {list(self.feature_names)}"
            )
        if self.coef.shape != (len(self.feature_names),):
            raise InputError("one coefficient per feature required")
        if not np.isfinite(self.lam):
            raise InputError(f"volatility model lambda must be finite, got {self.lam}")
        if not np.isfinite(self.coef).all():
            raise InputError(f"volatility model coef must be finite, got {self.coef.tolist()}")

    @classmethod
    def constant(cls, sigma: float) -> "SigmaModel":
        """Intercept-only fallback returning a fixed volatility."""
        sigma = max(float(sigma), SIGMA_FLOOR)
        return cls(
            lam=0.0,
            coef=np.array([np.log(sigma)]),
            feature_names=("const",),
            adj_r2=float("nan"),
            resid_std=0.0,
            n_outliers_removed=0,
            n_obs=0,
        )

    def to_dict(self) -> dict:
        """The JSON form; a constant model's undefined ``adj_r2`` is ``None`` (``null``)."""
        return {
            "lambda": self.lam,
            "coef": self.coef.tolist(),
            "feature_names": list(self.feature_names),
            "adj_r2": None if np.isnan(self.adj_r2) else self.adj_r2,
            "resid_std": self.resid_std,
            "n_outliers_removed": self.n_outliers_removed,
            "n_obs": self.n_obs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SigmaModel":
        return cls(
            lam=float(data["lambda"]),
            coef=np.asarray(data["coef"]),
            feature_names=tuple(data["feature_names"]),
            adj_r2=float("nan") if data["adj_r2"] is None else float(data["adj_r2"]),
            resid_std=float(data["resid_std"]),
            n_outliers_removed=int(data["n_outliers_removed"]),
            n_obs=int(data["n_obs"]),
        )


def _design_matrix(rho, tau, h, x) -> np.ndarray:
    """One row of regressors per ``(rho, tau, h, x)``; ``x`` may be one scalar."""
    rho, tau, h = (np.asarray(a, dtype=float) for a in (rho, tau, h))
    one = np.ones_like(rho)
    x = one * x
    cols = [
        one, rho, tau, h, x,
        rho * tau, rho * h, rho * x, tau * h, tau * x, h * x,
    ]
    return np.column_stack(cols)


def _normality_scores(resid: np.ndarray) -> np.ndarray:
    """Squared correlation of each residual column's normal quantile plot; 0 if flat."""
    n = resid.shape[0]
    osm = ndtri((np.arange(1, n + 1) - 0.5) / n)
    osm -= osm.mean()
    osr = np.sort(resid, axis=0)
    flat = osr[-1] == osr[0]
    osr -= osr.mean(axis=0)  # in place: one (n, grid) copy of the residuals at a time
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (osm @ osr) / np.sqrt((osm @ osm) * np.einsum("ij,ij->j", osr, osr))
    return np.where(flat, 0.0, r * r)


LAMBDA_GRID = np.round(np.arange(-2.0, 2.0 + 1e-9, 0.05), 2)


def fit_sigma_regression(observations) -> SigmaModel:
    """Fit the Box-Cox-transformed linear model for the volatility.

    ``observations`` holds rows ``(sigma_hat, rho, tau, h, x)``.  The Box-Cox
    exponent is picked from ``LAMBDA_GRID`` to maximize residual normality, a
    first fit drops observations whose Cook's distance exceeds
    ``median + 3 * IQR``, and the final coefficients come from a second fit
    on the remainder.  One pivoted QR of the design gives the rank check, the
    residuals of every grid exponent and the leverages.
    """
    obs = np.asarray(observations, dtype=float)
    if obs.ndim != 2 or obs.shape[1] != 5:
        raise InputError("observations must be rows of (sigma_hat, rho, tau, h, x)")
    sig = np.maximum(obs[:, 0], SIGMA_FLOOR)
    X = _design_matrix(obs[:, 1], obs[:, 2], obs[:, 3], obs[:, 4])
    n, p = X.shape
    if n < 2 * p:
        raise InsufficientDataError(f"need at least {2 * p} observations for {p} coefficients, got {n}")

    q, r, piv = qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = diag.max() * n * np.finfo(float).eps
    bad = [REGRESSOR_NAMES[piv[k]] for k in np.flatnonzero(diag <= tol)]
    if bad:
        raise EstimationError(f"rank-deficient design; collinear terms: {', '.join(sorted(bad))}")

    # one column per grid exponent, each transformed on its own: numpy's array
    # power takes special paths for some exponents that differ in the last bit
    grid_resid = np.empty((n, LAMBDA_GRID.size))
    for c, lam in enumerate(LAMBDA_GRID):
        grid_resid[:, c] = box_cox(sig, float(lam))
    grid_resid -= q @ (q.T @ grid_resid)
    best = int(np.argmax(_normality_scores(grid_resid)))  # first maximum, as a strict ``>`` scan
    best_lam = float(LAMBDA_GRID[best])
    y, resid = box_cox(sig, best_lam), grid_resid[:, best]

    # Cook's distances from the first fit; Tukey rule on their distribution.
    leverage = np.clip(np.sum(q * q, axis=1), 0.0, 1.0 - 1e-12)
    s2 = float(resid @ resid) / (n - p)
    cooks = resid**2 * leverage / (p * max(s2, 1e-300) * (1.0 - leverage) ** 2)
    q1, med, q3 = np.percentile(cooks, [25, 50, 75])
    keep = cooks <= med + 3.0 * (q3 - q1)
    n_out = int((~keep).sum())
    if keep.sum() < p + 1:
        keep = np.ones_like(keep, dtype=bool)
        n_out = 0

    X2, y2 = X[keep], y[keep]
    beta, *_ = np.linalg.lstsq(X2, y2, rcond=None)
    resid2 = y2 - X2 @ beta
    n2 = X2.shape[0]
    ss_res = float(resid2 @ resid2)
    ss_tot = float(np.sum((y2 - y2.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    adj_r2 = 1.0 - (1.0 - r2) * (n2 - 1) / max(n2 - p, 1)
    resid_std = float(np.sqrt(ss_res / max(n2 - p, 1)))
    return SigmaModel(
        lam=best_lam,
        coef=beta,
        feature_names=REGRESSOR_NAMES,
        adj_r2=float(adj_r2),
        resid_std=resid_std,
        n_outliers_removed=n_out,
        n_obs=int(n2),
    )


def predict_sigma(model: SigmaModel, rho: float, tau: float, h: float, x: float) -> float:
    """Volatility prediction: anti-transformed linear response, floored."""
    return float(predict_sigma_batch(model, [rho], [tau], [h], x)[0])


def predict_sigma_batch(model: SigmaModel, rho, tau, h, x) -> np.ndarray:
    """:func:`predict_sigma` for arrays of ``(rho, tau, h)``, at one sojourn ``x`` or one per row.

    The model reads the first ``coef.size`` regressors, the constant first,
    so each row of a constant model is ``1.0 * coef[0]``: ``coef[0]`` exactly.
    A one-row batch equals :func:`predict_sigma` bit for bit; rows of a
    larger batch may differ from it in the last bit, since the matrix-vector
    product sums in another order.  Predictions outside the inverse
    transform's domain are floored and counted in
    ``model.floored_predictions``.
    """
    pred = _design_matrix(rho, tau, h, x)[:, : model.coef.size] @ model.coef
    sigma = inv_box_cox(pred, model.lam)
    outside = np.isnan(sigma)
    n_outside = int(np.count_nonzero(outside))
    if n_outside:
        first = model.floored_predictions == 0
        model.floored_predictions += n_outside
        (logger.warning if first else logger.debug)(
            "%d sigma prediction(s) outside the inverse transform domain "
            "(lambda=%.2f, first %.4g); flooring (%d so far)",
            n_outside, model.lam, pred[outside][0], model.floored_predictions,
        )
    # fmax also floors the NaN entries
    return np.fmax(sigma, SIGMA_FLOOR)
