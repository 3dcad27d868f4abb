import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx
from scipy.special import ndtr, ndtri
from scipy.stats import spearmanr

from windbridge.bridge import SIGMA_FLOOR, ErrorPath, sample_latent_bridge
from windbridge.errors import EstimationError, InputError, InsufficientDataError
from windbridge.estimation import (
    LAMBDA_GRID,
    REGRESSOR_NAMES,
    EmpiricalCopulaSampler,
    SigmaModel,
    SupportSpec,
    attainable_param_support,
    box_cox,
    fit_copula_docs,
    fit_joint_density,
    fit_sigma_regression,
    inv_box_cox,
    mle_sigma,
    predict_sigma,
    predict_sigma_batch,
    sample_classes,
    _copulas,
    _design_matrix,
    _nearest_corr,
    _nearest_tau,
)

from conftest import DegenerateSampler, mle_sigma_loop, sampler_doc

LIMIT = 0.02
CAPACITY = 2.0


def uniform_triplets(support, n, rng):
    """Draw triplets uniformly inside a support box (oracle generator)."""
    out = []
    while len(out) < n:
        rho = rng.uniform(support.rho_min, support.rho_max)
        tau = int(rng.integers(1, support.x + 1))
        hmax = float(support.h_max(rho, tau))
        if hmax <= 0:
            continue
        out.append((rho, tau, rng.uniform(0.0, hmax) * 0.999 + 1e-9))
    return out


def nearest_corr_one(corr):
    """``_nearest_corr`` of one 3x3 matrix, written as one matrix at a time."""
    vals, vecs = np.linalg.eigh(corr)
    fixed = vecs @ np.diag(np.maximum(vals, 1e-10)) @ vecs.T
    d = np.sqrt(np.diag(fixed))
    return fixed / np.outer(d, d)


def copula_oracle(corr, marginals, z):
    """Candidate ``(rho, tau, h)`` columns, ``tau`` unrounded, of one class's ``(k, 3)``
    normals: ``ndtr(z @ cholesky(nearest corr).T)``, then ``np.interp`` on each sorted marginal."""
    u = ndtr(z @ np.linalg.cholesky(nearest_corr_one(np.asarray(corr, dtype=float))).T)
    out = []
    for d, m in enumerate(marginals):
        m = np.sort(np.asarray(m, dtype=float))
        out.append(np.interp(u[:, d], (np.arange(m.size) + 0.5) / m.size, m))
    return np.array(out)


def records(corrs, marginals):
    """One sampler record per class of ``corrs`` and ``marginals``, all on one support."""
    support = attainable_param_support(1, 3, LIMIT, CAPACITY)
    return [EmpiricalCopulaSampler(support, c, m, n_obs=1) for c, m in zip(corrs, marginals)]


def every_candidate(samplers, counts, rng):
    """The stream rule with every candidate evaluated: each round draws one normal
    array, every short class takes ``max(short, 64)`` rows of it in order and keeps
    its first accepted ones."""
    kept = [[] for _ in samplers]
    while any(len(k) < n for k, n in zip(kept, counts)):
        active = [c for c, n in enumerate(counts) if len(kept[c]) < n]
        m = [max(counts[c] - len(kept[c]), 64) for c in active]
        z = rng.standard_normal((sum(m), 3))
        for c, lo, size in zip(active, np.cumsum(m) - m, m):
            s = samplers[c]
            rho, tau, h = copula_oracle(s.corr, s.marginals, z[lo : lo + size])
            tau = _nearest_tau(tau, s.support.x)
            ok = np.flatnonzero(s.support.contains(rho, tau, h))
            kept[c] += [(rho[r], tau[r], h[r]) for r in ok[: counts[c] - len(kept[c])]]
    return np.array([row for k in kept for row in k]).reshape(-1, 3).T


def normal_at(p):
    """A normal score whose ``ndtr`` is exactly ``p``, or None where neighbouring floats step over it."""
    w = float(ndtri(p))
    for _ in range(64):
        u = float(ndtr(w))
        if u == p:
            return w
        w = float(np.nextafter(w, np.inf if u < p else -np.inf))
    return None


class ScriptedClasses:
    """Classes whose candidates are accepted by script, not by their supports.

    Class ``c`` rejects ``gaps[c][k]`` candidates before its ``k``-th
    accepted one, then accepts all (``tail`` true) or rejects all.  Its
    sampler always draws ``rho = c + 1``, by which :meth:`contains` tells
    the classes of one call apart; ``h`` varies with the normals.
    """

    def __init__(self, gaps, tails):
        self.flags = [np.r_[np.concatenate([[False] * g + [True] for g in gs] + [[]]), tail].astype(bool)
                      for gs, tail in zip(gaps, tails)]
        self.seen = np.zeros(len(gaps), dtype=int)
        self.samplers = [
            EmpiricalCopulaSampler(
                support=attainable_param_support(1, 3, LIMIT, CAPACITY), corr=np.eye(3),
                marginals=(np.full(3, c + 1.0), np.ones(3), np.linspace(0.1, 1.0, 5)), n_obs=3,
            )
            for c in range(len(gaps))
        ]

    def accept(self, c, k):
        """Whether class ``c`` accepts its ``k``-th candidates, counted over all rounds."""
        return self.flags[c][np.minimum(k, self.flags[c].size - 1)]

    def contains(self, rho, tau, h):
        owner = np.asarray(rho).astype(int) - 1
        ok = np.empty(owner.size, dtype=bool)
        for c in np.unique(owner).tolist():
            at = np.flatnonzero(owner == c)
            ok[at] = self.accept(c, self.seen[c] + np.arange(at.size))
            self.seen[c] += at.size
        return ok

    def draw(self, counts, seed, chunk):
        """``sample_classes`` of the scripted classes, or the message of its error."""
        import windbridge.bridge as bridge
        import windbridge.estimation as est

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(est, "MAX_REJECTIONS", 100)
            mp.setattr(bridge, "CHUNK_POINTS", chunk)
            mp.setattr(est.SupportSpec, "contains", self.contains)
            try:
                return sample_classes(self.samplers, counts, np.random.default_rng(seed), names="ABCD")
            except EstimationError as exc:
                return str(exc)

    def oracle(self, counts, seed):
        """The stream rule as a scalar loop, one class and one candidate at a time:
        the rows, or the index of the class that meets 100 consecutive rejects first."""
        rng = np.random.default_rng(seed)
        kept = [[] for _ in counts]
        seen, run = [0] * len(counts), [0] * len(counts)
        while any(len(k) < n for k, n in zip(kept, counts)):
            active = [c for c, n in enumerate(counts) if len(kept[c]) < n]
            m = [max(counts[c] - len(kept[c]), 64) for c in active]
            z = rng.standard_normal((sum(m), 3))
            for c, lo, size in zip(active, np.cumsum(m) - m, m):
                s = self.samplers[c]
                rho, tau, h = copula_oracle(s.corr, s.marginals, z[lo : lo + size])
                tau = _nearest_tau(tau, 3)
                for r in range(size):
                    if self.accept(c, seen[c]):
                        run[c] = 0
                        if len(kept[c]) < counts[c]:
                            kept[c].append((rho[r], tau[r], h[r]))
                    else:
                        run[c] += 1
                        if run[c] >= 100:
                            return c
                    seen[c] += 1
        return np.array([row for k in kept for row in k]).reshape(-1, 3).T


class TestSupports:
    def test_contains_strictness(self):
        s = attainable_param_support(1, 5, LIMIT, CAPACITY)
        assert s.contains(1.9, 2, 0.02)
        assert not s.contains(1.9, 2.5, 0.02)  # non-integer tau
        assert not s.contains(2.1, 2, 0.02)  # rho above the box

    def test_attainable_contains_boundary_h(self):
        s = attainable_param_support(1, 5, LIMIT, CAPACITY)
        rho = 1.9
        assert s.contains(rho, 2, float(s.h_max(rho, 2)))

    def test_invalid_side(self):
        with pytest.raises(InputError):
            attainable_param_support(0, 5, LIMIT, CAPACITY)

    # both sides at x = 1, inside the ramp reach and past capacity/limit (100)
    SIDES = np.array([1, -1, 1, -1, 1, -1, 1, -1])
    XS = np.array([1, 1, 7, 7, 99, 100, 150, 150])

    def test_per_row_support_equals_scalar_calls(self):
        rows = attainable_param_support(self.SIDES, self.XS, LIMIT, CAPACITY)
        split = rows.rows()
        assert len(split) == self.SIDES.size
        for r, (side, x) in enumerate(zip(self.SIDES.tolist(), self.XS.tolist())):
            one = attainable_param_support(side, x, LIMIT, CAPACITY)
            for name in SupportSpec.__dataclass_fields__:
                value = getattr(one, name)
                at_row = np.broadcast_to(getattr(rows, name), self.SIDES.shape)[r]
                assert np.float64(at_row).tobytes() == np.float64(value).tobytes(), (r, name)
                got, want = np.asarray(getattr(split[r], name)), np.asarray(value)
                assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    def test_per_row_methods_equal_each_rows_own_support(self):
        rng = np.random.default_rng(21)
        n = 400
        pick = rng.integers(0, self.SIDES.size, n)
        rows = attainable_param_support(self.SIDES[pick], self.XS[pick], LIMIT, CAPACITY)
        rho = rng.uniform(-0.1, CAPACITY + 0.1, n)
        tau = rng.integers(0, 152, n).astype(float)
        tau[::7] += 0.5  # not an integer
        h = rng.uniform(-0.1, 2.5, n)
        ok = rows.contains(rho, tau, h)
        h_max = rows.h_max(rho, tau)
        moved = rows.clamp(rho, tau, h)
        assert 0 < ok.sum() < n
        for r in range(n):
            one = attainable_param_support(int(self.SIDES[pick[r]]), int(self.XS[pick[r]]), LIMIT, CAPACITY)
            assert ok[r] == one.contains(rho[r], tau[r], h[r]), r
            assert h_max[r].tobytes() == one.h_max(rho[r], tau[r]).tobytes(), r
            for got, want in zip(moved, one.clamp(rho[r], tau[r], h[r])):
                assert got[r].tobytes() == np.float64(want).tobytes(), r

    @pytest.mark.parametrize(
        "side, x",
        [([1, 0, -1], [2, 3, 4]), ([1, -1, 2], [2, 3, 4]), ([1, -1], [3, 0]), (1, [4, 5, -2])],
    )
    def test_bad_row_rejected(self, side, x):
        with pytest.raises(InputError):
            attainable_param_support(np.array(side), np.array(x), LIMIT, CAPACITY)
        with pytest.raises(InputError):
            SupportSpec(np.array(side), np.array(x), LIMIT, 0.0, CAPACITY, 0.0)


class TestJointDensity:
    def test_resampled_marginals_match_truth(self):
        rng = np.random.default_rng(0)
        support = attainable_param_support(-1, 8, LIMIT, CAPACITY)
        rho = rng.uniform(0.5, 1.5, 500)
        tau = rng.integers(1, 9, 500)
        h = rng.uniform(0.05, 0.3, 500)
        sampler = fit_joint_density(np.column_stack([rho, tau, h]), support, rng=rng)
        rs, ts, hs = sampler.sample_n(20_000, np.random.default_rng(1))
        assert rs.mean() == approx(rho.mean(), rel=0.05)
        assert hs.mean() == approx(h.mean(), rel=0.05)
        assert ts.mean() == approx(tau.mean(), rel=0.05)

    def test_small_sample_augmented_inside_support(self):
        support = attainable_param_support(1, 5, LIMIT, CAPACITY)
        pts = uniform_triplets(support, 3, np.random.default_rng(2))
        sampler = fit_joint_density(pts, support, rng=np.random.default_rng(3))
        assert sampler.bootstrap_augmented
        assert sampler.n_obs == 3
        assert all(len(m) == 10 for m in sampler.marginals)
        for moved, marginal in zip(support.clamp(*sampler.marginals), sampler.marginals):
            np.testing.assert_array_equal(moved, marginal)

    def test_comonotone_dependence_preserved(self):
        support = attainable_param_support(-1, 6, LIMIT, CAPACITY)
        rho = np.linspace(0.6, 1.4, 80)
        h = 0.1 + 0.2 * (rho - 0.6)  # strictly increasing in rho
        tau = np.tile([1, 2, 3, 4], 20)
        sampler = fit_joint_density(np.column_stack([rho, tau, h]), support, rng=np.random.default_rng(4))
        rs, _, hs = sampler.sample_n(5000, np.random.default_rng(5))
        corr = spearmanr(rs, hs).statistic
        assert corr > 0.9

    def test_empty_sample_rejected(self):
        support = attainable_param_support(1, 5, LIMIT, CAPACITY)
        with pytest.raises(EstimationError):
            fit_joint_density(np.empty((0, 3)), support)

    def test_draws_stay_in_support(self, fitted_model):
        rng = np.random.default_rng(6)
        for key, sampler in list(fitted_model.samplers.items())[:25]:
            rho, tau, h = sampler.sample_n(500, rng)
            assert np.all(sampler.support.contains(rho, tau, h))
            assert np.all((tau >= 1) & (tau <= key[2]))

    def test_rejection_budget_error(self):
        # fit on data near the top of one box, then sample against a support
        # whose h ceiling sits below every observation
        good = attainable_param_support(-1, 4, LIMIT, CAPACITY)
        pts = [(1.0, 1, 0.9), (1.1, 1, 0.95), (1.2, 1, 0.99)] * 5
        sampler = fit_joint_density(pts, good, rng=np.random.default_rng(7))
        # h_max = rho - 1.3 + 1e-6 - tau*limit: at most 1e-6 - tau*limit < 0
        impossible = SupportSpec(
            side=-1, x=4, limit=LIMIT,
            rho_min=0.9, rho_max=1.3, h_offset=1e-6 - 1.3,
        )
        bad = EmpiricalCopulaSampler(
            support=impossible, corr=sampler.corr,
            marginals=sampler.marginals, n_obs=sampler.n_obs,
        )
        with pytest.raises(EstimationError, match="rejection"):
            bad.sample_n(1, np.random.default_rng(8))

    @pytest.mark.parametrize(
        "n, accepted, raises",
        [
            # accepted candidate indices per batch; the budget is 100 rejects
            (2, [[63], [40]], False),
            (2, [[0], [36]], False),  # 63 trailing + 36 leading = 99
            (2, [[0], [37]], True),  # 63 + 37 = 100
            (2, [[0], []], True),  # 63 + 64
            (1, [[], [35]], False),  # 64 + 35
            (1, [[], [36]], True),  # 64 + 36
            (150, [[0, *range(100, 150)], list(range(99))], False),  # 99 inside a batch
            (150, [[0, *range(101, 150)]], True),  # 100 inside a batch
        ],
    )
    def test_rejection_budget_boundary(self, monkeypatch, n, accepted, raises):
        import windbridge.estimation as est

        monkeypatch.setattr(est, "MAX_REJECTIONS", 100)
        # each batch's indices counted from the first candidate of the first round:
        # a round draws max(short, 64) candidates
        accept, offset, kept = [], 0, 0
        for batch in accepted:
            accept += [offset + k for k in batch]
            offset += max(n - kept, 64)
            kept += min(len(batch), n - kept)
        seen = [0]

        def scripted_contains(rows, rho, tau, h):
            # accepts by script, one candidate at a time, however the candidates are split into calls
            k = seen[0] + np.arange(np.size(rho))
            seen[0] += k.size
            return np.isin(k, accept)

        # the candidates of every class are tested against per-row bounds at once
        monkeypatch.setattr(est.SupportSpec, "contains", scripted_contains)
        sampler = EmpiricalCopulaSampler(
            support=attainable_param_support(1, 3, LIMIT, CAPACITY), corr=np.eye(3),
            marginals=(np.ones(3), np.ones(3), np.ones(3)), n_obs=3,
        )
        if raises:
            with pytest.raises(EstimationError, match="100 consecutive rejections"):
                sampler.sample_n(n, np.random.default_rng(0))
        else:
            assert sampler.sample_n(n, np.random.default_rng(0))[0].size == n

    @pytest.mark.parametrize("chunk", [10**9, 100, 1])
    def test_first_class_at_the_budget_is_named(self, chunk):
        """A needs 1 row and B 23, both rejecting all: in round 2 B meets the budget
        in the head of its candidates and A only in the rest of its own, but A comes first."""
        script = ScriptedClasses([[], []], [False, False])
        got = script.draw((1, 23), 5, chunk)
        assert got.startswith("100 consecutive rejections") and got.endswith("in class A")
        assert script.oracle((1, 23), 5) == 0

    @pytest.mark.parametrize("chunk", [10**9, 100, 1])
    def test_classes_share_rounds(self, fitted_model, monkeypatch, chunk):
        """Round by round, each short class takes max(short, 64) candidates of
        one normal array, in order, and keeps its first accepted ones.  Reading
        each class's candidates only up to its last kept one gives the rows and
        leaves the random state of evaluating every candidate."""
        import windbridge.bridge as bridge

        monkeypatch.setattr(bridge, "CHUNK_POINTS", chunk)
        samplers = [fitted_model.samplers[key] for key in sorted(fitted_model.samplers)[:40:4]]
        counts = [0, 1, 5, 63, 64, 65, 150, 2, 300, 7][: len(samplers)]
        rng, ref = np.random.default_rng(17), np.random.default_rng(17)
        got = sample_classes(samplers, counts, rng)
        want = every_candidate(samplers, counts, ref)
        np.testing.assert_array_equal(np.array(got), want)
        assert all(g.tobytes() == w.astype(g.dtype).tobytes() for g, w in zip(got, want))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert got[1].dtype == int

    # with a budget of 100: A (150 rows) accepts its first 51 candidates and
    # ends round 1 on 99 rejects; B and C start on rejects of their own
    @pytest.mark.parametrize("chunk", [10**9, 100, 1])
    @pytest.mark.parametrize(
        "counts, gaps, raises",
        [
            ((150, 1), ([0] * 51 + [99], [63]), None),  # B does not inherit A's 99
            ((150, 1), ([0] * 51 + [100], [63]), "A"),  # A's 100th reject opens round 2
            ((150, 1), ([0] * 51 + [99], [99]), None),  # B: 64 rejects in round 1, 35 in round 2
            ((150, 1), ([0] * 51 + [99], [100]), "B"),
            ((150, 1), ([0] * 51 + [100], [100]), "A"),  # both in round 2: the first class is named
            ((2, 150, 1), ([0, 99], [0] * 51 + [99], [99]), None),
            ((2, 150, 1), ([0, 100], [0] * 51 + [99], [99]), "A"),
            ((2, 150, 1), ([0, 99], [0] * 51 + [100], [99]), "B"),
            ((2, 150, 1), ([0, 99], [0] * 51 + [99], [100]), "C"),
            ((1, 1, 1), ([200], [99], [63]), "A"),  # A's 100th reject is the 36th of round 2
            ((150, 64), ([0] * 51 + [99], [0] * 63 + [99]), None),  # two trailing runs of 99 in one round
            ((150, 64), ([0] * 51 + [99], [0] * 63 + [100]), "B"),
        ],
    )
    def test_rejection_runs_stay_in_their_class(self, counts, gaps, raises, chunk):
        script = ScriptedClasses(gaps, [True] * len(gaps))
        got = script.draw(counts, 23, chunk)
        want = script.oracle(counts, 23)
        if raises is None:
            np.testing.assert_array_equal(np.array(got), want)
            assert want.shape == (3, sum(counts))
        else:
            assert got.startswith("100 consecutive rejections") and got.endswith(f"in class {raises}")
            assert want == "ABCD".index(raises)

    @pytest.mark.parametrize("chunk", [10**9, 100, 1])
    @settings(max_examples=60, deadline=None)
    @given(
        classes=st.lists(
            st.tuples(
                st.integers(0, 150),
                st.lists(st.one_of(st.integers(0, 120), st.sampled_from([63, 64, 98, 99, 100])), max_size=6),
                st.booleans(),
            ),
            min_size=1, max_size=4,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rejection_runs_match_a_scalar_loop(self, chunk, classes, seed):
        counts, gaps, tails = (list(v) for v in zip(*classes))
        script = ScriptedClasses(gaps, tails)
        got = script.draw(counts, seed, chunk)
        want = script.oracle(counts, seed)
        if isinstance(want, int):
            assert got == (
                "100 consecutive rejections: fitted density is inconsistent with its support "
                f"(side=1, x=3) in class {'ABCD'[want]}"
            )
        else:
            np.testing.assert_array_equal(np.array(got), want)

    @settings(max_examples=80, deadline=None)
    @given(
        classes=st.lists(
            st.tuples(
                st.lists(
                    st.lists(st.one_of(st.sampled_from([0.0, 0.25, 1.0, 2.0]), st.floats(-4.0, 4.0)),
                             min_size=1, max_size=30),
                    min_size=3, max_size=3,
                ),
                st.booleans(),  # identity corr, so that chosen normals reach the marginals unchanged
                st.integers(1, 120),  # candidates
                st.floats(0.0, 1.0),  # share of them in the head
            ),
            min_size=1, max_size=5,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_flat_lookup_matches_per_class_interp(self, classes, seed):
        """The flat quantile lookup of a head and of the rest of every class's candidates
        equals ``ndtr(z @ cholesky(nearest corr).T)`` and ``np.interp`` class by class."""
        rng = np.random.default_rng(seed)
        corrs, marginals, zs = [], [], []
        for margs, identity, k, _ in classes:
            corr = np.eye(3) if identity else np.corrcoef(rng.standard_normal((4, 3)), rowvar=False)
            z = rng.standard_normal((k, 3))
            z[0] = 0.0  # u = 0.5: a plotting position of each odd-sized marginal
            z[1 % k] = 40.0 * rng.choice([-1.0, 1.0], 3)  # u beyond both ends
            if identity:  # u on other plotting positions and one float either side, where a normal reaches them
                for d, m in enumerate(margs):
                    pp = (np.arange(len(m)) + 0.5) / len(m)
                    targets = np.column_stack((np.nextafter(pp, 0.0), pp, np.nextafter(pp, 1.0))).ravel()
                    for r, t in zip(range(2, k), map(normal_at, targets.tolist())):
                        z[r, d] = np.nan if t is None else t
                z[np.isnan(z)] = 0.3
            corrs.append(corr)
            marginals.append(margs)
            zs.append(z)
        copulas = _copulas(records(corrs, marginals))
        size = np.array([z.shape[0] for z in zs])
        w = np.concatenate(zs)
        copulas.correlate(w, np.arange(size.size), size)
        first = np.cumsum(size) - size
        for c, (corr, margs, z, (*_, share)) in enumerate(zip(corrs, marginals, zs, classes)):
            want = copula_oracle(corr, margs, z)
            head = int(share * z.shape[0])
            for lo, hi in ((0, head), (head, z.shape[0])):
                got = copulas.quantiles(ndtr(w[first[c] + lo : first[c] + hi]).T, np.full(hi - lo, c))
                assert got.shape == (3, hi - lo)
                assert got.tobytes() == want[:, lo:hi].tobytes(), (c, lo, hi)
        # and every class's head in one call, as a pass of sample_classes reads them
        heads = [np.arange(first[c], first[c] + max(1, int(cl[3] * size[c]))) for c, cl in enumerate(classes)]
        rows = np.concatenate(heads)
        got = copulas.quantiles(ndtr(w[rows]).T, np.repeat(np.arange(size.size), [h.size for h in heads]))
        want = np.hstack([copula_oracle(cr, m, z)[:, : h.size] for cr, m, z, h in zip(corrs, marginals, zs, heads)])
        assert got.tobytes() == want.tobytes()

    def test_flat_lookup_at_every_plotting_position(self):
        """Uniforms on every plotting position, one float either side, and at 0 and 1,
        looked up on marginals of 1 to 60 values with ties, all in one call."""
        rng = np.random.default_rng(13)
        marginals = [
            [np.round(rng.uniform(-3, 3, n), 1) if n % 3 == 0 else rng.uniform(-3, 3, n) for _ in range(3)]
            for n in range(1, 61)
        ]
        copulas = _copulas(records([np.eye(3)] * len(marginals), marginals))
        us, owners = [], []
        for c, margs in enumerate(marginals):
            pp = (np.arange(len(margs[0])) + 0.5) / len(margs[0])
            u = np.concatenate((np.nextafter(pp, 0.0), pp, np.nextafter(pp, 1.0), [0.0, 1.0], rng.random(20)))
            us.append(np.column_stack((u, u[::-1], rng.permutation(u))))
            owners.append(np.full(u.size, c))
        got = copulas.quantiles(np.concatenate(us).T, np.concatenate(owners))
        want = [
            [np.interp(u[:, d], (np.arange(len(m)) + 0.5) / len(m), np.sort(m)) for d, m in enumerate(margs)]
            for u, margs in zip(us, marginals)
        ]
        assert got.tobytes() == np.hstack(want).tobytes()

    def test_stacked_factors_equal_one_class_at_a_time(self, fitted_model):
        samplers = list(fitted_model.samplers.values())
        copulas = fitted_model._table  # the model's one pass over its samplers
        assert copulas.chol.tobytes() == _copulas(samplers).chol.tobytes()
        for key, s in fitted_model.samplers.items():
            one = np.linalg.cholesky(nearest_corr_one(s.corr))
            assert copulas.chol[fitted_model._rows[key]].tobytes() == one.tobytes()
            assert _nearest_corr(s.corr).tobytes() == nearest_corr_one(s.corr).tobytes()

    def test_average_ranks_match_scipy(self):
        from scipy.stats import rankdata

        from windbridge.estimation import _average_ranks

        rng = np.random.default_rng(11)
        cases = [
            rng.standard_normal(50),  # no ties
            rng.integers(1, 6, 200).astype(float),  # many ties
            np.array([3.0, 1.0, 3.0, 3.0, 2.0, 1.0]),
            np.array([7.0]),
            np.tile([0.5, 0.25], 10),
        ]
        for values in cases:
            ranks, ordered = _average_ranks(values, [values.size])
            np.testing.assert_array_equal(ranks, rankdata(values))
            np.testing.assert_array_equal(ordered, np.sort(values))
        # the same classes laid end to end, ranked by one call
        ranks, ordered = _average_ranks(np.concatenate(cases), [len(v) for v in cases])
        np.testing.assert_array_equal(ranks, np.concatenate([rankdata(v) for v in cases]))
        np.testing.assert_array_equal(ordered, np.concatenate([np.sort(v) for v in cases]))


class TestSampleParams:
    def test_tau_rounding(self):
        sup = attainable_param_support(1, 5, LIMIT, CAPACITY)
        s = DegenerateSampler(sup, rho=1.9, tau=2, h=0.5)
        rho, tau, h = s.sample_n(1, np.random.default_rng(0))
        assert (rho.tolist(), tau.tolist(), h.tolist()) == ([1.9], [2], [0.5])
        from windbridge.estimation import _nearest_tau

        assert _nearest_tau(2.4, 5) == 2
        assert _nearest_tau(0.2, 5) == 1
        assert _nearest_tau(2.5, 5) == 3  # ties round up
        assert _nearest_tau(5.9, 5) == 5

    def test_deterministic_given_seed(self, fitted_model):
        sampler = next(iter(fitted_model.samplers.values()))
        draw = sampler.sample_n(1, np.random.default_rng(42))
        np.testing.assert_array_equal(draw, sampler.sample_n(1, np.random.default_rng(42)))

    def test_serialization_round_trip(self, fitted_model):
        sampler = next(iter(fitted_model.samplers.values()))
        back = EmpiricalCopulaSampler.from_dict(json.loads(json.dumps(sampler_doc(sampler))), sampler.support)
        assert sampler_doc(back) == sampler_doc(sampler)
        np.testing.assert_array_equal(
            back.sample_n(1, np.random.default_rng(3)), sampler.sample_n(1, np.random.default_rng(3))
        )


class TestMleSigma:
    def test_single_increment_closed_form(self):
        # u = (0, 1), horizon tau = 2, x = 2: sigma^2 = y^2 * 2 / (1 * 1)
        y = 0.37
        err = ErrorPath(values=np.array([[y, 0.0]]), clipped=np.array([[False, True]]))
        assert mle_sigma(err, tau=np.array([2]), x=2) == approx([np.sqrt(2.0) * abs(y)])

    def test_everything_clipped(self):
        # row 0 is clipped throughout, row 1 is not
        err = ErrorPath(values=np.full((2, 4), 0.1), clipped=np.array([[True] * 4, [False] * 4]))
        sig = mle_sigma(err, tau=np.array([2, 2]), x=4)
        assert np.isnan(sig[0]) and np.isfinite(sig[1])

    def test_pinned_point_skipped_but_conditions(self):
        # values at k=1..3 with tau=2: the k=2 point is pinned (horizon tau)
        err = ErrorPath(values=np.array([[0.5, 0.0, -0.2]]), clipped=np.zeros((1, 3), bool))
        (sig,) = mle_sigma(err, tau=np.array([2]), x=3)
        # term1: k=1, T=2: (0.5)^2 * 2/(1*1); term2: k=3, T=4, prev=(2, 0):
        # mean 0, var factor (3-2)(4-3)/(4-2) = 0.5
        expected = np.sqrt((0.25 * 2.0 + 0.04 / 0.5) / 2.0)
        assert sig == approx(expected)

    def test_recovery_from_simulated_bridges(self):
        rng = np.random.default_rng(10)
        true_sigma, x, tau = 0.05, 50, 20
        y = np.vstack([sample_latent_bridge(x, tau, true_sigma, rng)[0] for _ in range(200)])
        sq = mle_sigma(ErrorPath(values=y, clipped=np.zeros(y.shape, bool)), np.full(200, tau), x) ** 2
        assert np.sqrt(np.mean(sq)) == approx(true_sigma, rel=0.05)

    def test_square_is_taken_on_python_floats(self):
        # from a default-workload class; d * d gives 0.00036087008831531617
        err = ErrorPath(values=np.array([0.0, -0.00025517368657514833]), clipped=np.zeros(2, bool))
        assert mle_sigma_loop(err, 1, 2) == 0.0003608700883153161
        assert mle_sigma(ErrorPath(err.values[None], err.clipped[None]), np.array([1]), 2)[0] == (
            0.0003608700883153161
        )

    def test_class_shape_checks(self):
        err = ErrorPath(values=np.zeros((3, 4)), clipped=np.zeros((3, 4), bool))
        with pytest.raises(InputError, match="one tau per error path"):
            mle_sigma(err, 2, 4)
        with pytest.raises(InputError, match="one tau per error path"):
            mle_sigma(err, np.array([1, 2]), 4)
        with pytest.raises(InputError, match=r"\(n, 5\) class"):
            mle_sigma(err, np.array([1, 2, 3]), 5)
        with pytest.raises(InputError, match=r"\(n, 4\) class of error paths, got shape \(4,\)"):
            mle_sigma(ErrorPath(values=np.zeros(4), clipped=np.zeros(4, bool)), 2, 4)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=8),
        x=st.integers(min_value=1, max_value=40),
        clip_share=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_class_rows_match_the_loop(self, n, x, clip_share, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-8.0, 1.0, (n, 1))
        values = rng.standard_normal((n, x)) * scale
        clipped = rng.random((n, x)) < clip_share
        clipped[rng.random(n) < 0.2] = True  # some rows clipped throughout
        tau = rng.integers(1, x + 1, n)
        got = mle_sigma(ErrorPath(values, clipped), tau, x)
        assert got.shape == (n,)
        for r, t in enumerate(tau.tolist()):
            row = ErrorPath(values[r], clipped[r])
            try:
                want = mle_sigma_loop(row, t, x)
            except InsufficientDataError:
                assert np.isnan(got[r])
                continue
            assert got[r].tobytes() == np.float64(want).tobytes()


class TestBoxCox:
    def test_transform_pairs(self):
        y = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(inv_box_cox(box_cox(y, 0.0), 0.0), y)
        np.testing.assert_allclose(inv_box_cox(box_cox(y, 0.5), 0.5), y)
        np.testing.assert_allclose(inv_box_cox(box_cox(y, -1.3), -1.3), y)
        # lambda * p + 1 <= 0 has no preimage
        np.testing.assert_array_equal(inv_box_cox(np.array([-2.0, -3.0, 0.0]), 0.5), [np.nan, np.nan, 1.0])

    def test_inverse_matches_scalar_power_bit_for_bit(self):
        p = np.random.default_rng(29).uniform(-0.5, 0.5, size=2000)  # inside every domain
        for lam in (0.35, -0.45, 1.3):
            want = [(lam * v + 1.0) ** (1.0 / lam) for v in p.tolist()]
            assert inv_box_cox(p, lam).tolist() == want

    def test_nonpositive_rejected(self):
        with pytest.raises(InputError):
            box_cox(np.array([0.0, 1.0]), 0.5)


def synthetic_sigma_observations(n, rng, noise=0.01):
    """Log-linear volatility with a wide response spread, so the transform
    exponent is well identified."""
    rho = rng.uniform(0.5, 1.5, n)
    tau = rng.integers(1, 10, n).astype(float)
    h = rng.uniform(0.05, 0.5, n)
    x = rng.integers(2, 20, n).astype(float)
    log_sigma = -4.0 + 3.0 * h + 0.15 * tau + 1.0 * rho * h + noise * rng.standard_normal(n)
    return np.column_stack([np.exp(log_sigma), rho, tau, h, x])


class TestSigmaRegression:
    def test_log_scale_recovery(self):
        obs = synthetic_sigma_observations(400, np.random.default_rng(20))
        model = fit_sigma_regression(obs)
        assert abs(model.lam) <= 0.1
        assert model.adj_r2 > 0.99

    def test_prediction_inverts_transform(self):
        obs = synthetic_sigma_observations(400, np.random.default_rng(21), noise=1e-4)
        model = fit_sigma_regression(obs)
        got = predict_sigma(model, rho=1.0, tau=4.0, h=0.3, x=10.0)
        want = np.exp(-4.0 + 3.0 * 0.3 + 0.15 * 4.0 + 1.0 * 1.0 * 0.3)
        assert got == approx(want, rel=0.02)

    def test_too_few_observations(self):
        obs = synthetic_sigma_observations(10, np.random.default_rng(22))
        with pytest.raises(InsufficientDataError):
            fit_sigma_regression(obs)

    def test_duplicate_regressor_rank_error(self):
        rng = np.random.default_rng(23)
        obs = synthetic_sigma_observations(100, rng)
        obs[:, 4] = obs[:, 2]  # x duplicates tau: tau, x, and tau*x collapse
        with pytest.raises(EstimationError, match="collinear"):
            fit_sigma_regression(obs)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(24)
        obs = synthetic_sigma_observations(300, rng)
        model_a = fit_sigma_regression(obs)
        perm = rng.permutation(obs.shape[0])
        model_b = fit_sigma_regression(obs[perm])
        np.testing.assert_allclose(model_a.coef, model_b.coef, atol=1e-9)
        assert model_a.lam == model_b.lam

    def test_outlier_removal_engages(self):
        rng = np.random.default_rng(25)
        obs = synthetic_sigma_observations(200, rng, noise=0.01)
        obs[0, 0] *= 60.0  # one wildly inconsistent response
        model = fit_sigma_regression(obs)
        assert model.n_outliers_removed >= 1

    def test_constant_model(self):
        model = SigmaModel.constant(0.05)
        assert predict_sigma(model, 1.0, 2.0, 0.1, 5.0) == approx(0.05)

    def test_predictions_floored(self):
        obs = synthetic_sigma_observations(100, np.random.default_rng(26))
        model = fit_sigma_regression(obs)
        # absurd regressors force the linear response far below the floor
        assert predict_sigma(model, 0.0, 0.0, -50.0, 0.0) >= SIGMA_FLOOR

    def test_batch_matches_scalar_and_counts_floored(self):
        obs = synthetic_sigma_observations(100, np.random.default_rng(26))
        fitted = fit_sigma_regression(obs)
        # lambda = 0.5, sigma = (0.5 * (0.1 + h) + 1)^2: outside the domain for h <= -2.1
        names = fitted.feature_names
        halved = SigmaModel(
            lam=0.5, coef=np.array([0.1, 0, 0, 1.0] + [0.0] * 7), feature_names=names,
            adj_r2=1.0, resid_std=0.0, n_outliers_removed=0, n_obs=0,
        )
        rng = np.random.default_rng(28)
        rho, tau, h = rng.uniform(0, 2, 200), rng.integers(1, 9, 200), rng.uniform(0, 0.5, 200)
        h[:5] = -50.0
        for model in (fitted, halved):
            batch = predict_sigma_batch(model, rho, tau, h, 8)
            for r in range(200):
                one = predict_sigma_batch(model, rho[r : r + 1], tau[r : r + 1], h[r : r + 1], 8)
                assert one[0] == predict_sigma(model, rho[r], tau[r], h[r], 8)
                assert batch[r] == approx(one[0], rel=1e-12)
        np.testing.assert_array_equal(predict_sigma_batch(halved, rho, tau, h, 8)[:5], SIGMA_FLOOR)
        assert halved.floored_predictions == 5 * 4  # batch, one-row batch, scalar, last batch

    def test_fixed_lambda_predictions(self):
        names = (
            "const", "rho", "tau", "h", "x",
            "rho*tau", "rho*h", "rho*x", "tau*h", "tau*x", "h*x",
        )
        model = SigmaModel(
            lam=1.0, coef=np.array([0.7] + [0.0] * 10), feature_names=names,
            adj_r2=1.0, resid_std=0.0, n_outliers_removed=0, n_obs=0,
        )
        # lambda = 1 inverts to p + 1
        assert predict_sigma(model, 1, 1, 1, 1) == approx(1.7)
        model0 = SigmaModel(
            lam=0.0, coef=np.array([np.log(0.3)] + [0.0] * 10),
            feature_names=model.feature_names,
            adj_r2=1.0, resid_std=0.0, n_outliers_removed=0, n_obs=0,
        )
        assert predict_sigma(model0, 5, 5, 5, 5) == approx(0.3)

    def test_constant_model_json_is_strict(self):
        doc = SigmaModel.constant(0.05).to_dict()
        assert doc["adj_r2"] is None
        text = json.dumps(doc, allow_nan=False)
        assert np.isnan(SigmaModel.from_dict(json.loads(text)).adj_r2)
        # a model file written with a bare NaN still loads
        old = json.loads(text.replace("null", "NaN"))
        assert np.isnan(SigmaModel.from_dict(old).adj_r2)
        assert SigmaModel.from_dict(old).to_dict() == doc

    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    @pytest.mark.parametrize("sigma", [SIGMA_FLOOR / 2, SIGMA_FLOOR, 0.05, 0.3, 7.0])
    def test_constant_model_is_its_intercept_bit_for_bit(self, n, sigma):
        # the intercept-only formula, whatever rows the batch holds
        model = SigmaModel.constant(sigma)
        rng = np.random.default_rng(n)
        rho, h = rng.uniform(0.0, 2.0, n), rng.uniform(0.0, 1.0, n)
        tau, x = rng.integers(1, 9, n), rng.integers(9, 20, n)
        want = np.fmax(np.exp(np.full(n, model.coef[0])), SIGMA_FLOOR)
        for sojourn in (x, 12):
            assert predict_sigma_batch(model, rho, tau, h, sojourn).tobytes() == want.tobytes()
        for r in range(min(n, 5)):
            assert np.float64(predict_sigma(model, rho[r], tau[r], h[r], x[r])).tobytes() == want[r].tobytes()
        assert model.floored_predictions == 0

    def test_constant_model_outside_the_domain_is_floored_and_counted(self):
        # a constant model read from a file may carry any lambda
        model = SigmaModel(
            lam=0.5, coef=np.array([-3.0]), feature_names=("const",),
            adj_r2=float("nan"), resid_std=0.0, n_outliers_removed=0, n_obs=0,
        )
        got = predict_sigma_batch(model, np.ones(4), np.ones(4), np.ones(4), 3)
        assert got.tobytes() == np.full(4, SIGMA_FLOOR).tobytes()
        assert model.floored_predictions == 4
        inside = replace(model, coef=np.array([0.7]))
        want = np.fmax(inv_box_cox(np.full(3, 0.7), 0.5), SIGMA_FLOOR)
        assert predict_sigma_batch(inside, np.ones(3), np.ones(3), np.ones(3), 3).tobytes() == want.tobytes()

    def test_model_round_trip(self):
        obs = synthetic_sigma_observations(100, np.random.default_rng(27))
        model = fit_sigma_regression(obs)
        back = SigmaModel.from_dict(model.to_dict())
        assert back.to_dict() == model.to_dict()
        assert predict_sigma(back, 1, 2, 0.3, 8) == predict_sigma(model, 1, 2, 0.3, 8)


def oracle_sigma_regression(observations):
    """The fit with one least-squares solve per grid exponent and a separate
    QR for the leverages: the reference the one-factorisation fit must match."""
    obs = np.asarray(observations, dtype=float)
    sig = np.maximum(obs[:, 0], SIGMA_FLOOR)
    X = _design_matrix(obs[:, 1], obs[:, 2], obs[:, 3], obs[:, 4])
    n, p = X.shape

    def ols_resid(y):
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        return y - X @ beta

    def normality_score(resid):
        osm = ndtri((np.arange(1, n + 1) - 0.5) / n)
        osr = np.sort(resid)
        if np.ptp(osr) == 0:
            return 0.0
        return float(np.corrcoef(osm, osr)[0, 1] ** 2)

    best_lam, best_score = None, -np.inf
    for lam in LAMBDA_GRID:
        score = normality_score(ols_resid(box_cox(sig, float(lam))))
        if score > best_score:
            best_lam, best_score = float(lam), score
    y = box_cox(sig, best_lam)
    resid = ols_resid(y)
    q_thin = np.linalg.qr(X, mode="reduced")[0]
    leverage = np.clip(np.sum(q_thin * q_thin, axis=1), 0.0, 1.0 - 1e-12)
    s2 = float(resid @ resid) / (n - p)
    cooks = resid**2 * leverage / (p * max(s2, 1e-300) * (1.0 - leverage) ** 2)
    q1, med, q3 = np.percentile(cooks, [25, 50, 75])
    keep = cooks <= med + 3.0 * (q3 - q1)
    if keep.sum() < p + 1:
        keep[:] = True
    X2, y2 = X[keep], y[keep]
    beta, *_ = np.linalg.lstsq(X2, y2, rcond=None)
    resid2 = y2 - X2 @ beta
    n2 = X2.shape[0]
    ss_res = float(resid2 @ resid2)
    ss_tot = float(np.sum((y2 - y2.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return SigmaModel(
        lam=best_lam,
        coef=beta,
        feature_names=REGRESSOR_NAMES,
        adj_r2=float(1.0 - (1.0 - r2) * (n2 - 1) / max(n2 - p, 1)),
        resid_std=float(np.sqrt(ss_res / max(n2 - p, 1))),
        n_outliers_removed=int(n - n2),
        n_obs=int(n2),
    )


def assert_same_fit(obs):
    got, want = fit_sigma_regression(obs), oracle_sigma_regression(obs)
    assert got.lam == want.lam
    assert got.n_outliers_removed == want.n_outliers_removed
    assert got.n_obs == want.n_obs
    assert np.array_equal(got.coef, want.coef)
    assert np.array_equal(got.adj_r2, want.adj_r2)
    assert np.array_equal(got.resid_std, want.resid_std)


class TestSigmaRegressionOracle:
    def test_criterion_5_observations(self):
        # the same generator, seed and size as acceptance criterion 5
        assert_same_fit(synthetic_sigma_observations(500, np.random.default_rng(1005)))

    def test_every_pair_of_a_fitted_series(self, renewal_data, monkeypatch):
        import windbridge.pipeline as pipeline

        seen = []

        def recording_fit(obs):
            seen.append(np.array(obs))
            return fit_sigma_regression(obs)

        monkeypatch.setattr(pipeline, "fit_sigma_regression", recording_fit)
        pipeline.build_model_doc(renewal_data[1], limit=LIMIT, capacity=CAPACITY, seed_key=(7,))
        assert len(seen) == 4  # one per (i, j) pair with i, j in {-1, 1}
        for obs in seen:
            assert_same_fit(obs)


@settings(max_examples=30, deadline=None)
@given(
    side=st.sampled_from([-1, 1]),
    x=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_sampled_triplets_always_in_support(side, x, seed):
    rng = np.random.default_rng(seed)
    support = attainable_param_support(side, x, LIMIT, CAPACITY)
    pts = uniform_triplets(support, 40, rng)
    sampler = fit_joint_density(pts, support, rng=rng)
    rho, tau, h = sampler.sample_n(300, rng)
    assert np.all(support.contains(rho, tau, h))
    assert np.all((tau >= 1) & (tau <= x))


@settings(max_examples=40, deadline=None)
@given(
    classes=st.lists(
        st.tuples(
            st.sampled_from([-1, 1]),
            st.integers(min_value=1, max_value=8),  # x: tau ties whenever a class has more rows
            st.integers(min_value=1, max_value=25),  # rows: one-row and thin classes included
            st.integers(min_value=1, max_value=4),  # distinct rho values: ties
        ),
        min_size=1,
        max_size=6,
    ),
    min_sample=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_batched_copula_fit_equals_each_class_alone(classes, min_sample, seed):
    rng = np.random.default_rng(seed)
    supports, blocks = [], []
    for side, x, n, levels in classes:
        support = attainable_param_support(side, x, LIMIT, CAPACITY)
        pts = np.array(uniform_triplets(support, n, rng))
        pts[:, 0] = pts[rng.integers(0, levels, n) % n, 0]
        supports.append(support)
        blocks.append(pts)
    seeds = [seed + c for c in range(len(blocks))]
    docs = fit_copula_docs(np.concatenate(blocks), [len(b) for b in blocks], supports, seeds, min_sample)
    assert len(docs) == len(blocks)
    for doc, block, support, s in zip(docs, blocks, supports, seeds):
        alone = fit_joint_density(block, support, min_sample=min_sample, rng=np.random.default_rng(s))
        assert np.array(doc["corr"]).tobytes() == alone.corr.tobytes()
        for name, marginal in zip(("rho", "tau", "h"), alone.marginals):
            assert np.array(doc["marginals"][name]).tobytes() == marginal.tobytes()
        assert (doc["n_obs"], doc["bootstrap_augmented"]) == (len(block), len(block) < min_sample)
