import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from windbridge.errors import EstimationError, InputError, SimulationError
from windbridge.pipeline import RunConfig, _stamp, _write_json
from windbridge.power import PowerSeries, RampPolicy, apply_ramp_limit
from windbridge.segmentation import (
    SIGN_TOLERANCE,
    STATES,
    SemiMarkovKernel,
    complete_classes,
    estimate_kernel,
    extract_segments,
)
from windbridge.validation import day_start_conditions

from conftest import backward_times, fixed_count_chains, kernel_states, nested_q, sojourn_pmf, successor_pmf


# sojourn gaps of zero probability, and state 0 never jumps to -1
GAPPED_Q = {
    1: {0: {1: 0.2, 4: 0.1, 9: 0.05}, -1: {4: 0.3, 6: 0.35}},
    0: {1: {2: 0.5, 3: 0.1, 12: 0.4}},
    -1: {1: {1: 0.45, 7: 0.15}, 0: {2: 0.3, 7: 0.1}},
}


def series_pair(e, eb):
    return PowerSeries(generated=np.asarray(e, float), corrected=np.asarray(eb, float))


def make_transitions(transitions, final_state=0):
    """Sources, successors and sojourns of a chain of (state, sojourn) visits.

    ``final_state`` is the state the last visit jumps to.
    """
    states = [state for state, _ in transitions] + [final_state]
    return states[:-1], states[1:], [x for _, x in transitions]


def counted_kernel_doc(i, j, x):
    """``to_dict`` of the kernel of these transitions, counted into nested dicts.

    Each ``(i, j, x)`` count comes from ``np.unique`` and is divided by the
    visits to ``i`` as Python numbers: ``q[i][j][x] = c / visits[i]``.
    """
    transitions = np.column_stack([np.asarray(a, dtype=int) for a in (i, j, x)])
    keys, counts = np.unique(transitions, axis=0, return_counts=True)
    sources, totals = np.unique(transitions[:, 0], return_counts=True)
    visits = dict(zip(sources.tolist(), totals.tolist()))
    q: dict = {}
    for (a, b, k), c in zip(keys.tolist(), counts.tolist()):
        q.setdefault(str(a), {}).setdefault(str(b), {})[str(k)] = c / visits[a]
    states = sorted(visits)
    return {"states": states, "visits": {str(a): visits[a] for a in states}, "q": q}


def completed(table):
    """The columns ``estimate_kernel`` takes: every uncensored run."""
    done = ~table.censored
    return table.i[done], table.j[done], table.x[done]


class TestExtractSegments:
    def test_equal_series_single_idle_segment(self):
        e = [0.5, 0.5, 0.5, 0.5]
        states, table = extract_segments(series_pair(e, e))
        assert len(table) == 1
        assert table.i[0] == 0 and table.censored[0] and table.x[0] == 4
        assert table.start[0] == 0 and table.j[0] == table.i[0]
        np.testing.assert_array_equal(states, [0, 0, 0, 0])

    def test_hand_built_sign_pattern(self):
        # signs over 5 steps: +, +, 0, 0, -
        e = [1.0, 1.1, 0.5, 0.6, 0.2]
        eb = [0.9, 1.0, 0.5, 0.6, 0.4]
        states, table = extract_segments(series_pair(e, eb))
        np.testing.assert_array_equal(states, [1, 1, 0, 0, -1])
        np.testing.assert_array_equal(table.start, [0, 2, 4])
        np.testing.assert_array_equal(table.i, [1, 0, -1])
        np.testing.assert_array_equal(table.j[:2], [0, -1])
        np.testing.assert_array_equal(table.x, [2, 2, 1])
        np.testing.assert_array_equal(table.censored, [False, False, True])
        np.testing.assert_allclose(table.charge_matrix(np.array([0]), 2), [[0.1, 0.1]])
        np.testing.assert_array_equal(table.entry_power, [0.9, 0.5, 0.4])

    def test_alternating_signs(self):
        e = [1.0, 0.0, 1.0, 0.0, 1.0]
        eb = [0.5, 0.5, 0.5, 0.5, 0.5]
        _, table = extract_segments(series_pair(e, eb))
        assert np.all(table.x == 1)
        np.testing.assert_array_equal(table.i, [1, -1, 1, -1, 1])

    def test_misaligned_rejected(self):
        # a misaligned pair cannot be built, so it never reaches segmentation
        with pytest.raises(InputError, match="length"):
            extract_segments(PowerSeries(generated=np.zeros(3), corrected=np.zeros(4)))

    def test_too_short(self):
        with pytest.raises(InputError):
            extract_segments(series_pair([1.0], [1.0]))
        with pytest.raises(InputError, match="corrected"):
            extract_segments(PowerSeries(generated=np.zeros(3)))

    def test_sign_tolerance(self):
        e = [0.5, 0.5 + 1e-12, 0.8]
        eb = [0.5, 0.5, 0.5]
        states, table = extract_segments(series_pair(e, eb))
        np.testing.assert_array_equal(states, [0, 0, 1])
        np.testing.assert_array_equal(table.start, [0, 2])

    def test_segments_partition_timeline(self, renewal_data):
        states, table = renewal_data
        assert table.start[0] == 0
        np.testing.assert_array_equal(table.start[1:], table.start[:-1] + table.x[:-1])
        assert table.start[-1] + table.x[-1] == states.size == table.charges.size

    def test_sign_constant_within_segments(self, corrected_series, renewal_data):
        diff = corrected_series.generated - corrected_series.corrected
        _, table = renewal_data
        for i, start, x in zip(table.i, table.start, table.x):
            window = diff[start : start + x]
            if i == 0:
                assert np.all(np.abs(window) <= 1e-9)
            else:
                assert np.all(np.sign(window) == i)

    def test_complete_classes_in_key_and_time_order(self, renewal_data):
        _, table = renewal_data
        classes = complete_classes(table)
        assert list(classes) == sorted(classes)
        seen = np.concatenate(list(classes.values()))
        expected = np.flatnonzero(~table.censored & (table.i != 0))
        np.testing.assert_array_equal(np.sort(seen), expected)
        for (i, j, x), rows in classes.items():
            assert np.all(np.diff(rows) > 0)
            assert np.all((table.i[rows] == i) & (table.j[rows] == j) & (table.x[rows] == x))


@st.composite
def power_pairs(draw):
    """A generated series in [0, 2] MW and its ramp correction."""
    e = draw(st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=2, max_size=60))
    limit = draw(st.floats(min_value=0.005, max_value=0.5))
    return apply_ramp_limit(PowerSeries(generated=np.asarray(e)), RampPolicy(limit=limit), capacity=2.0)


class TestTableProperties:
    @settings(max_examples=200, deadline=None)
    @given(power_pairs())
    def test_table_describes_its_series(self, series):
        e, eb = series.generated, series.corrected
        n = e.size
        states, table = extract_segments(series)
        # the rows tile [0, n)
        assert table.start[0] == 0 and table.start[-1] + table.x[-1] == n
        np.testing.assert_array_equal(table.start[1:], table.start[:-1] + table.x[:-1])
        np.testing.assert_array_equal(states, np.repeat(table.i, table.x))
        np.testing.assert_array_equal(table.censored, np.arange(len(table)) == len(table) - 1)
        assert np.all(table.i[:-1] != table.i[1:])
        np.testing.assert_array_equal(table.j[:-1], table.i[1:])
        diff = e - eb
        np.testing.assert_array_equal(states[diff > SIGN_TOLERANCE], 1)
        np.testing.assert_array_equal(states[diff < -SIGN_TOLERANCE], -1)
        np.testing.assert_array_equal(states[np.abs(diff) <= SIGN_TOLERANCE], 0)
        np.testing.assert_array_equal(table.charges, np.abs(diff))
        for (i, j, x), rows in complete_classes(table).items():
            runs = [np.abs(diff)[s : s + x] for s in table.start[rows]]
            np.testing.assert_array_equal(table.charge_matrix(rows, x), np.vstack(runs))
        # steps since the last state change, counted one step at a time
        back = [0]
        for k in range(1, n):
            back.append(back[-1] + 1 if states[k] == states[k - 1] else 0)
        np.testing.assert_array_equal(backward_times(table), back)

        if len(table) == 1:
            with pytest.raises(EstimationError):
                estimate_kernel(*completed(table))
            return
        kernel = estimate_kernel(*completed(table))
        q = nested_q(kernel)
        for i in kernel_states(kernel):
            assert sum(v for jj in q[i].values() for v in jj.values()) == approx(1.0, abs=1e-12)
            assert kernel.visits[i + 1] == int(np.sum(table.i[:-1] == i))


class TestEstimateKernel:
    def test_counting_oracle(self):
        # transitions from +1: (j=0, x=2) three times and (j=-1, x=2) once
        transitions = make_transitions(
            [(1, 2), (0, 3), (1, 2), (0, 3), (1, 2), (0, 3), (1, 2)], final_state=-1
        )
        kernel = estimate_kernel(*transitions)
        assert kernel.Q[1 + 1, 0 + 1, 2] == approx(0.75)
        assert kernel.Q[1 + 1, -1 + 1, 2] == approx(0.25)
        xs, probs = sojourn_pmf(kernel, 1)
        assert xs.tolist() == [2] and probs.tolist() == approx([1.0])
        assert successor_pmf(kernel, 1, 2) == approx({-1: 0.25, 0: 0.75})
        assert kernel.max_sojourn(np.array([0, 1, 0])).tolist() == [3, 2, 3]

    def test_identities(self, fitted_kernel):
        k, q = fitted_kernel, nested_q(fitted_kernel)
        for i in kernel_states(k):
            total = sum(v for jj in q[i].values() for v in jj.values())
            assert total == approx(1.0, abs=1e-12)
            xs, probs = sojourn_pmf(k, i)
            assert xs.tolist() == sorted({x for jj in q[i].values() for x in jj})
            assert k.max_sojourn(np.array([i])).tolist() == [xs[-1]]
            for x, hval in zip(xs.tolist(), probs):
                assert hval == approx(sum(q[i][j].get(x, 0.0) for j in q[i]), abs=1e-12)
                pmf = successor_pmf(k, i, x)
                assert list(pmf) == sorted(j for j in q[i] if x in q[i][j])
                assert sum(pmf.values()) == approx(1.0, abs=1e-12)
                for j, c in pmf.items():
                    assert c == approx(q[i][j][x] / hval, abs=1e-12)

    def test_draws_match_scalar_inverse_cdf(self):
        q = GAPPED_Q
        kernel = SemiMarkovKernel(q, {1: 1, 0: 1, -1: 1})
        rng = np.random.default_rng(21)
        states = rng.choice([-1, 0, 1], 5000)
        longest = np.array([max(x for kk in q[i].values() for x in kk) for i in states])
        backward = (rng.random(states.size) * longest).astype(int)
        assert set(backward.tolist()) >= set(range(12))

        def jump_oracle(i, u, b=None):
            entries = sorted((x, j) for j, kk in q[i].items() for x in kk)
            cdf = np.cumsum([q[i][j][x] for x, j in entries])
            below = [n for n, (x, _) in enumerate(entries) if b is not None and x <= b]
            lower = cdf[below[-1]] if below else 0.0
            v = lower + u * (cdf[-1] - lower)
            return entries[min(int(np.sum(cdf <= v)), len(entries) - 1)]

        def successor_oracle(i, x, u):
            targets = [j for j in sorted(q[i]) if x in q[i][j]]
            h = sum(q[i][j].get(x, 0.0) for j in sorted(q[i]))
            cum = np.cumsum([q[i][j][x] / h for j in targets])
            return targets[min(int(np.sum(cum <= u * cum[-1])), len(targets) - 1)]

        for condition in (None, backward):
            clone = np.random.Generator(np.random.PCG64())
            clone.bit_generator.state = rng.bit_generator.state
            sojourns, successors = kernel.sample_jumps(states, rng, condition)
            u = clone.random(states.size)
            expected = [
                jump_oracle(i, un, None if condition is None else bn)
                for i, un, bn in zip(states.tolist(), u, backward.tolist())
            ]
            np.testing.assert_array_equal(np.column_stack((sojourns, successors)), expected)
            if condition is not None:
                assert np.all(sojourns > backward)
            assert not np.any((states == 0) & (successors == -1))
        drawn = set(zip(states.tolist(), successors.tolist(), sojourns.tolist()))
        assert drawn == {(i, j, x) for i in q for j, kk in q[i].items() for x in kk}

        clone.bit_generator.state = rng.bit_generator.state
        one_row = [kernel.sample_successor(i, x, rng) for i, x in zip(states.tolist(), sojourns.tolist())]
        u = clone.random(states.size)
        expected = [successor_oracle(i, x, un) for i, x, un in zip(states.tolist(), sojourns.tolist(), u)]
        assert one_row == expected

    @settings(max_examples=100, deadline=None)
    @given(
        states=st.lists(st.sampled_from(STATES), min_size=1, max_size=30),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        conditioned=st.booleans(),
    )
    def test_block_draw_is_one_row_draws_in_sequence(self, states, seed, conditioned):
        kernel = SemiMarkovKernel(GAPPED_Q, {1: 1, 0: 1, -1: 1})
        states = np.array(states)
        longer = np.random.default_rng(seed).integers(0, kernel.max_sojourn(states)) if conditioned else None
        block, rows = np.random.default_rng(seed), np.random.default_rng(seed)
        sojourns, successors = kernel.sample_jumps(states, block, longer)
        one_row = [
            kernel.sample_jumps(states[n : n + 1], rows, None if longer is None else longer[n : n + 1])
            for n in range(states.size)
        ]
        assert sojourns.tobytes() == np.concatenate([x for x, _ in one_row]).tobytes()
        assert successors.tobytes() == np.concatenate([j for _, j in one_row]).tobytes()
        assert block.bit_generator.state == rows.bit_generator.state

    def test_censored_tail_excluded(self):
        # a 5-step charging run, then an idle tail cut by the end of the series
        _, table = extract_segments(series_pair([1.0] * 5 + [0.5] * 3, [0.5] * 8))
        kernel = estimate_kernel(*completed(table))
        assert kernel.visits.tolist() == [0, 0, 1]
        assert nested_q(kernel) == {1: {0: {5: 1.0}}}  # the censored visit to 0 contributes nothing

    def test_unseen_state_errors_on_use(self):
        kernel = estimate_kernel(*make_transitions([(1, 2), (0, 1), (1, 3)], final_state=0))
        with pytest.raises(EstimationError, match="state -1"):
            kernel.max_sojourn(np.array([1, -1]))
        with pytest.raises(EstimationError, match="-1"):
            kernel.sample_sojourn(-1, np.random.default_rng(0))
        with pytest.raises(EstimationError, match="state 2"):
            kernel.sample_jumps(np.array([1, 2]), np.random.default_rng(0))
        with pytest.raises(EstimationError, match="state -3"):
            kernel.sample_jumps(np.array([-3]), np.random.default_rng(0))
        with pytest.raises(EstimationError, match="state -3"):
            kernel.sample_successor(-3, 1, np.random.default_rng(0))
        with pytest.raises(SimulationError, match="length 2"):
            kernel.sample_successor(0, 2, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "q, match",
        [
            ({2: {0: {1: 1.0}}}, "state 2"),
            ({1: {-2: {1: 1.0}}}, "state -2"),
            ({1: {0: {0: 1.0}}}, "at least one step"),
            ({0: {1: {1: float("nan"), 4: 0.5}}, 1: {0: {2: 1.0}}}, r"q\[0\]\[1\]\[1\] = nan"),
            ({0: {1: {1: -0.5, 4: 1.5}}, 1: {0: {2: 1.0}}}, r"q\[0\]\[1\]\[1\] = -0.5"),
            ({0: {1: {1: float("inf")}}, 1: {0: {2: 1.0}}}, r"q\[0\]\[1\]\[1\] = inf"),
        ],
    )
    def test_bad_kernel_rejected_at_construction(self, q, match, tmp_path):
        with pytest.raises(InputError, match=match):
            SemiMarkovKernel(q, {})
        path = tmp_path / "kernel.json"
        doc = {"q": {str(i): {str(j): {str(k): v for k, v in kk.items()} for j, kk in jj.items()}
                     for i, jj in q.items()}}
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match=match):
            SemiMarkovKernel.from_dict(json.loads(path.read_text()))

    @pytest.mark.parametrize(
        "entry, visits, match",
        [
            ("shape", [1, 1, 1], r"shape \(3, 3, X\+1\), got \(2, 2, 4\)"),
            ((1, 2, 1, float("nan")), [1, 1, 1], r"q\[0\]\[1\]\[1\] = nan"),
            ((1, 2, 1, -0.5), [1, 1, 1], r"q\[0\]\[1\]\[1\] = -0.5"),
            ((1, 2, 1, float("inf")), [1, 1, 1], r"q\[0\]\[1\]\[1\] = inf"),
            ((1, 2, 0, 0.5), [1, 1, 1], "at least one step"),
            (None, [1, 1], r"three nonnegative counts, got \[1, 1\]"),
            (None, [1, -1, 1], r"three nonnegative counts, got \[1, -1, 1\]"),
        ],
        ids=["shape", "nan", "negative", "inf", "mass-at-zero", "two-visits", "negative-visit"],
    )
    def test_bad_kernel_array_rejected_at_construction(self, entry, visits, match):
        Q = np.zeros((3, 3, 4))
        Q[1, 2, 1] = Q[2, 1, 2] = 1.0  # 0 -> 1 after one step, 1 -> 0 after two
        if entry == "shape":
            Q = Q[:2, :2]
        elif entry is not None:
            *index, value = entry
            Q[tuple(index)] = value
        with pytest.raises(InputError, match=match):
            SemiMarkovKernel(Q, visits)

    def test_no_transitions_at_all(self):
        with pytest.raises(EstimationError):
            estimate_kernel([], [], [])
        with pytest.raises(InputError, match="equal length"):
            estimate_kernel([1, 0], [0], [2])
        with pytest.raises(InputError, match="at least one step"):
            estimate_kernel([1], [0], [0])

    def test_conditioned_sojourn_sampling(self):
        kernel = estimate_kernel(*make_transitions([(0, 2), (1, 1), (0, 5), (1, 1), (0, 9), (1, 1)], 0))
        rng = np.random.default_rng(3)
        draws, successors = kernel.sample_jumps(np.zeros(200, dtype=int), rng, np.full(200, 2))
        assert set(draws.tolist()) <= {5, 9} and set(successors.tolist()) == {1}
        with pytest.raises(SimulationError):
            kernel.sample_jumps(np.array([0]), rng, np.array([9]))
        with pytest.raises(InputError, match="nonnegative"):
            kernel.sample_jumps(np.array([0]), rng, np.array([-1]))

    def test_round_trip_recovery(self):
        q = {
            1: {0: {1: 0.3, 3: 0.3}, -1: {2: 0.4}},
            0: {1: {1: 0.5, 4: 0.2}, -1: {2: 0.3}},
            -1: {0: {1: 0.6}, 1: {2: 0.4}},
        }
        kernel = SemiMarkovKernel(q, {1: 100, 0: 100, -1: 100})
        rng = np.random.default_rng(11)
        states, sojourns = fixed_count_chains(kernel, np.array([0]), rng, 20_000)
        back = nested_q(estimate_kernel(states[0, :-1], states[0, 1:], sojourns[0]))
        err = {
            i: sum(
                abs(back.get(i, {}).get(j, {}).get(k, 0.0) - q[i][j][k])
                for j in q[i]
                for k in q[i][j]
            )
            for i in q
        }
        assert max(err.values()) < 0.05


class TestKernelJson:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(STATES), st.sampled_from(STATES), st.integers(1, 40)),
                    min_size=1, max_size=300))
    def test_artifact_form_matches_counting_oracle(self, transitions):
        i, j, x = (list(column) for column in zip(*transitions))
        kernel = estimate_kernel(i, j, x)
        text = json.dumps(kernel.to_dict(), sort_keys=True, indent=1)
        assert text == json.dumps(counted_kernel_doc(i, j, x), sort_keys=True, indent=1)
        assert SemiMarkovKernel.from_dict(json.loads(text)) == kernel
        for row, visits in zip(kernel.Q, kernel.visits):
            if visits:
                assert abs(row.sum() - 1.0) <= 1e-12

    def test_exact_round_trip(self, fitted_kernel, tmp_path):
        path = tmp_path / "kernel.json"
        _write_json(path, {"limit_mw": 0.02, **fitted_kernel.to_dict()}, _stamp(RunConfig(out_dir=tmp_path)))
        back = SemiMarkovKernel.from_dict(json.loads(path.read_text()))
        assert back == fitted_kernel
        np.testing.assert_array_equal(back.visits, fitted_kernel.visits)
        doc = json.loads(path.read_text())
        assert doc["limit_mw"] == 0.02


class TestStepHelpers:
    def test_step_states_and_backward(self):
        # signs over 7 steps: +, +, 0, 0, 0, -, -
        e = [1.0, 1.0, 0.5, 0.5, 0.5, 0.2, 0.2]
        eb = [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]
        z, table = extract_segments(series_pair(e, eb))
        np.testing.assert_array_equal(z, [1, 1, 0, 0, 0, -1, -1])
        np.testing.assert_array_equal(backward_times(table), [0, 1, 0, 1, 2, 0, 1])
        for horizon, starts in ((1, [0, 1, 2, 3, 4, 5]), (5, [0]), (24, [])):
            z0, b0, s0 = day_start_conditions(table, np.arange(7.0), horizon)
            starts = np.array(starts, dtype=int)
            np.testing.assert_array_equal(z0, z[starts])
            np.testing.assert_array_equal(b0, backward_times(table)[starts])
            np.testing.assert_array_equal(s0, starts)
