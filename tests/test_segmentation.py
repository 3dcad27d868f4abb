import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from windbridge.errors import EstimationError, InputError, SimulationError
from windbridge.pipeline import _write_json
from windbridge.power import PowerSeries, RampPolicy, apply_ramp_limit
from windbridge.segmentation import (
    SIGN_TOLERANCE,
    SemiMarkovKernel,
    backward_times,
    complete_classes,
    estimate_kernel,
    extract_segments,
)


def series_pair(e, eb):
    return PowerSeries(generated=np.asarray(e, float), corrected=np.asarray(eb, float))


def make_transitions(transitions, final_state=0):
    """Sources, successors and sojourns of a chain of (state, sojourn) visits.

    ``final_state`` is the state the last visit jumps to.
    """
    states = [state for state, _ in transitions] + [final_state]
    return states[:-1], states[1:], [x for _, x in transitions]


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
        for i in kernel.states:
            assert sum(v for jj in kernel.q[i].values() for v in jj.values()) == approx(1.0, abs=1e-12)
            assert kernel.visits[i] == int(np.sum(table.i[:-1] == i))


class TestEstimateKernel:
    def test_counting_oracle(self):
        # transitions from +1: (j=0, x=2) three times and (j=-1, x=2) once
        transitions = make_transitions(
            [(1, 2), (0, 3), (1, 2), (0, 3), (1, 2), (0, 3), (1, 2)], final_state=-1
        )
        kernel = estimate_kernel(*transitions)
        assert kernel.q[1][0][2] == approx(0.75)
        assert kernel.q[1][-1][2] == approx(0.25)
        xs, probs = kernel.sojourn_pmf(1)
        assert xs.tolist() == [2] and probs.tolist() == approx([1.0])
        assert kernel.successor_pmf(1, 2) == approx({-1: 0.25, 0: 0.75})
        assert kernel.max_sojourn(0) == 3

    def test_identities(self, fitted_kernel):
        k = fitted_kernel
        for i in k.states:
            total = sum(v for jj in k.q[i].values() for v in jj.values())
            assert total == approx(1.0, abs=1e-12)
            xs, probs = k.sojourn_pmf(i)
            assert xs.tolist() == sorted({x for jj in k.q[i].values() for x in jj})
            assert k.max_sojourn(i) == xs[-1]
            for x, hval in zip(xs.tolist(), probs):
                assert hval == approx(sum(k.q[i][j].get(x, 0.0) for j in k.q[i]), abs=1e-12)
                pmf = k.successor_pmf(i, x)
                assert list(pmf) == sorted(j for j in k.q[i] if x in k.q[i][j])
                assert sum(pmf.values()) == approx(1.0, abs=1e-12)
                for j, c in pmf.items():
                    assert c == approx(k.q[i][j][x] / hval, abs=1e-12)

    def test_draws_match_scalar_inverse_cdf(self):
        # sojourn gaps of zero probability, and state 0 never jumps to -1
        q = {
            1: {0: {1: 0.2, 4: 0.1, 9: 0.05}, -1: {4: 0.3, 6: 0.35}},
            0: {1: {2: 0.5, 3: 0.1, 12: 0.4}},
            -1: {1: {1: 0.45, 7: 0.15}, 0: {2: 0.3, 7: 0.1}},
        }
        kernel = SemiMarkovKernel(q, {1: 1, 0: 1, -1: 1})
        rng = np.random.default_rng(21)
        states = rng.choice([-1, 0, 1], 5000)
        longest = np.array([max(x for kk in q[i].values() for x in kk) for i in states])
        backward = (rng.random(states.size) * longest).astype(int)
        assert set(backward.tolist()) >= set(range(12))

        def sojourn_oracle(i, u, b=None):
            xs = sorted({x for kk in q[i].values() for x in kk})
            cdf = np.cumsum([sum(q[i][j].get(x, 0.0) for j in sorted(q[i])) for x in xs])
            lower = 0.0 if b is None or b < xs[0] else cdf[np.searchsorted(xs, b, side="right") - 1]
            v = lower + u * (cdf[-1] - lower)
            return xs[min(int(np.sum(cdf <= v)), len(xs) - 1)]

        def successor_oracle(i, x, u):
            targets = [j for j in sorted(q[i]) if x in q[i][j]]
            h = sum(q[i][j].get(x, 0.0) for j in sorted(q[i]))
            cum = np.cumsum([q[i][j][x] / h for j in targets])
            return targets[min(int(np.sum(cum <= u * cum[-1])), len(targets) - 1)]

        for condition in (None, backward):
            clone = np.random.Generator(np.random.PCG64())
            clone.bit_generator.state = rng.bit_generator.state
            sojourns = kernel.sample_sojourns(states, rng, condition)
            u = clone.random(states.size)
            expected = [
                sojourn_oracle(i, un, None if condition is None else bn)
                for i, un, bn in zip(states.tolist(), u, backward.tolist())
            ]
            np.testing.assert_array_equal(sojourns, expected)
            if condition is not None:
                assert np.all(sojourns > backward)
            clone.bit_generator.state = rng.bit_generator.state
            successors = kernel.sample_successors(states, sojourns, rng)
            u = clone.random(states.size)
            expected = [
                successor_oracle(i, x, un) for i, x, un in zip(states.tolist(), sojourns.tolist(), u)
            ]
            np.testing.assert_array_equal(successors, expected)
            assert not np.any((states == 0) & (successors == -1))
        observed = {(i, x) for i in q for kk in q[i].values() for x in kk}
        assert set(zip(states.tolist(), sojourns.tolist())) == observed

    def test_censored_tail_excluded(self):
        # a 5-step charging run, then an idle tail cut by the end of the series
        _, table = extract_segments(series_pair([1.0] * 5 + [0.5] * 3, [0.5] * 8))
        kernel = estimate_kernel(*completed(table))
        assert kernel.visits == {1: 1}
        assert kernel.q == {1: {0: {5: 1.0}}}  # the censored visit to 0 contributes nothing

    def test_unseen_state_errors_on_use(self):
        kernel = estimate_kernel(*make_transitions([(1, 2), (0, 1), (1, 3)], final_state=0))
        with pytest.raises(EstimationError, match="-1"):
            kernel.sojourn_pmf(-1)
        with pytest.raises(EstimationError, match="-1"):
            kernel.sample_sojourn(-1, np.random.default_rng(0))
        with pytest.raises(EstimationError, match="state 2"):
            kernel.sample_sojourns(np.array([1, 2]), np.random.default_rng(0))
        with pytest.raises(EstimationError, match="state -3"):
            kernel.sample_successors(np.array([-3]), np.array([1]), np.random.default_rng(0))
        with pytest.raises(SimulationError, match="length 2"):
            kernel.successor_pmf(0, 2)

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
        draws = {kernel.sample_sojourn(0, rng, longer_than=2) for _ in range(200)}
        assert draws <= {5, 9}
        with pytest.raises(SimulationError):
            kernel.sample_sojourn(0, rng, longer_than=9)
        with pytest.raises(InputError, match="nonnegative"):
            kernel.sample_sojourns(np.array([0]), rng, np.array([-1]))

    def test_round_trip_recovery(self):
        q = {
            1: {0: {1: 0.3, 3: 0.3}, -1: {2: 0.4}},
            0: {1: {1: 0.5, 4: 0.2}, -1: {2: 0.3}},
            -1: {0: {1: 0.6}, 1: {2: 0.4}},
        }
        kernel = SemiMarkovKernel(q, {1: 100, 0: 100, -1: 100})
        rng = np.random.default_rng(11)
        chains = kernel.sample_chains(np.array([0]), rng, n_transitions=20_000)
        back = estimate_kernel(chains.states[0, :-1], chains.states[0, 1:], chains.sojourns[0])
        err = {
            i: sum(
                abs(back.q.get(i, {}).get(j, {}).get(k, 0.0) - q[i][j][k])
                for j in q[i]
                for k in q[i][j]
            )
            for i in q
        }
        assert max(err.values()) < 0.05


class TestKernelJson:
    def test_exact_round_trip(self, fitted_kernel, tmp_path):
        path = tmp_path / "kernel.json"
        _write_json(path, {"limit_mw": 0.02, **fitted_kernel.to_dict()})
        back = SemiMarkovKernel.from_dict(json.loads(path.read_text()))
        assert back == fitted_kernel
        assert back.visits == fitted_kernel.visits
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
