"""Renewal structure of the battery operation process and kernel estimation.

The battery state at hour ``k`` is the sign of ``e(k) - e_bar(k)``: +1 while
storing surplus (up-ramping), -1 while supplying a shortfall (down-ramping),
0 while idle.  Jump times, sojourns, and the empirical semi-Markov kernel
``q[i][j][x]`` are extracted from a (generated, corrected) power pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EstimationError, InputError, SimulationError
from .power import PowerSeries

__all__ = [
    "SIGN_TOLERANCE",
    "RenewalPoint",
    "Segment",
    "SemiMarkovKernel",
    "JumpChains",
    "extract_segments",
    "estimate_kernel",
    "complete_classes",
    "step_states",
    "backward_times",
]

#: Absolute charges below this many MW count as "battery idle".
SIGN_TOLERANCE = 1e-9

STATES = (-1, 0, 1)


@dataclass(frozen=True)
class RenewalPoint:
    """One jump of the operation process: state entered, when, and for how long.

    ``sojourn`` is ``None`` for the final, censored visit (its end was never
    observed).
    """

    index: int
    state: int
    time: int
    sojourn: int | None


@dataclass
class Segment:
    """A maximal run in one battery state with its absolute charge path.

    ``charges[k-1] = |e - e_bar|`` at step ``start + k - 1`` for ``k = 1..x``.
    The successor state ``j`` is ``None`` when the run is censored by the end
    of the series.
    """

    i: int
    j: int | None
    x: int
    start: int
    charges: np.ndarray
    entry_power: float
    censored: bool = False

    @property
    def key(self) -> tuple[int, int, int]:
        if self.censored or self.j is None:
            raise InputError("censored segment has no (i, j, x) key")
        return (self.i, self.j, self.x)


@dataclass
class JumpChains:
    """Jump chains of a block of rows, one column per round.

    Row ``n`` makes ``counts[n]`` jumps: it enters ``states[n, r]`` at time
    ``jump_times[n, r]`` and stays ``sojourns[n, r]`` steps, for ``r <
    counts[n]``; column ``counts[n]`` holds its last state and end time.  A
    row that starts ``b`` steps into its first sojourn has ``jump_times[n,
    1] == sojourns[n, 0] - b``.  Columns past a row's last are padding.
    """

    states: np.ndarray
    sojourns: np.ndarray
    jump_times: np.ndarray
    counts: np.ndarray


def _sign(diff: np.ndarray, tol: float) -> np.ndarray:
    s = np.zeros(diff.shape, dtype=int)
    s[diff > tol] = 1
    s[diff < -tol] = -1
    return s


def extract_segments(
    generated: PowerSeries,
    corrected: PowerSeries | None = None,
    sign_tolerance: float = SIGN_TOLERANCE,
) -> tuple[list[RenewalPoint], list[Segment]]:
    """Split an aligned (generated, corrected) pair into renewal points and segments.

    ``corrected`` may be omitted when ``generated.corrected`` is already set.
    Jump times are exactly the steps where the sign of ``e - e_bar`` changes;
    the first jump is pinned at step 0.  The trailing run has no observed
    successor and is returned with ``censored=True``.
    """
    if corrected is None:
        if generated.corrected is None:
            raise InputError("series has no corrected values; run apply_ramp_limit first")
        e = generated.generated
        eb = generated.corrected
    else:
        e = generated.generated
        eb = corrected.corrected if corrected.corrected is not None else corrected.generated
    if e.shape != eb.shape:
        raise InputError("generated and corrected series are misaligned")
    if e.size < 2:
        raise InputError("need at least 2 points to segment")

    signs = _sign(e - eb, sign_tolerance)
    jumps = [0] + [int(k) for k in np.flatnonzero(signs[1:] != signs[:-1]) + 1]
    n = int(e.size)

    points: list[RenewalPoint] = []
    segments: list[Segment] = []
    abs_charge = np.abs(e - eb)
    for idx, start in enumerate(jumps):
        end = jumps[idx + 1] if idx + 1 < len(jumps) else n
        censored = idx + 1 >= len(jumps)
        sojourn = None if censored else end - start
        points.append(RenewalPoint(index=idx, state=int(signs[start]), time=start, sojourn=sojourn))
        segments.append(
            Segment(
                i=int(signs[start]),
                j=None if censored else int(signs[end]),
                x=end - start,
                start=start,
                charges=abs_charge[start:end].copy(),
                entry_power=float(eb[start]),
                censored=censored,
            )
        )
    return points, segments


def complete_classes(segments: list[Segment]) -> dict[tuple[int, int, int], list[Segment]]:
    """Uncensored charging and discharging segments grouped by ``(i, j, x)``.

    Keys come in sorted order; segments keep their order within a class.
    """
    by_key: dict[tuple[int, int, int], list[Segment]] = {}
    for seg in segments:
        if seg.censored or seg.i == 0 or seg.j is None:
            continue
        by_key.setdefault(seg.key, []).append(seg)
    return {key: by_key[key] for key in sorted(by_key)}


def step_states(points: list[RenewalPoint], n_steps: int) -> np.ndarray:
    """Per-step state ``Z(k)`` implied by the renewal points, for ``k = 0..n_steps-1``."""
    out = np.zeros(n_steps, dtype=int)
    for idx, p in enumerate(points):
        end = points[idx + 1].time if idx + 1 < len(points) else n_steps
        out[p.time : end] = p.state
    return out


def backward_times(points: list[RenewalPoint], n_steps: int) -> np.ndarray:
    """Backward recurrence time ``B(k) = k - (last jump time <= k)``."""
    out = np.zeros(n_steps, dtype=int)
    for idx, p in enumerate(points):
        end = points[idx + 1].time if idx + 1 < len(points) else n_steps
        out[p.time : end] = np.arange(end - p.time)
    return out


class SemiMarkovKernel:
    """Empirical kernel ``q[i][j][x]`` of the battery operation renewal process.

    ``q[i][j][x]`` estimates the probability that, from state ``i``, the next
    jump happens after a sojourn of ``x`` steps and lands in ``j``.  The
    sojourn marginal ``h``, embedded transition matrix ``p`` and conditional
    transitions are materialized from ``q`` at construction so the defining
    identities hold exactly.
    """

    def __init__(self, q: dict[int, dict[int, dict[int, float]]], visits: dict[int, int]):
        self.q = {int(i): {int(j): {int(k): float(v) for k, v in kk.items()}
                           for j, kk in jj.items()}
                  for i, jj in q.items()}
        self.visits = {int(i): int(c) for i, c in visits.items()}
        self._materialize()

    def _materialize(self) -> None:
        self.h: dict[int, dict[int, float]] = {}
        self.p: dict[int, dict[int, float]] = {}
        self.p_cond: dict[int, dict[int, dict[int, float]]] = {}
        self._sojourn_values: dict[int, np.ndarray] = {}
        self._sojourn_probs: dict[int, np.ndarray] = {}
        for i, jj in self.q.items():
            hi: dict[int, float] = {}
            pi: dict[int, float] = {}
            for j, kk in jj.items():
                for k, v in kk.items():
                    hi[k] = hi.get(k, 0.0) + v
                pi[j] = sum(kk.values())
            self.h[i] = hi
            self.p[i] = pi
            self.p_cond[i] = {
                k: {j: jj[j].get(k, 0.0) / hk for j in sorted(jj)}
                for k, hk in hi.items()
                if hk > 0.0
            }
            ks = np.array(sorted(hi), dtype=int)
            self._sojourn_values[i] = ks
            self._sojourn_probs[i] = np.array([hi[int(k)] for k in ks])

        # Inverse-CDF tables for batched draws, one row per source state.
        # Sojourns: the sorted values, padded with values that no condition
        # reaches, and the CDF at 0 and after each value, padded with inf.
        # Successors: cumulative weights over every state ever entered, for
        # each (i, x), and the index of the last positive weight.
        sources = [i for i in sorted(self.q) if self._sojourn_values[i].size]
        self._sources = np.array(sources, dtype=int)
        self._targets = np.array(sorted({j for jj in self.q.values() for j in jj}), dtype=int)
        width = max((self._sojourn_values[i].size for i in sources), default=0)
        max_x = max((int(self._sojourn_values[i][-1]) for i in sources), default=0)
        self._sojourn_table = np.full((len(sources), width), np.iinfo(int).max)
        self._sojourn_cdf = np.full((len(sources), width + 1), np.inf)
        self._sojourn_count = np.zeros(len(sources), dtype=int)
        self._successor_cum = np.zeros((len(sources), max_x + 1, self._targets.size))
        self._successor_last = np.full((len(sources), max_x + 1), -1)
        for r, i in enumerate(sources):
            ks = self._sojourn_values[i]
            self._sojourn_table[r, : ks.size] = ks
            self._sojourn_cdf[r, 0] = 0.0
            self._sojourn_cdf[r, 1 : ks.size + 1] = np.cumsum(self._sojourn_probs[i])
            self._sojourn_count[r] = ks.size
            for k, cond in self.p_cond[i].items():
                weights = np.zeros(self._targets.size)
                weights[np.searchsorted(self._targets, list(cond))] = list(cond.values())
                self._successor_cum[r, k] = np.cumsum(weights)
                self._successor_last[r, k] = int(np.flatnonzero(weights > 0.0)[-1])

    # -- queries ------------------------------------------------------------

    @property
    def states(self) -> tuple[int, ...]:
        return tuple(sorted(self.q))

    def max_sojourn(self, i: int) -> int:
        self._require_state(i)
        return int(self._sojourn_values[i][-1])

    def sojourn_pmf(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        self._require_state(i)
        return self._sojourn_values[i], self._sojourn_probs[i]

    def successor_pmf(self, i: int, x: int) -> dict[int, float]:
        self._require_state(i)
        cond = self.p_cond[i].get(int(x))
        if cond is None:
            raise SimulationError(f"state {i} has no observed sojourn of length {x}")
        return cond

    def _require_state(self, i: int) -> None:
        if i not in self.q or not self._sojourn_values.get(i, np.empty(0)).size:
            raise EstimationError(f"no transitions observed from state {i}")

    # -- sampling -----------------------------------------------------------

    def _source_rows(self, states: np.ndarray) -> np.ndarray:
        """Table row of each source state; an unseen state raises as in :meth:`sojourn_pmf`."""
        if not self._sources.size:
            self._require_state(int(states[0]))
        rows = np.minimum(np.searchsorted(self._sources, states), self._sources.size - 1)
        unseen = states[self._sources[rows] != states]
        if unseen.size:
            self._require_state(int(unseen[0]))
        return rows

    def sample_sojourns(
        self, states: np.ndarray, rng: np.random.Generator, longer_than: np.ndarray | None = None
    ) -> np.ndarray:
        """One sojourn per entry of ``states`` from ``h_i``, by inverse CDF.

        Draws one uniform per entry, in order.  Entry ``n`` is conditioned on
        exceeding ``longer_than[n]``: its uniform is mapped onto the part of
        the CDF above that length.
        """
        states = np.asarray(states, dtype=int)
        rows = self._source_rows(states)
        cdf = self._sojourn_cdf[rows]
        count = self._sojourn_count[rows]
        total = cdf[np.arange(rows.size), count]
        if longer_than is None:
            v = rng.random(rows.size) * total
        else:
            n_short = (self._sojourn_table[rows] <= np.asarray(longer_than)[:, None]).sum(axis=1)
            if np.any(n_short == count):
                n = int(np.flatnonzero(n_short == count)[0])
                raise SimulationError(
                    f"state {states[n]} has no observed sojourn longer than {longer_than[n]}"
                )
            lower = cdf[np.arange(rows.size), n_short]
            v = lower + rng.random(rows.size) * (total - lower)
        idx = (cdf[:, 1:] <= v[:, None]).sum(axis=1)
        return self._sojourn_table[rows, np.minimum(idx, count - 1)]

    def sample_successors(
        self, states: np.ndarray, sojourns: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One successor per ``(state, sojourn)`` pair from ``p_cond``, by inverse CDF."""
        states = np.asarray(states, dtype=int)
        sojourns = np.asarray(sojourns, dtype=int)
        rows = self._source_rows(states)
        inside = np.clip(sojourns, 0, self._successor_last.shape[1] - 1)
        last = self._successor_last[rows, inside]
        bad = (last < 0) | (inside != sojourns)
        if bad.any():
            n = int(np.flatnonzero(bad)[0])
            raise SimulationError(
                f"state {states[n]} has no observed sojourn of length {sojourns[n]}"
            )
        cum = self._successor_cum[rows, sojourns]
        idx = (cum <= (rng.random(rows.size) * cum[:, -1])[:, None]).sum(axis=1)
        return self._targets[np.minimum(idx, last)]

    def sample_sojourn(self, i: int, rng: np.random.Generator, longer_than: int = 0) -> int:
        """Draw a sojourn from ``h_i``, optionally conditioned on exceeding ``longer_than``."""
        condition = np.array([longer_than]) if longer_than > 0 else None
        return int(self.sample_sojourns(np.array([i]), rng, condition)[0])

    def sample_successor(self, i: int, x: int, rng: np.random.Generator) -> int:
        return int(self.sample_successors(np.array([i]), np.array([x]), rng)[0])

    def sample_chains(
        self,
        initial_states: np.ndarray,
        rng: np.random.Generator,
        initial_backwards: np.ndarray | None = None,
        horizon: int | None = None,
        n_transitions: int | None = None,
    ) -> JumpChains:
        """Jump chains of a block of rows, drawn together round by round.

        Each round draws a sojourn for every row still running, then its
        successor (:meth:`sample_sojourns`, :meth:`sample_successors`).  Row
        ``n`` starts ``initial_backwards[n]`` steps into its first sojourn:
        that sojourn is conditioned on being longer, and only its remainder
        counts towards the row's time.  A row stops after ``n_transitions``
        jumps or once its time passes ``horizon``, whichever comes first.
        """
        if n_transitions is None and horizon is None:
            raise InputError("give n_transitions, horizon, or both")
        if n_transitions is not None and n_transitions < 1:
            raise InputError("need at least one transition")
        state = np.array(initial_states, dtype=int)
        p = state.size
        if p == 0:
            raise InputError("need at least one initial state")
        backward = np.zeros(p, dtype=int) if initial_backwards is None else np.asarray(initial_backwards, dtype=int)
        if np.any(backward < 0):
            raise InputError("backward time must be nonnegative")
        time = -backward
        states, sojourns, times = [state.copy()], [], [np.zeros(p, dtype=int)]
        rows = np.arange(p)
        while rows.size and (n_transitions is None or len(sojourns) < n_transitions):
            x = self.sample_sojourns(state[rows], rng, None if sojourns else backward)
            nxt = self.sample_successors(state[rows], x, rng)
            column = np.zeros(p, dtype=int)
            column[rows] = x
            sojourns.append(column)
            time[rows] += x
            state[rows] = nxt
            states.append(state.copy())
            times.append(time.copy())
            if horizon is not None:
                rows = rows[time[rows] <= horizon]
        sojourns = np.column_stack(sojourns)
        return JumpChains(
            states=np.column_stack(states),
            sojourns=sojourns,
            jump_times=np.column_stack(times),
            counts=np.sum(sojourns > 0, axis=1),
        )

    def simulate(
        self, n_transitions: int, initial_state: int, rng: np.random.Generator
    ) -> list[RenewalPoint]:
        """Simulate a renewal path; the final visit is censored, as in real data."""
        chains = self.sample_chains(np.array([initial_state]), rng, n_transitions=n_transitions)
        states, sojourns, times = (a[0].tolist() for a in (chains.states, chains.sojourns, chains.jump_times))
        points = [
            RenewalPoint(index=n, state=states[n], time=times[n], sojourn=sojourns[n])
            for n in range(n_transitions)
        ]
        points.append(RenewalPoint(index=n_transitions, state=states[-1], time=times[-1], sojourn=None))
        return points

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "states": list(self.states),
            "visits": {str(i): self.visits.get(i, 0) for i in self.states},
            "q": {
                str(i): {
                    str(j): {str(k): self.q[i][j][k] for k in sorted(self.q[i][j])}
                    for j in sorted(self.q[i])
                }
                for i in self.states
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SemiMarkovKernel":
        q = {
            int(i): {int(j): {int(k): float(v) for k, v in kk.items()} for j, kk in jj.items()}
            for i, jj in data["q"].items()
        }
        visits = {int(i): int(c) for i, c in data.get("visits", {}).items()}
        return cls(q, visits)

    def to_json(self, path: str | Path, **extra) -> None:
        doc = dict(extra)
        doc.update(self.to_dict())
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=1)
            fh.write("\n")

    @classmethod
    def from_json(cls, path: str | Path) -> "SemiMarkovKernel":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def __eq__(self, other) -> bool:
        return isinstance(other, SemiMarkovKernel) and self.q == other.q


def estimate_kernel(points: list[RenewalPoint]) -> SemiMarkovKernel:
    """Estimate ``q[i][j][x]`` by transition counting.

    Each completed visit (``sojourn`` set) contributes one count; the final,
    censored visit is excluded.  Rows are normalized by the number of
    completed visits to the source state, so ``sum_{j,x} q[i][j][x] = 1``.
    """
    counts: dict[int, dict[int, dict[int, int]]] = {}
    visits: dict[int, int] = {}
    for idx, p in enumerate(points):
        if p.sojourn is None:
            continue
        if idx + 1 >= len(points):
            raise InputError("renewal point with a sojourn but no successor")
        j = points[idx + 1].state
        counts.setdefault(p.state, {}).setdefault(j, {})
        counts[p.state][j][p.sojourn] = counts[p.state][j].get(p.sojourn, 0) + 1
        visits[p.state] = visits.get(p.state, 0) + 1
    if not counts:
        raise EstimationError("no completed transitions to estimate a kernel from")
    q = {
        i: {j: {k: c / visits[i] for k, c in kk.items()} for j, kk in jj.items()}
        for i, jj in counts.items()
    }
    return SemiMarkovKernel(q, visits)
