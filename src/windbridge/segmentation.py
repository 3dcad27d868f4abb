"""Renewal structure of the battery operation process and kernel estimation.

The battery state at hour ``k`` is the sign of ``e(k) - e_bar(k)``: +1 while
storing surplus (up-ramping), -1 while supplying a shortfall (down-ramping),
0 while idle.  The maximal runs of one state, their sojourns and successors,
and the empirical semi-Markov kernel ``q[i][j][x]`` are extracted from a
ramp-corrected power series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, InputError, SimulationError
from .power import PowerSeries

__all__ = [
    "SIGN_TOLERANCE",
    "SegmentTable",
    "SemiMarkovKernel",
    "JumpChains",
    "extract_segments",
    "estimate_kernel",
    "complete_classes",
    "backward_times",
]

#: Absolute charges below this many MW count as "battery idle".
SIGN_TOLERANCE = 1e-9

#: Battery states, in the order of the kernel array's first two axes.
STATES = (-1, 0, 1)


@dataclass
class SegmentTable:
    """The maximal runs of one battery state, one row per run, in time order.

    Row ``n`` is a run in state ``i[n]`` that starts at step ``start[n]``,
    lasts ``x[n]`` steps, is entered at corrected power ``entry_power[n]`` and
    then jumps to ``j[n]``.  A ``censored`` run was cut by the end of the
    series: its successor was never observed, and ``j[n] == i[n]``.
    ``charges`` holds ``|e - e_bar|`` at every step, so row ``n``'s charges
    are ``charges[start[n] : start[n] + x[n]]``.
    """

    i: np.ndarray
    j: np.ndarray
    x: np.ndarray
    start: np.ndarray
    entry_power: np.ndarray
    censored: np.ndarray
    charges: np.ndarray

    def __post_init__(self) -> None:
        columns = (self.i, self.j, self.x, self.start, self.entry_power, self.censored)
        if len({c.shape for c in columns}) > 1:
            raise InputError("segment table columns must have equal length")

    def __len__(self) -> int:
        return int(self.x.size)

    def charge_matrix(self, rows: np.ndarray, x: int) -> np.ndarray:
        """The charges of ``rows``, runs of ``x`` steps each, one row per run."""
        return self.charges[self.start[rows][:, None] + np.arange(x)]


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


def extract_segments(series: PowerSeries) -> tuple[np.ndarray, SegmentTable]:
    """Per-step states and the table of maximal runs of a ramp-corrected series.

    The state at step ``k`` is the sign of ``e(k) - e_bar(k)``, with
    ``|e - e_bar| <= SIGN_TOLERANCE`` counting as idle.  Runs start at step 0
    and wherever the state changes; the trailing run has no observed
    successor and is censored.
    """
    if series.corrected is None:
        raise InputError("series has no corrected values; run apply_ramp_limit first")
    n = len(series)
    if n < 2:
        raise InputError("need at least 2 points to segment")
    diff = series.generated - series.corrected
    states = np.zeros(n, dtype=int)
    states[diff > SIGN_TOLERANCE] = 1
    states[diff < -SIGN_TOLERANCE] = -1

    start = np.flatnonzero(np.r_[True, states[1:] != states[:-1]])
    i = states[start]
    censored = np.zeros(start.size, dtype=bool)
    censored[-1] = True
    table = SegmentTable(
        i=i,
        j=np.r_[i[1:], i[-1]],
        x=np.diff(np.r_[start, n]),
        start=start,
        entry_power=series.corrected[start],
        censored=censored,
        charges=np.abs(diff),
    )
    return states, table


def complete_classes(table: SegmentTable) -> dict[tuple[int, int, int], np.ndarray]:
    """Rows of the uncensored charging and discharging runs, grouped by ``(i, j, x)``.

    Keys come in sorted order; each class's rows stay in time order.
    """
    rows = np.flatnonzero(~table.censored & (table.i != 0))
    if not rows.size:
        return {}
    rows = rows[np.lexsort((table.x[rows], table.j[rows], table.i[rows]))]
    keys = np.column_stack((table.i[rows], table.j[rows], table.x[rows]))
    firsts = np.flatnonzero(np.r_[True, np.any(keys[1:] != keys[:-1], axis=1)])
    return {
        tuple(keys[f].tolist()): group
        for f, group in zip(firsts, np.split(rows, firsts[1:]))
    }


def backward_times(table: SegmentTable) -> np.ndarray:
    """Backward recurrence time ``B(k) = k - (last jump time <= k)`` at every step."""
    return np.arange(int(table.x.sum())) - np.repeat(table.start, table.x)


class SemiMarkovKernel:
    """Empirical kernel ``q[i][j][x]`` of the battery operation renewal process.

    ``q[i][j][x]`` estimates the probability that, from state ``i``, the next
    jump happens after a sojourn of ``x`` steps and lands in ``j``.  Draws
    read the same law as the array ``Q[i + 1, j + 1, x]`` over the states
    ``(-1, 0, 1)`` and ``x = 0..max``, through sums of it computed once: the
    sojourn law ``h_i(x) = sum_j q[i][j][x]`` and its CDF, and the successor
    CDFs ``cumsum_j q[i][j][x] / h_i(x)``.  A zero entry repeats the CDF
    value before it, so it is never drawn.
    """

    def __init__(self, q: dict[int, dict[int, dict[int, float]]], visits: dict[int, int]):
        self.q = {int(i): {int(j): {int(k): float(v) for k, v in kk.items()}
                           for j, kk in jj.items()}
                  for i, jj in q.items()}
        self.visits = {int(i): int(c) for i, c in visits.items()}
        keys = [(i, j, k) for i, jj in self.q.items() for j, kk in jj.items() for k in kk]
        outside = sorted({s for i, j, _ in keys for s in (i, j)} - set(STATES))
        if outside:
            raise InputError(f"kernel state {outside[0]} is not one of {STATES}")
        if any(k < 1 for *_, k in keys):
            raise InputError("sojourns must be at least one step")
        self._Q = np.zeros((3, 3, max((k for *_, k in keys), default=0) + 1))
        for i, j, k in keys:
            v = self.q[i][j][k]
            if not (np.isfinite(v) and v >= 0.0):
                raise InputError(f"kernel entry q[{i}][{j}][{k}] = {v} must be finite and nonnegative")
            self._Q[i + 1, j + 1, k] = v
        h = self._h = self._Q.sum(axis=1)
        self._H = np.cumsum(h, axis=1)
        self._longest = np.where(h > 0.0, np.arange(h.shape[1]), 0).max(axis=1)
        self._live = self._longest > 0
        self._successor_cdf = np.cumsum(
            np.divide(self._Q, h[:, None], out=np.zeros_like(self._Q), where=h[:, None] > 0.0), axis=1
        )
        self._last_successor = np.where(h > 0.0, 2 - np.argmax(self._Q[:, ::-1] > 0.0, axis=1), -1)

    # -- queries ------------------------------------------------------------

    @property
    def states(self) -> tuple[int, ...]:
        return tuple(sorted(self.q))

    def _rows(self, states) -> np.ndarray:
        """Row of ``Q`` for each entry of ``states``; a state never left raises."""
        rows = np.asarray(states, dtype=int) + 1
        if rows.size and (rows.min() < 0 or rows.max() > 2 or not self._live[rows].all()):
            n = next(n for n, r in enumerate(rows.tolist()) if not (0 <= r <= 2 and self._live[r]))
            raise EstimationError(f"no transitions observed from state {rows[n] - 1}")
        return rows

    def max_sojourn(self, i: int) -> int:
        return int(self._longest[self._rows([i])[0]])

    def sojourn_pmf(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """The sojourns of ``i`` with positive probability, and their probabilities."""
        h = self._h[self._rows([i])[0]]
        xs = np.flatnonzero(h)
        return xs, h[xs]

    def successor_pmf(self, i: int, x: int) -> dict[int, float]:
        """``q[i][j][x] / h_i(x)`` for every successor ``j`` with positive probability."""
        a = self._rows([i])[0]
        if not 0 <= x < self._h.shape[1] or self._h[a, x] == 0.0:
            raise SimulationError(f"state {i} has no observed sojourn of length {x}")
        pmf = self._Q[a, :, x] / self._h[a, x]
        return {j: float(p) for j, p in zip(STATES, pmf) if p > 0.0}

    # -- sampling -----------------------------------------------------------

    def sample_sojourns(
        self, states: np.ndarray, rng: np.random.Generator, longer_than: np.ndarray | None = None
    ) -> np.ndarray:
        """One sojourn per entry of ``states`` from ``h_i``, by inverse CDF.

        Draws one uniform per entry, in order.  Entry ``n`` is conditioned on
        exceeding ``longer_than[n]``: its uniform is mapped onto the part of
        the CDF above that length.
        """
        rows = self._rows(states)
        longest = self._longest[rows]
        cdf = self._H[rows]
        total = cdf[:, -1]
        if longer_than is None:
            v = rng.random(rows.size) * total
        else:
            b = np.asarray(longer_than, dtype=int)
            if np.any(b < 0):
                raise InputError("sojourn conditions must be nonnegative")
            if np.any(b >= longest):
                n = int(np.flatnonzero(b >= longest)[0])
                raise SimulationError(
                    f"state {rows[n] - 1} has no observed sojourn longer than {b[n]}"
                )
            lower = cdf[np.arange(rows.size), b]
            v = lower + rng.random(rows.size) * (total - lower)
        return np.minimum((cdf[:, 1:] <= v[:, None]).sum(axis=1) + 1, longest)

    def sample_successors(
        self, states: np.ndarray, sojourns: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One successor per ``(state, sojourn)`` pair from ``q[i][j][x] / h_i(x)``, by inverse CDF."""
        rows = self._rows(states)
        sojourns = np.asarray(sojourns, dtype=int)
        inside = np.clip(sojourns, 0, self._h.shape[1] - 1)
        last = self._last_successor[rows, inside]
        bad = (last < 0) | (inside != sojourns)
        if bad.any():
            n = int(np.flatnonzero(bad)[0])
            raise SimulationError(
                f"state {rows[n] - 1} has no observed sojourn of length {sojourns[n]}"
            )
        cdf = self._successor_cdf[rows, :, sojourns]
        idx = (cdf <= (rng.random(rows.size) * cdf[:, -1])[:, None]).sum(axis=1)
        return np.minimum(idx, last) - 1

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
        return cls(data["q"], data.get("visits", {}))

    def __eq__(self, other) -> bool:
        return isinstance(other, SemiMarkovKernel) and self.q == other.q


def estimate_kernel(i, j, x) -> SemiMarkovKernel:
    """Estimate ``q[i][j][x]`` by counting completed transitions.

    Transition ``n`` leaves state ``i[n]`` after ``x[n]`` steps for state
    ``j[n]``; a censored run has no successor and must be left out.  Rows are
    normalized by the number of completed visits to the source state, so
    ``sum_{j,x} q[i][j][x] = 1``.
    """
    columns = [np.asarray(a, dtype=int).ravel() for a in (i, j, x)]
    if len({c.size for c in columns}) > 1:
        raise InputError("transition sources, successors and sojourns must have equal length")
    transitions = np.column_stack(columns)
    if not transitions.size:
        raise EstimationError("no completed transitions to estimate a kernel from")
    if np.any(transitions[:, 2] < 1):
        raise InputError("sojourns must be at least one step")
    keys, counts = np.unique(transitions, axis=0, return_counts=True)
    sources, totals = np.unique(transitions[:, 0], return_counts=True)
    visits = dict(zip(sources.tolist(), totals.tolist()))
    q: dict[int, dict[int, dict[int, float]]] = {}
    for (a, b, k), c in zip(keys.tolist(), counts.tolist()):
        q.setdefault(a, {}).setdefault(b, {})[k] = c / visits[a]
    return SemiMarkovKernel(q, visits)
