"""Renewal structure of the battery operation process and kernel estimation.

The battery state at hour ``k`` is the sign of ``e(k) - e_bar(k)``: +1 while
storing surplus (up-ramping), -1 while supplying a shortfall (down-ramping),
0 while idle.  The maximal runs of one state, their sojourns and successors,
and the empirical semi-Markov kernel ``Q[i + 1, j + 1, x]`` are extracted
from a ramp-corrected power series.
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
    "extract_segments",
    "estimate_kernel",
    "complete_classes",
]

#: Absolute charges below this many MW count as "battery idle".
SIGN_TOLERANCE = 1e-9

#: Battery states, in the order of the kernel array's first two axes.
STATES = (-1, 0, 1)


def _whole(name: str, values) -> np.ndarray:
    """``values`` as an int64 array; the first that is not a whole number raises
    :class:`InputError` naming it.  An integer array is checked by its dtype alone."""
    v = np.asarray(values)
    if v.dtype.kind in "iu":
        return v.astype(np.int64, copy=False)
    f = v.astype(float)
    bad = ~(np.isfinite(f) & (f == np.floor(f)))
    if bad.any():
        raise InputError(f"{name} must be a whole number, got {v[bad].flat[0]}")
    return f.astype(np.int64)


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


class SemiMarkovKernel:
    """Empirical kernel of the battery operation renewal process.

    ``Q[i + 1, j + 1, x]`` estimates the probability that, from state ``i`` of
    ``(-1, 0, 1)``, the next jump happens after a sojourn of ``x`` steps and
    lands in ``j``; ``visits[i + 1]`` counts the completed visits to ``i``.
    Draws read sums of ``Q`` computed once: each row's joint CDF over
    ``(x, j)``, the cumulative sum of ``Q[i + 1]`` read sojourn-major (entry
    ``3 x + j + 1``), and its last positive entry, whose ``x`` is the state's
    longest sojourn.  A zero entry repeats the CDF value before it, so it is
    never drawn.  ``Q`` or its nested JSON form (:meth:`to_dict`) must be
    finite and nonnegative with no mass at ``x = 0``.
    """

    def __init__(self, Q, visits):
        if isinstance(Q, dict):
            Q, visits = _kernel_array(Q, visits)
        self.Q = np.asarray(Q, dtype=float)
        self.visits = np.asarray(visits, dtype=int)
        if self.Q.ndim != 3 or self.Q.shape[:2] != (3, 3) or not self.Q.shape[2]:
            raise InputError(f"kernel array must have shape (3, 3, X+1), got {self.Q.shape}")
        bad = np.argwhere(~(np.isfinite(self.Q) & (self.Q >= 0.0)))
        if bad.size:
            i, j, k = bad[0].tolist()
            raise InputError(
                f"kernel entry q[{i - 1}][{j - 1}][{k}] = {self.Q[i, j, k]} must be finite and nonnegative"
            )
        if self.Q[:, :, 0].any():
            raise InputError("sojourns must be at least one step")
        if self.visits.shape != (3,) or (self.visits < 0).any():
            raise InputError(f"visits must be three nonnegative counts, got {self.visits.tolist()}")
        flat = self.Q.transpose(0, 2, 1).reshape(3, -1)
        self._cdf = np.cumsum(flat, axis=1)
        self._last = flat.shape[1] - 1 - np.argmax(flat[:, ::-1] > 0.0, axis=1)
        self._longest = np.where(flat.any(axis=1), self._last // 3, 0)

    # -- queries ------------------------------------------------------------

    def _rows(self, states) -> np.ndarray:
        """Row of ``Q`` for each entry of ``states``; a state never left, or one that
        is not a whole number, raises."""
        rows = _whole("state", states) + 1
        if rows.size and (rows.min() < 0 or rows.max() > 2 or not self._longest[rows].all()):
            n = next(n for n, r in enumerate(rows.tolist()) if not (0 <= r <= 2 and self._longest[r]))
            raise EstimationError(f"no transitions observed from state {rows[n] - 1}")
        return rows

    def max_sojourn(self, states: np.ndarray) -> np.ndarray:
        """The longest observed sojourn of each entry of ``states``."""
        return self._longest[self._rows(states)]

    # -- sampling -----------------------------------------------------------

    def sample_jumps(
        self, states: np.ndarray, rng: np.random.Generator, longer_than: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """One ``(sojourn, successor)`` pair per entry of ``states`` from ``Q[i + 1]``.

        Draws one uniform per entry, in order, and inverts the row's joint
        CDF over ``(x, j)``.  Entry ``n`` is conditioned on a sojourn longer
        than ``longer_than[n]``: its uniform is mapped onto the part of the
        CDF above that length.  Returns ``(sojourns, successors)``.
        """
        rows = self._rows(states)
        cdf = self._cdf[rows]
        total = cdf[:, -1]
        if longer_than is None:
            v = rng.random(rows.size) * total
        else:
            b = _whole("sojourn condition", longer_than)
            if np.any(b < 0):
                raise InputError("sojourn conditions must be nonnegative")
            longest = self._longest[rows]
            if np.any(b >= longest):
                n = int(np.flatnonzero(b >= longest)[0])
                raise SimulationError(
                    f"state {rows[n] - 1} has no observed sojourn longer than {b[n]}"
                )
            lower = cdf[np.arange(rows.size), 3 * b + 2]
            v = lower + rng.random(rows.size) * (total - lower)
        entry = np.minimum((cdf <= v[:, None]).sum(axis=1), self._last[rows])
        return entry // 3, entry % 3 - 1

    def sample_sojourn(self, i: int, rng: np.random.Generator, longer_than: int = 0) -> int:
        """Draw a sojourn of ``i``, optionally conditioned on exceeding ``longer_than``:
        the ``x`` of a one-row :meth:`sample_jumps`."""
        return int(self.sample_jumps(np.array([i]), rng, np.array([longer_than]))[0][0])

    def sample_successor(self, i: int, x: int, rng: np.random.Generator) -> int:
        """Draw the state entered after a sojourn of ``x`` in ``i`` from ``Q[i + 1, :, x]``."""
        (row,) = self._rows([i])
        column = self.Q[row, :, x] if 0 <= x < self.Q.shape[2] else np.zeros(3)
        if not column.any():
            raise SimulationError(f"state {i} has no observed sojourn of length {x}")
        cdf = np.cumsum(column / column.sum())
        last = 2 - int(np.argmax(column[::-1] > 0.0))
        return min(int((cdf <= rng.random() * cdf[-1]).sum()), last) - 1

    def sample_chains(
        self,
        initial_states: np.ndarray,
        rng: np.random.Generator,
        initial_backwards: np.ndarray,
        *,
        horizon: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Jump chains of a block of rows, drawn together round by round.

        Each round draws every running row's next sojourn and successor with
        one :meth:`sample_jumps` call, one uniform per row.  Row
        ``n`` starts ``initial_backwards[n]`` steps into its first sojourn:
        that sojourn is conditioned on being longer, and only its remainder
        counts towards the row's time.  A row stops once its time passes
        ``horizon``.  A state or backward time that is not a whole number
        raises :class:`InputError` naming it.

        Returns ``(states, sojourns)``: row ``n`` stays ``sojourns[n, r]``
        steps in ``states[n, r]``, then enters ``states[n, r + 1]``; a zero
        sojourn pads a row that stopped before the last round.
        """
        state = _whole("state", initial_states).flatten()
        p = state.size
        if p == 0:
            raise InputError("need at least one initial state")
        backward = _whole("backward time", initial_backwards).ravel()
        if backward.size != p:
            raise InputError(f"initial_backwards has {backward.size} entries for {p} initial states")
        if np.any(backward < 0):
            raise InputError("backward time must be nonnegative")
        time = -backward
        states, sojourns = [state.copy()], []
        rows = np.arange(p)
        while rows.size:
            x, nxt = self.sample_jumps(state[rows], rng, None if sojourns else backward)
            sojourns.append(np.zeros(p, dtype=int))
            sojourns[-1][rows] = x
            time[rows] += x
            state[rows] = nxt
            states.append(state.copy())
            rows = rows[time[rows] <= horizon]
        return np.column_stack(states), np.column_stack(sojourns)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        """The nested JSON form: the states left, their visits, and ``q[i][j][x]`` where positive."""
        a, b, k = np.nonzero(self.Q > 0.0)
        q: dict = {}
        for i, j, x, v in zip((a - 1).tolist(), (b - 1).tolist(), k.tolist(), self.Q[a, b, k].tolist()):
            q.setdefault(str(i), {}).setdefault(str(j), {})[str(x)] = v
        states = sorted(int(i) for i in q)
        return {"states": states, "visits": {str(i): int(self.visits[i + 1]) for i in states}, "q": q}

    @classmethod
    def from_dict(cls, data: dict) -> "SemiMarkovKernel":
        return cls(data["q"], data.get("visits", {}))

    def __eq__(self, other) -> bool:
        return isinstance(other, SemiMarkovKernel) and (
            np.array_equal(self.Q, other.Q) and np.array_equal(self.visits, other.visits)
        )


def _kernel_array(q: dict, visits: dict) -> tuple[np.ndarray, np.ndarray]:
    """``Q`` and the visit counts of the nested form ``q[i][j][x]`` and ``{i: visits}``."""
    entries = [(int(i), int(j), int(k), float(v))
               for i, jj in q.items() for j, kk in jj.items() for k, v in kk.items()]
    counts = {int(i): int(c) for i, c in visits.items()}
    outside = np.setdiff1d([s for i, j, *_ in entries for s in (i, j)] + list(counts), STATES)
    if outside.size:
        raise InputError(f"kernel state {outside[0]} is not one of {STATES}")
    if any(k < 1 for _, _, k, _ in entries):
        raise InputError("sojourns must be at least one step")
    Q = np.zeros((3, 3, max((k for _, _, k, _ in entries), default=0) + 1))
    for i, j, k, v in entries:
        Q[i + 1, j + 1, k] = v
    return Q, [counts.get(s, 0) for s in STATES]


def estimate_kernel(i, j, x) -> SemiMarkovKernel:
    """Estimate ``Q[i + 1, j + 1, x] = N_ij(x) / N_i`` by counting completed transitions.

    Transition ``n`` leaves state ``i[n]`` after ``x[n]`` steps for state
    ``j[n]``; a censored run has no successor and must be left out.  Each
    source row is divided by the number ``N_i`` of completed visits to it, so
    ``sum_{j,x} Q[i + 1, j + 1, x] = 1``.  A state, successor or sojourn that
    is not a whole number raises :class:`InputError` naming it.
    """
    columns = [_whole(name, a).ravel() for name, a in zip(("state", "successor", "sojourn"), (i, j, x))]
    if len({c.size for c in columns}) > 1:
        raise InputError("transition sources, successors and sojourns must have equal length")
    sources, successors, sojourns = columns
    if not sojourns.size:
        raise EstimationError("no completed transitions to estimate a kernel from")
    if np.any(sojourns < 1):
        raise InputError("sojourns must be at least one step")
    outside = np.setdiff1d(np.r_[sources, successors], STATES)
    if outside.size:
        raise InputError(f"kernel state {outside[0]} is not one of {STATES}")
    Q = np.zeros((3, 3, sojourns.max() + 1))
    np.add.at(Q, (sources + 1, successors + 1, sojourns), 1.0)
    visits = np.bincount(sources + 1, minlength=3)
    Q[visits > 0] /= visits[visits > 0, None, None]
    return SemiMarkovKernel(Q, visits)
