"""A machine-speed index measured in the same thread, while the program runs.

On a shared host the speed of a core drifts: a fixed loop of Python code
takes 10-35% longer for seconds to minutes at a time, in CPU time as much as
in wall time, with no steal time to account for it.  A run of 40 s cannot
average such a period away, so wall times of two runs of the same code on
the same inputs differ by as much as a regression the benchmark should catch.

``SpeedSampler`` runs a fixed reference loop from a ``SIGALRM`` handler every
``PERIOD_S`` seconds of wall time while a stage runs.  The handler runs in
the program's own thread, between its bytecodes, so the loop samples the
machine's speed over the same interval as the stage and contends with
nothing.  A stage's *scaled* time is its wall time less the time spent in
the loop, multiplied by ``REFERENCE_S`` over the loop's mean duration inside
the stage: the seconds the stage would take on a machine where the loop
takes ``REFERENCE_S``.  Work the program adds or removes shows in full; a
slower machine slows both and cancels out.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

import numpy as np

#: Wall seconds between two runs of the reference loop.
PERIOD_S = 0.025
#: The reference loop's duration on the machine the README's figures come from.
REFERENCE_S = 1.3e-3

_SMALL = np.arange(64.0)


def reference_loop() -> float:
    """Fixed work in the mix the stages spend their time in: Python arithmetic
    and dict stores, then calls into numpy on a small array."""
    total = 0.0
    last = {}
    for i in range(4000):
        total += i * 0.5
        last[i & 63] = total
    for i in range(150):
        total += float(_SMALL[i & 63]) + float(_SMALL.sum()) + float(np.searchsorted(_SMALL, 7.5))
    return total


@dataclass(frozen=True)
class Measured:
    """One call timed with the sampler on."""

    #: Wall seconds of the call, reference loops included.
    wall_s: float
    #: Wall seconds of the call less the reference loops that ran inside it.
    net_s: float
    #: Mean duration of the reference loop over the call.
    reference_s: float

    @property
    def scaled_s(self) -> float:
        return self.net_s * REFERENCE_S / self.reference_s


class SpeedSampler:
    """Install with ``with SpeedSampler() as sampler:``; time with ``measure``.

    The handler stays installed for the whole ``with`` block and the timer
    runs only inside ``measure``, so a signal that arrives as a call ends
    only adds one sample.
    """

    def __init__(self):
        self._samples: list[float] = []
        self._busy = False
        self._previous = None

    def _sample(self, *_) -> None:
        if self._busy:  # a signal that arrived while the loop ran
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            reference_loop()
            self._samples.append(time.perf_counter() - t0)
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, fn) -> Measured:
        """Call ``fn()`` with the timer on; exceptions pass through."""
        self._samples = []
        self._sample()  # one sample before the call, however short it is
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = time.perf_counter() - t0
        inside = sum(self._samples[1:])
        return Measured(wall, wall - inside, sum(self._samples) / len(self._samples))
