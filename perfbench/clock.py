"""Reference seconds: wall time corrected for the machine's drifting speed.

The benchmark was tuned on a 2-core virtual machine whose speed flips
between two states about 1.6x apart while it is otherwise idle, and stays
in one for only seconds.  Wall times of the same six-second replication in
one process ranged 4.9-8.2 s, and medians of whole runs spread 12-22%
(interquartile range over median, eight seeds).

So while a workload runs, a wall-clock timer interrupts it every
SAMPLE_EVERY_S and times one fixed chunk of work there, which runs no
seqbvs code.  A timed unit is read in reference seconds: its wall time,
less the chunks run inside it, times CALIB_REF_S times the mean speed
(1 / chunk time) of the chunks run inside it and of the nearest chunk on
each side.  That is the time the unit would take on a machine where one
chunk takes CALIB_REF_S.  Over 100 s of the replication above, the
coefficient of variation was 2.5% in reference seconds, 14% in wall
seconds and 11% in seconds scaled by 0.2 s chunks timed just before and
after each replication.  For units shorter than the sampling period (run
medians of desk_stream emit_outputs over six runs), the nearest chunk on
each side gave a coefficient of variation of 3.8%, about as good as the
chunks within 0.25 s of the unit (3.1%, but that can be none), and better
than the last four chunks before it (6.7%) or the chunks within 1-4 s of
it (5.7-6.3%).  A change to seqbvs moves reference seconds as much as
wall seconds; only the machine's own drift cancels out.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

SAMPLE_EVERY_S = 0.25
# a chunk of a few milliseconds tracked the speed poorly; about 25 ms did well
CALIB_LOOPS = 10
CALIB_REF_S = 0.025  # about the chunk's time on the machine the benchmark was tuned on

_rng = np.random.default_rng(0)
_a = _rng.standard_normal((64, 12, 12))
_SPD = _a @ _a.transpose(0, 2, 1) + 12.0 * np.eye(12)
_VALS = _rng.standard_normal(2000).tolist()


def calibrate() -> float:
    """Seconds for a fixed chunk of work independent of seqbvs.

    Small batched eigh/cholesky (the kind of numpy call imputation and the
    sweep make) and float formatting (the kind of Python work the output
    paths do).
    """
    start = perf_counter()
    for _ in range(CALIB_LOOPS):
        np.linalg.eigh(_SPD)
        np.linalg.cholesky(_SPD)
        ",".join(f"{x:.6g}" for x in _VALS)
    return perf_counter() - start


class SpeedMeter:
    """Times a chunk every SAMPLE_EVERY_S of wall time while it is entered."""

    def __init__(self) -> None:
        calibrate()  # warm-up: first-call costs in numpy
        self.at: list[float] = []  # perf_counter at each chunk's start
        self.took: list[float] = []  # each chunk's seconds
        self.sample()

    def sample(self) -> None:
        """Time one chunk now."""
        self.at.append(perf_counter())
        self.took.append(calibrate())

    def _tick(self, signum, frame) -> None:
        self.sample()

    def _start(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def _stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def __enter__(self) -> SpeedMeter:
        signal.signal(signal.SIGALRM, self._tick)
        self._start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()  # the reading after the workload, for the info line

    @contextmanager
    def paused(self):
        """No chunks while a child process runs, which they would compete
        with; the child is read from the chunks on each side of it."""
        self._stop()
        self.sample()
        try:
            yield
        finally:
            self._start()

    def reference_s(self, start: float, end: float) -> tuple[float, float]:
        """(wall seconds, reference seconds) of the work between start and end.

        Call it once the meter has exited, so that every unit has a chunk after it.
        """
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_left(self.at, end)
        wall = end - start - sum(self.took[lo:hi])
        near = self.took[max(0, lo - 1) : hi + 1]
        # work done = wall x speed, and speed is 1 / chunk time
        return wall, wall * CALIB_REF_S * statistics.fmean(1.0 / t for t in near)

    def summary(self) -> dict[str, float]:
        """Chunk seconds before and after the workload and their quartiles over the run."""
        q = statistics.quantiles(self.took, n=4)
        return {"before": self.took[0], "after": self.took[-1], "chunks": len(self.took), "p25": q[0], "median": q[1], "p75": q[2]}
