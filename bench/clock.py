"""Host time at a reference machine speed.

On a machine whose cores are shared, the speed of one core drifts by up to
a factor of two over tens of seconds, so the median wall time of a 30 s run
moves by 20-35% between runs of the same code.  To measure the program and
not its neighbours, every timed region is bracketed by a short calibration:
fixed interpreter and small-array work, the same mix the simulator runs.
A region's wall time is then scaled by CAL_NOMINAL_S over the mean of the
calibrations on either side of it.  The result is the time the region
would have taken at the speed where one calibration takes CAL_NOMINAL_S.
The calibration is outside the program, so a change to the program moves
the scaled time exactly as it moves the wall time at a steady speed.

Calibration time itself is never inside a region: a region runs from the
end of the calibration before it to the start of the one after it.
"""

import time

import numpy as np

CAL_NOMINAL_S = 2e-3
CAL_REPS = 200
REUSE_S = 1e-3   # a start mark this soon after the last mark reuses it
_CAL_MATRIX = np.linspace(-1.0, 1.0, 64).reshape(8, 8) / 4.0


def calibrate():
    """The fixed calibration work.

    It takes 1.8-2.0 ms on an unloaded Intel Xeon vCPU (Python 3.11,
    NumPy 2.4), where CAL_NOMINAL_S was chosen.
    """
    a = _CAL_MATRIX
    x = 0
    for _ in range(CAL_REPS):
        for j in range(200):
            x += j * j
        a = np.tanh(a @ _CAL_MATRIX + 0.5)
    return x, a


class Clock:
    """Calibrated marks; the time between two marks in raw and reference s."""

    def __init__(self):
        self.marks = []   # (calibration start, calibration end, its duration)
        self.calibrations = []   # every calibration's duration, kept for the record

    def forget_marks(self):
        del self.marks[:]

    def mark(self, start=False):
        """Calibrate and return the mark's index.

        A region's start mark reuses the previous mark when that ended less
        than REUSE_S ago, so back-to-back regions share one calibration.
        """
        now = time.perf_counter()
        if start and self.marks and now - self.marks[-1][1] < REUSE_S:
            return len(self.marks) - 1
        calibrate()
        end = time.perf_counter()
        self.marks.append((now, end, end - now))
        self.calibrations.append(end - now)
        return len(self.marks) - 1

    def between(self, i, j):
        """(wall seconds, reference seconds) from mark i to mark j."""
        raw = ref = 0.0
        for (_, end, cal_a), (start, _, cal_b) in zip(self.marks[i:j],
                                                      self.marks[i + 1:j + 1]):
            raw += start - end
            ref += (start - end) * 2.0 * CAL_NOMINAL_S / (cal_a + cal_b)
        return raw, ref
