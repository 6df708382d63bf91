"""How fast the machine runs right now, from a fixed reference kernel.

On a shared box the speed of a core changes with what the other tenants
of the machine do: a fixed Python-and-numpy loop was measured here to
run at anywhere between one and two times its slowest rate, in phases of
several seconds to tens of seconds, while the process was never off its
core.  A slower core stretches wall time and CPU time alike.  The run
loop therefore runs this kernel between consecutive operations and
scales each operation's time by REFERENCE_S over the mean of the kernel
times just before and just after it: the result is the operation's time
on a machine on which the kernel takes REFERENCE_S.  The kernel is made
of the same kind of work as the program (small matrix products,
elementwise updates and ufunc calls from an interpreted loop), and no
change to epcag_lab can change its cost.
"""

import statistics
import time

import numpy as np

REPS = 2000
REFERENCE_S = 0.01
_A = np.array([[0.5, 0.1], [0.2, 0.3]])
_Y0 = np.ones((4, 2))


def kernel_time():
    """(wall seconds, CPU seconds) of one run of the reference kernel."""
    w0, c0 = time.perf_counter(), time.process_time()
    y = _Y0.copy()
    for _ in range(REPS):
        k = y @ _A
        y = y + 0.01 * k
        y -= 0.001 * np.sin(y)
    return time.perf_counter() - w0, time.process_time() - c0


def median_wall(runs):
    """Median wall seconds of ``runs`` runs of the reference kernel."""
    return statistics.median(kernel_time()[0] for _ in range(runs))


class SetupClock:
    """Wall time of consecutive parts of a set-up, and the same scaled to
    the reference speed.

    ``lap()`` ends a part and times the kernel (median of five runs)
    right after it.  A part is scaled by the mean of the kernel times at
    its two ends, the first part by the one after it.  The speed of the
    machine can change within a set-up of a few tenths of a second, so
    the kernel is timed after every part, not once at the end.  The
    kernel runs are not counted.
    """

    def __init__(self, start):
        self.mark = start
        self.wall = 0.0
        self.scaled = 0.0
        self.k = None

    def lap(self):
        wall = time.perf_counter() - self.mark
        if self.k is None:
            kernel_time()  # a first call runs about twice as long: discard it
        k = median_wall(5)
        self.wall += wall
        self.scaled += wall * REFERENCE_S / (k if self.k is None else 0.5 * (self.k + k))
        self.k = k
        self.mark = time.perf_counter()
