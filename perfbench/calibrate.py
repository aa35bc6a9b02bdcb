"""The calibration kernel, run in a helper process of its own.

``run.py`` starts this helper before it imports the library and asks it for
kernel times over a pipe.  Whatever the library does to the benchmark
process (more objects for the garbage collector, a fragmented heap, changed
numpy settings) therefore cannot reach the kernel, and so cannot be divided
out of the reported times.  Each line read from standard input runs the
kernel three times and answers with the median wall seconds (one run of the
kernel can be off by 40 % on a shared machine); end of input ends the helper.

    python3 perfbench/calibrate.py
"""

import statistics
import sys
import time

import numpy as np
from scipy.linalg import lu_factor, lu_solve


def kernel_seconds() -> float:
    """Wall time of a fixed loop of 3 x 3 LU solves, independent of the library."""
    a = np.array([[4.0, -1.0, -0.5], [-1.0, 4.0, -1.0], [-0.5, -1.0, 4.0]])
    b = np.ones(3)
    start = time.perf_counter()
    for _ in range(400):
        b = lu_solve(lu_factor(a), b) + 1.0
        a = a + 1e-9 * np.outer(b, b)
    return time.perf_counter() - start


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(statistics.median(kernel_seconds() for _ in range(3))), flush=True)
