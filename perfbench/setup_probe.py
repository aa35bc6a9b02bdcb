"""One cold set-up of a workload: import, generate the inputs, warm up.

Run as ``python3 perfbench/setup_probe.py <workload> <seed>`` from the root
of a checkout.  ``run.py`` times several of these fresh processes and
reports their median as ``setup_s``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2])).warm_up()
