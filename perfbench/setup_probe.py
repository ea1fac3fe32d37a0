"""Time one workload's set-up in a fresh interpreter and print the seconds.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Set-up is what a user pays before the first request: importing meowsim,
building the scenario and topology, and starting the controller or server.
The time is calibrated against host speed like every other host time (see
meter.py). run.py starts this script several times per run and reports the
median.
"""

import sys
from pathlib import Path

from meter import Meter

ROOT = Path(__file__).resolve().parent.parent


def setup():
    sys.path[:0] = [str(ROOT / "src")]
    import workloads

    workload = workloads.WORKLOADS[sys.argv[1]]
    return workload, workload.setup(ROOT, int(sys.argv[2]))


meter = Meter()
meter.start()
with meter.timed():
    workload, state = setup()
meter.finish()
workload.teardown(state)
print(repr(meter.timed_ns / 1e9))
