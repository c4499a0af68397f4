"""Speed probe: samples how fast one CPU runs Python while a pass runs on it.

    python3 perfbench/speed.py CPU

Pins itself to CPU and, every INTERVAL_S until its standard input closes,
takes the CPU time of one fixed pure-Python kernel; then prints the samples
as a JSON list of [start (time.monotonic()), CPU seconds] pairs.  The
kernel takes about 0.2 ms, so the probe uses about 2% of the CPU it shares
with the pass.

On a shared host a CPU's speed can change by a large factor for seconds at a
time.  run.py multiplies each timing by the mean of REF_KERNEL_S / kernel
time over the samples taken during it, which turns it into seconds at a
fixed reference speed.
"""
from __future__ import annotations

import json
import os
import sys
import threading
import time
from fractions import Fraction

INTERVAL_S = 0.01
REF_KERNEL_S = 0.0002     # the reference speed: the kernel takes this long


def kernel():
    # a mix of the interpreter paths the package runs: Fraction arithmetic,
    # tuple-keyed dicts, sorting
    acc, d = Fraction(0), {}
    for i in range(90):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        key = (i & 7, i % 3)
        d[key] = d.get(key, 0) + i * 7 // 3
    return acc, sorted(d.items())


def main():
    os.sched_setaffinity(0, {int(sys.argv[1])})
    stop = threading.Event()
    threading.Thread(target=lambda: (sys.stdin.read(), stop.set()), daemon=True).start()
    samples = []
    while not stop.wait(INTERVAL_S):
        # CPU time, not wall time: the pass may preempt the probe mid-kernel
        start, cpu = time.monotonic(), time.thread_time()
        kernel()
        samples.append((start, time.thread_time() - cpu))
    print(json.dumps(samples))


if __name__ == "__main__":
    main()
