"""Host-speed yardstick for the benchmark's timings.

Every timing among the end-to-end metrics is reported at reference speed:
scaled by ``REF_NOMINAL_S`` over the time a fixed pure-Python loop took
right around it.  A shared 2-vCPU Xeon VM was seen to change speed by up to
2x within minutes; the loop slows with it, so scaled times follow the
program rather than the host.  In the noisiest four minutes measured there,
20-second medians of raw item times spread 0.32-0.36 (IQR over median) and
scaled ones 0.10-0.15.  The loop takes about 2.5 ms there when the host
runs fast.
"""

from __future__ import annotations

import time

REF_LOOPS = 50_000
REF_NOMINAL_S = 0.0025


def reference_s():
    """Wall time of the fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REF_LOOPS):
        acc += i * 0.5
    return time.perf_counter() - t0


def at_reference_speed(seconds, ref):
    """A time measured while the loop took ``ref`` seconds, scaled to a host
    on which it takes ``REF_NOMINAL_S``."""
    return seconds * REF_NOMINAL_S / ref
