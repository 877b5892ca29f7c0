"""Operation timing in reference seconds.

The benchmark machine shares its cores with other work, and its speed drifts
by up to a factor of two within a minute.  Nineteen identical one-epoch
``train`` calls on ``paper``, in one process, had an interquartile range of
20 % of their median wall time, and 83 identical cache refreshes one of 53 %.
Medians over a run cannot remove drift that lasts as long as the run.

So while an operation runs, a timer signal interrupts it every
``PERIOD_S`` and runs a fixed probe workload: interpreter dispatch plus small
numpy calls, the mix the program's time goes to.  One probe also runs just
before and one just after.  The operation's own time (wall time minus the
time spent in probes) is scaled by how much slower than the reference the
probes ran:

    ref_s = own_s * REFERENCE_PROBE_S / mean(probe times)

On those 19 train calls ``ref_s`` had an interquartile range of 4.3 %.  The
probe does not depend on the program, so a change to the program moves
``ref_s`` as it moves the wall time.  A signal that arrives while numpy is in
C code waits until the call returns; interrupted system calls are retried.
"""

from __future__ import annotations

import gc
import signal
import time
from dataclasses import dataclass

import numpy as np

# about the median probe() time on the 2-core machine of the README's figures
REFERENCE_PROBE_S = 0.0017
PERIOD_S = 0.05

_PROBE_STEPS = 300
_PROBE_INPUT = np.ones((16, 16))


def probe() -> float:
    """Wall time of one fixed probe workload."""
    a = _PROBE_INPUT
    acc = 0.0
    start = time.perf_counter()
    for i in range(_PROBE_STEPS):
        b = np.concatenate([a[:8], a[8:]]) @ a
        acc += (i * 7 % 13) * b[0, 0] * 1e-9
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise RuntimeError("probe workload produced a non-finite value")
    return elapsed


@dataclass
class Timing:
    own_s: float  # wall time minus the time spent in probes
    ref_s: float


def timed(fn, *args, **kwargs):
    """Run ``fn`` once under the probe timer; return its result and ``Timing``.

    Garbage is collected first, so that a collection made due by earlier work
    does not land in the timed call.
    """
    probes: list[float] = []
    in_probes = [0.0]

    def on_timer(signum, frame):
        start = time.perf_counter()
        probes.append(probe())
        in_probes[0] += time.perf_counter() - start

    gc.collect()
    probes.append(probe())
    previous = signal.signal(signal.SIGALRM, on_timer)
    try:
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    probes.append(probe())
    own = wall - in_probes[0]
    return result, Timing(own, own * REFERENCE_PROBE_S / (sum(probes) / len(probes)))
