"""Samples the speed the machine gives this process while a unit runs.

On a shared machine the CPU speed swings between levels about 2x apart,
in spells from seconds to minutes, so a plain wall time reads the machine as
much as the program. While a unit runs, a SIGALRM handler times a fixed
micro-computation every ``INTERVAL`` seconds. The computation shares no code
with mvloc and runs on constant inputs: small SVDs, short vector reductions,
numpy calls on 3-vectors and a Python loop, the mix mvloc spends its time
in. Samples of memory-bound gathers or of pure Python loops tracked the
swings worse (see README.md). The mean of a unit's samples is the machine's
speed over that unit, and the unit's time over it (``run_rel``) cancels
most of the swings.

The handler draws from no RNG and touches no mvloc state, so units write the
same bytes with sampling on or off. Its own time is taken out of the unit's.
"""

import contextlib
import signal
import time

import numpy as np

INTERVAL = 0.1
ROUNDS = 13  # about 1.5 ms per sample on an idle x86 core

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((40, 9))
_B = _RNG.standard_normal((200, 3))
_V = _RNG.standard_normal(3)
_R = np.linalg.qr(_RNG.standard_normal((3, 3)))[0]


def reference_work(rounds=ROUNDS):
    acc = 0.0
    for i in range(rounds):
        acc += np.linalg.svd(_A + i * 1e-3)[1][0]
        acc += float(np.einsum("ij,ij->i", _B, _B).sum())
        v = np.array([_V[0] + i, _V[1], _V[2]])
        w = _R @ np.cross(v, _V)
        acc += float(np.linalg.norm(w)) + float(np.dot(v, w))
        acc += sum(j * j for j in range(300))
    return acc


class Samples:
    def __init__(self):
        self.durations = []

    def mean(self):
        return sum(self.durations) / len(self.durations)

    def in_unit(self):
        """Time of the samples the timer took, which fell inside the unit;
        the first sample is taken on entry, before it."""
        return sum(self.durations[1:])


@contextlib.contextmanager
def sampling():
    """Time ``reference_work`` once on entry, so that even a short unit has a
    sample, then every ``INTERVAL`` s of wall time until exit."""
    samples = Samples()
    reference_work()  # warm-up, untimed
    busy = False

    def sample(signum, frame):
        nonlocal busy
        if busy:  # a signal that arrives during a sample is dropped
            return
        busy = True
        start = time.perf_counter()
        reference_work()
        samples.durations.append(time.perf_counter() - start)
        busy = False

    previous = signal.signal(signal.SIGALRM, sample)
    try:
        sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
