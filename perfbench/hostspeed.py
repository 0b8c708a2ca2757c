"""The host's speed, sampled with a fixed kernel between planning cycles.

A shared VM runs the same code at different speeds from one moment to the
next: the reference machine (2 cores, x86_64) switches between a fast and a
slow phase every few seconds to minutes, and a planning cycle takes up to 1.8x
longer in the slow one. A 20-second run can fall wholly into either phase, so
raw wall times of two runs of the same code differ by more than any useful
bound.

The untraced run therefore samples a kernel right before every operation and
right after every planning cycle, outside the timed spans, and scales each
timed span by the kernel's reference time over its time around the span. The
kernel mixes what a cycle spends its time on: an interpreter loop, vectorised
numpy arithmetic on a 2.5 MB array (the size of the planner's per-pair arrays
on the five-vehicle scene) and, in the "calls" kernel, a run of small numpy
calls on one value per tuple. The kinds of work slow down by different
amounts in the slow phase, so each workload uses the kernel whose mix matches
its own. The kernel calls nothing in `mergegame`, so a change to the program
moves the scaled figures exactly as it moves the raw ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Kernel name -> (small numpy calls per run, reference time in seconds).
# "calls" suits `merge` and `open-loop`, which spend much of a cycle in
# per-tuple calls on small arrays; "arrays" suits `dense`, which spends it on
# large per-pair arrays, and which a kernel heavy in small calls would
# over-correct in the slow phase. A reference time lies between the kernel's
# times in the fast and the slow phase on the reference machine; the scaled
# figures read as wall times on a host that runs the kernel in exactly that.
KERNELS = {"calls": (900, 0.012), "arrays": (0, 0.008)}
REPEATS = 2

_RNG = np.random.default_rng(0)
_VECTOR = _RNG.standard_normal(742)
_ARRAY = _RNG.standard_normal((742, 20, 21))
# The kernel writes only into these, so that its time does not depend on the
# state of the heap that the program left behind.
_V = np.empty_like(_VECTOR)
_X = np.empty_like(_ARRAY)
_Y = np.empty_like(_ARRAY)


def _kernel(calls: int) -> float:
    s = 0.0
    for i in range(20000):
        s += i * 0.5
    np.copyto(_V, _VECTOR)
    for _ in range(calls):
        np.multiply(_V, 0.5, out=_V)
        np.add(_V, 1.0, out=_V)
        np.abs(_V, out=_V)
        np.subtract(_V, 0.5, out=_V)
    np.multiply(_ARRAY, 0.5, out=_X)
    np.add(_ARRAY, 1.0, out=_Y)
    np.hypot(_X, _Y, out=_X)
    np.minimum(_X, 0.3, out=_X)
    return s + float(_V.sum()) + float(_X.sum())


def sample(kernel: str) -> float:
    """The named kernel's time now, in seconds: the fastest of REPEATS runs."""
    calls = KERNELS[kernel][0]
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        _kernel(calls)
        best = min(best, perf_counter() - t0)
    return best


def _median3(values: list) -> list:
    """Running median of three: drops a lone sample that caught a brief change
    of phase, and keeps a lasting change where it happened."""
    if len(values) < 3:
        return list(values)
    inner = [sorted(values[i - 1:i + 2])[1] for i in range(1, len(values) - 1)]
    return [values[0], *inner, values[-1]]


def scale(ops: list, reference_s: float) -> tuple[list, float]:
    """Scale a run's timings to the speed at which the kernel takes reference_s.

    ops holds, for each operation, (t0, t_end, cycles, samples): its start and
    end, (start, end) of each planning cycle, and (start, end, kernel seconds)
    of each host-speed sample: samples[0] taken right before the operation
    began at t0, samples[i + 1] right after cycle i. The kernel times of the
    whole run are smoothed by a running median of three. A span between two
    samples is then scaled by the mean of their factors, and the tail after
    the last sample by that sample's factor. Returns every cycle's scaled time
    and the operations' scaled wall time, kernel time excluded."""
    kernels = _median3([k for *_, samples in ops for _, _, k in samples])
    plan, wall, n = [], 0.0, 0
    for t0, t_end, cycles, samples in ops:
        f = [reference_s / k for k in kernels[n:n + len(samples)]]
        n += len(samples)
        plan += [(end - start) * (f[i] + f[i + 1]) / 2.0 for i, (start, end) in enumerate(cycles)]
        start = t0
        for i, (ks, ke, _) in enumerate(samples[1:]):
            wall += (ks - start) * (f[i] + f[i + 1]) / 2.0
            start = ke
        wall += (t_end - start) * f[-1]
    return plan, wall
