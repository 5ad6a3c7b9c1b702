"""Host-speed calibration.

The benchmark runs on a few cores of a shared host whose speed moves by up
to half within seconds, as neighbours come and go.  A fixed chunk of
interpreter work, unrelated to the toolkit, is timed while the work being
measured runs, and each measured time is scaled by a reference chunk time
over the chunk's mean time meanwhile.  The scaled times read as seconds on
the reference host at its usual speed.  They stay put when the host slows
down, while a change in the toolkit still moves them in full.  Chunks are timed in
thread CPU time, so a preemption in the middle of one does not count.

Two ways to take chunks:

- Sampler: a thread that times a chunk every SAMPLE_EVERY_S, for operations
  that run long (a census call, a pipeline grammar) or in other threads.
  It takes the interpreter lock for about a millisecond each time.
- chunk_s() between operations in the measuring thread, with scale_series(),
  for short operations (a parse) whose latency a sampler would disturb.

This module imports nothing from the toolkit and nothing slow, so a worker
can start calibrating before its set-up starts.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from time import perf_counter, thread_time

# Median CPU time of one chunk on the reference host (2-vCPU Xeon VM, Python
# 3.11.7) at its usual speed: timed by the sampler, which starts each chunk
# after a pause, and back to back in a busy thread.  They set the unit of the
# scaled times.
REF_SAMPLED_S = 0.00115
REF_INLINE_S = 0.00085

SAMPLE_EVERY_S = 0.04  # the sampler's pause between chunks
PAD_S = 0.25  # the sampler scales an interval by chunks up to this far around it
SMOOTH = 3  # scale_series looks this many chunks to each side

_KEYS = tuple(range(256))  # ints, whose hashes do not change per process
_ROUNDS = 12


def _work() -> int:
    table = dict.fromkeys(_KEYS, 0)
    acc = 0
    for r in range(_ROUNDS):
        for k in _KEYS:
            v = table[k] + (k & 7) + r
            table[k] = v & 0xFFFF
            acc ^= hash((k, v))
    return acc


def chunk_s() -> float:
    """CPU time of one calibration chunk in this thread."""
    t = thread_time()
    _work()
    return thread_time() - t


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def scale_series(raw: list[float], chunks: list[float]) -> list[float]:
    """Scale a series of back-to-back times, where chunks[i] was timed just
    before raw[i] and chunks[i + 1] just after it.  Each time is scaled by
    the median of the chunks within SMOOTH steps of it, which evens out the
    noise of single chunks; the host's speed changes over seconds."""
    assert len(chunks) == len(raw) + 1
    return [dt * REF_INLINE_S / _median(chunks[max(0, i - SMOOTH):i + 2 + SMOOTH])
            for i, dt in enumerate(raw)]


class Sampler:
    """Times a chunk every SAMPLE_EVERY_S in a daemon thread until stopped."""

    def __init__(self) -> None:
        self.times: list[float] = []  # perf_counter at the start of each chunk
        self.chunks: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="calib-sampler", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            t = perf_counter()
            self.chunks.append(chunk_s())
            self.times.append(t)  # second, so that times never runs ahead

    def start(self) -> "Sampler":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def scaled(self, start: float, end: float) -> float:
        """end - start (perf_counter readings) scaled by the mean chunk
        within PAD_S of the interval, or by the nearest chunks if none."""
        lo = bisect_left(self.times, start - PAD_S)
        hi = bisect_right(self.times, end + PAD_S)
        near = self.chunks[lo:hi] or self.chunks[max(0, lo - 2):lo + 2]
        if not near:
            raise RuntimeError("the calibration sampler took no chunk")
        return (end - start) * REF_SAMPLED_S * len(near) / sum(near)
