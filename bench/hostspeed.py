"""Host-speed samples, and times scaled by them.

A shared host's speed switches between levels every few seconds, so the
benchmark times a small reference kernel next to the work it measures. A
sample is (start, slowness, seconds it took), where slowness is the
kernel's time over its reference time, and adjusted() divides each stretch
of work by the mean slowness at its two ends. run.py does this for
operations, with a numpy kernel timed between operations and, by a timer
signal, during long ones.

A fresh process is timed from outside. The set-up child (run.py
--setup-only) and each cli child call start() before any other import; a
timer signal then times this module's kernel every SAMPLE_S, and stop()
returns the samples, which the child hands to its parent. perf_counter
readings are shared by every process on the host, so the parent, which
knows when it started the child and when the child finished, scales that
whole span with them.

This kernel does what an import does, in pure Python, since the samples
start before numpy is loaded. On a 2-vCPU Xeon VM whose speed switched
between two levels every few seconds, set-up times scaled by it spread less
than times scaled by an arithmetic kernel (6-9% against 9-11% over single
set-ups), and far less than raw times (16-20%). An arithmetic kernel slows
more than imports do in the slow phases."""

from __future__ import annotations

import atexit
import json
import marshal
import signal
import sys
from time import perf_counter

SAMPLE_S = 0.02
REFERENCE_S = 0.16e-3  # slowness 1: a time scaled by it is seconds on a host where _kernel() takes this

# samples of the operation in flight, while run.timed_call times one
in_flight: list | None = None

# what an import does: unmarshal a code object and run it to define
# functions and classes
_SOURCE = "\n".join(
    f"def f{i}(a, b=({i}, 'x{i}')):\n    return [a, b, {{'k{i}': a}}]\n"
    f"class C{i}:\n    z = {i}.5\n    def m(self):\n        return self.z * {i}\n"
    for i in range(6)
)
_CODE = marshal.dumps(compile(_SOURCE, "hostspeed-kernel", "exec"))

_samples: list[tuple[float, float, float]] = []  # this process's, from start()


def _kernel() -> dict:
    namespace: dict = {}
    for _ in range(2):
        exec(marshal.loads(_CODE), namespace)
    return namespace


def sample() -> None:
    t0 = perf_counter()
    _samples.append((t0, 0.0, -1.0))
    times = []
    for _ in range(3):
        t = perf_counter()
        _kernel()
        times.append(perf_counter() - t)
    _samples[-1] = (t0, sorted(times)[1] / REFERENCE_S, perf_counter() - t0)


def _on_timer(signum, frame):
    if _samples[-1][2] >= 0:  # not while a sample is being taken
        sample()


def start() -> None:
    sample()
    signal.signal(signal.SIGALRM, _on_timer)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)


def stop() -> list[tuple[float, float, float]]:
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
    sample()
    return _samples


def report_at_exit() -> None:
    """Write the samples to stderr as the process's last line when it exits."""
    atexit.register(lambda: print("hostspeed", json.dumps(stop()), file=sys.stderr, flush=True))


def child_samples(stderr: str) -> list:
    """The samples a child wrote with report_at_exit()."""
    for line in reversed(stderr.splitlines()):
        if line.startswith("hostspeed "):
            return json.loads(line[len("hostspeed "):])
    return []


def adjusted(begin: float, end: float, samples) -> float:
    """Seconds from begin to end (perf_counter readings) less the time spent
    sampling, each stretch divided by the mean slowness at its two ends.
    samples: at least one, in order, all between begin and end."""
    total, edge, prev = 0.0, begin, samples[0][1]
    for t, slowness, took in samples:
        total += (t - edge) * 2 / (prev + slowness)
        edge, prev = t + took, slowness
    return total + (end - edge) / prev
