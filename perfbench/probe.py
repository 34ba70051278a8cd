"""Speed probe: a fixed reference kernel sampled all through a timed pass.

The host gives this benchmark a few cores of a shared machine whose speed
drifts by up to 1.5x over tens of seconds, inside passes and between them.
Raw wall and CPU time drift with it. The probe measures that drift where it
happens: every PERIOD_S seconds of the pass a SIGALRM handler runs KERNEL
once in the main thread, between two bytecodes of the program, and records
how long it took. No thread or process is started.

A pass time is then turned into seconds at the kernel's nominal speed:

    norm = (pass time - probe time inside the pass) * NOMINAL_S / mean probe time

so a machine that runs everything 1.4x slower for a while leaves the normed
time where it was. The kernel depends on numpy and the interpreter only,
never on dnls, so no change to the program can move it. It is of the same
kind as the program's hot loop: short numpy calls on an array of about a
hundred sites, glued together by Python arithmetic.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
REPS = 100
# mean duration of one KERNEL call, measured on a 2-vCPU Xeon VM; it only
# scales the normed times into seconds and never changes between runs
NOMINAL_S = 2.8e-3

_X0 = np.linspace(0.0, 1.0, 97)


def kernel() -> float:
    """A fixed diffusion sweep on 97 sites; returns a checksum."""
    x, acc = _X0, 0.0
    for k in range(REPS):
        y = np.roll(x, 1) + np.roll(x, -1) - 2.0 * x
        acc += float(np.dot(y, y)) * 1e-9 + (k % 7) * 0.5
        x = x + 1e-6 * y
    return acc


class SpeedProbe:
    """Context manager that times its body and samples KERNEL every ``period_s``.

    ``elapsed`` is the body's (wall, CPU) time, from just after the timer
    starts to just after it stops, so every timer sample falls inside it;
    ``inside_wall`` and ``inside_cpu`` hold what those samples cost. One
    more sample is taken on entry and one on exit, outside the timed
    interval, so that even a body shorter than the period has a speed.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.wall, self.cpu = [], []
        self.inside_wall = self.inside_cpu = 0.0
        self.elapsed = None
        self._previous = None
        self._start = None

    def _sample(self) -> tuple[float, float]:
        w0, c0 = time.perf_counter(), time.process_time()
        kernel()
        w, c = time.perf_counter() - w0, time.process_time() - c0
        self.wall.append(w)
        self.cpu.append(c)
        return w, c

    def _fire(self, signum, frame) -> None:
        w, c = self._sample()
        if self.elapsed is not None:
            return  # the signal was pending when the timed interval closed
        self.inside_wall += w
        self.inside_cpu += c

    def __enter__(self):
        kernel()  # warm-up, not recorded
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        self._start = (time.perf_counter(), time.process_time())
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.elapsed = (time.perf_counter() - self._start[0],
                        time.process_time() - self._start[1])
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def summary(self) -> dict:
        """The body's times without the probe's share, raw and normed, and the probe's mean."""
        wall, cpu = self.elapsed
        probe_wall, probe_cpu = statistics.fmean(self.wall), statistics.fmean(self.cpu)
        return {"wall_s": wall - self.inside_wall, "cpu_s": cpu - self.inside_cpu,
                "wall_norm_s": normed(wall, self.inside_wall, probe_wall),
                "cpu_norm_s": normed(cpu, self.inside_cpu, probe_cpu),
                "probe_ms": 1e3 * probe_wall}


def normed(elapsed: float, inside: float, probe_mean: float) -> float:
    """``elapsed`` without the probe's own share, in seconds at nominal kernel speed."""
    return (elapsed - inside) * NOMINAL_S / probe_mean
