"""Machine-speed probe that rescales the timed metrics.

This machine's speed drifts: the same campaign round, repeated in one
process, takes anywhere from 260 to 650 ms, and whole 20 s runs differ by
20% from one minute to the next. No statistic taken inside one run removes
drift that outlasts the run. So after each campaign the benchmark times a
fixed kernel of small numpy calls (eigh, eig, qr, svd, inv and matmul on
2x2 to 8x8 matrices of its own), the per-call mix hhverify spends its time
in, and rescales the run's wall-clock figures to the speed at which that
kernel takes ``REFERENCE_S``.

The speed of one core swings by about 10% from one second to the next, and
the two cores swing independently, so a sample measures only its own core
and moment. The benchmark therefore takes samples in proportion to the time
it measures (see ``PROBE_EVERY_S`` in ``run.py``) and rescales by their mean
over the whole run, which follows the drift that lasts minutes. The kernel
shares no code with hhverify, so a change to the program moves the rescaled
figures as it moves the raw ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# mean kernel time on the 2-core reference sandbox
REFERENCE_S = 0.0045


class SpeedProbe:
    def __init__(self):
        # fixed dense matrices; numpy.random stays unimported so it adds no memory
        self._mats = [
            np.sin(np.arange(1.0, n * n + 1.0) * (0.37 + k)).reshape(n, n)
            for n in (2, 3, 5, 8)
            for k in range(10)
        ]
        self.samples: list[float] = []

    def _kernel(self) -> float:
        acc = 0.0
        for m in self._mats:
            lam, v = np.linalg.eigh(m + m.T)
            _, r = np.linalg.qr(m)
            s = np.linalg.svd(m, compute_uv=False)
            w, u = np.linalg.eig(m @ m.T + np.eye(m.shape[0]))
            x = (v * np.exp(lam / 10.0)) @ v.T
            y = (u * np.power(w.real, 0.3)) @ np.linalg.inv(u)
            acc += float(np.max(np.abs(x - x.T))) + float(s[0]) + float(np.sum(np.sign(np.diag(r))))
            acc += float(np.real(np.trace(y)))
        return acc

    def sample(self) -> None:
        start = perf_counter()
        self._kernel()
        self.samples.append(perf_counter() - start)

    def slowdown(self) -> float:
        """How much slower than the reference this run's machine was (1 = same),
        as the mean over every sample taken."""
        return statistics.fmean(self.samples) / REFERENCE_S
