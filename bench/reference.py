"""A fixed reference computation that measures the host's momentary speed.

On a shared host the same pass over a workload can take twice as long from
one minute to the next (measured on a 2-vCPU VM: 1.5 s to 3.3 s for one
``battery`` pass).  ``run.py`` times ``reference()`` between passes and
reports each pass's time as a multiple of the reference time next to it, so
that a slower host stretches both and the ratio stays put.

The work mirrors the program's own mix: vectorised trigonometry as in the
point evaluators, FFT derivatives as in the quadrature, a pairwise segment
block as in ``self_intersections``, and many small Python calls as in the
scan and cusp loops.  It depends on nothing in ``src/``, so a change to the
program cannot change it.  Do not edit it: results measured with different
references do not compare.
"""

import math

import numpy as np

N = 2048
_t = np.arange(N) * (2.0 * math.pi / N)
_k = 1j * np.fft.fftfreq(N, d=1.0 / N)


def _scalar(t):
    return math.hypot(2.0 * math.cos(t), math.sin(t))


def reference() -> float:
    acc = 0.0
    for j in range(240):
        ct, st = np.cos(_t + j), np.sin(_t + j)
        p = np.stack([2.0 * ct - 0.3 * st * st, st + 0.7 * ct * st], axis=-1)
        dx = np.fft.ifft(_k * np.fft.fft(p[:, 0])).real
        dy = np.fft.ifft(_k * np.fft.fft(p[:, 1])).real
        acc += float(np.sum(p[:, 0] * dy - p[:, 1] * dx))
    a = np.stack([np.cos(3 * _t[:512]), np.sin(2 * _t[:512])], axis=-1)
    d = np.roll(a, -1, axis=0) - a
    for _ in range(18):
        den = d[:, None, 0] * d[None, :, 1] - d[:, None, 1] * d[None, :, 0]
        r = a[None, :, :] - a[:, None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (r[..., 0] * d[None, :, 1] - r[..., 1] * d[None, :, 0]) / den
        acc += float(np.count_nonzero((s >= 0) & (s < 1)))
    for j in range(120000):
        acc += _scalar(j * 1e-3)
    return acc
