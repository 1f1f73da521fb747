"""Round times rescaled to the host's quiet speed, for ``wall_s``.

The benchmark host is shared.  Other tenants slow a run down by up to 2x,
in spells that last from a fraction of a second to minutes, so the raw
time of identical work spreads by 20-45 % between runs, and the median of
a set of runs moves by as much between one set and the next.  A slow spell
only ever lengthens a call.  So the clock times every call of the
``numpy.fft`` and ``scipy.fft`` entry points, keyed by entry point, input
shape and dtype, and keeps the fastest time of each key seen in the run:
that is the key's time on a quiet host.  A round's slowdown is its FFT time
over the quiet time of the same calls, and its quiet time is its wall time
divided by that slowdown.  This assumes the rest of the round slows down as
much as its FFTs do; on repeated identical rounds it cuts the spread from
0.16-0.38 to 0.02-0.07 (see README.md).

Each timed call adds about a microsecond.  The quiet times read well below
any raw round time, because the fastest call of a key is a best case.
"""

from __future__ import annotations

import functools
import time

FFT_ENTRY_POINTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
                    "hfft", "ihfft")


def wrap_fft_entry_points(wrap):
    """Replace each FFT entry point ``fn`` named ``name`` of ``numpy.fft``
    and ``scipy.fft`` by ``wrap(name, fn)``."""
    import numpy.fft
    import scipy.fft
    for module in (numpy.fft, scipy.fft):
        for name in FFT_ENTRY_POINTS:
            if hasattr(module, name):
                setattr(module, name, wrap(name, getattr(module, name)))


class FftClock:
    """Times every FFT call, per key, for ``slowdown``."""

    def __init__(self):
        self.fastest: dict[tuple, float] = {}
        self.calls: dict[tuple, list] = {}  # key -> [calls, seconds] this round

    def install(self):
        wrap_fft_entry_points(self._timed)

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def timed(x, *args, **kwargs):
            t0 = time.perf_counter()
            out = fn(x, *args, **kwargs)
            dt = time.perf_counter() - t0
            key = (name, getattr(x, "shape", None), getattr(x, "dtype", None))
            if args or kwargs:  # axes, n, workers: they change the cost
                key += (repr(args), repr(sorted(kwargs.items())))
            seen = self.calls.get(key)
            if seen is None:
                self.calls[key] = [1, dt]
            else:
                seen[0] += 1
                seen[1] += dt
            if dt < self.fastest.get(key, float("inf")):
                self.fastest[key] = dt
            return out
        return timed

    def take_round(self) -> dict[tuple, list]:
        """The FFT calls since the last call of this method."""
        calls, self.calls = self.calls, {}
        return calls

    def slowdown(self, calls: dict[tuple, list]) -> float:
        """FFT time of ``calls`` over their time at each key's fastest; 1.0
        for a round without FFTs."""
        quiet = sum(n * self.fastest[key] for key, (n, _) in calls.items())
        return sum(s for _, s in calls.values()) / quiet if quiet > 0.0 else 1.0

