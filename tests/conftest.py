"""Fixtures shared by several test modules."""

import numpy as np
import pytest
import scipy.fft

from helpers import FFT_ENTRY_POINTS


@pytest.fixture
def fft_count(monkeypatch):
    """Calls and transformed points of every numpy.fft/scipy.fft entry point,
    and the widest leading batch (components) of any call over two axes."""
    count = {"calls": 0, "points": 0, "widest_2d": 0}
    for module in (np.fft, scipy.fft):
        for name in FFT_ENTRY_POINTS:
            fn = getattr(module, name, None)
            if fn is None:
                continue

            def counted(x, *args, _fn=fn, **kwargs):
                shape = np.shape(x)
                count["calls"] += 1
                count["points"] += int(np.prod(shape))
                if len(kwargs.get("axes") or ()) == 2:
                    count["widest_2d"] = max(count["widest_2d"], int(np.prod(shape[:-2])))
                return _fn(x, *args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    return count
