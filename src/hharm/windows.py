"""Smooth cutoff profiles used by localizers, surface windows, and test data."""

import numpy as np

__all__ = ["smooth_step", "ball_profile", "ring_profile", "bump"]


def _s(t):
    # exp(-1/t) for t > 0, 0 otherwise; the usual C^infty glue
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def smooth_step(t):
    """C^infty step: 0 for t <= 0, 1 for t >= 1, strictly increasing between."""
    t = np.asarray(t, dtype=float)
    a = _s(t)
    b = _s(1.0 - t)
    return a / (a + b)


def ball_profile(x):
    """Even profile that is 1 on [0, 1/2] and 0 on [1, infty)."""
    x = np.abs(np.asarray(x, dtype=float))
    return 1.0 - smooth_step(2.0 * x - 1.0)


def ring_profile(x):
    """Profile supported in [1/4, 1], identically 1 on [3/8, 3/4]."""
    x = np.abs(np.asarray(x, dtype=float))
    return smooth_step(8.0 * (x - 0.25)) * (1.0 - smooth_step(4.0 * (x - 0.75)))


def bump(x, a, b):
    """C^infty bump supported on (a, b), normalized to peak value 1."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > a) & (x < b)
    xi = x[inside]
    half = (b - a) / 2.0
    out[inside] = np.exp(1.0 / half**2 - 1.0 / ((xi - a) * (b - xi)))
    return out
