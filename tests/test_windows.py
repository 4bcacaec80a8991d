from __future__ import annotations

import numpy as np

from hharm.restriction import SigmaMeasure
from hharm.windows import ball_profile, bump, ring_profile, smooth_step


def test_smooth_step_endpoints_and_monotone():
    t = np.linspace(-1.0, 2.0, 301)
    v = smooth_step(t)
    assert np.all(v[t <= 0] == 0.0)
    assert np.all(v[t >= 1] == 1.0)
    mid = v[(t > 0) & (t < 1)]
    assert np.all(np.diff(mid) >= 0)  # rounds to the plateau just inside t=1
    core = v[(t > 0.1) & (t < 0.9)]
    assert np.all(np.diff(core) > 0)
    assert abs(smooth_step(np.array([0.5]))[0] - 0.5) < 1e-15


def test_ball_profile_plateau_and_support():
    x = np.linspace(-3.0, 3.0, 601)
    v = ball_profile(x)
    assert np.all(v[np.abs(x) <= 0.5] == 1.0)
    assert np.all(v[np.abs(x) >= 1.0] == 0.0)
    assert np.array_equal(v, ball_profile(-x))  # even


def test_ring_profile_plateau_and_support():
    x = np.linspace(0.0, 1.5, 601)
    v = ring_profile(x)
    on = (x >= 3.0 / 8.0) & (x <= 3.0 / 4.0)
    assert np.all(v[on] == 1.0)
    assert np.all(v[x <= 0.25] == 0.0)
    assert np.all(v[x >= 1.0] == 0.0)


def test_bump_support_and_peak():
    x = np.linspace(0.0, 4.0, 2001)
    v = bump(x, 1.0, 3.0)
    assert np.all(v[(x <= 1.0) | (x >= 3.0)] == 0.0)
    assert np.all(v[(x > 1.0) & (x < 3.0)] > 0.0)
    k = np.argmax(v)
    assert abs(x[k] - 2.0) < 2e-3  # peak value 1 at the midpoint
    assert abs(v[k] - 1.0) < 1e-12


def test_sigma_measure_default_window_is_ball_profile():
    """The paraboloid measure's default window is `ball_profile` itself (its
    one-line wrapper is gone)."""
    assert SigmaMeasure().window is ball_profile
