import math

import numpy as np
import pytest

from gbbmlab import Field, GroundState, critical_speed, dynamics, make_grid
from gbbmlab.functionals import _flow

L_DEFAULT = 50.0 * math.pi


@pytest.fixture(scope="session")
def periodic_4096():
    return make_grid(L_DEFAULT, 4096)


@pytest.fixture(scope="session")
def periodic_8192():
    return make_grid(L_DEFAULT, 8192)


@pytest.fixture(scope="session")
def gs5():
    return GroundState(5.0, critical_speed(5.0))


def smooth_random_field(grid, rng, modes=12, scale=1.0):
    """Random band-limited field: a handful of low wavenumber harmonics."""
    x = grid.nodes
    L = grid.half_width
    vals = np.zeros_like(x)
    for m in range(1, modes + 1):
        k = math.pi * m / L
        vals += rng.normal() * np.cos(k * x) + rng.normal() * np.sin(k * x)
    return Field(grid, scale * vals / modes)


def decaying_random_field(grid, rng, modes=8, width=6.0, scale=1.0):
    """Random smooth field localized around the origin (Gaussian envelope)."""
    f = smooth_random_field(grid, rng, modes, scale)
    env = np.exp(-(grid.nodes / width) ** 2)
    return Field(grid, f.values * env)


@pytest.fixture
def flow_calls(monkeypatch):
    """One entry per flow evaluation `dynamics` makes."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return _flow(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_flow", counted)
    return calls


@pytest.fixture
def transform_calls(monkeypatch):
    """One entry per `np.fft.rfft` or `np.fft.irfft` call, its name."""
    calls = []
    for name in ("rfft", "irfft"):
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
