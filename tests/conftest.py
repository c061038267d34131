import math
import multiprocessing.pool

import numpy as np
import pytest
from hypothesis import settings

from cycleews import ConstantAmplitude, DetectorConfig, SimConfig, simulate

OMEGA_225 = 2.0 * math.pi / 225.0

# CI runs with --hypothesis-profile=ci, so a failing example reproduces
settings.register_profile("ci", derandomize=True)


@pytest.fixture(scope="session")
def relaxation_run():
    """Deterministic jumping orbit: sigma=0, constant amplitude 1.2, 11 periods."""
    config = SimConfig(dt=0.01, t_total=225.0 * 11, omega=OMEGA_225,
                       amplitude_schedule=ConstantAmplitude(1.2), sigma=0.0, x0=1.0)
    return config, simulate(config, run_seed=0)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Worker counts of every process pool started while the test runs."""
    sizes = []

    class RecordingPool(multiprocessing.pool.Pool):
        def __init__(self, processes=None, *args, **kwargs):
            sizes.append(processes)
            super().__init__(processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool, "Pool", RecordingPool)
    return sizes


@pytest.fixture
def detector():
    return DetectorConfig()


def make_trajectory(x, dt=1.0):
    """Synthetic trajectory around a hand-built state array."""
    from cycleews import Trajectory
    x = np.asarray(x, dtype=float)
    t = np.arange(len(x)) * dt
    return Trajectory(t=t, x=x, d_a=np.ones_like(x), seed=0)
