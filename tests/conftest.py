import math
import multiprocessing.pool

import numpy as np
import pytest
from hypothesis import settings

from cycleews import ConstantAmplitude, DetectorConfig, SimConfig, simulate

# CI runs with --hypothesis-profile=ci, so a failing example reproduces
settings.register_profile("ci", derandomize=True)


@pytest.fixture(scope="session")
def relaxation_run():
    """Deterministic jumping orbit: sigma=0, constant amplitude 1.2, 11 periods."""
    config = SimConfig(dt=0.01, t_total=225.0 * 11, forcing_period=225.0,
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
def lone_run_steps(monkeypatch):
    """Steps of each chunk a lone run steps (sim._step_floats) while the test runs."""
    from cycleews import sim
    steps, step = [], sim._step_floats

    def counting(xs, c1, c2):
        steps.append(xs.shape[1] - 1)
        step(xs, c1, c2)

    monkeypatch.setattr(sim, "_step_floats", counting)
    return steps


@pytest.fixture
def detector():
    return DetectorConfig()


def make_trajectory(x, dt=1.0):
    """Synthetic trajectory around a hand-built state array."""
    from cycleews import Trajectory
    return Trajectory(np.asarray(x, dtype=float), dt, 0)


def sample_variance(y: np.ndarray) -> float:
    """Plain estimator: the mean squared deviation from the mean."""
    d = y - y.mean()
    return float((d * d).mean())


def lag1_autocorrelation(y: np.ndarray) -> float:
    """AC1 = sum (y_i - ybar)(y_{i+1} - ybar) / sum (y_i - ybar)^2; NaN for constant y."""
    d = y - y.mean()
    den = float((d * d).sum())
    if den == 0.0:
        return math.nan
    return float((d[:-1] * d[1:]).sum() / den)
