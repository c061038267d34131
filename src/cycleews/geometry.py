"""Fast-slow geometry diagnostics of the forced bistable oscillator.

Closed-form and semi-analytic quantities: fold existence and static
phase offset, fold sweep rate, slow-passage delay scaling, hazard-window
width, the jump-phase decomposition, and the contraction multiplier of
the deterministic periodic orbit over one forcing period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional

import numpy as np

from .base import ConvergenceError, require
from .features import assign_extremum
from .sim import ConstantAmplitude, PathConsumer, SimConfig, iter_ensemble

FOLD_FORCING_VALUE = 2.0 / 3.0
_FLOQUET_TRANSIENT_PERIODS = 5
_FLOQUET_TOL = 1.0e-9
_FLOQUET_MAX_PERIODS = 64
# -a_1, minus the first zero of Ai: the escape time of y' = y^2 + t past t = 0
AIRY_FIRST_ZERO = 2.338107410459767
# |f''(x*)/2| of f(x) = x - x^3/3 at its folds x* = +-1, where f'' = -2x
FOLD_CURVATURE = 1.0


@dataclass(frozen=True)
class FoldInfo:
    exists: bool
    static_phase_offset: Optional[float]


@dataclass(frozen=True)
class FloquetEstimate:
    """Contraction over one period; orbit is the periodic path x(i dt), i = 0 .. steps.

    periods_integrated counts the periods the search integrated, one
    lone run each, and steps_integrated the steps they stepped: a later
    period stops where it rejoins the one before (see _PeriodPath).
    """

    multiplier: float
    log_multiplier: float
    periods_integrated: int
    steps_integrated: int
    orbit: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True)
class JumpDecomposition:
    """Phase bookkeeping for one jump: psi = theta + phi_delay exactly."""

    psi: float        # jump phase relative to the nearest forcing extremum
    theta: float      # extremum-to-fold offset, -arccos(2 / (3 d_a))
    phi_delay: float  # dynamic delay past the fold crossing
    t_star: float     # nearest extremum time
    t_fold: float     # fold-crossing time in the half-cycle before t_star
    eta: int          # +1 maximum / -1 minimum


# --------------------------------------------------------------------------
# folds of the critical manifold x - x^3/3 + d_a cos(s) = 0, slow passage
# --------------------------------------------------------------------------

def fold_info(d_a: float) -> FoldInfo:
    """Fold existence (d_a >= 2/3) and the static extremum-to-fold offset."""
    require(d_a > 0.0, "d_a must be > 0")
    exists = d_a >= FOLD_FORCING_VALUE
    offset = None
    if exists:
        offset = -math.acos(min(1.0, 2.0 / (3.0 * d_a)))
    return FoldInfo(exists=exists, static_phase_offset=offset)


def fold_sweep_rate(d_a: float, omega: float) -> float:
    """Speed of the forcing through the fold value: d_a omega sqrt(1 - 4/(9 d_a^2))."""
    require(d_a >= FOLD_FORCING_VALUE, "no fold below the threshold amplitude")
    require(omega > 0.0, "omega must be > 0")
    rad = max(0.0, 1.0 - 4.0 / (9.0 * d_a * d_a))
    return d_a * omega * math.sqrt(rad)


def predicted_delay_phase(d_a: float, omega: float) -> float:
    """Slow-passage delay phase -a_1 |f''(x*)/2|^(-1/3) omega beta^(-1/3) (Haberman 1979).

    beta is fold_sweep_rate; omega turns the escape time past the fold into a phase.
    """
    require(d_a > FOLD_FORCING_VALUE, "delay law needs d_a strictly above the fold value")
    beta = fold_sweep_rate(d_a, omega)
    return AIRY_FIRST_ZERO * FOLD_CURVATURE ** (-1.0 / 3.0) * omega * beta ** (-1.0 / 3.0)


def hazard_window_width(sigma: float, beta: float) -> float:
    """Width of the order-one escape-hazard window, sigma^(4/3) / beta."""
    require(beta > 0.0, "beta must be > 0")
    require(sigma >= 0.0, "sigma must be >= 0")
    return sigma ** (4.0 / 3.0) / beta


# --------------------------------------------------------------------------
# jump-phase decomposition
# --------------------------------------------------------------------------

def jump_phase_decomposition(t_jump: float, d_a: float, omega: float) -> JumpDecomposition:
    """Split a jump's extremum-relative phase into static offset plus delay.

    Requires d_a >= 2/3 at the jump so the fold time is defined.  By
    construction psi - (theta + phi_delay) vanishes to rounding error.
    """
    require(d_a >= FOLD_FORCING_VALUE, "decomposition requires a fold (d_a >= 2/3)")
    phi = math.fmod(omega * t_jump, 2.0 * math.pi)
    if phi < 0.0:
        phi += 2.0 * math.pi
    delta, eta = assign_extremum(phi)
    psi = float(delta)
    t_star = t_jump - psi / omega
    theta = fold_info(d_a).static_phase_offset
    t_fold = t_star + theta / omega
    return JumpDecomposition(psi=psi, theta=theta, phi_delay=psi - theta,
                             t_star=t_star, t_fold=t_fold, eta=int(eta))


# --------------------------------------------------------------------------
# Floquet multiplier of the deterministic periodic orbit
# --------------------------------------------------------------------------

class _PeriodPath(PathConsumer):
    """A Floquet period's path, stopped where it rejoins prev; result() is (path, steps).

    prev, the period before (None for the first), steps through the same
    g_k from another start state, so once the last sample of a fed chunk
    has prev's bits at its index (compared as int64: -0.0 and 0.0
    differ), so do all later ones: feed copies the rest from prev and
    returns True.
    """

    def __init__(self, n_steps: int, prev: Optional[np.ndarray]):
        super().__init__(n_steps)
        self._prev = prev

    def feed(self, samples) -> bool:
        super().feed(samples)
        end, prev = self.n_fed, self._prev
        if prev is None or self.x.view(np.int64)[end - 1] != prev.view(np.int64)[end - 1]:
            return False
        self.x[end:] = prev[end:]
        return True

    def result(self):
        return self.x, self.n_fed - 1


def floquet_multiplier(config: SimConfig) -> FloquetEstimate:
    """Contraction of the deterministic orbit over one forcing period.

    Integrates the noise-free system period by period, each period a
    lone run (iter_ensemble) of t_total = config.forcing_period (a whole
    number of dt steps, at least 2, by SimConfig's rule) started from
    the previous period's end state, so periodicity holds by
    construction in the phase argument.  The search ends at the first
    period whose path ends on its own start state's bits (-0.0 and 0.0
    differ): at sigma = 0 a period is a pure function of its start
    state, so that path is also the path of every later period.
    Otherwise it ends once, after the transient periods, the path is
    periodic to within _FLOQUET_TOL (sup norm over the grid).  It then
    evaluates mu = exp(integral of 1 - x(t)^2 over one period) by
    trapezoidal quadrature on the same grid, from the last period's
    path, kept as orbit.  A later period stops at the first lone-run
    chunk end where it rejoins the period before (_PeriodPath).  The
    search holds two period paths, the last and the one before, whose
    buffer takes the sup distance and the integrand once spent.  No
    period draws noise, so the run seed iter_ensemble derives goes
    unused.  A diverged period raises ConvergenceError.
    """
    require(config.sigma == 0.0, "Floquet estimate requires sigma = 0")
    require(isinstance(config.amplitude_schedule, ConstantAmplitude),
            "Floquet estimate requires a constant amplitude")
    require(config.amplitude_schedule.value > FOLD_FORCING_VALUE,
            "jumping orbit requires amplitude above the fold value")
    one_period = replace(config, t_total=config.forcing_period)
    require(one_period.n_steps >= 2, "period must span at least 2 steps of dt")
    x, prev, stepped = config.x0, None, 0
    for period in range(1, _FLOQUET_MAX_PERIODS + 1):
        (res,) = iter_ensemble(replace(one_period, x0=x), 1,
                               consumer=partial(_PeriodPath, one_period.n_steps, prev))
        if res.error is not None:
            raise ConvergenceError(
                "state diverged while seeking the periodic orbit") from res.error
        cur, steps = res.value
        stepped += steps
        first, last = cur[[0, -1]].view(np.int64)
        # prev is spent once cur is in hand, so its buffer takes |cur - prev| and
        # then the integrand (if the first period already repeats, out=None allocates)
        if last == first or (period > _FLOQUET_TRANSIENT_PERIODS and float(np.max(
                np.abs(np.subtract(cur, prev, out=prev), out=prev))) < _FLOQUET_TOL):
            integrand = np.multiply(cur, cur, out=prev)
            np.subtract(1.0, integrand, out=integrand)
            log_mu = config.dt * (integrand.sum() - 0.5 * (integrand[0] + integrand[-1]))
            return FloquetEstimate(multiplier=math.exp(log_mu), log_multiplier=float(log_mu),
                                   periods_integrated=period, steps_integrated=stepped,
                                   orbit=cur)
        prev = cur
        x = float(cur[-1])
    raise ConvergenceError(
        f"no periodic orbit to tol={_FLOQUET_TOL} within {_FLOQUET_MAX_PERIODS} periods")


def diagnostics_record(d_a: float, omega: float,
                       log_floquet: Optional[float] = None) -> dict:
    """JSON-ready diagnostic row for one (d_a, omega) pair."""
    info = fold_info(d_a)
    return {
        "d_a": d_a,
        "omega": omega,
        "fold_exists": info.exists,
        "static_phase_offset": info.static_phase_offset,
        "beta": fold_sweep_rate(d_a, omega) if info.exists else None,
        "log_floquet": log_floquet,
    }
