"""Fast-slow geometry diagnostics of the forced bistable oscillator.

Closed-form and semi-analytic quantities: roots of the cubic critical
manifold, fold existence and static phase offset, fold sweep rate,
slow-passage delay scaling, hazard-window width, and the contraction
multiplier of the deterministic periodic orbit over one forcing period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from .base import ConvergenceError, require
from .features import assign_extremum
from .sim import ConstantAmplitude, DivergenceError, SimConfig, simulate

FOLD_FORCING_VALUE = 2.0 / 3.0
_ROOT_RESIDUAL_TOL = 1.0e-10
_ROOT_MERGE_TOL = 1.0e-7
_FLOQUET_TRANSIENT_PERIODS = 5
_FLOQUET_TOL = 1.0e-9
_FLOQUET_MAX_PERIODS = 64


@dataclass(frozen=True)
class FoldInfo:
    exists: bool
    fold_forcing_value: float
    static_phase_offset: Optional[float]


@dataclass(frozen=True)
class FloquetEstimate:
    """Contraction over one period; orbit is the periodic path x(i dt), i = 0 .. steps."""

    multiplier: float
    log_multiplier: float
    periods_integrated: int
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
# critical manifold
# --------------------------------------------------------------------------

def _cubic_roots_shifted(c: float) -> List[float]:
    """Real roots of x - x^3/3 + c = 0 (equivalently x^3 - 3x - 3c = 0)."""
    arg = 1.5 * c
    if abs(arg) <= 1.0:
        # three-real-root (or tangent) regime: trigonometric form
        phase = math.acos(max(-1.0, min(1.0, arg)))
        return [2.0 * math.cos(phase / 3.0 - 2.0 * math.pi * k / 3.0) for k in range(3)]
    # one real root: Cardano with real cube roots
    disc = math.sqrt(arg * arg - 1.0)
    u = math.copysign(abs(arg + disc) ** (1.0 / 3.0), arg + disc)
    v = math.copysign(abs(arg - disc) ** (1.0 / 3.0), arg - disc)
    return [u + v]


def critical_manifold_roots(s: float, d_a: float) -> List[float]:
    """Sorted real solutions x of x - x^3/3 + d_a cos(s) = 0."""
    require(d_a >= 0.0, "d_a must be >= 0")
    c = d_a * math.cos(s)
    roots = _cubic_roots_shifted(c)
    polished = []
    for x in roots:
        for _ in range(4):  # Newton polish; skipped near the fold double root
            fp = 1.0 - x * x
            if abs(fp) < 1.0e-6:
                break
            step = (x - x ** 3 / 3.0 + c) / fp
            x -= step
            if abs(step) < 1.0e-14:
                break
        polished.append(x)
    polished.sort()
    merged = []
    for x in polished:
        if merged and abs(x - merged[-1]) < _ROOT_MERGE_TOL:
            continue
        merged.append(x)
    for x in merged:
        residual = abs(x - x ** 3 / 3.0 + c)
        if not residual < _ROOT_RESIDUAL_TOL:
            raise ConvergenceError(
                f"critical manifold root {x!r} at s={s!r}, d_a={d_a!r} has "
                f"residual {residual:.3g}")
    return merged


def fold_info(d_a: float) -> FoldInfo:
    """Fold existence (d_a >= 2/3) and the static extremum-to-fold offset."""
    require(d_a > 0.0, "d_a must be > 0")
    exists = d_a >= FOLD_FORCING_VALUE
    offset = None
    if exists:
        offset = -math.acos(min(1.0, 2.0 / (3.0 * d_a)))
    return FoldInfo(exists=exists, fold_forcing_value=FOLD_FORCING_VALUE,
                    static_phase_offset=offset)


def fold_sweep_rate(d_a: float, omega: float) -> float:
    """Speed of the forcing through the fold value: d_a omega sqrt(1 - 4/(9 d_a^2))."""
    require(d_a >= FOLD_FORCING_VALUE, "no fold below the threshold amplitude")
    require(omega > 0.0, "omega must be > 0")
    rad = max(0.0, 1.0 - 4.0 / (9.0 * d_a * d_a))
    return d_a * omega * math.sqrt(rad)


def predicted_delay_phase(d_a: float, omega: float, c: float = 1.0) -> float:
    """Slow-passage delay phase C omega^(2/3) (d_a sqrt(1 - 4/(9 d_a^2)))^(-1/3)."""
    require(d_a > FOLD_FORCING_VALUE, "delay law needs d_a strictly above the fold value")
    require(omega > 0.0 and c > 0.0, "omega and c must be > 0")
    base = d_a * math.sqrt(1.0 - 4.0 / (9.0 * d_a * d_a))
    return c * omega ** (2.0 / 3.0) * base ** (-1.0 / 3.0)


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
    theta = -math.acos(min(1.0, 2.0 / (3.0 * d_a)))
    t_fold = t_star + theta / omega
    return JumpDecomposition(psi=psi, theta=theta, phi_delay=psi - theta,
                             t_star=t_star, t_fold=t_fold, eta=int(eta))


# --------------------------------------------------------------------------
# Floquet multiplier of the deterministic periodic orbit
# --------------------------------------------------------------------------

def floquet_multiplier(config: SimConfig) -> FloquetEstimate:
    """Contraction of the deterministic orbit over one forcing period.

    Integrates the noise-free system period by period until, after the
    transient periods, the path is periodic to within _FLOQUET_TOL (sup
    norm over the grid), then evaluates
    mu = exp(integral of 1 - x(t)^2 over one period) by trapezoidal
    quadrature on the same grid.  Each period is one simulate call on
    the grid of the first period, started from the previous period's
    end state, so periodicity holds by construction in the phase
    argument.  The last period's path, found periodic, is kept as orbit.
    """
    require(config.sigma == 0.0, "Floquet estimate requires sigma = 0")
    require(isinstance(config.amplitude_schedule, ConstantAmplitude),
            "Floquet estimate requires a constant amplitude")
    require(config.amplitude_schedule.value > FOLD_FORCING_VALUE,
            "jumping orbit requires amplitude above the fold value")
    t_f = config.forcing_period
    steps = int(round(t_f / config.dt))
    require(abs(t_f / config.dt - steps) < 1.0e-6,
            "forcing period must be a whole number of steps")
    require(steps >= 2, "period must span at least 2 steps of dt")

    one_period = replace(config, t_total=steps * config.dt)
    x = config.x0
    prev = None
    for period in range(1, _FLOQUET_MAX_PERIODS + 1):
        try:
            cur = simulate(replace(one_period, x0=x), run_seed=0).x
        except DivergenceError as exc:
            raise ConvergenceError(
                "state diverged while seeking the periodic orbit") from exc
        if period > _FLOQUET_TRANSIENT_PERIODS and prev is not None:
            if float(np.max(np.abs(cur - prev))) < _FLOQUET_TOL:
                integrand = 1.0 - cur * cur
                log_mu = config.dt * (integrand.sum() - 0.5 * (integrand[0] + integrand[-1]))
                return FloquetEstimate(multiplier=math.exp(log_mu),
                                       log_multiplier=float(log_mu),
                                       periods_integrated=period, orbit=cur)
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
