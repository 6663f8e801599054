"""Empirical checks of the boundary-perturbation asymptotics.

Covers three claims: the off-circle root at finite n converges
geometrically to its asymptotic limit, the signed deviation of the root
(and its eigenvalue) is -sgn(a+e), and the cotangent branch function
g(phi) = cot(n phi) sin(phi) - B cos(phi) decreases on every branch
whenever B = (e-a)/(e+a) <= 1.

The deviation y(n) - y0 shrinks like kappa^{-n}, far below the rounding
of y0 for moderate n, so it is solved for directly: charpoly's Newton
loop, the one compute_spectrum runs, iterates on the deviation itself
and keeps its relative digits down to the float underflow threshold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from .charpoly import (_BLOCK, _off_circle_newton, _on_a_plus_e_line,
                       _special_seeds, eval_cotangent_residual)
from .errors import (DomainError, NoConvergence, NotApplicable,
                     UnitCircleCollapse)
from .model import SystemParams, _integer

DEVIATION_FLOOR = 1e-14        # double-precision fit floor
REAL_SEED_TOL = 1e-12
SAMPLE_MARGIN = 1e-6           # fraction of branch width kept off the poles


@dataclass(frozen=True)
class ConvergenceReport:
    n_values: List[int]
    deviations: List[float]       # |y(n) - y0|, NaN where refinement failed
    fitted_rate: float            # kappa-hat, per-unit-n geometric ratio
    r_squared: float              # quality of the log-linear fit
    r_expected: float             # |y0|
    sign_pattern: List[int]       # sgn(r(n) - r0), 0 where unavailable

    def as_dict(self):
        return {
            "n_values": list(self.n_values),
            "deviations": list(self.deviations),
            "fitted_rate": self.fitted_rate,
            "r_squared": self.r_squared,
            "r_expected": self.r_expected,
            "sign_pattern": list(self.sign_pattern),
        }


@dataclass(frozen=True)
class MonotonicityReport:
    branch: int
    sample_count: int
    violations: List[Tuple[float, float]]   # (phi, finite-difference slope)
    B: float

    def as_dict(self):
        return {
            "branch": self.branch,
            "sample_count": self.sample_count,
            "violations": [[phi, slope] for phi, slope in self.violations],
            "B": self.B,
        }


def _deviation(p: SystemParams, n: int, y0: complex):
    """|y(n) - y0| and sgn(r(n) - r0) (0 for a complex pair), from
    charpoly's Newton loop on delta = y(n) - y0: r = sqrt(ac) (y + 1/y),
    so r(n) - r0 is sqrt(ac) > 0 times delta (1 - 1/(y0 y(n))).  Where
    delta underflows to 0, the sign is that of its first-order term
    -tail(y0) y0^(-2n) / (2 a y0 - d tau), |y0|^(-2n) left out.  At an
    exact double root y0 of the quadratic that term is 0/0: the pair
    delta = +-sqrt(-tail(y0)/a) y0^(-n) straddles y0, so its size is
    formed in logs and the sign is 0."""
    delta = _off_circle_newton(p, n, y0, 0j)
    dt = p.d * p.tau
    if delta:
        diff = delta * (1 - 1 / (y0 * (y0 + delta)))
    elif 2 * p.a * y0 == dt:
        tail = abs(p.e * y0 * y0 + dt * y0 - p.a) / p.a
        return (math.exp(math.log(tail) / 2 - n * math.log(abs(y0)))
                if tail else 0.0), 0
    else:
        diff = ((p.a - p.e * y0 * y0 - dt * y0) / (2 * p.a * y0 - dt)
                * (y0 / abs(y0)) ** (-2 * n) * (1 - 1 / (y0 * y0)))
    sign = 0 if abs(diff.imag) > abs(diff.real) else int(np.sign(diff.real))
    return abs(delta), sign


def _off_circle_seed(p: SystemParams):
    """The first off-circle quadratic seed (y_plus where both are); None
    if there is none or a + e = 0."""
    seeds = [] if _on_a_plus_e_line(p) else _special_seeds(p)
    return seeds[0] if seeds else None


def track_root_convergence(p: SystemParams, n_values: Sequence[int],
                           deviation_floor: float = DEVIATION_FLOOR,
                           ) -> ConvergenceReport:
    """Refine the off-circle root at each n and fit the geometric decay
    rate of |y(n) - y0| by least squares on the log-deviations.

    Only converged entries with deviation above `deviation_floor` enter
    the fit, and only where they hold two distinct n; else the rate and
    r_squared are NaN.  The default floor is the double-precision
    rounding of y0; the deviations keep their relative digits far below
    it, down to the float underflow threshold (about 1e-308), so callers
    probing that regime can lower it.
    """
    try:
        n_values = sorted(_integer(n, "n") for n in n_values)
    except TypeError as ex:  # not iterable
        raise DomainError(
            f"n_values must be a sequence of integers: {ex}") from None
    if not n_values:
        raise DomainError("n_values must not be empty")
    replace(p, n=n_values[0])  # DimensionTooSmall below 2, as make_params
    seed = _off_circle_seed(p)
    if seed is None:
        return ConvergenceReport(n_values, [math.nan] * len(n_values),
                                 math.nan, math.nan, math.nan,
                                 [0] * len(n_values))
    deviations, signs = [], []
    for n in n_values:
        try:
            deviation, sign = _deviation(p, n, seed)
        except (NoConvergence, UnitCircleCollapse):
            deviation, sign = math.nan, 0
        deviations.append(deviation)
        signs.append(sign)
    usable = [(n, dev) for n, dev in zip(n_values, deviations)
              if math.isfinite(dev) and dev > deviation_floor]
    if len({n for n, _ in usable}) >= 2:
        ns = np.array([u[0] for u in usable], dtype=float)
        logs = np.log([u[1] for u in usable])
        slope, intercept = np.polyfit(ns, logs, 1)
        fitted_rate = float(np.exp(-slope))
        pred = slope * ns + intercept
        ss_res = float(np.sum((logs - pred) ** 2))
        ss_tot = float(np.sum((logs - logs.mean()) ** 2))
        r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    else:
        fitted_rate = math.nan
        r_squared = math.nan
    return ConvergenceReport(n_values, deviations, fitted_rate, r_squared,
                             abs(seed), signs)


def perturbation_sign(p: SystemParams, n: int) -> int:
    """sgn(r(n) - r0) for the tracked real off-circle root; the theory
    predicts -sgn(a+e) for n above the regime threshold.  0 where the
    quadratic's double root seeds a pair that straddles it (_deviation)."""
    n = _integer(n, "n")
    replace(p, n=n)  # DimensionTooSmall below 2, as make_params
    if _on_a_plus_e_line(p):
        raise NotApplicable("a+e=0: the deviation sign is undefined")
    seed = _off_circle_seed(p)
    if seed is None:
        raise NotApplicable("regime has no off-circle root")
    if abs(seed.imag) > REAL_SEED_TOL * abs(seed):
        raise NotApplicable("off-circle pair is complex; no real ordering")
    return _deviation(p, n, seed)[1]


def branch_function(p: SystemParams, n: int, phi: float) -> float:
    """g(phi) = cot(n phi) sin(phi) - B cos(phi), B=(e-a)/(e+a): the
    cotangent residual at dimension n plus its constant d tau/(e+a)."""
    return (eval_cotangent_residual(replace(p, n=_integer(n, "n")), phi)
            + p.d * p.tau / (p.e + p.a))


def verify_branch_monotonicity(p: SystemParams, n: int,
                               samples_per_branch: int = 200,
                               ) -> List[MonotonicityReport]:
    """Sample g on the interior of every branch ((l-1)pi/n, l pi/n) and
    record adjacent increases; no violations certifies the sampled
    decreasing claim (expected whenever B <= 1).  g is sampled through
    the cotangent residual, which differs from it by a constant, one
    array per block of branches."""
    if _on_a_plus_e_line(p):
        raise NotApplicable("B is undefined at e+a=0")
    n = _integer(n, "n")
    samples_per_branch = _integer(samples_per_branch, "samples_per_branch")
    if samples_per_branch < 2:
        raise DomainError(f"samples_per_branch={samples_per_branch} < 2")
    q = p if n == p.n else replace(p, n=n)
    B = (p.e - p.a) / (p.e + p.a)
    width = math.pi / n
    reports = []
    for first in range(1, n + 1, _BLOCK):
        ell = np.arange(first, min(first + _BLOCK, n + 1))
        phis = np.linspace((ell - 1) * width + SAMPLE_MARGIN * width,
                           ell * width - SAMPLE_MARGIN * width,
                           samples_per_branch, axis=1)
        rise = np.diff(eval_cotangent_residual(q, phis), axis=1)
        slope = rise / np.diff(phis, axis=1)
        for row, branch in enumerate(ell.tolist()):
            k = np.flatnonzero(rise[row] > 0)
            reports.append(MonotonicityReport(
                branch, samples_per_branch,
                list(zip(phis[row, k].tolist(), slope[row, k].tolist())), B))
    return reports
