"""Empirical checks of the boundary-perturbation asymptotics.

Covers three claims: the off-circle root at finite n converges
geometrically to its asymptotic limit, the signed deviation of the root
(and its eigenvalue) is -sgn(a+e), and the cotangent branch function
g(phi) = cot(n phi) sin(phi) - B cos(phi) decreases on every branch
whenever B = (e-a)/(e+a) <= 1.

The deviation |y(n) - y0| shrinks like kappa^{-n}, far below double
precision for moderate n, so root refinement here runs in mpmath with
working precision scaled to n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import mpmath as mp
import numpy as np

from .errors import DomainError, NoConvergence, NotApplicable
from .model import SystemParams

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


def _mp_seed(p: SystemParams, target: complex):
    """The quadratic root y_pm, in working precision, nearest `target`
    (the regime's chosen double-precision seed)."""
    a, d, e = mp.mpf(p.a), mp.mpf(p.d), mp.mpf(p.e)
    tau = mp.sqrt(mp.mpf(p.a) / mp.mpf(p.c))
    disc = d * d * tau * tau + 4 * a * e
    root = mp.sqrt(mp.mpc(disc))
    if root.real < 0:
        root = -root
    y_plus = (d * tau + root) / (2 * a)
    y_minus = (d * tau - root) / (2 * a)
    return min((y_plus, y_minus), key=lambda y: abs(y - mp.mpc(target)))


def _mp_refine(p: SystemParams, n: int, seed, max_iter: int = 200):
    """Newton on f(y)/y^(2n) = (a y^2 - d tau y - e)
    + (e y^2 + d tau y - a) y^(-2n), in the current mpmath precision."""
    a, d, e = mp.mpf(p.a), mp.mpf(p.d), mp.mpf(p.e)
    tau = mp.sqrt(mp.mpf(p.a) / mp.mpf(p.c))
    y = mp.mpc(seed)
    tol = mp.mpf(10) ** (8 - mp.mp.dps)
    for _ in range(max_iter):
        inv = y ** (-2 * n)
        head = a * y * y - d * tau * y - e
        tail = e * y * y + d * tau * y - a
        g = head + tail * inv
        dg = (2 * a * y - d * tau + (2 * e * y + d * tau) * inv
              - 2 * n * tail * inv / y)
        if dg == 0:
            raise NoConvergence("Newton derivative vanished")
        step = g / dg
        y -= step
        if abs(y) <= 1:
            raise NoConvergence(
                f"iterate fell onto the unit circle at n={n}")
        if abs(step) <= tol * max(1, abs(y)):
            return y
    raise NoConvergence(f"no off-circle root found at n={n}")


def _working_dps(p: SystemParams, n_max: int, seed_modulus: float) -> int:
    growth = 2 * n_max * math.log10(max(seed_modulus, 1.0 + 1e-9))
    return max(50, int(growth) + 40)


def _regime_seed(p: SystemParams):
    """The regime's preferred off-circle quadratic seed, or None."""
    from .spectrum import classify_regime, _special_seeds
    regime = classify_regime(p)
    if regime.theorem == "P31":
        return None
    # table order lists y_plus first where both occur
    seeds = [s for s in _special_seeds(p, regime) if abs(s) > 1 + 1e-9]
    return seeds[0] if seeds else None


def track_root_convergence(p: SystemParams, n_values: Sequence[int],
                           deviation_floor: float = DEVIATION_FLOOR,
                           ) -> ConvergenceReport:
    """Refine the off-circle root at each n and fit the geometric decay
    rate of |y(n) - y0| by least squares on the log-deviations.

    Only converged entries with deviation above `deviation_floor` enter
    the fit; the default floor matches double precision, callers probing
    the extended-precision regime can lower it.
    """
    n_values = sorted(int(n) for n in n_values)
    if not n_values:
        raise DomainError("n_values must not be empty")
    seed = _regime_seed(p)
    if seed is None:
        return ConvergenceReport(n_values, [math.nan] * len(n_values),
                                 math.nan, math.nan, math.nan,
                                 [0] * len(n_values))
    sqrt_ac = mp.sqrt(mp.mpf(p.a) * mp.mpf(p.c))
    deviations: List[float] = []
    signs: List[int] = []
    with mp.workdps(_working_dps(p, n_values[-1], abs(seed))):
        y0 = _mp_seed(p, seed)
        r0 = sqrt_ac * (y0 + 1 / y0)
        for n in n_values:
            try:
                y1 = _mp_refine(p, n, y0)
            except NoConvergence:
                deviations.append(math.nan)
                signs.append(0)
                continue
            deviations.append(float(abs(y1 - y0)))
            diff = sqrt_ac * (y1 + 1 / y1) - r0
            if abs(mp.im(diff)) > abs(mp.re(diff)):
                signs.append(0)      # complex pair: sign undefined
            else:
                signs.append(int(mp.sign(mp.re(diff))))
        r_expected = float(abs(y0))
    usable = [(n, dev) for n, dev in zip(n_values, deviations)
              if math.isfinite(dev) and dev > deviation_floor]
    if len(usable) >= 2:
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
                             r_expected, signs)


def perturbation_sign(p: SystemParams, n: int) -> int:
    """sgn(r(n) - r0) for the tracked real off-circle root; the theory
    predicts -sgn(a+e) for n above the regime threshold."""
    if p.a + p.e == 0:
        raise NotApplicable("a+e=0: the deviation sign is undefined")
    seed = _regime_seed(p)
    if seed is None:
        raise NotApplicable("regime has no off-circle root")
    if abs(seed.imag) > REAL_SEED_TOL * abs(seed):
        raise NotApplicable("off-circle pair is complex; no real ordering")
    with mp.workdps(_working_dps(p, n, abs(seed))):
        y0 = _mp_seed(p, seed)
        y1 = _mp_refine(p, n, y0)
        sqrt_ac = mp.sqrt(mp.mpf(p.a) * mp.mpf(p.c))
        diff = mp.re(sqrt_ac * ((y1 + 1 / y1) - (y0 + 1 / y0)))
    return int(mp.sign(diff))


def branch_function(p: SystemParams, n: int, phi: float) -> float:
    """g(phi) = cot(n phi) sin(phi) - B cos(phi), B=(e-a)/(e+a)."""
    B = (p.e - p.a) / (p.e + p.a)
    return (math.cos(n * phi) / math.sin(n * phi)) * math.sin(phi) \
        - B * math.cos(phi)


def verify_branch_monotonicity(p: SystemParams, n: int,
                               samples_per_branch: int = 200,
                               ) -> List[MonotonicityReport]:
    """Sample g on the interior of every branch ((l-1)pi/n, l pi/n) and
    record adjacent increases; no violations certifies the sampled
    decreasing claim (expected whenever B <= 1)."""
    if p.e + p.a == 0:
        raise NotApplicable("B is undefined at e+a=0")
    if samples_per_branch < 2:
        raise DomainError(f"samples_per_branch={samples_per_branch} < 2")
    B = (p.e - p.a) / (p.e + p.a)
    reports = []
    width = math.pi / n
    for ell in range(1, n + 1):
        lo = (ell - 1) * width + SAMPLE_MARGIN * width
        hi = ell * width - SAMPLE_MARGIN * width
        phis = np.linspace(lo, hi, samples_per_branch)
        vals = [branch_function(p, n, phi) for phi in phis]
        violations = []
        for i in range(len(phis) - 1):
            if vals[i + 1] > vals[i]:
                dphi = phis[i + 1] - phis[i]
                violations.append((float(phis[i]),
                                   (vals[i + 1] - vals[i]) / dphi))
        reports.append(MonotonicityReport(ell, samples_per_branch,
                                          violations, B))
    return reports
