"""Scalar equations generating the spectrum, and their root finders.

Everything revolves around the degree-(2n+2) polynomial

    f(y) = (a y^2 - d tau y - e) y^(2n) + (e y^2 + d tau y - a),

whose non-trivial roots come in (y, 1/y) pairs and map to eigenvalues
r = sqrt(ac) (y + 1/y).  Roots on the unit circle y = exp(i phi) satisfy
the cotangent equation

    cot(n phi) sin(phi) = d tau / (e + a) + ((e - a)/(e + a)) cos(phi)

and are located branch by branch; roots off the circle are tracked by
Newton iteration from the quadratic seeds y+- of a y^2 - d tau y - e.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import (BranchPole, DomainError, NoConvergence,
                     UnitCircleCollapse, ZeroDenominator)
from .model import SystemParams

# |e+a| below this times a routes to the closed-form branch layout.
EPLUSA_THRESHOLD = 1e-12
# Pole guard at branch endpoints; divided by n when used.
ENDPOINT_DELTA = 1e-9
TOL_ROOT = 1e-12
CIRCLE_EPS = 1e-9
NEWTON_MAX_ITER = 100
POLE_TOL = 1e-12
# Branches per scan block; every temporary of the scan is O(_BLOCK).
_BLOCK = 2048
# Sign-change samples per branch, whatever the parameters.
SCAN_SAMPLES = 32


def _on_a_plus_e_line(p: SystemParams) -> bool:
    """Whether e + a = 0 to within EPLUSA_THRESHOLD * a, where the
    cotangent equation degenerates and the closed-form layout applies."""
    return abs(p.e + p.a) < EPLUSA_THRESHOLD * p.a


@dataclass(frozen=True)
class BranchRoot:
    """One unit-circle root of f, tagged by its branch index.

    ell is the branch index (1-based), phi the angle in (0, pi), and the
    eigenvalue equals 2 sqrt(ac) cos(phi).
    """

    ell: int
    phi: float
    eigenvalue: float


@dataclass(frozen=True)
class QuadraticRoots:
    """The two roots y+- of a y^2 - d tau y - e = 0.

    The square root is taken with non-negative real part, so for real
    discriminants y_plus carries the + branch.
    """

    y_plus: complex
    y_minus: complex


@dataclass(frozen=True)
class SpecialEigenEstimate:
    """Asymptotic special eigenvalues r+- (None where undefined)."""

    r_plus: Optional[complex]
    r_minus: Optional[complex]


def eval_polynomial(p: SystemParams, y: complex) -> complex:
    """Evaluate f(y) = (a y^2 - d tau y - e) y^(2n) + (e y^2 + d tau y - a).

    Vanishes exactly at every root of the eigenvalue equation (including
    the trivial roots y = +-1 when d tau = 0 and e = -a patterns allow).
    """
    y = complex(y)
    if y == 0:
        raise DomainError("y = 0 is outside the domain")
    a, d, e, tau, n = p.a, p.d, p.e, p.tau, p.n
    head = a * y * y - d * tau * y - e
    tail = e * y * y + d * tau * y - a
    return head * y ** (2 * n) + tail


def _scaled_poly_and_deriv(a, d, e, tau, n: int, y):
    """f(y)/y^(2n) and its derivative; safe for |y| > 1 at large n.
    Plain arithmetic, so mpmath numbers pass through unchanged."""
    head = a * y * y - d * tau * y - e
    tail = e * y * y + d * tau * y - a
    w = y ** (-2 * n)
    f = head + tail * w
    df = (2 * a * y - d * tau) + ((2 * e * y + d * tau) - 2 * n * tail / y) * w
    return f, df


def eval_cotangent_residual(p: SystemParams, phi):
    """LHS - RHS of the cotangent equation at the angle phi.

    phi is a float or an array of angles; a float gives a float and an
    array an array of the same shape.  A zero in branch ell certifies a
    BranchRoot.  Near phi = 0 or pi the product cot(n phi) sin(phi) is
    continued by its finite limit +-1/n.
    """
    a, d, e, tau, n = p.a, p.d, p.e, p.tau, p.n
    if _on_a_plus_e_line(p):
        raise ZeroDenominator("e + a = 0: use the closed-form branch layout")
    x = np.asarray(phi, dtype=float)
    s = np.sin(n * x)
    sphi = np.sin(x)
    cphi = np.cos(x)
    # sin(n phi) and sin(phi) vanish together only at phi = 0, pi, where the
    # product tends to cos(phi)/n; elsewhere it is a genuine pole.
    at_zero = np.abs(s) < POLE_TOL
    pole = at_zero & (np.abs(sphi) >= n * POLE_TOL)
    if pole.any():
        raise BranchPole(f"phi={x[pole].flat[0]} is at a pole of cot(n phi)")
    with np.errstate(divide="ignore", invalid="ignore"):
        lhs = np.where(at_zero, cphi / n, np.cos(n * x) / s * sphi)
    res = lhs - (d * tau / (e + a) + (e - a) / (e + a) * cphi)
    return float(res) if res.ndim == 0 else res


def quadratic_roots(p: SystemParams) -> QuadraticRoots:
    """Roots y+- = (d tau +- sqrt(d^2 tau^2 + 4 a e)) / (2a)."""
    a, d, e, tau = p.a, p.d, p.e, p.tau
    disc = d * d * tau * tau + 4 * a * e
    root = cmath.sqrt(complex(disc))  # non-negative real part for real disc
    y_plus = (d * tau + root) / (2 * a)
    y_minus = (d * tau - root) / (2 * a)
    if disc >= 0:
        y_plus, y_minus = complex(y_plus.real), complex(y_minus.real)
    return QuadraticRoots(y_plus=y_plus, y_minus=y_minus)


def special_eigen_estimates(p: SystemParams) -> SpecialEigenEstimate:
    """Asymptotic special eigenvalues.

    For e != 0:  r+- = ((1 - a/e) d +- (1 + a/e) sqrt(d^2 + 4ce)) / 2.
    For e = 0 the e -> 0 limits survive only on one side: r- = d + ac/d
    when d < 0, r+ = d + ac/d when d > 0, and neither when d = 0.
    """
    a, c, d, e = p.a, p.c, p.d, p.e
    if e == 0.0:
        if d > 0:
            return SpecialEigenEstimate(r_plus=complex(d + a * c / d),
                                        r_minus=None)
        if d < 0:
            return SpecialEigenEstimate(r_plus=None,
                                        r_minus=complex(d + a * c / d))
        return SpecialEigenEstimate(r_plus=None, r_minus=None)
    root = cmath.sqrt(complex(d * d + 4 * c * e))
    r_plus = 0.5 * ((1 - a / e) * d + (1 + a / e) * root)
    r_minus = 0.5 * ((1 - a / e) * d - (1 + a / e) * root)
    if d * d + 4 * c * e >= 0:
        r_plus, r_minus = complex(r_plus.real), complex(r_minus.real)
        if r_plus.real < r_minus.real:
            r_plus, r_minus = r_minus, r_plus
    return SpecialEigenEstimate(r_plus=r_plus, r_minus=r_minus)


def closed_form_branch_roots(p: SystemParams) -> List[BranchRoot]:
    """Branch layout for e + a = 0: phi_ell = pi ell / n, ell = 1..n-1."""
    out = []
    for ell in range(1, p.n):
        phi = math.pi * ell / p.n
        out.append(BranchRoot(ell=ell, phi=phi,
                              eigenvalue=2 * math.sqrt(p.a * p.c) * math.cos(phi)))
    return out


def _stationary_angles(p: SystemParams) -> List[float]:
    """The at most two angles in (0, pi) where F = n phi - arccot(R) is
    stationary, R = (C + B cos phi) / sin phi with C = d tau/(e+a) and
    B = (e-a)/(e+a).  A root on branch ell solves F = (ell-1) pi, so two
    roots on one branch enclose one of them.  F' = n - (B + C u) /
    (1 - u^2 + (C + B u)^2) with u = cos phi vanishes on a quadratic."""
    n = p.n
    B = (p.e - p.a) / (p.e + p.a)
    C = p.d * p.tau / (p.e + p.a)
    qa, qb, qc = n * (B * B - 1), (2 * n * B - 1) * C, n * (1 + C * C) - B
    disc = qb * qb - 4 * qa * qc
    if not (math.isfinite(qc) and disc >= 0):
        return []  # no real root, or |C| > 1e154 where F' = n - O(1/C)
    q = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
    u = [q / qa] if qa else []
    u += [qc / q] if q else []
    return sorted(math.acos(x) for x in u if -1 < x < 1)


def find_branch_roots(p: SystemParams) -> List[BranchRoot]:
    """All unit-circle roots, by sign-change scanning on each branch.

    Each branch I_ell = ((ell-1) pi/n, ell pi/n) is sampled at
    SCAN_SAMPLES + 1 evenly spaced points, and the sign changes of each
    block of _BLOCK branches are bisected together to adjacent doubles.
    A branch holds up to three roots when e < -a, and two of them can
    share a sample interval; they then straddle one of the at most two
    stationary angles of _stationary_angles, which splits that interval.
    The work is O(n) whatever the parameters: close to the line a + e = 0
    the roots crowd against the branch ends, where the scan can miss
    them, and the caller's root count then falls short.  Roots pinned at
    phi = 0 or pi (y = +-1) are never emitted.
    """
    n = p.n
    if _on_a_plus_e_line(p):
        return closed_form_branch_roots(p)
    delta = ENDPOINT_DELTA / n
    two_sqrt_ac = 2 * math.sqrt(p.a * p.c)
    scale = max(abs(p.a), abs(p.d * p.tau), abs(p.e), 1.0)
    stationary = _stationary_angles(p)

    out = []
    for first in range(1, n + 1, _BLOCK):
        ell = np.arange(first, min(first + _BLOCK, n + 1))
        lo = (ell - 1) * math.pi / n + delta
        hi = ell * math.pi / n - delta
        step = (hi - lo) / SCAN_SAMPLES
        # A root is where the residual changes sign (zero counts as
        # positive); the one between samples k and k+1 of branch i gets the
        # bracket number i * SCAN_SAMPLES + k.
        hits = []
        neg0 = eval_cotangent_residual(p, lo) < 0
        for k in range(SCAN_SAMPLES):
            neg1 = eval_cotangent_residual(p, lo + (k + 1) * step) < 0
            hits.append(np.flatnonzero(neg0 != neg1) * SCAN_SAMPLES + k)
            neg0 = neg1
        which, k = np.divmod(np.sort(np.concatenate(hits)), SCAN_SAMPLES)
        blo = lo[which] + k * step[which]
        bhi = lo[which] + (k + 1) * step[which]
        # An interval holding stationary angles is cut there; if the
        # pieces show more than one sign change, they replace its bracket.
        cuts = {}
        for phi in stationary:
            i = int(phi * n / math.pi) + 1 - first
            if 0 <= i < len(ell) and lo[i] < phi < hi[i]:
                j = min(int((phi - lo[i]) / step[i]), SCAN_SAMPLES - 1)
                cuts.setdefault((i, j), []).append(phi)
        for (i, j), cut in cuts.items():
            pts = np.r_[lo[i] + j * step[i], cut, lo[i] + (j + 1) * step[i]]
            neg = eval_cotangent_residual(p, pts) < 0
            change = np.flatnonzero(neg[1:] != neg[:-1])
            if len(change) > 1:
                rest = (which != i) | (k != j)
                which = np.r_[which[rest], [i] * len(change)]
                k = np.r_[k[rest], [j] * len(change)]
                blo = np.r_[blo[rest], pts[change]]
                bhi = np.r_[bhi[rest], pts[change + 1]]
        # sorted: ell ascending, phi ascending within a branch
        order = np.argsort(blo)
        which, blo, bhi = which[order], blo[order], bhi[order]
        neg = eval_cotangent_residual(p, blo) < 0
        while True:
            mid = 0.5 * (blo + bhi)
            if not np.any((mid != blo) & (mid != bhi)):
                break
            left = (eval_cotangent_residual(p, mid) < 0) != neg
            blo, bhi = np.where(left, blo, mid), np.where(left, mid, bhi)
        # Roots hugging a branch endpoint sit next to a pole of cot;
        # re-verify them against the polynomial itself.
        keep = np.minimum(mid - (lo[which] - delta),
                          (hi[which] + delta) - mid) >= 10 * delta
        keep[~keep] = [abs(eval_polynomial(p, cmath.exp(1j * phi)))
                       <= 1e-6 * scale for phi in mid[~keep].tolist()]
        out += map(BranchRoot, ell[which][keep].tolist(), mid[keep].tolist(),
                   (two_sqrt_ac * np.cos(mid[keep])).tolist())
    return out


def refine_special_root(p: SystemParams, seed: complex) -> complex:
    """Newton iteration on f(y)/y^(2n) from an off-circle seed.

    The division by y^(2n) keeps the evaluation finite for |y| > 1 at
    large n without changing the roots.  Fails with UnitCircleCollapse if
    the iterate's modulus falls to 1 (no off-circle root in this regime)
    and NoConvergence if the budget runs out.
    """
    y = complex(seed)
    if abs(y) <= 1.0:
        raise DomainError(f"seed must lie outside the unit circle, got {seed}")
    for _ in range(NEWTON_MAX_ITER):
        f, df = _scaled_poly_and_deriv(p.a, p.d, p.e, p.tau, p.n, y)
        if df == 0:
            raise NoConvergence("Newton derivative vanished")
        step = f / df
        y_new = y - step
        if abs(y_new) < 1.0 + CIRCLE_EPS:
            raise UnitCircleCollapse(
                f"iterate collapsed to the unit circle (|y|={abs(y_new):.6f})")
        if abs(step) <= TOL_ROOT * max(1.0, abs(y_new)):
            return y_new
        y = y_new
    raise NoConvergence(f"no root near seed {seed} after {NEWTON_MAX_ITER} "
                        f"iterations")


def eigenvalue_from_root(p: SystemParams, y: complex) -> complex:
    """r = sqrt(ac) (y + 1/y)."""
    return math.sqrt(p.a * p.c) * (y + 1.0 / y)
