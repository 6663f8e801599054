"""Scalar equations generating the spectrum, and their root finders.

Everything revolves around the degree-(2n+2) polynomial

    f(y) = (a y^2 - d tau y - e) y^(2n) + (e y^2 + d tau y - a),

whose non-trivial roots come in (y, 1/y) pairs and map to eigenvalues
r = sqrt(ac) (y + 1/y).  Roots on the unit circle y = exp(i phi) satisfy
the cotangent equation

    cot(n phi) sin(phi) = d tau / (e + a) + ((e - a)/(e + a)) cos(phi)

and are located branch by branch: every branch is a bracket of the
pole-free H(phi) = a sin((n+1) phi) - d tau sin(n phi) - e sin((n-1)
phi), whose end signs are known in closed form, polished by Newton's
method from one or two steps on the branch function (see
find_branch_roots); almost every root costs one evaluation of H.
Roots off the circle are tracked by Newton iteration on their deviation
from the quadratic seeds y+- of a y^2 - d tau y - e, in one float loop
that perturb runs too.  On the line a + e = 0 the one special eigenvalue is
exactly d.  sqrt(ac), the quadratic and H are formed on power-of-two
scalings of the parameters, so scaling a, c, d and e by 2^k scales
every eigenvalue by exactly 2^k.
"""
from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import (BranchPole, DomainError, NoConvergence,
                     UnitCircleCollapse, ZeroDenominator)
from .model import EPS, SystemParams

# |e+a| below this times a routes to the closed-form branch layout.
EPLUSA_THRESHOLD = 1e-12
TOL_ROOT = 1e-12
CIRCLE_EPS = 1e-9
NEWTON_MAX_ITER = 100
POLE_TOL = 1e-12
# Items per slice of array work; every temporary of a slice is O(_BLOCK).
_BLOCK = 2048

_log = logging.getLogger("flockspectra")


def _product_4k(a: float, c: float):
    """(x, k) with a c = x 4^k exactly and x in [1/4, 4), for a, c > 0:
    a product that neither overflows nor underflows."""
    i, j = math.frexp(a)[1] // 2, math.frexp(c)[1] // 2
    return math.ldexp(a, -2 * i) * math.ldexp(c, -2 * j), i + j


def _sqrt_product(a: float, c: float) -> float:
    """sqrt(a c) for a, c > 0, finite and exact in scale wherever the
    result is a normal float; bit for bit math.sqrt(a * c) wherever a c
    is."""
    x, k = _product_4k(a, c)
    return math.ldexp(math.sqrt(x), k)


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
    """The two roots y+- of a y^2 - d tau y - e = 0 (see quadratic_roots)."""

    y_plus: complex
    y_minus: complex


@dataclass(frozen=True)
class SpecialEigenEstimate:
    """Asymptotic special eigenvalues r+- (None where undefined)."""

    r_plus: Optional[complex]
    r_minus: Optional[complex]


def _as_complex(y, name: str = "y") -> complex:
    """y as a complex number, or DomainError where it is not a finite
    number."""
    try:
        z = complex(y)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a number, got {y!r}") from None
    if not cmath.isfinite(z):
        raise DomainError(f"{name} must be finite, got {y!r}")
    return z


def eval_polynomial(p: SystemParams, y: complex) -> complex:
    """Evaluate f(y) = (a y^2 - d tau y - e) y^(2n) + (e y^2 + d tau y - a).

    Vanishes exactly at every root of the eigenvalue equation (including
    the trivial roots y = +-1 when d tau = 0 and e = -a patterns allow).
    DomainError where y is 0 or not a finite number.
    """
    y = _as_complex(y)
    if y == 0:
        raise DomainError("y = 0 is outside the domain")
    a, d, e, tau, n = p.a, p.d, p.e, p.tau, p.n
    head = a * y * y - d * tau * y - e
    tail = e * y * y + d * tau * y - a
    return head * y ** (2 * n) + tail


def eval_cotangent_residual(p: SystemParams, phi):
    """LHS - RHS of the cotangent equation at the angle phi.

    phi is a float or an array of angles; a float gives a float and an
    array an array of the same shape.  A zero in branch ell certifies a
    BranchRoot.  Near phi = 0 or pi the product cot(n phi) sin(phi) is
    continued by its finite limit +-1/n.  A non-finite angle raises
    DomainError.
    """
    a, d, e, tau, n = p.a, p.d, p.e, p.tau, p.n
    if _on_a_plus_e_line(p):
        raise ZeroDenominator("e + a = 0: use the closed-form branch layout")
    try:
        x = np.asarray(phi, dtype=float)
    except (TypeError, ValueError) as ex:
        raise DomainError(f"phi must hold real angles: {ex}") from None
    if not np.isfinite(x).all():
        raise DomainError("phi must hold finite angles")
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


def _monic_roots(b, c):
    """The roots x+- = -b +- s of x^2 + 2b x + c, s the principal
    sqrt(b^2 - c); A y^2 + B y + C takes this form in x = 2A y, b = B, c =
    4AC.  s is formed on b and c over m, the power of two just above
    max(|b|, sqrt|c|): the unscaled s wherever that is finite, and finite
    wherever b and c are.  The root that -b +- s forms by cancellation is
    c over the other (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed. 2002, sec. 1.8).  Adding 0.0 clears a quotient's
    -0.0 imaginary part."""
    m = 2.0 ** math.frexp(max(abs(b), abs(c) ** 0.5))[1]
    s = m * cmath.sqrt((b / m) ** 2 - c / m / m)
    x_plus, x_minus = -b + s, -b - s
    dot = (b.conjugate() * s).real  # > 0 where -b + s cancels
    if dot > 0:
        x_plus = c / x_minus
    elif dot < 0:
        x_minus = c / x_plus
    return x_plus + 0.0, x_minus + 0.0


def quadratic_roots(p: SystemParams) -> QuadraticRoots:
    """Roots y+- = (d tau +- sqrt(d^2 tau^2 + 4 a e)) / (2a) of a y^2 -
    d tau y - e, by _monic_roots: finite also where (d tau)^2 overflows,
    and accurate also where |ae| is far below it.  a, e and d tau are
    first divided by the power of two just above max(a, |e|), so that 4ae
    neither overflows nor underflows and the roots do not depend on the
    scale of the parameters; DomainError where y+ leaves the float range."""
    k = math.frexp(max(p.a, abs(p.e)))[1]
    try:
        a, e, dt = (math.ldexp(x, -k) for x in (p.a, p.e, p.d * p.tau))
    except OverflowError:  # d tau over max(a, |e|), and so y+
        raise DomainError("y+ ~ d tau / a leaves the float range") from None
    return QuadraticRoots(*(x / (2 * a) for x in _monic_roots(
        -dt, -4 * a * e)))


def _seed_quadratic(p: SystemParams) -> QuadraticRoots:
    """quadratic_roots(p), formed once per instance and kept on its memo
    (QuadraticRoots is frozen), so that _special_seeds and every
    refine_special_root of one assembly read the same roots."""
    return p._kept("quadratic", quadratic_roots)


def special_eigen_estimates(p: SystemParams) -> SpecialEigenEstimate:
    """Asymptotic special eigenvalues r+- = sqrt(ac) (y+- + 1/y+-) over
    the roots of quadratic_roots: ((1 - a/e) d +- (1 + a/e) sqrt(d^2 +
    4ce)) / 2, and None at a root y = 0, the e = 0 limit of y_minus if d
    >= 0 and of y_plus if d <= 0.  A real pair has r_plus >= r_minus."""
    q = quadratic_roots(p)
    r_plus, r_minus = (None if y == 0 else eigenvalue_from_root(p, y)
                       for y in (q.y_plus, q.y_minus))
    if None not in (r_plus, r_minus) and r_plus.imag == r_minus.imag == 0:
        r_plus, r_minus = sorted((r_plus, r_minus), key=lambda r: -r.real)
    return SpecialEigenEstimate(r_plus=r_plus, r_minus=r_minus)


def _as_branch_roots(ell, phi, eigenvalue) -> List[BranchRoot]:
    """BranchRoot objects from the arrays, a block at a time, so that the
    transient lists of Python numbers stay O(_BLOCK)."""
    out = []
    for i in range(0, len(phi), _BLOCK):
        part = slice(i, i + _BLOCK)
        out += map(BranchRoot, ell[part].tolist(), phi[part].tolist(),
                   eigenvalue[part].tolist())
    return out


def _closed_form_arrays(p: SystemParams):
    ell = np.arange(1, p.n)
    phi = math.pi * ell / p.n
    return ell, phi, 2 * _sqrt_product(p.a, p.c) * np.cos(phi)


def closed_form_branch_roots(p: SystemParams) -> List[BranchRoot]:
    """Branch layout for e + a = 0: phi_ell = pi ell / n, ell = 1..n-1."""
    return _as_branch_roots(*_closed_form_arrays(p))


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


def _unit_coefficients(p: SystemParams):
    """(a, e, d tau) over the power of two just above the largest of
    them: H, H', G at the branch ends and their rounding floors formed on
    these stay finite at any scale, and scaling a, c, d and e by 2^k
    leaves them bit for bit the same.  Kept on p's memo, as every H
    evaluation reads them."""
    def unit(p):
        dt = p.d * p.tau
        k = -math.frexp(max(p.a, abs(p.e), abs(dt)))[1]
        return math.ldexp(p.a, k), math.ldexp(p.e, k), math.ldexp(dt, k)

    return p._kept("unit", unit)


def _h_and_slope(p: SystemParams, phi):
    """H(phi) = a sin((n+1) phi) - d tau sin(n phi) - e sin((n-1) phi)
    and H'(phi), from sin and cos of n phi and phi.  On the unit circle
    f(e^(i phi)) = 2i e^(i(n+1) phi) H(phi).  The (a+e) term is formed
    first, so H keeps its digits near the line a + e = 0.  Above pi/2
    the sines and cosines come from the exact psi = pi - phi, so that
    sin(n phi) keeps its relative digits near phi = pi: sin(n phi) =
    (-1)^(n+1) sin(n psi), cos(n phi) = (-1)^n cos(n psi), cos(phi) =
    -cos(psi).  Both are formed on _unit_coefficients, so they are H and
    H' over one power of two."""
    (a, e, dt), n = _unit_coefficients(p), p.n
    far = phi > math.pi / 2
    x = np.where(far, math.pi - phi, phi)
    flip = np.where(far, -1.0, 1.0)
    sn, cn = np.sin(n * x), np.cos(n * x)
    if n % 2:
        cn *= flip
    else:
        sn *= flip
    s1, c1 = np.sin(x), flip * np.cos(x)
    h = (a - e) * sn * c1 + (a + e) * cn * s1 - dt * sn
    dh = ((a * (n + 1) - e * (n - 1)) * cn * c1
          - (a * (n + 1) + e * (n - 1)) * sn * s1 - dt * n * cn)
    return h, dh


def _brackets(p: SystemParams):
    """(ell, lo, hi, neg) of every bracket on the branches 1..n: one per
    branch, or per piece of a branch cut at a stationary angle (see
    find_branch_roots), with neg the sign of H at lo."""
    (a, e, dt), n = _unit_coefficients(p), p.n
    # The sign of G = H/sin(phi) at the branch ends m pi/n is known
    # without evaluating H: (-1)^m (a+e) inside, and, as U_k(+-1) =
    # (+-1)^k (k+1), G(0) = a(n+1) - d tau n - e(n-1) and G(pi) = (-1)^n
    # (a(n+1) + d tau n - e(n-1)).  H is evaluated only at the cuts.
    m = np.arange(n + 1)
    edges = m * math.pi / n
    edges[-1] = math.pi
    neg = m % 2 == (a + e > 0)
    # An outer G within its rounding error of 0 is a finite-n threshold:
    # that end takes its neighbour's sign, and the root merging with y =
    # +-1 is left to the caller's count.
    floor = 4 * EPS * (abs(a) * (n + 1) + abs(dt) * n + abs(e) * (n - 1))
    g0 = a * (n + 1) - dt * n - e * (n - 1)
    neg[0] = g0 < 0 if abs(g0) > floor else neg[1]
    gpi = (-1) ** n * (a * (n + 1) + dt * n - e * (n - 1))
    neg[-1] = gpi < 0 if abs(gpi) > floor else neg[-2]
    ell = np.arange(1, n + 1)
    cut = [phi for phi in _stationary_angles(p) if phi not in edges]
    if not cut:  # G changes sign at every inner end: drop an end branch
        i, j = int(neg[0] == neg[1]), n - int(neg[-2] == neg[-1])
        return ell[i:j], edges[i:j], edges[i + 1:j + 1], neg[i:j]
    cut = np.array(cut)
    k = np.searchsorted(edges, cut)
    edges = np.insert(edges, k, cut)
    neg = np.insert(neg, k, _h_and_slope(p, cut)[0] < 0)
    ell = np.insert(ell, k - 1, ell[k - 1])
    change = np.flatnonzero(neg[:-1] != neg[1:])
    return ell[change], edges[change], edges[change + 1], neg[change]


def _f_step(target, x, n, B, C):
    """At x: the point that one Newton step on F = n phi - theta = target
    reaches, K = F''/(2 F'), r^2 and F'.  Here theta = arccot(R) =
    atan2(sin(phi), C + B cos(phi)), as sin(phi) > 0, r^2 = sin(phi)^2 +
    (C + B cos(phi))^2, theta' = (C cos(phi) + B) / r^2, F' = n - theta'
    and F'' = -theta'' = sin(phi) (C + 2 theta' ((1 - B^2) cos(phi) - B
    C)) / r^2.  Past |C| ~ 1e154, r^2 overflows and theta' and K read 0,
    off by less than 1/|C|."""
    s1, c1 = np.sin(x), np.cos(x)
    q = C + B * c1
    r2 = s1 * s1 + q * q
    slope = (C * c1 + B) / r2
    fp = n - slope
    k = s1 * (0.5 * C + slope * ((1 - B * B) * c1 - B * C)) / (r2 * fp)
    return (target + np.arctan2(s1, q) - slope * x) / fp, k, r2, fp


def _safeguarded_newton(p: SystemParams, ell, lo, hi, neg, stats=None):
    """The root in each bracket [lo, hi] of branch ell, by Newton steps
    on H from a seed of one or two steps on F = n phi - theta = (ell-1)
    pi (see _f_step).  A seed at or past an end of the bracket, or NaN,
    restarts eps hi inside the end it reaches (inside lo where it is
    NaN).

    Each step on F is Chebyshev's (cubic): Newton's step y from x less
    its quadratic term K (x - y)^2, the first from the midpoint m.  The
    second is taken only where the error err = K (m - y)^2 that Newton's
    step alone would leave, taken as the first H step s, fails the
    quadratic done test below; as H = +-(a+e) r sin(F - (ell-1) pi),
    |H'| = |a+e| r |F'| at a root, that is where 1024 M2 err^2 > 4 eps x
    |a+e| r |F'|.  At sweep sizes (n <= 480) that holds on most
    brackets, as err is O(1/n^3); from n ~ 5000 on few, mostly at small
    phi, where the test's floor eps x is smallest.  Where more than half
    of the brackets take it, all of them do, which spares the gathers.

    neg says whether H is negative at lo; its sign at each iterate moves
    one end of the bracket there.  A step that lands inside the bracket,
    or one at the rounding floor, is taken; any other bisects.  An
    iterate is done once its step s = H/H' is at the rounding floor
    (which also holds once its bracket is two adjacent doubles), or,
    without evaluating H again, once the step lands inside the bracket
    and 1024 M2 s^2 <= 4 eps x |H'(x)|, M2 = |a|(n+1)^2 + |d tau| n^2 +
    |e|(n-1)^2 >= |H''|: the error left after that step, at most M2 s^2
    / (2 |H'|), is then below eps x / 512.  So most roots take one H
    evaluation.  stats, if given, is an integer array that gains the
    steps on F, the H-evaluated points, the Newton sweeps and the
    bisection steps.
    """
    (a, e, dt), n = _unit_coefficients(p), p.n
    B = (e - a) / (e + a)
    C = dt / (e + a)
    m2 = abs(a) * (n + 1) ** 2 + abs(dt) * n * n + abs(e) * (n - 1) ** 2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mid = 0.5 * (lo + hi)
        target = (ell - 1) * math.pi
        y, k, r2, fp = _f_step(target, mid, n, B, C)
        err = k * (mid - y) ** 2
        # a seed at or past an end (or NaN) restarts eps hi inside it:
        # there the root lies within rounding of that end, which
        # bisecting from the midpoint would reach after ~50 halvings
        nudge = EPS * hi
        first, last = lo + nudge, hi - nudge
        x = np.fmin(np.fmax(y - err, first), last)
        # 1024 M2 s^2 > 4 eps x |a+e| r |F'| with s = err: one H step
        # from x would not finish
        again = (err * err > 4 * EPS * abs(a + e) / (1024 * m2) * x
                 * np.sqrt(r2) * np.abs(fp)).nonzero()[0]
        if len(again) > len(x) // 2:
            again = slice(None)
        x1 = x[again]
        if len(x1):
            y, k = _f_step(target[again], x1, n, B, C)[:2]
            x[again] = np.fmin(np.fmax(y - k * (x1 - y) ** 2, first[again]),
                               last[again])
        if stats is not None:
            stats[0] += len(x) + len(x1)
        phi = np.empty_like(x)
        todo = np.arange(len(x))
        for _ in range(NEWTON_MAX_ITER):
            h, dh = _h_and_slope(p, x)
            left = (h < 0) != neg  # the root lies in [lo, x]
            lo, hi = np.where(left, lo, x), np.where(left, x, hi)
            step = h / dh
            new = x - step
            tol = 4 * EPS * x
            # A step onto a bracket end evaluates nothing new: where the
            # rounding noise of H exceeds tol, Newton would hop between
            # the two ends for good, so that step bisects instead.
            inside = (lo < new) & (new < hi)
            close = np.abs(new - x) <= tol
            newton = inside | close
            done = close | (inside
                            & (1024 * m2 * step * step <= tol * np.abs(dh)))
            if not newton.all():  # the rest bisect
                out = ~newton
                new[out] = 0.5 * (lo[out] + hi[out])
                done[out] = np.abs(new[out] - x[out]) <= tol[out]
            if stats is not None:
                stats[1:] += (len(x), 1, len(x) - np.count_nonzero(newton))
            if done.all():
                phi[todo] = new
                break
            phi[todo[done]] = new[done]
            more = ~done
            x, lo, hi, neg, todo = new[more], lo[more], hi[more], \
                neg[more], todo[more]
        else:
            phi[todo] = x
    return phi


def _branch_root_arrays(p: SystemParams):
    """(ell, phi, eigenvalue) arrays of every unit-circle root, sorted by
    phi: the brackets of _brackets, polished _BLOCK at a time, so that
    the Newton temporaries stay small enough for the cache.  With DEBUG
    logging on, one record gives n, the brackets, the Newton steps on F
    of the seeds, the points at which Newton evaluated H, its sweeps and
    its bisection steps."""
    if _on_a_plus_e_line(p):
        return _closed_form_arrays(p)
    ell, lo, hi, neg = _brackets(p)
    stats = np.zeros(4, dtype=int) if _log.isEnabledFor(logging.DEBUG) \
        else None
    phi = np.empty(len(ell))
    for i in range(0, len(ell), _BLOCK):
        part = slice(i, i + _BLOCK)
        phi[part] = _safeguarded_newton(p, ell[part], lo[part], hi[part],
                                        neg[part], stats)
    if stats is not None:
        _log.debug("branch scan: n=%d, %d brackets, %d seed steps on F, H "
                   "evaluated at %d points in %d Newton sweeps, %d "
                   "bisection steps", p.n, len(ell), *stats.tolist())
    return ell, phi, 2 * _sqrt_product(p.a, p.c) * np.cos(phi)


def find_branch_roots(p: SystemParams) -> List[BranchRoot]:
    """All unit-circle roots, ell ascending and phi ascending within a
    branch.

    H = a sin((n+1) phi) - d tau sin(n phi) - e sin((n-1) phi) is (e+a)
    sin(n phi) times the cotangent residual and has no poles.  The sign
    of G = H/sin(phi), a polynomial of degree n in cos(phi), is known at
    every branch end (see _brackets).  A root of branch ell
    solves F = n phi - arccot(R) = (ell-1) pi, and F is monotone between
    the at most two stationary angles of _stationary_angles.  So a
    branch with no stationary angle holds one root if G changes sign
    across it and none otherwise, and is its own bracket; one that holds
    a stationary angle is cut there, H is evaluated at the cut, and each
    piece holds at most one root.  The brackets of all n branches are
    built at once and polished by safeguarded Newton on H, _BLOCK
    brackets at a time, from a seed of one Chebyshev step on F at the
    midpoint, and a second where the first would leave H more than one
    Newton step; a step whose quadratic error bound is below the
    rounding floor is taken without evaluating H again, so almost every
    root costs one H evaluation (see _safeguarded_newton).

    Where G(0) or G(pi) is zero to within its rounding error (a finite-n
    threshold), a root of an end branch merges with y = +-1; that end
    takes its neighbour's sign, so the branch does not bracket the root,
    and the caller's root count recovers it from the trace.  Roots
    pinned at phi = 0 or pi are never emitted.  The work is O(n)
    whatever the parameters.
    """
    return _as_branch_roots(*_branch_root_arrays(p))


def _special_seeds(p: SystemParams) -> List[complex]:
    """The roots of a y^2 - d tau y - e outside the unit circle, y_plus
    first: the Newton seeds of the special roots.  These are the roots
    the theorem cases list."""
    q = _seed_quadratic(p)
    return [y for y in (q.y_plus, q.y_minus) if abs(y) > 1.0 + CIRCLE_EPS]


def _log1p(z: complex) -> complex:
    """log(1 + z) to a few ulps also at tiny |z|, by Kahan's trick
    (Higham, Accuracy and Stability, 2nd ed. 2002, sec. 1.14.1)."""
    u = 1 + z
    return z if u == 1 else cmath.log(u) * z / (u - 1)


def _off_circle_newton(p: SystemParams, n: int, y0: complex,
                       delta: complex) -> complex:
    """delta = y - y0 at a root y of f(y)/y^(2n) = head(y) + tail(y)
    y^(-2n), by Newton's method from delta to a step of TOL_ROOT max(1,
    |y|), for y0 != 0 a float root of head = a y^2 - d tau y - e, taken
    as exact.  f is formed about y0, never on y0 + delta: head = delta
    (h1 + a delta), h1 = 2 a y0 - d tau, exactly; tail = tail(y0) + delta
    (t1 + e delta); y^(-2n) = exp(-n log y0^2 - 2n log1p(delta/y0)).  So
    delta keeps its relative digits at any size, and next to a double
    root the rounding of y no longer holds the steps above the stop
    (Higham, secs. 1.8 and 5.1).  Where f and f' both vanish the step is
    0 and delta is returned: at an exact double root y0 whose y0^(-2n)
    underflows, f = 0 at delta = 0 in floats, and the pair +-sqrt(
    -tail(y0)/a) y0^(-n) it stands for is below the rounding of y0.
    Raises UnitCircleCollapse once |y| < 1 + CIRCLE_EPS."""
    a, e, dt = p.a, p.e, p.d * p.tau
    h1, t1 = 2 * a * y0 - dt, 2 * e * y0 + dt
    tail0, log_w0 = e * y0 * y0 + dt * y0 - a, -n * cmath.log(y0 * y0)
    for _ in range(NEWTON_MAX_ITER):
        tail = tail0 + delta * (t1 + e * delta)
        w = cmath.exp(log_w0 - 2 * n * _log1p(delta / y0))
        f = delta * (h1 + a * delta) + tail * w
        df = (h1 + 2 * a * delta
              + (t1 + 2 * e * delta - 2 * n * tail / (y0 + delta)) * w)
        if df == 0 and f != 0:
            raise NoConvergence("Newton derivative vanished")
        step = f / df if df else 0j
        delta = delta - step
        y = y0 + delta
        if abs(y) < 1.0 + CIRCLE_EPS:
            raise UnitCircleCollapse("iterate collapsed to the unit circle "
                                     f"(|y|={abs(y):.6f})")
        if abs(step) <= TOL_ROOT * max(1.0, abs(y)):
            return delta
    raise NoConvergence(f"no root near y0 = {y0} after {NEWTON_MAX_ITER} "
                        f"iterations")


def refine_special_root(p: SystemParams, seed: complex) -> complex:
    """Newton iteration on f(y)/y^(2n) from an off-circle seed, to
    TOL_ROOT, on the deviation from the nonzero root y0 of a y^2 - d tau
    y - e nearest the seed (_off_circle_newton, which perturb runs too).

    Fails with UnitCircleCollapse if the iterate's modulus falls to 1 (no
    off-circle root in this regime) and NoConvergence if the budget runs
    out; DomainError for a seed that is not a finite number outside the
    unit circle.
    """
    y = _as_complex(seed, "seed")
    if abs(y) <= 1.0:
        raise DomainError(f"seed must lie outside the unit circle, got {seed}")
    q = _seed_quadratic(p)
    y0 = min(q.y_plus, q.y_minus, key=lambda r: (r == 0, abs(y - r)))
    if y0 == 0:  # d = e = 0: every root of f lies on the circle
        raise DomainError("a y^2 - d tau y - e has no nonzero root")
    return y0 + _off_circle_newton(p, p.n, y0, y - y0)


def eigenvalue_from_root(p: SystemParams, y: complex) -> complex:
    """r = sqrt(ac) (y + 1/y) as a complex number; DomainError where y is
    not a finite number, at y = 0, where r has a pole, and where r (or
    1/y) leaves the float range."""
    y = _as_complex(y)
    if y == 0:
        raise DomainError("y = 0 is a pole of r = sqrt(ac) (y + 1/y)")
    r = _sqrt_product(p.a, p.c) * (y + 1.0 / y)
    if not cmath.isfinite(r):
        raise DomainError(f"r = sqrt(ac) (y + 1/y) leaves the float range "
                          f"at y = {y}")
    return r


def _root_of_eigenvalue(p: SystemParams, r) -> complex:
    """The root y of y^2 - (r/sqrt(ac)) y + 1 with |y| >= 1, the one with
    Im y >= 0 where both lie on the unit circle (as conjugates of one
    modulus): eigenvalue_from_root's inverse, by _monic_roots."""
    x = _monic_roots(-r / _sqrt_product(p.a, p.c), 4.0)
    return max(x, key=lambda z: (abs(z), z.imag)) / 2
