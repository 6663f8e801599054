"""Regime classification and full spectrum assembly.

The parameter plane splits into three theorem regimes by the size of e
relative to a (plus the exactly-solvable line a + e = 0), and each regime
into cases by d against the thresholds +-(a - e) sqrt(c/a) (and
+-2 sqrt(c|e|) inside the e < -a regime).  The case describes which of
the asymptotic special eigenvalues r+- materialize, and is reported with
the spectrum; the assembly itself reads only the parameters.  Each root
y of a y^2 - d tau y - e off the unit circle seeds one special
eigenvalue (on the line a + e = 0, exactly d), and the remaining
eigenvalues are bulk values 2 sqrt(ac) cos(phi) of the unit-circle
roots.  Off the line a + e = 0 the branches ((ell-1) pi/n, ell pi/n) are
searched without sampling: G(phi) = H(phi)/sin(phi), H(phi) = a
sin((n+1) phi) - d tau sin(n phi) - e sin((n-1) phi), has a sign known
in closed form at every branch end, so each branch, cut at the at most
two stationary angles of the branch function, brackets its roots one by
one, and Newton's method on H polishes them.  At most n - len(bulk)
roots then lie off the circle, which caps the special roots; one missing
root is recovered from the trace, and every spectrum must pass the power
sums sum r = d and sum r^2 = d^2 + 2c((n-2) a + (a+e)) of the reduced
matrix.  The bulk stays in arrays of branch index, angle and eigenvalue
from the scan to the Spectrum.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields, replace
from typing import List, Optional, Tuple

import numpy as np

from .charpoly import (EPS, BranchRoot, _as_branch_roots,
                       _branch_root_arrays, _monic_roots,
                       _on_a_plus_e_line, _product_4k, _root_of_eigenvalue,
                       _special_seeds, _sqrt_product, eigenvalue_from_root,
                       refine_special_root)
from .errors import (DegenerateRoot, DimensionMismatch, DiscriminantCollapse,
                     DomainError, NoConvergence, RootCountAnomaly,
                     UnitCircleCollapse)
from .model import SystemParams, is_decentralized

DEDUPE_TOL = 1e-9
DISCRIMINANT_REL_TOL = 1e-12

_log = logging.getLogger("flockspectra")


@dataclass(frozen=True)
class RegimeLabel:
    """Which theorem and case the parameters fall under.

    theorem is one of T1 (-a <= e <= a), T2 (e > a), T3 (e < -a), or P31
    (a + e = 0 exactly); case is the case index within that theorem
    ("1", "2", "3", or "2a"/"2b"/"2c" inside T3).  For decentralized
    parameters decentralized_cell holds the (row, column) of the special
    eigenvalue table together with its predicted values.
    """

    theorem: str
    case: str
    decentralized_cell: Optional[Tuple[str, str]] = None
    predicted_specials: Tuple[float, ...] = ()

    def as_dict(self):
        out = {"theorem": self.theorem, "case": self.case}
        if self.decentralized_cell is not None:
            out["decentralized_cell"] = list(self.decentralized_cell)
            out["predicted_specials"] = list(self.predicted_specials)
        return out


@dataclass(frozen=True)
class SpecialRoot:
    """An off-circle root: asymptotic seed, refined root, eigenvalue."""

    seed: complex
    y: complex
    eigenvalue: complex


@dataclass(frozen=True)
class EigenPair:
    eigenvalue: complex
    vector: np.ndarray


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Complete labeled eigenvalue set of one of the three matrices.

    The bulk is held as three arrays, branch index, angle and eigenvalue
    2 sqrt(ac) cos(phi) of each unit-circle root, sorted by angle; the
    bulk property wraps them as BranchRoot objects.  For
    matrix_kind="laplacian" the reported values are the eigenvalues of
    -L (the system matrix of the consensus ODE): shift = -(a+c) is added
    to every labeled value, and params and regime describe the
    decentralized twin.
    """

    leader: Optional[float]
    bulk_ell: np.ndarray
    bulk_phi: np.ndarray
    bulk_eigenvalue: np.ndarray
    special: List[SpecialRoot]
    regime: RegimeLabel
    matrix_kind: str
    params: SystemParams
    shift: float = 0.0

    def __eq__(self, other):
        if not isinstance(other, Spectrum):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name))
                 for f in fields(self))
        return all(np.array_equal(x, y) if isinstance(x, np.ndarray)
                   or isinstance(y, np.ndarray) else x == y for x, y in pairs)

    @property
    def bulk(self) -> List[BranchRoot]:
        """The bulk arrays as BranchRoot objects, built on each read."""
        return _as_branch_roots(self.bulk_ell, self.bulk_phi,
                                self.bulk_eigenvalue)

    def eigenvalues(self) -> np.ndarray:
        """Every eigenvalue as a new 1-D complex array: the leader, the
        bulk by angle, then the special roots, each plus the shift."""
        lead = [] if self.leader is None else [self.leader + self.shift]
        return np.concatenate((
            np.array(lead, dtype=complex), self.bulk_eigenvalue + self.shift,
            np.array([s.eigenvalue for s in self.special], dtype=complex)
            + self.shift))

    def as_dict(self):
        return {
            "matrix_kind": self.matrix_kind,
            "n": self.params.n,
            "params": {"a": self.params.a, "c": self.params.c,
                       "b": self.params.b, "d": self.params.d,
                       "e": self.params.e, "n": self.params.n},
            "regime": self.regime.as_dict(),
            "leader": None if self.leader is None else self.leader + self.shift,
            "bulk": [{"ell": ell, "phi": phi, "r": r} for ell, phi, r in
                     zip(self.bulk_ell.tolist(), self.bulk_phi.tolist(),
                         (self.bulk_eigenvalue + self.shift).tolist())],
            "special": [{"seed": [s.seed.real, s.seed.imag],
                         "y": [s.y.real, s.y.imag],
                         "r": [(s.eigenvalue + self.shift).real,
                               (s.eigenvalue + self.shift).imag]}
                        for s in self.special],
        }

    def csv_rows(self):
        """(re, im, label) rows in the order of eigenvalues()."""
        labels = (["leader"] * (self.leader is not None)
                  + [f"bulk:{ell}" for ell in self.bulk_ell.tolist()]
                  + ["special"] * len(self.special))
        return [(z.real, z.imag, label)
                for z, label in zip(self.eigenvalues().tolist(), labels)]


def _decentralized_cell(p: SystemParams):
    """(row, col) of the special-eigenvalue table plus predicted values."""
    a, c, e = p.a, p.c, p.e
    row = "e<-a" if e < -a else ("e>a" if e > a else "|e|<=a")
    col = "c<a" if c < a else ("c>a" if c > a else "c=a")
    sac = _sqrt_product(a, c)

    def mirror():  # a c / e cannot overflow where a cell reads it
        x, k = _product_4k(a, c)
        return -(math.ldexp(x / e, 2 * k) + e)

    if row == "e<-a":
        if col in ("c<a", "c=a"):
            pred = (mirror(),)
        else:
            pred = (a + c, mirror()) if e < -sac else (a + c,)
    elif row == "|e|<=a":
        if col == "c<a":
            pred = (mirror(),) if abs(e) > sac else ()
        elif col == "c=a":
            pred = ()
        else:
            pred = (a + c,)
    else:
        if col == "c<a":
            pred = (mirror(),)
        elif col == "c=a":
            pred = (mirror(), a + c)
        else:
            pred = (mirror(), a + c) if e > sac else (a + c,)
    return (row, col), pred


def classify_regime(p: SystemParams) -> RegimeLabel:
    """Deterministic (theorem, case) selection from the inequalities.

    Equalities follow the non-strict inequalities as printed; where two
    cases touch, the earlier-listed case wins.  The label (frozen) is
    kept on p's memo, so every later call on p returns it at once.
    """
    return p._kept("regime", _classify)


def _classify(p: SystemParams) -> RegimeLabel:
    a, c, d, e, tau = p.a, p.c, p.d, p.e, p.tau
    cell = pred = None
    if is_decentralized(p):
        cell, pred = _decentralized_cell(p)

    def label(theorem, case):
        if cell is None:
            return RegimeLabel(theorem=theorem, case=case)
        return RegimeLabel(theorem=theorem, case=case,
                           decentralized_cell=cell,
                           predicted_specials=tuple(pred))

    if _on_a_plus_e_line(p):
        dt = d * tau
        if dt > 2 * a:
            return label("P31", "1")
        if dt >= -2 * a:
            return label("P31", "2")
        return label("P31", "3")

    t = (a - e) * math.sqrt(c / a)
    if -a <= e <= a:
        if d > t:
            return label("T1", "1")
        if d >= -t:
            return label("T1", "2")
        return label("T1", "3")
    if e > a:
        # here t < 0, so case 1 is d >= -t > 0 and case 3 is d <= t < 0
        if d >= -t:
            return label("T2", "1")
        if d > t:
            return label("T2", "2")
        return label("T2", "3")
    # e < -a, t > 0
    if d <= -t:
        return label("T3", "1")
    if d < t:
        s = 2 * _sqrt_product(c, abs(e))
        if d <= -s:
            return label("T3", "2a")
        if d < s:
            return label("T3", "2b")
        return label("T3", "2c")
    return label("T3", "3")


def _power_sum_residuals(p: SystemParams, eig, special):
    """|sum r - tr Q| / (n s) and |sum r^2 - tr Q^2| / (n s^2) over the
    real bulk eigenvalues eig and the special roots, s the larger of 2
    sqrt(ac), which bounds every bulk value, and the special moduli.  tr
    Q = d and tr Q^2 = d^2 + 2c((n-2) a + (a+e)) come from the three
    diagonals of the reduced matrix Q.  Both are formed on r, a, c, d and
    e over s, so no square overflows."""
    z = [x.eigenvalue for x in special]
    s = max([2 * _sqrt_product(p.a, p.c), *map(abs, z)])
    z = [x / s for x in z]
    r, a, c, d, e = eig / s, p.a / s, p.c / s, p.d / s, p.e / s
    t2 = d * d + 2 * c * ((p.n - 2) * a + (a + e))
    return (abs(float(r.sum()) + sum(z) - d) / p.n,
            abs(float(r @ r) + sum(x * x for x in z) - t2) / p.n)


def _power_sum_tol(n: int) -> float:
    """Bound on both power-sum residuals of a correct spectrum.  A root
    off by delta moves them by at most 2 delta / (n s).  Up to four roots
    at double roots of f are good only to sqrt(eps) of s; the rest, good
    to a few eps of s, keep the sums within 16 eps."""
    return 8 * math.sqrt(EPS) / n + 16 * EPS


def _certify_count(p: SystemParams, bulk, special):
    """Bulk arrays and special roots, n in all, or RootCountAnomaly.

    At a finite-n threshold a root merges with y = +-1, and its end
    branch leaves it out; at a double root of a y^2 - d tau y - e both
    seeds converge to one root.  So one missing root is recovered from
    the trace, r = d - sum(found), with y = _root_of_eigenvalue(p, r).
    Every spectrum, corrected or not, must leave both power-sum
    residuals within _power_sum_tol; a NaN residual fails."""
    eig, nspecial = bulk[2], len(special)
    short = p.n - len(eig) - nspecial
    if short == 1:
        total = np.sum(eig) + sum(s.eigenvalue for s in special)
        r = p.d - float(total.real)
        y = _root_of_eigenvalue(p, r)
        special = special + [SpecialRoot(seed=y, y=y, eigenvalue=complex(r))]
    msg = f"found {len(eig)} bulk + {nspecial} special roots, expected {p.n}"
    if short in (0, 1):
        res = _power_sum_residuals(p, eig, special)
        if short:
            _log.info("trace correction: recovered root %r; power-sum "
                      "residuals %.3g, %.3g", r, *res)
        tol = _power_sum_tol(p.n)
        if res[0] <= tol and res[1] <= tol:  # fails on NaN
            return bulk, special
        msg += f"; power-sum residuals {res[0]:.3g}, {res[1]:.3g}"
    raise RootCountAnomaly(msg, expected=p.n, bulk_count=len(eig),
                           special_count=nspecial, params=p)


def _assemble_reduced(p: SystemParams):
    """Bulk (ell, phi, eigenvalue) arrays and special roots of the n x n
    reduced matrix, by _certify_count.  Each bracket of the branch scan
    holds one root, so room = n - len(bulk) roots are left unbracketed:
    the seeds are refined only where room > 0, and of more special roots
    than room the one nearest the circle is a bulk root found twice."""
    bulk = _branch_root_arrays(p)
    if _on_a_plus_e_line(p):
        # f has the factor a y^2 - d tau y + a, whose root gives r = d
        y = _root_of_eigenvalue(p, p.d)
        return _certify_count(
            p, bulk, [SpecialRoot(seed=y, y=y, eigenvalue=complex(p.d))])
    room, special = p.n - len(bulk[0]), []
    for seed in _special_seeds(p) if room > 0 else ():
        try:
            y = refine_special_root(p, seed)
        except (NoConvergence, UnitCircleCollapse) as ex:
            # legal below the regime's n threshold: the root is still on
            # the circle and was picked up by the branch scan
            _log.info("special seed %r dropped: %s: %s", seed,
                      type(ex).__name__, ex)
            continue
        same = [s.y for s in special if abs(y - s.y) <= DEDUPE_TOL * abs(y)]
        if same:  # both seeds found one root (small n); counted below
            _log.info("special root %r dropped: seed %r found the kept "
                      "special root %r", y, seed, same[0])
            continue
        special.append(SpecialRoot(seed=seed, y=y,
                                   eigenvalue=eigenvalue_from_root(p, y)))
    if len(special) > room:  # one surplus at most: there are two seeds
        s = min(special, key=lambda s: abs(s.y))
        special.remove(s)
        _log.info("special root %r dropped: %d special roots converged and "
                  "the brackets leave room for %d; the one nearest the "
                  "unit circle is a bulk root found twice", s.y,
                  len(special) + 1, room)
    return _certify_count(p, bulk, special)


def _twin(p: SystemParams) -> SystemParams:
    """The decentralized twin (b, d) = (a+c, c-e) of p, whose full matrix
    less (a+c) I is -L, kept on p's memo with the label it keeps."""
    return p._kept("twin", lambda p: replace(p, b=p.a + p.c, d=p.c - p.e))


def _kept_assembly(p: SystemParams, q: SystemParams):
    """_assemble_reduced(q), kept on p's memo under the bits of q.d: q is
    p or its decentralized twin, which differ at most in b and d, and b
    does not enter the reduced matrix.  The bulk arrays are kept
    read-only and the special roots as a tuple; each call gets a fresh
    list of them.  An assembly that raises is not kept."""
    def frozen(_):
        bulk, special = _assemble_reduced(q)
        for x in bulk:
            x.flags.writeable = False
        return bulk, tuple(special)

    bulk, special = p._kept(float(q.d).hex(), frozen)  # -0.0 apart from 0.0
    return bulk, list(special)


def compute_spectrum(p: SystemParams, kind: str = "full") -> Spectrum:
    """Assemble the labeled spectrum of A (kind="full"), Q ("reduced"),
    or the negated Laplacian -L ("laplacian").

    -L depends on a, c, e alone (b and d cancel on the diagonal of
    L = D - A): it is the full matrix of the decentralized twin (b, d) =
    (a+c, c-e) minus (a+c) I, and it assembles by the same route as the
    other two kinds, so a failed assembly raises the same typed error.
    At c + e = 0 the twin's quadratic has the double root y0 = sqrt(c/a):
    once y0^(-2n) underflows, both seeds stop at y0, one is kept and the
    trace recovers the other, so the double zero mode of -L is held to
    rounding, where QR on the non-normal -L splits it by about sqrt(eps).

    The certified assembly of the reduced matrix is kept on p, keyed by
    the bits of its d (p.d, or c - e for -L), so every kind of p and
    every later call on p share one branch scan; for exactly
    decentralized p, -L shares it with "full" and "reduced".  The bulk
    arrays of the Spectrum are therefore read-only, p keeps them alive,
    and the INFO records of an assembly are logged on its first call
    only.  A failed assembly is not kept: it raises on every call.  The
    twin and the regime labels are kept on p too, so a call that finds
    its assembly kept only builds the Spectrum.
    """
    if kind not in ("full", "reduced", "laplacian"):
        raise DomainError(f"unknown matrix kind {kind!r}")
    q = _twin(p) if kind == "laplacian" else p
    regime = classify_regime(q)
    (ell, phi, eig), special = _kept_assembly(p, q)
    return Spectrum(leader=None if kind == "reduced" else q.b,
                    bulk_ell=ell, bulk_phi=phi, bulk_eigenvalue=eig,
                    special=special, regime=regime, matrix_kind=kind,
                    params=q,
                    shift=-(q.a + q.c) if kind == "laplacian" else 0.0)


def eigenvector_for(p: SystemParams, y: complex) -> EigenPair:
    """Eigenpair of the reduced matrix from a polynomial root y: r =
    sqrt(ac)(y + 1/y) and, up to a nonzero scale, v_k = (tau y)^k - (tau
    / y)^k, k = 1..n, formed with |y| >= 1 as (tau y)^(k-K) (1 - y^-2k),
    K = n if |tau y| >= 1 and 1 otherwise, so no power overflows."""
    y = complex(y)
    if y == 0:
        raise DomainError("y = 0 is outside the domain")
    if abs(y - 1) < 1e-12 or abs(y + 1) < 1e-12:
        raise DegenerateRoot(f"y = {y} yields the zero vector")
    y = y if abs(y) >= 1 else 1 / y
    t, k = p.tau * y, np.arange(1, p.n + 1)
    head = (1 / t) ** (p.n - k) if abs(t) >= 1 else t ** (k - 1)
    return EigenPair(eigenvalue=eigenvalue_from_root(p, y),
                     vector=head * (1 - (1 / y) ** (2 * k)))


def leader_eigenvector(p: SystemParams) -> EigenPair:
    """Eigenvector of the full matrix for the eigenvalue b, up to a
    nonzero scale; undefined when b^2 = 4ac (confluent case).

    Decentralized parameters give the constant vector exactly.  Otherwise
    v_k = q(x_-) x_-^(n-1) x_+^k - q(x_+) x_+^(n-1) x_-^k, k = 0..n, x_+-
    the roots of c x^2 - b x + a and q(x) = (a+e) + (d-b) x, so that the
    last row (a+e) v_(n-1) + (d-b) v_n vanishes.  Each term's largest
    entry (k = K = n if |x| >= 1, else 0) is formed in logs, and both
    terms are divided by the larger one.
    """
    a, b, c, d, e, n = p.a, p.b, p.c, p.d, p.e, p.n
    if is_decentralized(p):
        return EigenPair(eigenvalue=complex(b), vector=np.ones(n + 1))
    disc = b * b - 4 * a * c
    if abs(disc) < DISCRIMINANT_REL_TOL * max(b * b, 4 * a * c):
        raise DiscriminantCollapse("b^2 - 4ac vanishes; no simple eigenvector")
    x = np.array(_monic_roots(-b, 4 * a * c)) / (2 * c)
    big, s = abs(x) >= 1, max(abs(a + e), abs(d - b))
    with np.errstate(divide="ignore"):  # q = 0: that term vanishes
        top = (np.log((a + e) / s + (d - b) / s * x[::-1]) + n * big
               * np.log(x) + (n - 1) * np.log(x[::-1]))
    # x^(k-K) as a power of x or 1/x, whichever has modulus at most 1
    terms = (np.exp(top - top.real.max())[:, None]
             * np.where(big, 1 / x, x)[:, None]
             ** np.abs(np.arange(n + 1) - n * big[:, None]))
    return EigenPair(eigenvalue=complex(b), vector=terms[0] - terms[1])


def residual(M: np.ndarray, r: complex, v: np.ndarray) -> float:
    """Relative eigenpair residual ||Mv - rv|| / (||M||_F ||v||).
    DomainError if M, r or v holds an inf or a NaN."""
    M = np.asarray(M)
    v = np.asarray(v)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {M.shape}")
    if v.shape != (M.shape[0],):
        raise DimensionMismatch(
            f"vector length {v.shape} does not match order {M.shape[0]}")
    if not np.any(v):
        raise DimensionMismatch("vector must be nonzero")
    if not (np.isfinite(M).all() and np.isfinite(v).all()
            and np.isfinite(r)):
        raise DomainError("residual needs a finite matrix, value and vector")
    m, w = (2.0 ** np.frexp(np.abs(x).max())[1] for x in (M, v))
    M, r, v = M / m, r / m, v / w  # exact, and no norm overflows
    return float(np.linalg.norm(M @ v - r * v)
                 / (np.linalg.norm(M) * np.linalg.norm(v)))
