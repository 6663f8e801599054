"""Regime classification and full spectrum assembly.

The parameter plane splits into three theorem regimes by the size of e
relative to a (plus the exactly-solvable line a + e = 0), and each regime
into cases by d against the thresholds +-(a - e) sqrt(c/a) (and
+-2 sqrt(c|e|) inside the e < -a regime).  The case determines which of
the asymptotic special eigenvalues r+- materialize; the remaining
eigenvalues are bulk values 2 sqrt(ac) cos(psi_ell).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .charpoly import (BranchRoot, closed_form_branch_roots,
                       eigenvalue_from_root, find_branch_roots,
                       quadratic_roots, refine_special_root,
                       EPLUSA_THRESHOLD)
from .errors import (DegenerateRoot, DimensionMismatch, DiscriminantCollapse,
                     DomainError, NoConvergence, RootCountAnomaly,
                     UnitCircleCollapse)
from .model import SystemParams, build_laplacian, is_decentralized

CIRCLE_SEED_MARGIN = 1e-9
DEDUPE_TOL = 1e-9
DISCRIMINANT_REL_TOL = 1e-12


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


@dataclass(frozen=True)
class Spectrum:
    """Complete labeled eigenvalue set of one of the three matrices.

    For matrix_kind="laplacian" the reported values are the eigenvalues
    of -L (the system matrix of the consensus ODE): shift = -(a+c) is
    added to every labeled value.  For non-decentralized Laplacians the
    values come from the oracle and are stored unlabeled.
    """

    leader: Optional[float]
    bulk: List[BranchRoot]
    special: List[SpecialRoot]
    regime: RegimeLabel
    matrix_kind: str
    params: SystemParams
    shift: float = 0.0
    unlabeled: Optional[List[complex]] = None

    def eigenvalues(self) -> List[complex]:
        if self.unlabeled is not None:
            return list(self.unlabeled)
        out = []
        if self.leader is not None:
            out.append(complex(self.leader + self.shift))
        out.extend(complex(b.eigenvalue + self.shift) for b in self.bulk)
        out.extend(s.eigenvalue + self.shift for s in self.special)
        return out

    def as_dict(self):
        return {
            "matrix_kind": self.matrix_kind,
            "n": self.params.n,
            "params": {"a": self.params.a, "c": self.params.c,
                       "b": self.params.b, "d": self.params.d,
                       "e": self.params.e, "n": self.params.n},
            "regime": self.regime.as_dict(),
            "leader": None if self.leader is None else self.leader + self.shift,
            "bulk": [{"ell": b.ell, "phi": b.phi,
                      "r": b.eigenvalue + self.shift} for b in self.bulk],
            "special": [{"seed": [s.seed.real, s.seed.imag],
                         "y": [s.y.real, s.y.imag],
                         "r": [(s.eigenvalue + self.shift).real,
                               (s.eigenvalue + self.shift).imag]}
                        for s in self.special],
            "unlabeled": None if self.unlabeled is None else
                [[z.real, z.imag] for z in self.unlabeled],
        }

    def csv_rows(self):
        """(re, im, label) rows, one eigenvalue per row."""
        rows = []
        if self.unlabeled is not None:
            return [(z.real, z.imag, "oracle") for z in self.unlabeled]
        if self.leader is not None:
            rows.append((self.leader + self.shift, 0.0, "leader"))
        for b in self.bulk:
            rows.append((b.eigenvalue + self.shift, 0.0, f"bulk:{b.ell}"))
        for s in self.special:
            z = s.eigenvalue + self.shift
            rows.append((z.real, z.imag, "special"))
        return rows


def _decentralized_cell(p: SystemParams):
    """(row, col) of the special-eigenvalue table plus predicted values."""
    a, c, e = p.a, p.c, p.e
    row = "e<-a" if e < -a else ("e>a" if e > a else "|e|<=a")
    col = "c<a" if c < a else ("c>a" if c > a else "c=a")
    sac = math.sqrt(a * c)

    def mirror():
        return -(a * c / e + e)

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
    cases touch, the earlier-listed case wins.
    """
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

    if abs(e + a) < EPLUSA_THRESHOLD * a:
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
        s = 2 * math.sqrt(c * abs(e))
        if d <= -s:
            return label("T3", "2a")
        if d < s:
            return label("T3", "2b")
        return label("T3", "2c")
    return label("T3", "3")


def _special_seeds(p: SystemParams, regime: RegimeLabel):
    """The quadratic roots the regime predicts as off-circle seeds."""
    q = quadratic_roots(p)
    plus, minus = q.y_plus, q.y_minus
    table = {
        ("T1", "1"): [plus], ("T1", "2"): [], ("T1", "3"): [minus],
        ("T2", "1"): [plus], ("T2", "2"): [plus, minus], ("T2", "3"): [minus],
        ("T3", "1"): [minus], ("T3", "2a"): [plus, minus],
        ("T3", "2b"): [plus, minus], ("T3", "2c"): [plus, minus],
        ("T3", "3"): [plus],
    }
    return table[(regime.theorem, regime.case)]


def _p31_special(p: SystemParams) -> SpecialRoot:
    """The exact extra root for a + e = 0: the polynomial factors and the
    quadratic a y^2 - d tau y + a contributes exactly one eigenvalue, d."""
    a, d, tau = p.a, p.d, p.tau
    disc = d * d * tau * tau - 4 * a * a
    root = cmath.sqrt(complex(disc))
    y1 = (d * tau + root) / (2 * a)
    y2 = (d * tau - root) / (2 * a)
    y = y1 if abs(y1) >= abs(y2) else y2
    return SpecialRoot(seed=y, y=y, eigenvalue=eigenvalue_from_root(p, y))


def _assemble_reduced(p: SystemParams, regime: RegimeLabel):
    """Bulk and special roots of the n x n reduced matrix."""
    if regime.theorem == "P31":
        return closed_form_branch_roots(p), [_p31_special(p)]
    bulk = find_branch_roots(p)
    special = []
    for seed in _special_seeds(p, regime):
        if abs(seed) <= 1.0 + CIRCLE_SEED_MARGIN:
            continue
        try:
            y = refine_special_root(p, seed)
        except (NoConvergence, UnitCircleCollapse):
            # legal below the regime's n threshold: the root is still on
            # the circle and was picked up by the branch scan
            continue
        special.append(SpecialRoot(seed=seed, y=y,
                                   eigenvalue=eigenvalue_from_root(p, y)))
    total = len(bulk) + len(special)
    if total > p.n:
        # a special root at a regime boundary may duplicate a bulk root
        # that converged to a branch endpoint (y near +-1)
        scale = 2 * math.sqrt(p.a * p.c)
        keep = []
        for s in special:
            if any(abs(s.eigenvalue - b.eigenvalue) < DEDUPE_TOL * scale
                   for b in bulk):
                continue
            keep.append(s)
        special = keep
        total = len(bulk) + len(special)
    if total != p.n:
        raise RootCountAnomaly(
            f"found {len(bulk)} bulk + {len(special)} special roots, "
            f"expected {p.n}", expected=p.n, bulk_count=len(bulk),
            special_count=len(special), params=p)
    return bulk, special


def compute_spectrum(p: SystemParams, kind: str = "full") -> Spectrum:
    """Assemble the labeled spectrum of A (kind="full"), Q ("reduced"),
    or the negated Laplacian -L ("laplacian").

    The decentralized Laplacian spectrum is the full spectrum shifted by
    -(a+c).  Non-decentralized Laplacians have non-constant row sums, so
    the shift identity fails and the oracle is used directly, as it is
    when the closed-form assembly of a decentralized Laplacian fails.
    """
    if kind not in ("full", "reduced", "laplacian"):
        raise DomainError(f"unknown matrix kind {kind!r}")
    regime = classify_regime(p)
    try:
        if kind != "laplacian" or is_decentralized(p):
            bulk, special = _assemble_reduced(p, regime)
            if kind == "reduced":
                return Spectrum(leader=None, bulk=bulk, special=special,
                                regime=regime, matrix_kind=kind, params=p)
            shift = -(p.a + p.c) if kind == "laplacian" else 0.0
            return Spectrum(leader=p.b, bulk=bulk, special=special,
                            regime=regime, matrix_kind=kind, params=p,
                            shift=shift)
    except (RootCountAnomaly, NoConvergence):
        # Boundary parameters (e.g. c+e=0, where the off-circle quadratic
        # has a double root) can defeat the assembly; the oracle applies.
        if kind != "laplacian":
            raise
    from .oracle import qr_eigenvalues
    eigs = qr_eigenvalues(-build_laplacian(p))
    return Spectrum(leader=None, bulk=[], special=[], regime=regime,
                    matrix_kind=kind, params=p, unlabeled=list(eigs))


def eigenvector_for(p: SystemParams, y: complex) -> EigenPair:
    """Eigenpair of the reduced matrix from a polynomial root y:
    v_k = (tau y)^k - (tau / y)^k for k = 1..n, r = sqrt(ac)(y + 1/y)."""
    y = complex(y)
    if y == 0:
        raise DomainError("y = 0 is outside the domain")
    if abs(y - 1) < 1e-12 or abs(y + 1) < 1e-12:
        raise DegenerateRoot(f"y = {y} yields the zero vector")
    k = np.arange(1, p.n + 1)
    v = (p.tau * y) ** k - (p.tau / y) ** k
    return EigenPair(eigenvalue=eigenvalue_from_root(p, y), vector=v)


def leader_eigenvector(p: SystemParams) -> EigenPair:
    """Eigenvector of the full matrix for the eigenvalue b.

    Decentralized parameters give the constant vector exactly.  Otherwise
    v_k = x_+^k + c_- x_-^k with x_+- the transfer-matrix eigenvalues at
    r = b; undefined when b^2 = 4ac (confluent case, out of scope).
    """
    a, b, c, d, e, n = p.a, p.b, p.c, p.d, p.e, p.n
    if is_decentralized(p):
        return EigenPair(eigenvalue=complex(b), vector=np.ones(n + 1))
    disc = b * b - 4 * a * c
    if abs(disc) < DISCRIMINANT_REL_TOL * max(b * b, 4 * a * c):
        raise DiscriminantCollapse("b^2 - 4ac vanishes; no simple eigenvector")
    root = cmath.sqrt(complex(disc))
    x_plus = (b + root) / (2 * c)
    x_minus = (b - root) / (2 * c)
    num = (a + e) + (d - b) * x_plus
    den = (c / a) * (a + e) * x_plus + (d - b)
    c_minus = -((c / a) ** n) * x_plus ** (2 * n - 1) * num / den
    k = np.arange(0, n + 1)
    v = x_plus ** k + c_minus * x_minus ** k
    return EigenPair(eigenvalue=complex(b), vector=v)


def residual(M: np.ndarray, r: complex, v: np.ndarray) -> float:
    """Relative eigenpair residual ||Mv - rv|| / (||M||_F ||v||)."""
    M = np.asarray(M)
    v = np.asarray(v)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {M.shape}")
    if v.shape != (M.shape[0],):
        raise DimensionMismatch(
            f"vector length {v.shape} does not match order {M.shape[0]}")
    if not np.any(v):
        raise DimensionMismatch("vector must be nonzero")
    return float(np.linalg.norm(M @ v - r * v)
                 / (np.linalg.norm(M) * np.linalg.norm(v)))
