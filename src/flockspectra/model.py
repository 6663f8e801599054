"""Parameter validation and dense matrix construction.

The objects here are the single source of truth for the five boundary
parameters (a, c, b, d, e), the dimension n, and the derived ratio
tau = sqrt(a/c).  Matrices are materialized densely as numpy arrays:
the sizes of interest are at most a few thousand and the eigensolver
oracle wants dense storage anyway.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateCoupling, DimensionTooSmall


@dataclass(frozen=True)
class SystemParams:
    """Validated scalar parameters of the boundary-perturbed chain.

    a, c are the sub/super diagonal couplings (both positive), b the
    leader's self-term, d and e the trailing-row boundary overrides, and
    n the reduced dimension (the full matrix is (n+1) x (n+1)).
    """

    a: float
    c: float
    b: float
    d: float
    e: float
    n: int
    tau: float

    def __post_init__(self):
        if not (self.a > 0 and self.c > 0):
            raise DegenerateCoupling(
                f"need a > 0 and c > 0, got a={self.a}, c={self.c}")
        if self.n < 2:
            raise DimensionTooSmall(f"need n >= 2, got n={self.n}")
        if abs(self.tau ** 2 * self.c - self.a) > 8 * np.finfo(float).eps * self.a:
            raise ValueError("tau inconsistent with a, c")


def make_params(a, c, b, d, e, n):
    """Validate the raw scalars and return a SystemParams with tau filled in."""
    a, c, b, d, e = float(a), float(c), float(b), float(d), float(e)
    if not all(math.isfinite(v) for v in (a, c, b, d, e)):
        raise ValueError("parameters must be finite")
    if a <= 0 or c <= 0:
        raise DegenerateCoupling(f"need a > 0 and c > 0, got a={a}, c={c}")
    n = int(n)
    if n < 2:
        raise DimensionTooSmall(f"need n >= 2, got n={n}")
    return SystemParams(a=a, c=c, b=b, d=d, e=e, n=n, tau=math.sqrt(a / c))


def is_decentralized(p: SystemParams, tol: Optional[float] = None) -> bool:
    """True iff b = a + c and c = e + d.

    By default each identity is compared to within a few ulps of its
    terms, |b - (a+c)| <= 4 eps (|a| + |c| + |b|), so that parameters
    written in decimal (0.1 + 0.2 for 0.3) still count; a tolerance
    passed explicitly is an absolute bound on both differences.
    """
    db = abs(p.b - (p.a + p.c))
    dc = abs(p.c - (p.e + p.d))
    if tol is None:
        ulps = 4 * np.finfo(float).eps
        return (db <= ulps * (abs(p.a) + abs(p.c) + abs(p.b))
                and dc <= ulps * (abs(p.e) + abs(p.d) + abs(p.c)))
    return db <= tol and dc <= tol


def build_full_matrix(p: SystemParams) -> np.ndarray:
    """The (n+1) x (n+1) matrix: leader row (b, 0, ...), interior rows
    (a, 0, c), last row (..., a+e, d)."""
    m = p.n + 1
    A = np.zeros((m, m))
    A[0, 0] = p.b
    for k in range(1, m - 1):
        A[k, k - 1] = p.a
        A[k, k + 1] = p.c
    A[m - 1, m - 2] = p.a + p.e
    A[m - 1, m - 1] = p.d
    return A


def build_reduced_matrix(p: SystemParams) -> np.ndarray:
    """The n x n trailing block: sub-diagonal a, super-diagonal a/tau^2 (= c),
    zero diagonal except the bottom-right d, last-row sub-diagonal a+e."""
    return build_full_matrix(p)[1:, 1:].copy()


def build_laplacian(p: SystemParams) -> np.ndarray:
    """L = D - A with D the diagonal of row sums of A.

    In the decentralized case this reduces to (a+c) I - A and annihilates
    the constant vector.
    """
    A = build_full_matrix(p)
    return np.diag(A.sum(axis=1)) - A
