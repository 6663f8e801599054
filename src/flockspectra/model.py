"""Parameter validation and the chain's three diagonals.

The objects here are the single source of truth for the five boundary
parameters (a, c, b, d, e), the dimension n, and the derived ratio
tau = sqrt(a/c).  ``tridiagonal`` is the only code that knows the
entries of the full, reduced and Laplacian matrices; it returns them as
three diagonals, which is all the simulator needs and costs O(n).  The
dense builders assemble those diagonals into an array for the callers
that need one, such as the LAPACK QR oracle.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCoupling, DimensionTooSmall, DomainError

EPS = float(np.finfo(float).eps)
_PLAIN = frozenset((float, int))


@dataclass(frozen=True)
class SystemParams:
    """Validated scalar parameters of the boundary-perturbed chain.

    a, c are the sub/super diagonal couplings (both positive), b the
    leader's self-term, d and e the trailing-row boundary overrides, and
    n the reduced dimension (the full matrix is (n+1) x (n+1)).  Each
    instance keeps a private memo of results derived from it (see
    spectrum.compute_spectrum, spectrum.classify_regime and
    stability.first_order_verdict); it is not a field, so eq, hash, repr
    and dataclasses.replace never see it.
    """

    a: float
    c: float
    b: float
    d: float
    e: float
    n: int
    tau: float = field(init=False)

    def __post_init__(self):
        values = (self.a, self.c, self.b, self.d, self.e)
        # exact floats and ints pass without the slower abc checks
        if not ((type(self.n) is int and {*map(type, values)} <= _PLAIN
                 or all(isinstance(v, numbers.Real) for v in values)
                 and isinstance(self.n, numbers.Integral))
                and all(map(math.isfinite, values))):
            raise DomainError("parameters must be finite real numbers and "
                              f"n an integer, got {vars(self)}")
        if not (self.a > 0 and self.c > 0):
            raise DegenerateCoupling(
                f"need a > 0 and c > 0, got a={self.a}, c={self.c}")
        if self.n < 2:
            raise DimensionTooSmall(f"need n >= 2, got n={self.n}")
        # two roots, not sqrt(a/c): the ratio a/c can leave the float range
        object.__setattr__(self, "tau", math.sqrt(self.a) / math.sqrt(self.c))
        object.__setattr__(self, "_memo", {})

    def _kept(self, key, make):
        """make(self), formed on the first call with this key and kept on
        the memo for every later one."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = make(self)
        return value


def _integer(value, name: str = "value") -> int:
    """value as an int: an integer, a float with an integral value such
    as 5.0, or integer text such as "5".  Anything else, 2.9 or "a" say,
    raises DomainError; nothing is truncated."""
    try:
        k = int(value)
        if k == value or isinstance(value, str):
            return k
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{name} must be an integer, got {value!r}")


def make_params(a, c, b, d, e, n):
    """Convert the raw scalars and return a validated SystemParams.
    b=None stands for a + c, the decentralized leader term; a value that
    is not a finite number, or an n that is not an integer, raises
    DomainError."""
    try:
        a, c, d, e = float(a), float(c), float(d), float(e)
        b = a + c if b is None else float(b)
    except (TypeError, ValueError, OverflowError) as ex:
        raise DomainError(f"parameters must be finite numbers: {ex}") from None
    return SystemParams(a=a, c=c, b=b, d=d, e=e, n=_integer(n, "n"))


def is_decentralized(p: SystemParams) -> bool:
    """True iff b = a + c and c = e + d.

    Each identity is compared to within a few ulps of its terms,
    |b - (a+c)| <= 4 eps (|a| + |c| + |b|), so that parameters written in
    decimal (0.1 + 0.2 for 0.3) still count.
    """
    db = abs(p.b - (p.a + p.c))
    dc = abs(p.c - (p.e + p.d))
    return (db <= 4 * EPS * (abs(p.a) + abs(p.c) + abs(p.b))
            and dc <= 4 * EPS * (abs(p.e) + abs(p.d) + abs(p.c)))


def tridiagonal(p: SystemParams, kind: str = "full"):
    """(sub, diag, sup) of the "full", "reduced" or "laplacian" matrix.

    full, (n+1) x (n+1): leader row (b, 0, ...), interior rows (a, 0, c),
    last row (..., a+e, d).  reduced, n x n: its trailing block.
    laplacian: L = D - A with D the row sums of the full A; in the
    decentralized case (a+c) I - A, which annihilates the constant vector.
    The Laplacian's entries are rounded exactly as np.diag(A.sum(1)) - A
    rounds them: its last diagonal entry is (d + (a+e)) - d, and its zeros
    are +0.0.
    """
    a, c, n = p.a, p.c, p.n
    if kind == "laplacian":
        sub, diag, sup = np.full(n, -a), np.full(n + 1, a + c), np.full(n, -c)
        sub[-1], sup[0] = 0.0 - (a + p.e), 0.0
        diag[0], diag[-1] = 0.0, (p.d + (a + p.e)) - p.d
        return sub, diag, sup
    sub, diag, sup = np.full(n, a), np.zeros(n + 1), np.full(n, c)
    sub[-1], sup[0] = a + p.e, 0.0
    diag[0], diag[-1] = p.b, p.d
    if kind == "full":
        return sub, diag, sup
    if kind == "reduced":
        return sub[1:], diag[1:], sup[1:]
    raise DomainError(f"unknown matrix kind {kind!r}")


def _dense(sub, diag, sup) -> np.ndarray:
    """The square array with these three diagonals and zeros elsewhere."""
    M = np.diag(diag)
    np.fill_diagonal(M[1:], sub)
    np.fill_diagonal(M[:, 1:], sup)
    return M


def build_full_matrix(p: SystemParams) -> np.ndarray:
    """The dense (n+1) x (n+1) matrix of ``tridiagonal(p, "full")``."""
    return _dense(*tridiagonal(p, "full"))


def build_reduced_matrix(p: SystemParams) -> np.ndarray:
    """The dense n x n matrix of ``tridiagonal(p, "reduced")``."""
    return _dense(*tridiagonal(p, "reduced"))


def build_laplacian(p: SystemParams) -> np.ndarray:
    """The dense L = D - A of ``tridiagonal(p, "laplacian")``."""
    return _dense(*tridiagonal(p, "laplacian"))
