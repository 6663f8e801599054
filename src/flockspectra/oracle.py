"""Independent ground-truth eigensolvers.

Two unrelated methods.  The first is LAPACK's Francis QR with aggressive
early deflation (``dhseqr`` through ``scipy.linalg.eigvals``).  The second
finds the roots of det(zI - M), evaluated by the three-term determinant
recurrence along the tridiagonal: multiple relatively robust
representations (MRRR, LAPACK ``dstemr``) on the symmetrized tridiagonal
when every off-diagonal product is non-negative, and Aberth-Ehrlich
simultaneous iteration otherwise.  Neither shares any code with the
transfer-matrix theory path, so each validates the other and both
validate the theory.

scipy is imported inside the functions that use it, so that importing
the package does not pay for it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, NoConvergence
from .model import SystemParams, _dense, tridiagonal

# Steps of the determinant recurrence between two joint rescalings of
# (p, p'); each step grows them by at most |z - d_k| + |w_k| + 1.
_RESCALE_EVERY = 8
_ABERTH_MAX_ITER = 800
_ABERTH_TOL = 1e-12


@dataclass(frozen=True)
class ValidationReport:
    """Matched distances between the theory path and the two oracles."""

    max_pairing_error: float
    method_agreement: float
    n: int
    regime: object  # RegimeLabel; kept loose to avoid a cyclic import

    def as_dict(self):
        return {
            "max_pairing_error": self.max_pairing_error,
            "method_agreement": self.method_agreement,
            "n": self.n,
            "regime": self.regime.as_dict() if self.regime is not None else None,
        }


def qr_eigenvalues(M: np.ndarray):
    """All eigenvalues of a real square matrix by LAPACK's Francis QR
    (``dgeev``/``dhseqr``: Hessenberg reduction, then multishift QR with
    aggressive early deflation).

    Raises DimensionMismatch for a non-square input, DomainError for a
    non-finite one, and NoConvergence if LAPACK fails to converge.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {A.shape}")
    if not np.isfinite(A).all():
        raise DomainError("matrix has non-finite entries")
    from scipy.linalg import LinAlgError, eigvals
    try:
        eigs = eigvals(A, check_finite=False)
    except LinAlgError as ex:
        raise NoConvergence(f"LAPACK QR failed: {ex}") from ex
    return eigs.astype(complex).tolist()


def matrix_for_kind(p: SystemParams, kind: str) -> np.ndarray:
    """The dense "full", "reduced" or "laplacian" matrix of p."""
    return _dense(*tridiagonal(p, kind))


def _newton_correction(z, d, w):
    """p(z)/p'(z) for p(z) = det(zI - M), from the recurrence
    D_k = (z - d_k) D_(k-1) - w_(k-1) D_(k-2) and its derivative.

    Row 0 of each state holds D, row 1 holds D'; both rows are divided by
    the same factor every few steps, which keeps them representable and
    leaves their ratio unchanged.  A z at which both vanish yields NaN.
    """
    prev = np.zeros((2, len(z)), dtype=complex)
    prev[0] = 1.0
    cur = np.empty_like(prev)
    cur[0] = z - d[0]
    cur[1] = 1.0
    for k in range(1, len(d)):
        nxt = (z - d[k]) * cur - w[k - 1] * prev
        nxt[1] += cur[0]
        prev, cur = cur, nxt
        if k % _RESCALE_EVERY == 0:
            s = np.abs(cur).max(axis=0)
            prev /= s
            cur /= s
    return cur[0] / cur[1]


def _aberth(d, w):
    """Aberth-Ehrlich iteration on the roots of det(zI - M).

    The bulk eigenvalues of this chain fill a real interval of half-width
    about 2 rho, rho the median coupling sqrt|w|, with spacing about
    2 pi rho / n near its centre.  Iterates start on an ellipse around
    that interval: centre trace/n, semi-axes 2 rho along the real axis
    and the smaller of rho/2 and one root spacing across it, so each
    starts near a root.  At n=480 this takes 19-27 sweeps where the
    rho/2 ellipse takes 81-88.  The angle offset keeps every iterate off
    the real axis.  An iterate whose correction falls below
    _ABERTH_TOL is frozen; the others still repel from it.
    """
    n = len(d)
    coupling = np.sqrt(np.abs(w))
    rho = float(np.median(coupling)) or float(np.max(coupling))
    theta = 2 * np.pi * np.arange(n) / n + 0.4
    z = (np.sum(d) / n + 2 * rho * np.cos(theta)
         + 1j * min(0.5, 2 * np.pi / n) * rho * np.sin(theta))
    active = np.arange(n)
    for _ in range(_ABERTH_MAX_ITER):
        za = z[active]
        ratio = _newton_correction(za, d, w)
        inv = za[:, None] - z[None, :]
        own = (np.arange(len(active)), active)
        inv[own] = 1.0
        np.reciprocal(inv, out=inv)
        inv[own] = 0.0
        step = ratio / (1.0 - ratio * inv.sum(axis=1))
        z[active] = za - step
        if not np.isfinite(z).all():
            raise NoConvergence("Aberth iteration left the finite range")
        moving = np.abs(step) > _ABERTH_TOL * max(1.0, np.max(np.abs(z)))
        active = active[moving]
        if not len(active):
            return z
    raise NoConvergence(f"Aberth iteration did not settle in "
                        f"{_ABERTH_MAX_ITER} sweeps")


def tridiag_polynomial_eigenvalues(M: np.ndarray):
    """Roots of det(zI - M) for a tridiagonal M, from the three-term
    determinant recurrence.

    The characteristic polynomial depends only on the diagonal d and the
    off-diagonal products w_k = sub_k * sup_k.  When every w_k >= 0 it is
    also the characteristic polynomial of the symmetric tridiagonal with
    off-diagonal sqrt(w), whose roots LAPACK ``dstemr`` finds by MRRR
    (dqds on a shifted LDL^T factorization, not QR).  Otherwise the roots
    are complex and Aberth-Ehrlich iteration finds them, with p/p'
    evaluated by the recurrence and its derivative.  No route expands the
    polynomial into monomial coefficients, which destroys the roots in
    double precision past degree ~50.  Entries off the three diagonals
    are not read.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {A.shape}")
    d = np.diag(A).copy()
    w = np.diag(A, -1) * np.diag(A, 1)
    if not (np.isfinite(d).all() and np.isfinite(w).all()):
        raise DomainError("matrix has non-finite entries")
    if (w >= 0).all():
        from scipy.linalg import LinAlgError, eigh_tridiagonal
        try:
            eigs = eigh_tridiagonal(d, np.sqrt(w), eigvals_only=True,
                                    lapack_driver="stemr", check_finite=False)
        except LinAlgError as ex:
            raise NoConvergence(f"LAPACK MRRR failed: {ex}") from ex
        return eigs.astype(complex).tolist()
    return _aberth(d, w).tolist()


def _tau_balance(p: SystemParams, M: np.ndarray) -> np.ndarray:
    """Similarity with diag(tau^k) of the tridiagonal M: the sub-diagonal
    is divided by tau and the super-diagonal multiplied by it, which
    symmetrizes the interior couplings to sqrt(ac) and conditions QR when
    tau is far from 1.  No power of tau is formed, so nothing overflows
    at large n.  Entries off the three diagonals are not read.
    """
    return _dense(np.diag(M, -1) / p.tau, np.diag(M), np.diag(M, 1) * p.tau)


def pairing_distance(u, v) -> float:
    """Max matched distance between two equal-size eigenvalue multisets.

    Sorted-by-(re, im) pairing first; if that looks ambiguous the exact
    optimal assignment is used instead.  Off the real axis the real part
    is rounded to 1e-9 for the sort, so that the two members of a
    conjugate pair whose real parts differ in the last bits sort the same
    way in both multisets; real eigenvalues closer than that keep their
    order.
    """
    if len(u) != len(v):
        raise DimensionMismatch(f"multisets have sizes {len(u)} and {len(v)}")

    def key(z):
        return (round(z.real, 9) if abs(z.imag) > 1e-9 else z.real), z.imag
    u = sorted((complex(z) for z in u), key=key)
    v = sorted((complex(z) for z in v), key=key)
    d_sorted = max(abs(a - b) for a, b in zip(u, v))
    if d_sorted < 1e-9 or len(u) > 600:
        return d_sorted
    from scipy.optimize import linear_sum_assignment
    ua = np.array(u)
    va = np.array(v)
    cost = np.abs(ua[:, None] - va[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))


def cross_validate(p: SystemParams, kind: str = "reduced") -> ValidationReport:
    """Theory path vs QR, and QR vs the determinant-recurrence roots, on
    one matrix.  Both oracles run on the tau-balanced similarity."""
    from .spectrum import compute_spectrum

    spec = compute_spectrum(p, kind)
    theory = spec.eigenvalues()
    B = _tau_balance(p, matrix_for_kind(p, kind))
    qr = qr_eigenvalues(B)
    roots = tridiag_polynomial_eigenvalues(B)
    if kind == "laplacian":
        # the theory path reports the spectrum of -L
        qr = [-z for z in qr]
        roots = [-z for z in roots]
    return ValidationReport(max_pairing_error=pairing_distance(theory, qr),
                            method_agreement=pairing_distance(qr, roots),
                            n=p.n, regime=spec.regime)
