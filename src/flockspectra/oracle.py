"""Independent ground-truth eigensolvers.

Two unrelated methods.  The first is LAPACK QR: when M is tridiagonal
and every off-diagonal product is non-negative, root-free implicit QL/QR
(``dsterf``) on the symmetric tridiagonal with the same characteristic
polynomial, in O(n^2); otherwise Francis QR with aggressive early
deflation (``dhseqr`` through ``scipy.linalg.eigvals``) on the dense M,
in O(n^3).  The second finds the roots of det(zI - M), defined by the
three-term determinant recurrence along the tridiagonal, without
expanding it into monomial coefficients: multiple relatively robust
representations (MRRR, LAPACK ``dstemr``: dqds on a shifted LDL^T
factorization, not QR) on the symmetrized tridiagonal when every
off-diagonal product is non-negative, and Aberth-Ehrlich simultaneous
iteration otherwise.  Aberth's p/p' comes from the recurrence written as
banded unit lower-triangular systems, solved by LAPACK ``ztbtrs`` for
all iterates at once.  Both methods run on M scaled to unit size, so
their roots do not depend on the scale of M.  They share only that
scaling and the extraction of the diagonal and off-diagonal products
(_scaled_chain), and neither shares any code with the transfer-matrix
theory path, so each validates the other and both validate the theory.
cross_validate hands both the one scaled chain of the three diagonals;
a dense matrix is built only for dense Francis QR.  Every eigenvalue
multiset is returned as a 1-D complex array.

scipy is imported inside the functions that use it, so that importing
the package does not pay for it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, NoConvergence
from .model import SystemParams, _dense, tridiagonal

# Most cells (points x rows) in one banded solve of _newton_correction;
# at 16 bytes a cell, its band and right-hand sides stay under 3 MiB.
_CHUNK_CELLS = 1 << 15
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


def qr_eigenvalues(M: np.ndarray) -> np.ndarray:
    """All eigenvalues of a real square matrix by LAPACK QR, on M scaled
    to unit size (_scaled_chain), as a complex array.

    A tridiagonal M whose off-diagonal products w_k = sub_k sup_k are all
    >= 0 has the characteristic polynomial of the symmetric tridiagonal
    (d, sqrt(w)), whose eigenvalues root-free implicit QL/QR (``dsterf``)
    finds in O(n^2).  Any other M (a negative product, or an entry off
    the three diagonals) goes to Francis QR (``dgeev``/``dhseqr``:
    Hessenberg reduction, then multishift QR with aggressive early
    deflation) on the dense M, in O(n^3).

    Raises DimensionMismatch for a non-square input, DomainError for a
    non-finite one, and NoConvergence if LAPACK fails to converge.
    """
    A, tri = _diagonals(M)
    chain = _scaled_chain(*tri)
    if not np.isfinite(A).all():
        raise DomainError("matrix has non-finite entries")
    banded = np.count_nonzero(A) == sum(map(np.count_nonzero, tri))
    return _chain_qr(chain, lambda: A, banded)


def _chain_qr(chain, dense, banded=True):
    """qr_eigenvalues on a _scaled_chain; dense() gives the square matrix
    and is called only on the dense route."""
    d, w, s1, s2 = chain
    if not len(d):
        return np.empty(0, dtype=complex)
    from scipy.linalg import LinAlgError, eigh_tridiagonal, eigvals
    try:
        if banded and (w >= 0).all():
            eigs = eigh_tridiagonal(d, np.sqrt(w), eigvals_only=True,
                                    lapack_driver="sterf", check_finite=False)
        else:
            eigs = eigvals(dense() / s1 / s2, check_finite=False)
    except LinAlgError as ex:
        raise NoConvergence(f"LAPACK QR failed: {ex}") from ex
    return eigs.astype(complex) * s1 * s2


def _diagonals(M):
    """M as a square float array, and its (sub, diag, sup)."""
    try:
        A = np.asarray(M, dtype=float)
    except (TypeError, ValueError) as ex:
        raise DomainError(f"matrix must hold real numbers: {ex}") from None
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {A.shape}")
    return A, (np.diag(A, -1), np.diag(A), np.diag(A, 1))


def _scaled_chain(sub, diag, sup):
    """(d, w, s1, s2) of the tridiagonal (sub, diag, sup): two powers of
    two whose product s, perhaps 2^1024, is the power of two just above
    the largest |diag_k|, sqrt|sub_k sup_k|, and the diagonal d and
    off-diagonal products w_k = sub_k sup_k of the exact chain over s
    (empty for a 0 x 0 chain; w is empty for a 1 x 1 one).  Both oracles
    run on the chain over s: QR on the chain itself is wrong past about
    1e+-137, and sub_k sup_k overflows past 1e+-154.
    """
    if not all(np.isfinite(x).all() for x in (diag, sub, sup)):
        raise DomainError("matrix has non-finite entries")
    e = math.frexp(max(
        np.abs(diag).max(initial=0.0),
        (np.sqrt(np.abs(sub)) * np.sqrt(np.abs(sup))).max(initial=0.0)))[1]
    s1, s2 = math.ldexp(1.0, e // 2), math.ldexp(1.0, e - e // 2)
    return diag / s1 / s2, (sub / s1 / s2) * (sup / s1 / s2), s1, s2


def matrix_for_kind(p: SystemParams, kind: str) -> np.ndarray:
    """The dense "full", "reduced" or "laplacian" matrix of p."""
    return _dense(*tridiagonal(p, kind))


def _newton_correction(z, d, w):
    """p(z)/p'(z) for p(z) = det(zI - M), from the recurrence
    D_k = (z - d_k) D_(k-1) - w_(k-1) D_(k-2) and its derivative
    D'_k = (z - d_k) D'_(k-1) - w_(k-1) D'_(k-2) + D_(k-1).

    Both recurrences are unit lower-triangular banded systems (two
    sub-diagonals) in the rows of D and D', with the same band.  One
    LAPACK ``ztbtrs`` call solves a chunk of rows for every point of z at
    once, the points stacked block-diagonally; a second call gives D'
    from D shifted down one row.  Each block opens with two identity rows
    that carry D (or D') of the previous chunk's last two rows, divided
    per point by their largest modulus, which leaves D/D' unchanged.

    The entries must be scaled to |d|, |w| <= 1.  Then row k grows the
    pair (D_(k-1), D_k) by at most g = max|z| + 2 and shrinks it by at
    most g/|w_(k-1)| (a zero w_(k-1) splits the chain, and only D_(k-1)
    carries on).  So in a chunk whose rows' ln(g/|w_(k-1)|) sum to at
    most 600, D stays within a factor e^600 of its carried size either
    way, and D' grows no faster.  A z at which D and D' both vanish
    yields NaN.
    """
    from scipy.linalg.lapack import ztbtrs
    n, m = len(d), len(z)
    wpad = np.concatenate(([0.0], w))  # wpad[k] = w_(k-1)
    aw = np.abs(wpad)
    g = np.max(np.abs(z)) + 2
    edge = np.cumsum(np.log(g / np.where(aw > 0, aw, 1.0)))
    cap = max(1, _CHUNK_CELLS // m - 2)
    # D_(r-2), D_(r-1) per point; before row 0 they are 0 and the empty
    # determinant 1
    carry = np.zeros((m, 2), dtype=complex)
    carry[:, 1] = 1.0
    dcarry = np.zeros((m, 2), dtype=complex)
    r = 0
    while r < n:
        fit = np.searchsorted(edge, (edge[r - 1] if r else 0.0) + 600,
                              side="right") - r
        L = max(1, min(fit, cap, n - r)) + 2
        # LAPACK band storage (3, m L) in column-major order: entry
        # (i, j) holds the coefficient of unknown j in row i + j
        band = np.zeros((m, L, 3), dtype=complex)
        np.subtract(d[r:r + L - 2], z[:, None], out=band[:, 1:-1, 1])
        band[:, :-2, 2] = wpad[r:r + L - 2]
        band = band.reshape(m * L, 3).T
        rhs = np.zeros((m, L), dtype=complex)
        rhs[:, :2] = carry
        D, _ = ztbtrs(band, rhs.reshape(-1, 1), uplo="L", diag="U",
                      overwrite_b=1)
        D = D.reshape(m, L)
        rhs = np.empty((m, L), dtype=complex)
        rhs[:, :2] = dcarry
        rhs[:, 2:] = D[:, 1:-1]
        dD, _ = ztbtrs(band, rhs.reshape(-1, 1), uplo="L", diag="U",
                       overwrite_b=1)
        dD = dD.reshape(m, L)
        s = np.maximum(np.abs(D[:, -2:]).max(axis=1),
                       np.abs(dD[:, -2:]).max(axis=1))[:, None]
        carry = D[:, -2:] / s
        dcarry = dD[:, -2:] / s
        r += L - 2
    return carry[:, 1] / dcarry[:, 1]


def _aberth(d, w):
    """Aberth-Ehrlich iteration on the roots of det(zI - M), with p/p'
    from banded triangular solves (_newton_correction).  M must be
    scaled to max(|d|, sqrt|w|) in [1/2, 1).

    The bulk eigenvalues of this chain fill a real interval of half-width
    about 2 rho, rho the median coupling sqrt|w|, with spacing about
    2 pi rho / n near its centre.  Iterates start on an ellipse around
    that interval: centre trace/n, semi-axes 2 rho along the real axis
    and the smaller of rho/2 and one root spacing across it, so each
    starts near a root.  At n=480 this takes 19-27 sweeps where the
    rho/2 ellipse takes 81-88.  The angle offset keeps every iterate off
    the real axis.  An iterate whose correction falls below _ABERTH_TOL
    times max(1, max|z|) is frozen; the others still repel from it.  On
    the scaled M that test is relative to the size of M, so the iterates
    of a tiny M do not freeze on their starting ellipse.
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
    raise NoConvergence(
        f"Aberth iteration did not settle in {_ABERTH_MAX_ITER} sweeps: "
        f"{len(active)} of {n} points still moving, largest last step "
        f"{np.max(np.abs(step)):.3g} of the matrix scale")


def tridiag_polynomial_eigenvalues(M: np.ndarray) -> np.ndarray:
    """Roots of det(zI - M) for a tridiagonal M, from the three-term
    determinant recurrence, as a complex array.

    The characteristic polynomial depends only on the diagonal d and the
    off-diagonal products w_k = sub_k * sup_k.  When every w_k >= 0 it is
    also the characteristic polynomial of the symmetric tridiagonal with
    off-diagonal sqrt(w), whose roots LAPACK ``dstemr`` finds by MRRR
    (dqds on a shifted LDL^T factorization, not QR).  Otherwise the roots
    are complex and Aberth-Ehrlich iteration finds them, with p/p'
    from the recurrence and its derivative as banded triangular solves.
    Both routes run on M divided by the power of two of _scaled_chain, so
    the roots are found to the same relative accuracy at any scale of M,
    and w never leaves the float range.  No route expands the polynomial
    into monomial coefficients, which destroys the roots in double
    precision past degree ~50.  Entries off the three diagonals are not
    read.
    """
    return _chain_roots(_scaled_chain(*_diagonals(M)[1]))


def _chain_roots(chain):
    """tridiag_polynomial_eigenvalues on a _scaled_chain."""
    d, w, s1, s2 = chain
    if not len(d):
        return np.empty(0, dtype=complex)
    if (w >= 0).all():
        from scipy.linalg import LinAlgError, eigh_tridiagonal
        try:
            eigs = eigh_tridiagonal(d, np.sqrt(w), eigvals_only=True,
                                    lapack_driver="stemr", check_finite=False)
        except LinAlgError as ex:
            raise NoConvergence(f"LAPACK MRRR failed: {ex}") from ex
        return (eigs * s1 * s2).astype(complex)
    return _aberth(d, w) * s1 * s2


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
    optimal assignment is used instead.  Every threshold is relative to
    the largest modulus r in the two multisets, so the result scales with
    them.  Off the real axis the real part is rounded to 1e-9 r for the
    sort, so that the two members of a conjugate pair whose real parts
    differ in the last bits sort the same way in both multisets; real
    eigenvalues closer than that keep their order.  DimensionMismatch for
    multisets that are not 1-D or differ in size, DomainError for one
    that holds anything but finite numbers.
    """
    try:
        u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    except (TypeError, ValueError) as ex:
        raise DomainError(f"eigenvalues must be numbers: {ex}") from None
    if u.ndim != 1 or v.ndim != 1:
        raise DimensionMismatch(f"multisets must be 1-D, got shapes "
                                f"{u.shape} and {v.shape}")
    if len(u) != len(v):
        raise DimensionMismatch(f"multisets have sizes {len(u)} and {len(v)}")
    if not len(u):
        return 0.0
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise DomainError("eigenvalues must be finite")
    r = float(max(_modulus(u).max(), _modulus(v).max())) or 1.0
    u, v = u[_pairing_order(u, r)], v[_pairing_order(v, r)]
    d_sorted = float(_modulus(u - v).max())
    if d_sorted < 1e-9 * r or len(u) > 600:
        return d_sorted
    from scipy.optimize import linear_sum_assignment
    cost = np.abs(u[:, None] - v[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))


def _modulus(z):
    """|z| by hypot, as abs(complex) forms it (np.abs may differ in the
    last bit)."""
    return np.hypot(z.real, z.imag)


def _pairing_order(z, r):
    """The stable sort of z by (x, im), x = re/r, rounded off the real
    axis to 9 decimals as round(x, 9) rounds it: rint(1e9 x) / 1e9 is
    that value unless 1e9 x rounded onto a tie."""
    x = z.real / r
    y = x * 1e9
    k = np.rint(y)
    key = k / 1e9
    for i in np.flatnonzero(np.abs(y - k) == 0.5):
        key[i] = round(float(x[i]), 9)
    return np.lexsort((z.imag, np.where(np.abs(z.imag) > 1e-9 * r, key, x)))


def cross_validate(p: SystemParams, kind: str = "reduced") -> ValidationReport:
    """Theory path vs QR, and QR vs the determinant-recurrence roots, on
    one matrix.  Both oracles run on one scaled chain of the tau-balanced
    similarity (_tau_balance, applied to the three diagonals); the dense
    matrix is built only for dense QR."""
    from .spectrum import compute_spectrum

    spec = compute_spectrum(p, kind)
    sub, diag, sup = tridiagonal(p, kind)
    tri = sub / p.tau, diag, sup * p.tau
    chain = _scaled_chain(*tri)
    qr = _chain_qr(chain, lambda: _dense(*tri))
    roots = _chain_roots(chain)
    if kind == "laplacian":
        # the theory path reports the spectrum of -L
        qr, roots = -qr, -roots
    return ValidationReport(
        max_pairing_error=pairing_distance(spec.eigenvalues(), qr),
        method_agreement=pairing_distance(qr, roots), n=p.n,
        regime=spec.regime)
