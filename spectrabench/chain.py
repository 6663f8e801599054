"""Independent references and the checks that compare outputs with them.

Nothing here calls flockspectra.  The chain is rebuilt from its
definition, and eigenvalues come from LAPACK on that matrix.  A
tridiagonal's eigenvalues depend only on its diagonal and on the
products of paired off-diagonals, so the reference factors each product
symmetrically: no powers of tau, nothing to overflow.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

EPS = np.finfo(float).eps
# Relative tolerance of an eigenvalue, a verify report or a B value; a
# move of 1e-8 of scale must fail.
SPECTRUM_TOL = 1e-9
# Trajectories: RK4 at the program's default step is off by its own
# truncation error, up to ~1e-6 of scale on second-order chains (it falls
# as dt^4); a snapshot moved by 1e-4 of scale must fail.
TRAJECTORY_TOL = 1e-5
# Largest n at which the reference runs a full LAPACK solve; above it the
# trace identities and the eigenvalue count are checked instead.
EIGH_LIMIT = 8192


class CheckFailed(Exception):
    """An output disagrees with its reference."""


@dataclass(frozen=True)
class Tridiagonal:
    diag: np.ndarray
    sub: np.ndarray      # M[k+1, k]
    sup: np.ndarray      # M[k, k+1]


def chain(a, c, b, d, e, n, kind):
    """The matrix of ``kind`` as a tridiagonal, plus the eigenvalues split
    off by its block-triangular leader row.

    reduced: n x n, sub-diagonal a (last a+e), super-diagonal c, diagonal
    0 except d at the bottom.  full: the leader row (b, 0, ...) adds the
    eigenvalue b.  laplacian: the eigenvalues of -L, with L = D - A and D
    the row sums; the leader row of L is zero, which adds the eigenvalue 0.
    """
    diag = np.zeros(n)
    diag[-1] = d
    sub = np.full(n - 1, float(a))
    sub[-1] = a + e
    sup = np.full(n - 1, float(c))
    if kind == "reduced":
        return Tridiagonal(diag, sub, sup), []
    if kind == "full":
        return Tridiagonal(diag, sub, sup), [complex(b)]
    if kind == "laplacian":
        rowsum = np.full(n, float(a + c))
        rowsum[-1] = a + e + d
        return Tridiagonal(diag - rowsum, sub, sup), [0j]
    raise ValueError(kind)


def tridiagonal_eigenvalues(t: Tridiagonal) -> np.ndarray:
    """LAPACK eigenvalues.  Non-negative off-diagonal products make the
    matrix similar to a symmetric one (stemr); otherwise the products are
    split as +-sqrt|w| in a dense matrix (dhseqr)."""
    import scipy.linalg as sl
    w = t.sub * t.sup
    if np.all(w >= 0):
        return sl.eigh_tridiagonal(t.diag, np.sqrt(w), eigvals_only=True
                                   ).astype(complex)
    r = np.sqrt(np.abs(w))
    M = np.diag(t.diag) + np.diag(r, 1) + np.diag(np.sign(w) * r, -1)
    return sl.eigvals(M)


def reference_spectrum(p, n, kind) -> np.ndarray:
    t, extra = chain(p.a, p.c, p.b, p.d, p.e, n, kind)
    return np.concatenate([np.array(extra, complex),
                           tridiagonal_eigenvalues(t)])


def spectrum_scale(p) -> float:
    """A size every eigenvalue of the three matrices is measured against."""
    return max(math.sqrt(p.a * p.c), abs(p.a), abs(p.c), abs(p.b),
               abs(p.d), abs(p.e))


def match_error(got, ref) -> float:
    """Largest distance under the best one-to-one matching."""
    got = np.asarray(got, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    if got.shape != ref.shape:
        raise CheckFailed(f"{got.size} eigenvalues, expected {ref.size}")
    if not np.all(np.isfinite(got)):
        raise CheckFailed("non-finite eigenvalue")
    if np.all(ref.imag == 0):
        # a real spectrum matches in sorted order
        return float(max(np.max(np.abs(np.sort(got.real) - np.sort(ref.real))),
                         np.max(np.abs(got.imag))))
    from scipy.optimize import linear_sum_assignment
    cost = np.abs(got[:, None] - ref[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))


def check_spectrum(got, ref, scale, tol=SPECTRUM_TOL) -> float:
    err = match_error(got, ref) / scale
    if not err <= tol:
        raise CheckFailed(f"spectrum off by {err:.3e} of scale (tol {tol:g})")
    return err


def trace_identities(p, n, kind):
    """Sum and sum of squares of the eigenvalues, from the matrix entries:
    sum(lambda) = trace and sum(lambda^2) = trace(M^2) =
    d^2 + 2c[(n-2)a + (a+e)] for the reduced matrix, plus b and b^2 for
    the full one."""
    if kind not in ("reduced", "full"):
        raise ValueError(kind)
    s1 = p.d
    s2 = p.d ** 2 + 2 * p.c * ((n - 2) * p.a + (p.a + p.e))
    if kind == "full":
        s1 += p.b
        s2 += p.b ** 2
    return s1, s2, n + (kind == "full")


def check_identities(got, p, n, kind) -> float:
    """O(n) check for spectra too large for a reference solve: the count,
    the first two power sums, and every non-real value in conjugate
    pairs.  Per-eigenvalue errors of 1e-16 add up to ~sqrt(n) 1e-16 in a
    sum, so the tolerance is n eps and the reported error is divided by
    sqrt(n)."""
    got = np.asarray(got, dtype=complex)
    s1, s2, count = trace_identities(p, n, kind)
    if got.size != count:
        raise CheckFailed(f"{got.size} eigenvalues, expected {count}")
    if not np.all(np.isfinite(got)):
        raise CheckFailed("non-finite eigenvalue")
    scale = spectrum_scale(p)
    e1 = abs(np.sum(got) - s1) / scale
    e2 = abs(np.sum(got * got) - s2) / (2 * scale * scale)
    tol = 16 * count * EPS
    if not (e1 <= tol and e2 <= tol):
        raise CheckFailed(f"power sums off by {e1:.3e}, {e2:.3e} "
                          f"(tol {tol:.1e})")
    if abs(np.sum(got.imag)) > tol * scale:
        raise CheckFailed("non-real eigenvalues are not in conjugate pairs")
    return max(e1, e2) / math.sqrt(count)


# --- stability verdicts -------------------------------------------------

def zero_resolution(p) -> float:
    """Modes of -L closer to 0 than this are below what double precision
    resolves at the sizes run here."""
    return 1e-8 * (p.a + p.c)


def check_verdict(verdict: str, p, lam_negL) -> None:
    """A verdict against the sign rule (stable iff a+e > 0, unstable when
    a+e < 0 and c+e != 0) and against an eigen-solve of -L.

    stable: no mode of -L with positive real part beyond resolution.
    unstable: one such mode, or a second mode at 0 within resolution (the
    O(|y|^-2n) mode the rule predicts).  inconclusive: only when the
    reference itself has a second unresolved zero mode.
    """
    tol = zero_resolution(p)
    lam = np.asarray(lam_negL, dtype=complex)
    positive = int(np.sum(lam.real > tol))
    at_zero = int(np.sum(np.abs(lam) <= tol))
    rule = "stable" if p.a + p.e > 0 else "unstable"
    if verdict == "inconclusive":
        if at_zero < 2:
            raise CheckFailed("inconclusive although the spectrum resolves "
                              "every mode")
        return
    if verdict != rule:
        raise CheckFailed(f"verdict {verdict!r}, sign rule says {rule!r}")
    if verdict == "stable" and positive:
        raise CheckFailed("stable, but -L has a mode with Re > 0")
    if verdict == "unstable" and not positive and at_zero < 2:
        raise CheckFailed("unstable, but every mode of -L decays")


# --- trajectories -------------------------------------------------------

def negative_laplacian_sparse(p, n):
    """-L as a sparse (n+1) x (n+1) matrix, leader row zero."""
    import scipy.sparse as sp
    m = n + 1
    A_sub = np.full(m - 1, float(p.a))
    A_sub[-1] = p.a + p.e
    A_sup = np.full(m - 1, float(p.c))
    A_sup[0] = 0.0                       # leader row is (b, 0, ...)
    A_diag = np.zeros(m)
    A_diag[0] = p.b
    A_diag[-1] = p.d
    rowsum = A_diag + np.concatenate([[0.0], A_sub]) \
        + np.concatenate([A_sup, [0.0]])
    return sp.diags([A_sub, A_diag - rowsum, A_sup], [-1, 0, 1],
                    format="csr")


def reference_states(p, n, h, x0, v0, alpha, beta, times):
    """h + expm(-L t)(x0 - h) for first order; the same on the state
    (x - h, v) with generator [[0, I], [-alpha L, -beta L]] for second
    order.  Returns positions (and velocities) at ``times``."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import expm_multiply
    negL = negative_laplacian_sparse(p, n)
    m = n + 1
    if v0 is None:
        G, y0 = negL, x0 - h
    else:
        G = sp.bmat([[None, sp.identity(m)], [alpha * negL, beta * negL]],
                    format="csr")
        y0 = np.concatenate([x0 - h, v0])
    out = np.array([expm_multiply(G * t, y0) for t in times])
    pos = out[:, :m] + h
    return pos, (out[:, m:] if v0 is not None else None)


def coherence_first(offsets):
    """Distance of x - h to the span of the constant vector."""
    return np.linalg.norm(offsets - offsets.mean(axis=-1, keepdims=True),
                          axis=-1)


def check_trajectory(got_pos, got_vel, ref_pos, ref_vel, h, x0,
                     tol=TRAJECTORY_TOL) -> float:
    """Relative distance of each snapshot to the reference, measured
    against the larger of the initial and the current offsets."""
    err = 0.0
    for k in range(len(ref_pos)):
        off = ref_pos[k] - h
        scale = max(np.max(np.abs(off)), np.max(np.abs(x0 - h)))
        if ref_vel is not None:
            scale = max(scale, np.max(np.abs(ref_vel[k])))
        e = np.max(np.abs(got_pos[k] - ref_pos[k])) / scale
        if ref_vel is not None:
            e = max(e, np.max(np.abs(got_vel[k] - ref_vel[k])) / scale)
        if not np.isfinite(e):
            raise CheckFailed("non-finite state")
        err = max(err, e)
    if not err <= tol:
        raise CheckFailed(f"trajectory off by {err:.3e} of scale "
                          f"(tol {tol:g})")
    return float(err)


# --- CLI documents ------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _validator(schema_path):
    import jsonschema
    with open(schema_path) as fh:
        return jsonschema.Draft202012Validator(json.load(fh))


def validate_cli_json(doc, schema_path) -> None:
    errors = list(_validator(schema_path).iter_errors(doc))
    if errors:
        raise CheckFailed(f"schema: {errors[0].message}")
