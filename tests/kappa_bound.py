"""Per-eigenvalue error bounds for comparisons with LAPACK's dense
eigensolver on a non-normal matrix.

A backward-stable solver returns the exact eigenvalues of B + E with
||E|| about eps ||B||, and to first order an eigenvalue lambda_k then
moves by kappa_k ||E||, kappa_k = 1 / |l_k^H r_k| for unit left and
right eigenvectors l_k, r_k.  Near a double eigenvalue kappa_k grows
like 1/sqrt(eps), and so does the error of either side.  Eigenvalues
with kappa_k about 1 keep the flat bound.
"""
import numpy as np
import scipy.linalg
import scipy.optimize

EPS = float(np.finfo(float).eps)
# Multiple of eps kappa_k ||B|| allowed on top of the flat bound.
KAPPA_FACTOR = 8


def assert_within_kappa_bound(got, B, flat, norm):
    """Pair got with LAPACK's eigenvalues lambda_k of B (optimal
    assignment) and assert |got - lambda_k| <= flat + KAPPA_FACTOR eps
    kappa_k norm for every k, norm a norm of B."""
    lam, vl, vr = scipy.linalg.eig(B, left=True, right=True)
    kappa = 1 / np.abs(np.einsum("ij,ij->j", vl.conj(), vr))
    got = np.asarray(got, dtype=complex)
    assert got.shape == lam.shape
    rows, cols = scipy.optimize.linear_sum_assignment(
        np.abs(lam[:, None] - got[None, :]))
    err = np.abs(lam[rows] - got[cols])
    bound = flat + KAPPA_FACTOR * EPS * kappa[rows] * norm
    k = int(np.argmax(err - bound))
    assert err[k] <= bound[k], (
        f"eigenvalue {lam[rows[k]]} off by {err[k]:.3g} > {bound[k]:.3g} "
        f"(kappa {kappa[rows[k]]:.3g})")
