"""
How fast do the special eigenvalues settle?
===========================================

Special eigenvalues come from roots of the characteristic equation that
sit off the unit circle.  As the matrix grows, each such root converges
geometrically to the root of a fixed quadratic -- so the eigenvalue
converges geometrically too.  This script measures the rate, checks the
predicted sign of the deviation, and shows the one place where the
branch-function bookkeeping genuinely gets delicate.
"""

from flockspectra import make_params
from flockspectra.perturb import (
    perturbation_sign,
    track_root_convergence,
    verify_branch_monotonicity,
)

# ----------------------------------------------------------------------
# Geometric convergence: deviations fall like kappa^{-n}.  The root
# itself is resolved only to about 1e-16, but the refiner solves for the
# deviation y(n) - y0 directly, so we drop the floor and follow it much
# further.

p = make_params(1.0, 2.0, 3.0, 1.0, 1.0, 20)
rep = track_root_convergence(p, [20, 40, 80, 160], deviation_floor=1e-250)
print(f"root target y0 -> {rep.r_expected:.6f}")
for n, dev in zip(rep.n_values, rep.deviations):
    print(f"  n={n:4d}  |y(n) - y0| = {dev:.3e}")
print(f"fitted rate kappa = {rep.fitted_rate:.4f}  "
      f"(R^2 = {rep.r_squared:.6f})")

# ----------------------------------------------------------------------
# The deviation has a predictable sign: -sgn(a+e).  At n=200 the
# deviation is around kappa^{-200}, far below the rounding of y0, yet
# its sign is resolved all the same.

for (a, c, b, d, e) in [(1.0, 2.0, 3.0, 1.5, 0.5),
                        (1.0, 3.0, 4.0, 5.0, -2.0)]:
    p = make_params(a, c, b, d, e, 10)
    signs = [perturbation_sign(p, n) for n in (50, 100, 200)]
    print(f"a+e={a + e:+.1f}: deviation signs at n=50,100,200 -> {signs}")

# ----------------------------------------------------------------------
# Bulk eigenvalues live on branches of a cotangent equation, one root
# per branch when the slope ratio B = (e-a)/(e+a) satisfies |B| <= 1.
# Large B breaks the monotone picture: sampling the branch function at
# the parameters below catches thousands of slope-sign violations.

clean = verify_branch_monotonicity(make_params(1, 1, 2, 1, 1, 50), 50)
print(f"\nB={clean[0].B:+.2f}: "
      f"{sum(len(r.violations) for r in clean)} violations across "
      f"{len(clean)} branches (monotone, as predicted)")

wild = verify_branch_monotonicity(make_params(1, 1, 2, -1.9, -1.05, 12), 12)
print(f"B={wild[0].B:+.2f}: "
      f"{sum(len(r.violations) for r in wild)} violations across "
      f"{len(wild)} branches (multi-root anomaly)")
