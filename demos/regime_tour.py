"""
A tour of the spectral regimes
==============================

The matrices studied here are tridiagonal with constant interior
couplings ``a`` (sub-diagonal) and ``c`` (super-diagonal), plus two
boundary overrides in the last row: a diagonal ``d`` and a sub-diagonal
``e``.  As the boundary parameters move, eigenvalues peel off the bulk
cosine band ``[-2 sqrt(ac), 2 sqrt(ac)]`` and become "special":
exponentially close (in the matrix size n) to limits that depend only on
(a, c, d, e).

This script sweeps the boundary diagonal ``d`` through three regimes and
prints what happens to the spectrum.
"""

import numpy as np

from flockspectra import classify_regime, compute_spectrum, make_params

# ----------------------------------------------------------------------
# Fixed interior and trailing sub-diagonal; sweep d through the three
# sub-cases of the e < -a regime.

a, c, e, n = 1.0, 1.0, -2.25, 100
band = 2 * np.sqrt(a * c)
print(f"interior couplings a={a}, c={c}; boundary e={e}; n={n}")
print(f"bulk band: [{-band:.3f}, {band:.3f}]\n")

for d in (2.95, 3.05, 3.3):
    p = make_params(a, c, a + c, d, e, n)
    regime = classify_regime(p)
    s = compute_spectrum(p, "reduced")
    print(f"d={d}: regime ({regime.theorem}, case {regime.case})")
    for sp in s.special:
        r = sp.eigenvalue
        kind = "complex pair member" if abs(r.imag) > 1e-10 else "real"
        print(f"  special eigenvalue {r:.6f} ({kind}), "
              f"root y={sp.y:.4f}, |y|={abs(sp.y):.4f}")
    inside = sum(1 for b in s.bulk)
    print(f"  plus {inside} bulk eigenvalues inside the band\n")

# ----------------------------------------------------------------------
# The exactly balanced boundary e = -a factorizes the root equation:
# the bulk is an exact cosine grid and the one extra eigenvalue equals d.

p = make_params(1.0, 1.0, 2.0, 3.0, -1.0, 60)
s = compute_spectrum(p, "reduced")
eig = sorted(s.eigenvalues().real.tolist())
print("balanced boundary e=-a, d=3:")
print(f"  largest eigenvalue {eig[-1]:.12f}  (the boundary value d)")
print(f"  rest sit on 2cos(pi l / n): first three "
      f"{[round(x, 6) for x in eig[-4:-1]]}")
