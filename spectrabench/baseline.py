"""Per-call times of the theory path and the oracles on one matrix.

    python3 spectrabench/baseline.py

Times compute_spectrum(p, "reduced") (theory), LAPACK eigvals, the
hand-written QR and Durand-Kerner on the tau-balanced reduced matrix of
a=1.3, c=0.7, d=0.9, e=0.4, as in the ROADMAP baseline table, with the
median of three calls.  An oracle is skipped above the size where one
call would take minutes; an error it raises is printed in its cell.  The
last column is the theory's largest distance to LAPACK.
"""
import os
import statistics
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402
import scipy.linalg as sl  # noqa: E402

from flockspectra import compute_spectrum, make_params  # noqa: E402
from flockspectra.model import build_reduced_matrix  # noqa: E402
from flockspectra.oracle import (_tau_balance, qr_eigenvalues,  # noqa: E402
                                 tridiag_polynomial_eigenvalues)

# largest n each method is run at
LIMITS = {"theory": 10 ** 6, "LAPACK eigvals": 4000, "hand QR": 500,
          "Durand-Kerner": 500}
N_LADDER = (120, 480, 1920, 30720)
REPEATS = 3


def timed(fn, repeats):
    times, out = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def main():
    print("| n | " + " | ".join(LIMITS) + " | theory vs LAPACK |")
    print("|---" * (len(LIMITS) + 2) + "|")
    for n in N_LADDER:
        p = make_params(1.3, 0.7, 2.0, 0.9, 0.4, n)
        calls = {
            "theory": lambda: compute_spectrum(p, "reduced").eigenvalues(),
            "LAPACK eigvals": lambda: sl.eigvals(
                _tau_balance(p, build_reduced_matrix(p))),
            "hand QR": lambda: qr_eigenvalues(
                _tau_balance(p, build_reduced_matrix(p))),
            "Durand-Kerner": lambda: tridiag_polynomial_eigenvalues(
                _tau_balance(p, build_reduced_matrix(p))),
        }
        cells, outs = [], {}
        for name, fn in calls.items():
            if n > LIMITS[name]:
                cells.append("-")
                continue
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    t, outs[name] = timed(fn, 1 if n > 200 and name in (
                        "hand QR", "Durand-Kerner") else REPEATS)
                cells.append(f"{t:.3g} s")
            except Exception as ex:   # report the failure in the table
                cells.append(type(ex).__name__)
        dist = "-"
        if "theory" in outs and "LAPACK eigvals" in outs:
            a = np.sort_complex(np.array(outs["theory"], complex))
            b = np.sort_complex(np.asarray(outs["LAPACK eigvals"], complex))
            dist = f"{np.max(np.abs(a - b)):.1e}"
        print(f"| {n} | " + " | ".join(cells) + f" | {dist} |", flush=True)


if __name__ == "__main__":
    main()
