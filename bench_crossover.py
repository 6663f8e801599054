"""The closed form against LAPACK's tridiagonal eigensolvers, by n.

    python3 bench_crossover.py [--quick] [--output PATH]

Times compute_spectrum(p, "reduced") on fresh params against LAPACK's
dsterf (implicit QL/QR) and dstemr (MRRR), both for eigenvalues only
through scipy.linalg.eigh_tridiagonal, on the symmetrized reduced matrix
of a=1.3, c=0.7, d=0.9, e=0.4 (the ROADMAP Baseline set, whose spectrum
is real).  Each time is the best over rounds of the mean of a batch of
calls, the batch sized to take about 20 ms.  Next to each time it
records the largest difference between the closed form and each LAPACK
spectrum (both sorted) over 2 sqrt(ac), and the calibration reading of
spectrabench/clock.py before and after the row (its kernel's reference
time over its time now: 1 at the reference machine's fast state), so
that runs on a faster or slower moment of the CPU can be compared.
The git revision, Python, numpy and scipy versions and the BLAS thread
counts go in too.  BLAS runs on one thread unless OPENBLAS_NUM_THREADS
says otherwise.

It writes BENCH_35.json next to this script, or PATH; --quick stops at
n = 480 and takes fewer rounds.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import subprocess
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "src"))
sys.path.insert(0, os.path.join(HERE, "spectrabench"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.linalg import eigh_tridiagonal  # noqa: E402

from clock import Clock  # noqa: E402
from flockspectra import compute_spectrum, make_params  # noqa: E402
from flockspectra.model import tridiagonal  # noqa: E402

A, C, D, E = 1.3, 0.7, 0.9, 0.4
N_LADDER = (8, 24, 64, 160, 480, 2000, 8000)
QUICK_MAX_N = 480
BATCH_S = 0.02


def _best(fn, rounds: int) -> float:
    """Seconds per call: the least over rounds of the mean of a batch of
    calls, the batch sized from one call to take about BATCH_S."""
    t0 = time.perf_counter()
    fn()
    calls = max(1, min(50, round(BATCH_S / (time.perf_counter() - t0))))
    best = math.inf
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return best


def _symmetric(n: int):
    """Diagonal and off-diagonal of the reduced matrix made symmetric by
    a diagonal similarity: each off-diagonal pair x, y becomes sqrt(xy)."""
    sub, diag, sup = tridiagonal(make_params(A, C, None, D, E, n), "reduced")
    return diag, np.sqrt(sub * sup)


def _blas_threads():
    """{library: threads} for every OpenBLAS this process has loaded, from
    its get_num_threads entry point; None where that cannot be read."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps
                           if "openblas" in line.lower()})
    except OSError:
        return None
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads",
                     "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads"):
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.argtypes, get.restype = [], ctypes.c_int
                out[os.path.basename(path)] = get()
                break
    return out or None


def _revision():
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=HERE, capture_output=True, text=True,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def row(n: int, rounds: int, clock: Clock) -> dict:
    diag, off = _symmetric(n)
    theory = np.sort(compute_spectrum(make_params(A, C, None, D, E, n),
                                      "reduced").eigenvalues().real)
    scale = 2 * math.sqrt(A * C)
    out = {"n": n}
    clock(lambda: None)
    out["clock_scale_before"] = clock.scale
    out["compute_spectrum_s"] = _best(lambda: compute_spectrum(
        make_params(A, C, None, D, E, n), "reduced"), rounds)
    for name, routine in (("sterf", "sterf"), ("mrrr", "stemr")):
        want = eigh_tridiagonal(diag, off, eigvals_only=True,
                                lapack_driver=routine)
        out[f"{name}_s"] = _best(lambda: eigh_tridiagonal(
            diag, off, eigvals_only=True, lapack_driver=routine), rounds)
        out[f"{name}_over_closed_form"] = (out[f"{name}_s"]
                                           / out["compute_spectrum_s"])
        out[f"max_diff_{name}_over_2sqrt_ac"] = float(
            np.max(np.abs(theory - np.sort(want))) / scale)
    clock(lambda: None)
    out["clock_scale_after"] = clock.scale
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"n up to {QUICK_MAX_N} only, 3 rounds")
    parser.add_argument("--output", default=os.path.join(HERE,
                                                         "BENCH_35.json"))
    args = parser.parse_args(argv)
    ladder = [n for n in N_LADDER if not args.quick or n <= QUICK_MAX_N]
    rounds = 3 if args.quick else 7
    clock = Clock("python")  # read between timings, never during them
    rows = [row(n, rounds, clock) for n in ladder]
    doc = {
        "what": "compute_spectrum(p, 'reduced') against LAPACK dsterf and "
                "dstemr (eigenvalues only) on a symmetrized reduced matrix",
        "params": {"a": A, "c": C, "d": D, "e": E},
        "timing": "seconds per call: least over rounds of a batch mean",
        "rounds": rounds,
        "quick": args.quick,
        "git_revision": _revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "rows": rows,
    }
    with open(args.output, "w") as out:
        json.dump(doc, out, indent=2)
        out.write("\n")
    for r in rows:
        print(f"n={r['n']:>5}  closed form {r['compute_spectrum_s']:.3g} s"
              f"  sterf {r['sterf_s']:.3g} s  MRRR {r['mrrr_s']:.3g} s  "
              f"max diff {r['max_diff_mrrr_over_2sqrt_ac']:.2g}")


if __name__ == "__main__":
    main()
