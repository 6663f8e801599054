"""Spans and counts around flockspectra's public functions, from outside.

``Tracer.install`` wraps each function in ``TARGETS`` and rebinds the
name in every flockspectra module that holds it (``spectrum`` imports
``find_branch_roots`` by name, ``cli`` imports the verdicts, and so on),
so calls between modules are seen too.  Spans stay in memory until
``dump``.  Per-sample functions get a counter, not a span.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, traced name, "span" | "count")
TARGETS = [
    ("model", "make_params", "model.make_params", "span"),
    ("model", "is_decentralized", "model.is_decentralized", "span"),
    ("model", "build_full_matrix", "model.build_full_matrix", "span"),
    ("model", "build_reduced_matrix", "model.build_reduced_matrix", "span"),
    ("model", "build_laplacian", "model.build_laplacian", "span"),
    ("charpoly", "eval_polynomial", "charpoly.eval_polynomial", "count"),
    ("charpoly", "eval_cotangent_residual",
     "charpoly.eval_cotangent_residual", "count"),
    ("charpoly", "quadratic_roots", "charpoly.quadratic_roots", "span"),
    ("charpoly", "special_eigen_estimates",
     "charpoly.special_eigen_estimates", "span"),
    ("charpoly", "closed_form_branch_roots",
     "charpoly.closed_form_branch_roots", "span"),
    ("charpoly", "find_branch_roots", "charpoly.find_branch_roots", "span"),
    ("charpoly", "refine_special_root", "charpoly.refine_special_root",
     "span"),
    ("charpoly", "eigenvalue_from_root", "charpoly.eigenvalue_from_root",
     "span"),
    ("spectrum", "classify_regime", "spectrum.classify_regime", "span"),
    ("spectrum", "compute_spectrum", "spectrum.compute_spectrum", "span"),
    ("oracle", "qr_eigenvalues", "oracle.qr_eigenvalues", "span"),
    ("oracle", "tridiag_polynomial_eigenvalues",
     "oracle.tridiag_polynomial_eigenvalues", "span"),
    ("oracle", "pairing_distance", "oracle.pairing_distance", "span"),
    ("oracle", "matrix_for_kind", "oracle.matrix_for_kind", "span"),
    ("oracle", "cross_validate", "oracle.cross_validate", "span"),
    ("stability", "laplacian_spectrum", "stability.laplacian_spectrum",
     "span"),
    ("stability", "first_order_verdict", "stability.first_order_verdict",
     "span"),
    ("stability", "second_order_eigenvalues",
     "stability.second_order_eigenvalues", "span"),
    ("stability", "second_order_verdict", "stability.second_order_verdict",
     "span"),
    ("simulate", "spectral_radius_estimate",
     "simulate.spectral_radius_estimate", "span"),
    ("simulate", "coherence_error", "simulate.coherence_error", "span"),
    ("simulate", "simulate_first_order", "simulate.simulate_first_order",
     "span"),
    ("simulate", "simulate_second_order", "simulate.simulate_second_order",
     "span"),
    ("simulate", "_rk4", "simulate.rk4", "span"),
    ("perturb", "track_root_convergence", "perturb.track_root_convergence",
     "span"),
    ("perturb", "perturbation_sign", "perturb.perturbation_sign", "span"),
    ("perturb", "verify_branch_monotonicity",
     "perturb.verify_branch_monotonicity", "span"),
    ("perturb", "branch_function", "perturb.branch_function", "count"),
    ("cli", "main", "cli.main", "span"),
]

# Laplacian matvecs per right-hand-side evaluation.
_MATVECS = {"simulate.simulate_first_order": 1,
            "simulate.simulate_second_order": 2}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent index, start, end, failed]
        self.counts = Counter()
        self._stack = []
        self._undo = []
        self._laplacian_nbytes = 0

    # -- recording --------------------------------------------------------

    def span(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else None, 0.0, 0.0, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[4] = True
                raise
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _laplacian(self, fn):
        def wrapper(*args, **kwargs):
            L = fn(*args, **kwargs)
            self._laplacian_nbytes = L.nbytes
            return L
        return self.span("model.build_laplacian", wrapper)

    def _rk4(self, fn):
        counts = self.counts

        def wrapper(f, *args, **kwargs):
            # the top of the stack is this call's own rk4 span; the
            # simulate_* call that made it is one level below
            caller = self.spans[self.spans[self._stack[-1]][1]][0]
            per_eval = _MATVECS[caller] * self._laplacian_nbytes

            def rhs(y):
                counts["simulate.rhs_evals"] += 1
                counts["simulate.matvec_bytes"] += per_eval
                return f(y)
            return fn(rhs, *args, **kwargs)
        return self.span("simulate.rk4", wrapper)

    # -- installing -------------------------------------------------------

    def install(self):
        import flockspectra.cli  # noqa: F401  (so its names are rebound too)
        for module, attr, name, mode in TARGETS:
            orig = getattr(sys.modules[f"flockspectra.{module}"], attr)
            if name == "model.build_laplacian":
                wrapped = self._laplacian(orig)
            elif name == "simulate.rk4":
                wrapped = self._rk4(orig)
            elif mode == "count":
                wrapped = self._count(name, orig)
            else:
                wrapped = self.span(name, orig)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or mod_name.split(".")[0] != "flockspectra":
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))

    def uninstall(self):
        for mod, key, orig in reversed(self._undo):
            setattr(mod, key, orig)
        self._undo.clear()

    # -- reading ----------------------------------------------------------

    def summary(self):
        """Totals per traced name: s (time in calls), self_s (minus the
        traced calls beneath), calls, failed; per-layer self time; and
        qr_eigenvalues calls made beneath laplacian_spectrum."""
        child = defaultdict(float)
        for name, parent, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, parent, start, end, failed) in enumerate(self.spans):
            dur = end - start
            own = dur - child[i]
            out[f"{name}.s"] += dur
            out[f"{name}.self_s"] += own
            out[f"{name}.calls"] += 1
            out[f"{name}.failed"] += failed
            out[f"{name.split('.')[0]}.self_s"] += own
            if name == "oracle.qr_eigenvalues" and self._beneath(
                    i, "stability.laplacian_spectrum"):
                out["stability.laplacian_spectrum.oracle_fallbacks"] += 1
        for name, value in self.counts.items():
            out[name if not name.startswith(("charpoly.", "perturb."))
                else f"{name}.calls"] += value
        return dict(out)

    def _beneath(self, i, name):
        parent = self.spans[i][1]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False

    def dump(self, path, extra=None):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       **(extra or {})}, fh)
