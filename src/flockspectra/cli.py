"""Command-line frontend.

Subcommands: spectrum, classify, stability, simulate, convergence,
verify, monotonicity.  Parameters come from flags or a JSON config file
whose keys mirror the flag names; flags override the config.  Output is
JSON (default) or CSV, to stdout or --output.  Exit codes: 0 success,
1 domain error (JSON diagnostics on stderr), 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional

import numpy as np

from . import oracle, perturb, simulate as sim, spectrum as spec_mod
from .errors import DomainError, FlockSpectraError
from .model import make_params
from .stability import (SecondOrderParams, first_order_verdict,
                        second_order_verdict)

DEFAULT_N = 10
NOISE_SEED = 20260826
FLOAT_FMT = ".17g"

PARAM_KEYS = ("a", "c", "b", "d", "e", "n", "alpha", "beta",
              "t_end", "dt", "kind", "n_values", "samples",
              "spacing", "state_csv", "format", "output")


def _fmt(x) -> str:
    if isinstance(x, (bool, int, np.integer)):
        return str(int(x))
    return format(float(x), FLOAT_FMT)


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="flockspectra",
        description="Spectra, stability and simulation of "
                    "boundary-parameterized consensus chains.")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def add_common(sp, with_n=True):
        sp.add_argument("--a", type=float, help="interior sub-diagonal coupling (> 0)")
        sp.add_argument("--c", type=float, help="interior super-diagonal coupling (> 0)")
        sp.add_argument("--b", type=float,
                        help="leader self-term (default a+c)")
        sp.add_argument("--d", type=float, help="trailing-row diagonal override")
        sp.add_argument("--e", type=float, help="trailing-row sub-diagonal override")
        if with_n:
            sp.add_argument("--n", type=int,
                            help=f"reduced dimension (default {DEFAULT_N})")
        sp.add_argument("--format", choices=("json", "csv"), default=None,
                        help="output format (default json)")
        sp.add_argument("--output", default=None,
                        help="output path (default stdout)")
        sp.add_argument("--config", default=None,
                        help="JSON file whose keys mirror the flags; "
                             "explicit flags override it")

    sp = sub.add_parser("spectrum", help="labeled eigenvalues; CSV rows are "
                                         "(re, im, label)")
    add_common(sp)
    sp.add_argument("--kind", choices=("full", "reduced", "laplacian"),
                    default=None, help="matrix whose spectrum to compute "
                                       "(default full)")

    sp = sub.add_parser("classify", help="regime label (theorem, case)")
    add_common(sp)

    sp = sub.add_parser("stability", help="first- or second-order verdict "
                                          "(second order when --alpha/--beta "
                                          "are given)")
    add_common(sp)
    sp.add_argument("--alpha", type=float, default=None,
                    help="position-feedback gain (second order)")
    sp.add_argument("--beta", type=float, default=None,
                    help="velocity-feedback gain (second order)")

    sp = sub.add_parser("simulate", help="integrate the ODE; CSV columns are "
                                         "t, x_0..x_n[, v_0..v_n], "
                                         "coherence_error")
    add_common(sp)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--t-end", dest="t_end", type=float, default=None,
                    help="integration horizon (default 50)")
    sp.add_argument("--dt", type=float, default=None,
                    help="time step (default 0.5 / spectral radius)")
    sp.add_argument("--spacing", type=float, default=None,
                    help="default offset spacing: h_k = -k*spacing "
                         "(default 1)")
    sp.add_argument("--state-csv", dest="state_csv", default=None,
                    help="CSV with columns h,x0[,v0] overriding the "
                         "seeded defaults")

    sp = sub.add_parser("convergence", help="off-circle root deviations vs "
                                            "n; CSV rows are (n, deviation)")
    add_common(sp, with_n=False)
    sp.add_argument("--n-values", dest="n_values", default=None,
                    help="comma-separated n list (default 20,40,80,160)")

    sp = sub.add_parser("verify", help="cross-validate the labeled spectrum "
                                       "against the eigensolver oracles")
    add_common(sp)
    sp.add_argument("--kind", choices=("full", "reduced", "laplacian"),
                    default=None)

    sp = sub.add_parser("monotonicity", help="sampled branch-function "
                                             "monotonicity report")
    add_common(sp)
    sp.add_argument("--samples", type=int, default=None,
                    help="samples per branch (default 200)")
    return top


def _merge_config(args: argparse.Namespace) -> dict:
    merged = {}
    path = getattr(args, "config", None)
    if path:
        with open(path) as fh:
            cfg = json.load(fh)
        unknown = set(cfg) - set(PARAM_KEYS)
        if unknown:
            raise FlockSpectraError(
                f"unknown config keys: {sorted(unknown)}")
        merged.update(cfg)
    for key in PARAM_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _params_from(merged: dict):
    missing = [k for k in ("a", "c", "d", "e") if k not in merged]
    if missing:
        raise FlockSpectraError(f"missing parameters: {missing}")
    return make_params(merged["a"], merged["c"], merged.get("b"),
                       merged["d"], merged["e"], merged.get("n", DEFAULT_N))


def _value(merged: dict, key: str, default=None, kind=float):
    """merged[key], or default when absent, converted by kind (None stays
    None); a value that kind cannot convert raises DomainError."""
    val = merged.get(key, default)
    try:
        return None if val is None else kind(val)
    except (TypeError, ValueError, OverflowError) as ex:
        raise DomainError(f"invalid {key} {val!r}: {ex}") from None


def _int_list(raw) -> list:
    """A comma-separated string or a list, as a list of ints."""
    return [int(v) for v in
            (raw.replace(",", " ").split() if isinstance(raw, str) else raw)]


def _write(text: str, merged: dict):
    path = merged.get("output")
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(subcommand: str, merged: dict, result: dict, csv_rows=None):
    fmt = merged.get("format", "json")
    if fmt == "csv":
        if csv_rows is None:  # dict-shaped reports flatten to (key, value)
            csv_rows = [("key", "value")] + [
                (k, json.dumps(v, default=_json_default))
                for k, v in result.items()]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in csv_rows:
            writer.writerow([x if isinstance(x, str) else _fmt(x)
                             for x in row])
        _write(buf.getvalue(), merged)
        return
    doc = {"command": subcommand, "inputs": {
        k: v for k, v in merged.items() if k not in ("format", "output")},
        "result": result}
    _write(json.dumps(doc, indent=2, default=_json_default,
                      allow_nan=True) + "\n", merged)


def _cmd_spectrum(merged: dict):
    p = _params_from(merged)
    kind = merged.get("kind", "full")
    s = spec_mod.compute_spectrum(p, kind)
    rows = [("re", "im", "label")]
    rows += list(s.csv_rows())
    return s.as_dict(), rows


def _cmd_classify(merged: dict):
    p = _params_from(merged)
    return spec_mod.classify_regime(p).as_dict(), None


def _gains(merged: dict) -> Optional[SecondOrderParams]:
    """The second-order gains, or None when neither is given."""
    alpha, beta = _value(merged, "alpha"), _value(merged, "beta")
    if alpha is None and beta is None:
        return None
    if alpha is None or beta is None:
        raise FlockSpectraError("second order needs both --alpha and --beta")
    return SecondOrderParams(alpha, beta)


def _cmd_stability(merged: dict):
    p = _params_from(merged)
    so = _gains(merged)
    if so is None:
        return {**first_order_verdict(p).as_dict(), "order": 1}, None
    return {**second_order_verdict(p, so).as_dict(), "order": 2}, None


def _load_state_csv(path: str, m: int):
    data = np.genfromtxt(path, delimiter=",", names=True)
    names = data.dtype.names or ()
    missing = [k for k in ("h", "x0") if k not in names]
    if missing:
        raise DomainError(f"state CSV lacks the columns {missing}")
    h = np.asarray(data["h"], dtype=float)
    x0 = np.asarray(data["x0"], dtype=float)
    v0 = np.asarray(data["v0"], dtype=float) if "v0" in names else None
    return h, x0, v0


def _cmd_simulate(merged: dict):
    p = _params_from(merged)
    m = p.n + 1
    so = _gains(merged)
    if merged.get("state_csv"):
        h, x0, v0 = _load_state_csv(merged["state_csv"], m)
    else:
        spacing = _value(merged, "spacing", 1.0)
        h = -spacing * np.arange(m, dtype=float)
        rng = np.random.default_rng(NOISE_SEED)
        x0 = h + rng.normal(size=m)
        v0 = rng.normal(size=m) * 0.1 if so is not None else None
    cfg = sim.SimConfig(
        params=p, h=h, x0=x0, t_end=_value(merged, "t_end", 50.0),
        dt=_value(merged, "dt"), v0=v0,
        alpha=_value(merged, "alpha"), beta=_value(merged, "beta"))
    if so is not None:
        if v0 is None:
            raise FlockSpectraError("state CSV lacks a v0 column")
        traj = sim.simulate_second_order(cfg)
    else:
        traj = sim.simulate_first_order(cfg)
    result = {
        "times": traj.times.tolist(),
        "positions": traj.positions.tolist(),
        "velocities": None if traj.velocities is None
                      else traj.velocities.tolist(),
        "coherence_errors": traj.coherence_errors.tolist(),
    }
    return result, list(traj.csv_rows())


def _cmd_convergence(merged: dict):
    p = _params_from({**merged, "n": merged.get("n", DEFAULT_N)})
    n_values = _value(merged, "n_values", "20,40,80,160", _int_list)
    rep = perturb.track_root_convergence(p, n_values)
    rows = [("n", "deviation")]
    rows += [(n, d) for n, d in zip(rep.n_values, rep.deviations)]
    return rep.as_dict(), rows


def _cmd_verify(merged: dict):
    p = _params_from(merged)
    kind = merged.get("kind", "full")
    rep = oracle.cross_validate(p, kind)
    return rep.as_dict(), None


def _cmd_monotonicity(merged: dict):
    p = _params_from(merged)
    samples = _value(merged, "samples", 200, int)
    reports = perturb.verify_branch_monotonicity(p, p.n, samples)
    rows = [("branch", "phi", "slope")]
    for rep in reports:
        for phi, slope in rep.violations:
            rows.append((rep.branch, phi, slope))
    result = {
        "B": reports[0].B,
        "sample_count": samples,
        "total_violations": sum(len(r.violations) for r in reports),
        "branches": [r.as_dict() for r in reports],
    }
    return result, rows


_DISPATCH = {
    "spectrum": _cmd_spectrum,
    "classify": _cmd_classify,
    "stability": _cmd_stability,
    "simulate": _cmd_simulate,
    "convergence": _cmd_convergence,
    "verify": _cmd_verify,
    "monotonicity": _cmd_monotonicity,
}


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        merged = _merge_config(args)
        result, rows = _DISPATCH[args.subcommand](merged)
        _emit(args.subcommand, merged, result, rows)
    except (FlockSpectraError, OSError, json.JSONDecodeError) as ex:
        sys.stderr.write(json.dumps(
            {"error": type(ex).__name__, "message": str(ex)}) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
