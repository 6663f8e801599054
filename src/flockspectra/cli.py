"""Command-line frontend.

Subcommands: spectrum, classify, stability, simulate, convergence,
verify, monotonicity.  PARAMS gives each parameter its converter,
default and help, COMMANDS each subcommand its help, flags and handler,
and the parser is generated from the two.  Parameters come from flags or
a JSON config file keyed by PARAMS (flags win); every key is valid for
every subcommand and takes the same converter and default either way.
Output is JSON (default) or CSV, to stdout or --output.  Exit codes: 0
success, 1 domain error (JSON diagnostics on stderr), 2 usage error.
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
from .model import _integer, make_params
from .stability import (SecondOrderParams, first_order_verdict,
                        second_order_verdict)

DEFAULT_N = 10
NOISE_SEED = 20260826
FLOAT_FMT = ".17g"


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


def _int_list(raw) -> list:
    """A comma-separated string or a list, as a list of ints."""
    return [_integer(v) for v in
            (raw.replace(",", " ").split() if isinstance(raw, str) else raw)]


# key -> (converter, default, help).  A tuple converter is the key's
# choices.  Flags and config entries go through the same converter and
# default.  The JSON inputs list the config file's keys in its order,
# then the flags' keys in this one.
PARAMS = {
    "a": (float, None, "interior sub-diagonal coupling (> 0)"),
    "c": (float, None, "interior super-diagonal coupling (> 0)"),
    "b": (float, None, "leader self-term (a+c when not given)"),
    "d": (float, None, "trailing-row diagonal override"),
    "e": (float, None, "trailing-row sub-diagonal override"),
    "n": (_integer, DEFAULT_N, "reduced dimension"),
    "alpha": (float, None, "position-feedback gain (second order)"),
    "beta": (float, None, "velocity-feedback gain (second order)"),
    "t_end": (float, 50, "integration horizon"),
    "dt": (float, None, "time step (0.5 / spectral radius when not given)"),
    "kind": (("full", "reduced", "laplacian"), "full",
             "matrix whose spectrum to compute"),
    "n_values": (_int_list, "20,40,80,160", "comma-separated n list"),
    "samples": (_integer, 200, "samples per branch"),
    "spacing": (float, 1, "default offset spacing: h_k = -k*spacing"),
    "state_csv": (str, None, "CSV with columns h,x0[,v0] overriding the "
                             "seeded defaults"),
    "format": (("json", "csv"), "json", "output format"),
    "output": (str, None, "output path (stdout when not given)"),
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="flockspectra",
        description="Spectra, stability and simulation of "
                    "boundary-parameterized consensus chains.")
    sub = top.add_subparsers(dest="subcommand", required=True)
    for name, (text, keys, _) in COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        for key in keys.split():
            conv, default, about = PARAMS[key]
            check = ({"choices": conv} if isinstance(conv, tuple) else
                     {"type": {float: float, _integer: int}.get(conv)})
            sp.add_argument("--" + key.replace("_", "-"), **check, help=(
                about if default is None else f"{about} (default {default})"))
        sp.add_argument("--config", help="JSON file keyed by the flag "
                        "names, '_' for '-'; explicit flags override it")
    return top


def _convert(key: str, value):
    """value through key's converter (None stays None); a value that
    the converter rejects raises DomainError."""
    conv = PARAMS[key][0]
    if isinstance(conv, tuple):
        if value is None or value in conv:
            return value
        raise DomainError(f"invalid {key}: {value!r} is not one of {conv}")
    try:
        return None if value is None else conv(value)
    except (TypeError, ValueError, OverflowError, DomainError) as ex:
        raise DomainError(f"invalid {key}: {ex}") from None


def _merge(args: argparse.Namespace):
    """(given, merged): the given values, config entries first and flags
    over them, and every PARAMS key's given value or default, converted."""
    given = {}
    if args.config:
        with open(args.config) as fh:
            given = json.load(fh)
        if not isinstance(given, dict):
            raise FlockSpectraError("the config file must hold a JSON object")
        unknown = set(given) - set(PARAMS)
        if unknown:
            raise FlockSpectraError(
                f"unknown config keys: {sorted(unknown)}")
    for key in PARAMS:
        val = getattr(args, key, None)
        if val is not None:
            given[key] = val
    return given, {key: _convert(key, given.get(key, default))
                   for key, (_, default, _) in PARAMS.items()}


def _params_from(merged: dict):
    missing = [k for k in ("a", "c", "d", "e") if merged[k] is None]
    if missing:
        raise FlockSpectraError(f"missing parameters: {missing}")
    return make_params(merged["a"], merged["c"], merged["b"], merged["d"],
                       merged["e"], merged["n"])


def _emit(subcommand: str, given: dict, merged: dict, result: dict,
          csv_rows=None):
    if merged["format"] == "csv":
        if csv_rows is None:  # dict-shaped reports flatten to (key, value)
            csv_rows = [("key", "value")] + [
                (k, json.dumps(v, default=_json_default))
                for k, v in result.items()]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in csv_rows:
            writer.writerow([x if isinstance(x, str) else _fmt(x)
                             for x in row])
        text = buf.getvalue()
    else:
        doc = {"command": subcommand, "inputs": {
            k: v for k, v in given.items() if k not in ("format", "output")},
            "result": result}
        text = json.dumps(doc, indent=2, default=_json_default,
                          allow_nan=True) + "\n"
    if merged["output"]:
        with open(merged["output"], "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_spectrum(p, merged: dict):
    s = spec_mod.compute_spectrum(p, merged["kind"])
    rows = [("re", "im", "label")]
    rows += list(s.csv_rows())
    return s.as_dict(), rows


def _cmd_classify(p, merged: dict):
    return spec_mod.classify_regime(p).as_dict(), None


def _gains(merged: dict) -> Optional[SecondOrderParams]:
    """The second-order gains, or None when neither is given."""
    alpha, beta = merged["alpha"], merged["beta"]
    if alpha is None and beta is None:
        return None
    if alpha is None or beta is None:
        raise FlockSpectraError("second order needs both --alpha and --beta")
    return SecondOrderParams(alpha, beta)


def _cmd_stability(p, merged: dict):
    so = _gains(merged)
    if so is None:
        return {**first_order_verdict(p).as_dict(), "order": 1}, None
    return {**second_order_verdict(p, so).as_dict(), "order": 2}, None


def _load_state_csv(path: str):
    data = np.genfromtxt(path, delimiter=",", names=True)
    names = data.dtype.names or ()
    missing = [k for k in ("h", "x0") if k not in names]
    if missing:
        raise DomainError(f"state CSV lacks the columns {missing}")
    h = np.asarray(data["h"], dtype=float)
    x0 = np.asarray(data["x0"], dtype=float)
    v0 = np.asarray(data["v0"], dtype=float) if "v0" in names else None
    return h, x0, v0


def _cmd_simulate(p, merged: dict):
    m = p.n + 1
    so = _gains(merged)
    if merged["state_csv"]:
        h, x0, v0 = _load_state_csv(merged["state_csv"])
    else:
        h = -merged["spacing"] * np.arange(m, dtype=float)
        rng = np.random.default_rng(NOISE_SEED)
        x0 = h + rng.normal(size=m)
        v0 = rng.normal(size=m) * 0.1 if so is not None else None
    cfg = sim.SimConfig(
        params=p, h=h, x0=x0, t_end=merged["t_end"], dt=merged["dt"],
        v0=v0, alpha=merged["alpha"], beta=merged["beta"])
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


def _cmd_convergence(p, merged: dict):
    rep = perturb.track_root_convergence(p, merged["n_values"])
    rows = [("n", "deviation")]
    rows += [(n, d) for n, d in zip(rep.n_values, rep.deviations)]
    return rep.as_dict(), rows


def _cmd_verify(p, merged: dict):
    return oracle.cross_validate(p, merged["kind"]).as_dict(), None


def _cmd_monotonicity(p, merged: dict):
    samples = merged["samples"]
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


# subcommand -> (help, PARAMS keys of its flags, handler).  Only _cmd_*
# handlers go here: they look the library up when called, so a name
# rebound at run time (a tracer's wrapper, say) is seen.
COMMANDS = {
    "spectrum": ("labeled eigenvalues; CSV rows are (re, im, label)",
                 "a c b d e n format output kind", _cmd_spectrum),
    "classify": ("regime label (theorem, case)",
                 "a c b d e n format output", _cmd_classify),
    "stability": ("first- or second-order verdict (second order when "
                  "--alpha/--beta are given)",
                  "a c b d e n format output alpha beta", _cmd_stability),
    "simulate": ("integrate the ODE; CSV columns are t, x_0..x_n[, "
                 "v_0..v_n], coherence_error",
                 "a c b d e n format output alpha beta t_end dt spacing "
                 "state_csv", _cmd_simulate),
    "convergence": ("off-circle root deviations vs n; CSV rows are "
                    "(n, deviation)",
                    "a c b d e format output n_values", _cmd_convergence),
    "verify": ("cross-validate the labeled spectrum against the "
               "eigensolver oracles",
               "a c b d e n format output kind", _cmd_verify),
    "monotonicity": ("sampled branch-function monotonicity report",
                     "a c b d e n format output samples",
                     _cmd_monotonicity),
}


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        given, merged = _merge(args)
        p = _params_from(merged)
        result, rows = COMMANDS[args.subcommand][2](p, merged)
        _emit(args.subcommand, given, merged, result, rows)
    except (FlockSpectraError, OSError, json.JSONDecodeError) as ex:
        sys.stderr.write(json.dumps(
            {"error": type(ex).__name__, "message": str(ex)}) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
