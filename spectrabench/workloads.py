"""The five workloads: one round of operations each, built from a seed.

An operation's ``run`` calls the program and returns a small digest of
its output; ``check`` compares the digest with the references in
``chain`` and returns the relative error, or raises CheckFailed.  The
round's layout (which regime row at which n, which subcommand) is fixed;
the seed draws the parameter values and initial states, so every seed
costs about the same.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import flockspectra as fs
import numpy as np

import chain
from chain import CheckFailed
from inputs import (CELLS, ROUNDOFF_SET, ROWS, ParamSet, decentralized_set,
                    expected_row, general_set, initial_state, q)


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], float]
    args: tuple = ()          # the command line of a CLI operation


@dataclass
class Context:
    root: str                # checkout root, holding src/flockspectra
    out: str                 # directory for generated files and traces
    traced_cli: bool = False  # run CLI children through cli_child.py
    children: list = field(default_factory=list)  # traced children's dumps


class OpFailed(Exception):
    """A CLI child exited with a non-zero status."""


# --- sweep --------------------------------------------------------------

SWEEP_N = (24, 40, 64, 96, 160, 240, 320, 480)
# A fixed set next to the a+e=0 line: |B| = 19 raises the branch scan
# from 32 to 152 samples per branch.
HIGH_B_SET = ParamSet(a=1.0, c=1.5, b=-1.0, d=0.625, e=-0.9, row=("T1", "2"))


def _spectrum_op(ps: ParamSet, n: int, kind: str, so=None) -> Op:
    """classify_regime + compute_spectrum, and for decentralized sets both
    stability verdicts."""
    def run():
        p = fs.make_params(n=n, **ps.kwargs())
        label = fs.classify_regime(p)
        eig = np.array(fs.compute_spectrum(p, kind).eigenvalues(), complex)
        verdicts = None
        if ps.decentralized:
            verdicts = (fs.first_order_verdict(p).stable,
                        fs.second_order_verdict(
                            p, fs.SecondOrderParams(*so)).stable)
        cell = label.decentralized_cell
        return (label.theorem, label.case,
                None if cell is None else tuple(cell)), eig, verdicts

    def check(digest):
        label, eig, verdicts = digest
        if label[:2] != (ps.row or expected_row(ps)):
            raise CheckFailed(f"regime {label[:2]}, expected "
                              f"{ps.row or expected_row(ps)}")
        if label[2] != ps.cell:
            raise CheckFailed(f"decentralized cell {label[2]}, expected "
                              f"{ps.cell}")
        ref = chain.reference_spectrum(ps, n, kind)
        err = chain.check_spectrum(eig, ref, chain.spectrum_scale(ps))
        if ps.decentralized:
            lam = chain.reference_spectrum(ps, n, "laplacian")
            for v in verdicts:
                chain.check_verdict(v, ps, lam)
        return err

    return Op(f"spectrum {kind} n={n} {ps.row or ps.cell}", run, check)


def sweep(seed: int, ctx: Context):
    rng = np.random.default_rng([seed, 1])
    # three draws per row and cell: enough operations near the median
    # that op_p50_s does not jump between two of them
    sets = [general_set(rng, row) for row in ROWS for _ in range(3)]
    sets += [decentralized_set(rng, cell) for cell in CELLS for _ in range(3)]
    ops = []
    for i, ps in enumerate(sets):
        so = (q(rng.uniform(0.5, 2.0)), q(rng.uniform(0.5, 2.0)))
        ops.append(_spectrum_op(ps, SWEEP_N[i % len(SWEEP_N)],
                                ("full", "reduced")[i % 2], so))
    ops.append(_spectrum_op(HIGH_B_SET, 96, "reduced"))
    roundoff = ParamSet(**ROUNDOFF_SET, cell=("|e|<=a", "c>a"))
    ops.append(_spectrum_op(roundoff, 96, "full", (1.0, 1.0)))
    return ops


# --- scaling ------------------------------------------------------------

SCALING = [(1920, "reduced", ("T1", "1")), (3840, "full", ("T2", "2")),
           (7680, "reduced", ("T1", "3")), (15360, "full", ("T3", "2b")),
           (30720, "reduced", ("T3", "3"))]


def _large_spectrum_op(ps: ParamSet, n: int, kind: str) -> Op:
    def run():
        p = fs.make_params(n=n, **ps.kwargs())
        return np.array(fs.compute_spectrum(p, kind).eigenvalues(), complex)

    def check(eig):
        if n <= chain.EIGH_LIMIT and (ps.a + ps.e) * ps.c >= 0:
            return chain.check_spectrum(eig, chain.reference_spectrum(
                ps, n, kind), chain.spectrum_scale(ps))
        return chain.check_identities(eig, ps, n, kind)

    return Op(f"spectrum {kind} n={n} {ps.row}", run, check)


def scaling(seed: int, ctx: Context):
    rng = np.random.default_rng([seed, 2])
    return [_large_spectrum_op(general_set(rng, row), n, kind)
            for n, kind, row in SCALING]


# --- verify -------------------------------------------------------------

VERIFY_N = (30, 60, 120)


def _verify_op(ps: ParamSet, n: int, kind: str) -> Op:
    def run():
        p = fs.make_params(n=n, **ps.kwargs())
        rep = fs.oracle.cross_validate(p, kind)
        return (rep.max_pairing_error, rep.method_agreement, rep.n,
                (rep.regime.theorem, rep.regime.case))

    def check(digest):
        return _check_report(ps, n, *digest)

    return Op(f"cross_validate {kind} n={n} {ps.row or ps.cell}", run, check)


def _check_report(ps, n, pairing, agreement, rep_n, regime):
    if rep_n != n:
        raise CheckFailed(f"report for n={rep_n}, expected {n}")
    if tuple(regime) != (ps.row or expected_row(ps)):
        raise CheckFailed(f"regime {regime}")
    if not (math.isfinite(pairing) and math.isfinite(agreement)):
        raise CheckFailed(f"non-finite report: {pairing}, {agreement}")
    # Two iterative solvers and the closed form never match to the last
    # bit at these n: a zero distance means an oracle did not run.
    if not (pairing > 0 and agreement > 0):
        raise CheckFailed(f"zero distance in report: {pairing}, {agreement}")
    err = max(pairing, agreement) / chain.spectrum_scale(ps)
    if not err <= chain.SPECTRUM_TOL:
        raise CheckFailed(f"oracles disagree by {err:.3e} of scale")
    return err


def verify(seed: int, ctx: Context):
    rng = np.random.default_rng([seed, 3])
    # two sets per row: the oracles' iteration counts depend on the
    # parameters, and more draws average that out of the round's time
    sets = [general_set(rng, row) for row in ROWS for _ in range(2)]
    ops = [_verify_op(ps, VERIFY_N[i % 3], ("full", "reduced")[i % 2])
           for i, ps in enumerate(sets)]
    ops += [_verify_op(decentralized_set(rng, cell), 60, "laplacian")
            for cell in (CELLS[0], CELLS[4], CELLS[5], CELLS[8])]
    return ops


# --- simulate -----------------------------------------------------------

T_END = 50.0
SNAPSHOTS = 4
# (n, order, side); a+e > 0 is stable, a+e < 0 unstable.
SIMULATE = [(100, 1, "stable"), (100, 2, "unstable"),
            (400, 1, "unstable"), (400, 2, "stable"),
            (1600, 1, "stable"), (1600, 2, "unstable")]


def simulation_set(rng, side: str) -> ParamSet:
    """Decentralized sets with fixed a, c and e in a narrow band, so the
    spectral radius, hence the RK4 step count, hardly moves with the
    seed.  The unstable band keeps c+e > 0: its unstable mode sits
    O(|y|^-2n) above 0, so the states stay bounded and RK4's own error
    stays near round-off (a mode growing like e^(lambda t) would put RK4's
    truncation error, not the program's, into accuracy_digits)."""
    if side == "stable":
        a, c, e = 1.0, 1.5, q(rng.uniform(0.3, 0.7))
    else:
        a, c, e = 1.0, 2.5, q(rng.uniform(-1.9, -1.5))
    return ParamSet(a=a, c=c, b=a + c, d=c - e, e=e)


def _snapshot_rows(count: int):
    return sorted({count * (k + 1) // SNAPSHOTS - 1 for k in range(SNAPSHOTS)})


def _simulate_op(ps: ParamSet, n: int, order: int, rng) -> Op:
    h, x0, v0 = initial_state(rng, n + 1, order == 2)
    alpha = beta = 1.0 if order == 2 else None

    def run():
        p = fs.make_params(n=n, **ps.kwargs())
        cfg = fs.SimConfig(p, h, x0, T_END, v0=v0, alpha=alpha, beta=beta)
        traj = (fs.simulate_first_order if order == 1
                else fs.simulate_second_order)(cfg)
        rows = _snapshot_rows(len(traj.times))
        return (traj.times[rows], traj.positions[rows],
                None if traj.velocities is None else traj.velocities[rows],
                traj.coherence_errors[rows],
                _leader_drift(traj.positions, traj.velocities, x0, v0))

    def check(digest):
        return _check_states(ps, n, h, x0, v0, alpha, beta, *digest)

    return Op(f"simulate order={order} n={n}", run, check)


def _leader_drift(pos, vel, x0, v0) -> float:
    """How far the leader strays from rest (first order) or from constant
    velocity (second order)."""
    if vel is None:
        return float(np.max(np.abs(pos[:, 0] - x0[0])))
    return float(np.max(np.abs(vel[:, 0] - v0[0])))


def _check_states(ps, n, h, x0, v0, alpha, beta, times, pos, vel, coh,
                  leader_drift):
    if leader_drift > 1e-12 * max(np.max(np.abs(x0)), 1.0):
        raise CheckFailed(f"leader moved by {leader_drift:.3e}")
    ref_pos, ref_vel = chain.reference_states(ps, n, h, x0, v0, alpha, beta,
                                              times)
    err = chain.check_trajectory(pos, vel, ref_pos, ref_vel, h, x0)
    if v0 is None:
        want = chain.coherence_first(ref_pos - h)
        cerr = np.max(np.abs(coh - want) / np.maximum(
            want, np.max(np.abs(x0 - h))))
        if not cerr <= chain.TRAJECTORY_TOL:
            raise CheckFailed(f"coherence error off by {cerr:.3e}")
        err = max(err, float(cerr))
    return err


def simulate(seed: int, ctx: Context):
    rng = np.random.default_rng([seed, 4])
    return [_simulate_op(simulation_set(rng, side), n, order, rng)
            for n, order, side in SIMULATE]


# --- cli ----------------------------------------------------------------

def _num(x: float) -> str:
    return repr(float(x))


def _param_args(ps: ParamSet, n=None, with_b=True):
    args = ["--a", _num(ps.a), "--c", _num(ps.c), "--d", _num(ps.d),
            "--e", _num(ps.e)]
    if with_b:
        args += ["--b", _num(ps.b)]
    if n is not None:
        args += ["--n", str(n)]
    return args


def child_env(root: str) -> dict:
    """The environment of a child interpreter that imports the checkout's
    src/flockspectra."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _run_cli(ctx: Context, args):
    env = child_env(ctx.root)
    if ctx.traced_cli:
        here = os.path.dirname(os.path.abspath(__file__))
        cmd = [sys.executable, os.path.join(here, "cli_child.py")] + args
        env["SPECTRABENCH_TRACE_OUT"] = os.path.join(ctx.out, "child.json")
    else:
        cmd = [sys.executable, "-m", "flockspectra.cli"] + args
    proc = subprocess.run(cmd, capture_output=True, cwd=ctx.root, env=env)
    if ctx.traced_cli:
        with open(env["SPECTRABENCH_TRACE_OUT"]) as fh:
            dump = json.load(fh)
        dump["output_bytes"] = len(proc.stdout)
        ctx.children.append(dump)
    if proc.returncode != 0:
        raise OpFailed(f"exit {proc.returncode}: "
                       f"{proc.stderr.decode(errors='replace').strip()}")
    return proc.stdout


def _json_doc(out: bytes, schema: str):
    doc = json.loads(out)
    chain.validate_cli_json(doc, schema)
    return doc["result"]


def _csv_rows(out: bytes):
    return list(csv.reader(io.StringIO(out.decode())))


def _cli_op(ctx, label, args, check) -> Op:
    return Op(f"cli {label}", lambda: _run_cli(ctx, args), check, tuple(args))


def _write_state(ctx, name, h, x0, v0):
    path = os.path.join(ctx.out, name)
    with open(path, "w") as fh:
        cols = [("h", h), ("x0", x0)] + ([("v0", v0)] if v0 is not None
                                         else [])
        fh.write(",".join(c for c, _ in cols) + "\n")
        for k in range(len(h)):
            fh.write(",".join(_num(v[k]) for _, v in cols) + "\n")
    return path


def cli(seed: int, ctx: Context):
    """Two draws of every CLI operation: a CLI process's start-up time
    varies by ~20% from one process to the next, and a second draw
    averages that down in the round's time.  One decentralized
    ``classify`` on fixed inputs closes the round."""
    rng = np.random.default_rng([seed, 5])
    return (_cli_draw(rng, ctx, 0) + _cli_draw(rng, ctx, 1)
            + [_decentralized_classify_op(ctx)])


def _schema_path(ctx: Context) -> str:
    return os.path.join(ctx.root, "src", "flockspectra", "schemas",
                        "cli_output.schema.json")


# classify prints decentralized_cell as a list, which the CLI's own
# schema rejects (it asks for a string or null): this operation fails on
# every seed until the output or the schema is mended.
DECENTRALIZED_CLASSIFY_SET = ParamSet(a=1.0, c=2.0, b=3.0, d=1.5, e=0.5,
                                      cell=("|e|<=a", "c>a"))


def _decentralized_classify_op(ctx: Context) -> Op:
    ps = DECENTRALIZED_CLASSIFY_SET
    schema = _schema_path(ctx)
    args = ["classify"] + _param_args(ps, 100, with_b=False)

    def run():
        out = _run_cli(ctx, args)
        try:
            chain.validate_cli_json(json.loads(out), schema)
        except CheckFailed as ex:
            raise OpFailed(f"output fails the CLI schema: {ex}") from None
        return out

    def check(out):
        res = _json_doc(out, schema)
        if (res["theorem"], res["case"]) != expected_row(ps):
            raise CheckFailed(f"regime {res['theorem']} {res['case']}")
        cell = res["decentralized_cell"]
        text = "".join(cell) if isinstance(cell, list) else str(cell)
        if not all(part in text.replace(" ", "") for part in ps.cell):
            raise CheckFailed(f"decentralized cell {cell!r}, expected "
                              f"{ps.cell}")
        return 0.0

    return Op("cli classify decentralized", run, check, tuple(args))


def _cli_draw(rng, ctx: Context, draw: int):
    schema = _schema_path(ctx)
    ops = []

    def spectrum_from(result):
        vals = [] if result["leader"] is None else [complex(result["leader"])]
        vals += [complex(b["r"]) for b in result["bulk"]]
        vals += [complex(*s["r"]) for s in result["special"]]
        return vals

    ps_csv = general_set(rng, ("T3", "2b"))
    ops.append(_cli_op(ctx, "spectrum csv", ["spectrum", "--format", "csv",
                                             "--kind", "reduced"]
                       + _param_args(ps_csv, 60),
                       lambda out: chain.check_spectrum(
                           [complex(float(r[0]), float(r[1]))
                            for r in _csv_rows(out)[1:]],
                           chain.reference_spectrum(ps_csv, 60, "reduced"),
                           chain.spectrum_scale(ps_csv))))
    ps_json = general_set(rng, ("T2", "2"))
    ops.append(_cli_op(ctx, "spectrum json", ["spectrum", "--kind", "full"]
                       + _param_args(ps_json, 80),
                       lambda out: chain.check_spectrum(
                           spectrum_from(_json_doc(out, schema)),
                           chain.reference_spectrum(ps_json, 80, "full"),
                           chain.spectrum_scale(ps_json))))

    ps_cls = general_set(rng, ("T1", "3"))

    def check_classify(out):
        res = _json_doc(out, schema)
        if (res["theorem"], res["case"]) != ps_cls.row:
            raise CheckFailed(f"regime {res['theorem']} {res['case']}")
        return 0.0
    ops.append(_cli_op(ctx, "classify", ["classify"]
                       + _param_args(ps_cls, 100), check_classify))

    def stability_check(ps, n):
        def check(out):
            res = _json_doc(out, schema)
            chain.check_verdict(res["stable"], ps,
                                chain.reference_spectrum(ps, n, "laplacian"))
            return 0.0
        return check
    ps_st1 = decentralized_set(rng, ("e<-a", "c>a"))
    ops.append(_cli_op(ctx, "stability first order", ["stability"]
                       + _param_args(ps_st1, 40, with_b=False),
                       stability_check(ps_st1, 40)))
    ps_st2 = decentralized_set(rng, ("|e|<=a", "c<a"))
    ops.append(_cli_op(ctx, "stability second order",
                       ["stability", "--alpha", "1.0", "--beta", "0.5"]
                       + _param_args(ps_st2, 40, with_b=False),
                       stability_check(ps_st2, 40)))
    # d = 0.1 is c - e by hand, but 0.2 + 0.1 != 0.3 in binary: the
    # program rejects this decentralized set with NotDecentralized.
    ps_round = ParamSet(a=1.0, c=0.3, b=1.3, d=0.1, e=0.2)
    ops.append(_cli_op(ctx, "stability round-off",
                       ["stability", "--a", "1", "--c", "0.3", "--d", "0.1",
                        "--e", "0.2"], stability_check(ps_round, 10)))

    def simulate_check(ps, n, h, x0, v0, alpha, beta):
        def check(out):
            if v0 is None:
                table = np.array(_csv_rows(out)[1:], dtype=float)
                m = n + 1
                times, pos = table[:, 0], table[:, 1:m + 1]
                vel, coh = None, table[:, -1]
            else:
                res = _json_doc(out, schema)
                times = np.array(res["times"])
                pos = np.array(res["positions"])
                vel = np.array(res["velocities"])
                coh = np.array(res["coherence_errors"])
            rows = _snapshot_rows(len(times))
            drift = _leader_drift(pos, vel, x0, v0)
            return _check_states(ps, n, h, x0, v0, alpha, beta, times[rows],
                                 pos[rows], None if vel is None else vel[rows],
                                 coh[rows], drift)
        return check
    for order, fmt, n, t_end in ((1, "csv", 24, 50.0), (2, "json", 16, 30.0)):
        ps = simulation_set(rng, "stable" if order == 1 else "unstable")
        h, x0, v0 = initial_state(rng, n + 1, order == 2)
        path = _write_state(ctx, f"state-{order}-{draw}.csv", h, x0, v0)
        extra = ["--alpha", "1.0", "--beta", "1.0"] if order == 2 else []
        check = simulate_check(ps, n, h, x0, v0, 1.0 if order == 2 else None,
                               1.0 if order == 2 else None)
        ops.append(_cli_op(ctx, f"simulate order={order} {fmt}",
                           ["simulate", "--format", fmt, "--t-end",
                            _num(t_end), "--state-csv", path] + extra
                           + _param_args(ps, n), check))

    ps_conv = convergence_set(rng)

    def check_convergence(out):
        res = _json_doc(out, schema)
        y0 = quadratic_plus(ps_conv)
        err = abs(res["r_expected"] - y0) / y0
        rate = res["fitted_rate"]
        # the fit over n = 10, 20, 40 carries the O(n |y|^-2n) terms of
        # the asymptotics: 0.1-1.2% off |y+|^2 over 120 draws
        if not (err <= chain.SPECTRUM_TOL
                and abs(rate - y0 ** 2) <= 3e-2 * y0 ** 2):
            raise CheckFailed(f"|y0|={res['r_expected']!r} rate={rate!r}, "
                              f"expected {y0!r} and {y0 ** 2!r}")
        devs = res["deviations"]
        if not all(x > y > 0 for x, y in zip(devs, devs[1:])):
            raise CheckFailed(f"deviations not decreasing: {devs}")
        if any(s != -1 for s in res["sign_pattern"]):
            raise CheckFailed(f"deviation signs {res['sign_pattern']}, "
                              f"expected -sgn(a+e) = -1")
        return err
    ops.append(_cli_op(ctx, "convergence", ["convergence", "--n-values",
                                            "10,20,40"]
                       + _param_args(ps_conv), check_convergence))

    ps_ver = general_set(rng, ("T3", "2c"))
    ops.append(_cli_op(ctx, "verify", ["verify", "--kind", "reduced"]
                       + _param_args(ps_ver, 60),
                       lambda out: _check_report(
                           ps_ver, 60, *_verify_fields(_json_doc(out,
                                                                 schema)))))

    ps_mon = monotone_set(rng)

    def check_monotonicity(out):
        rows = _csv_rows(out)
        if rows != [["branch", "phi", "slope"]]:
            raise CheckFailed(f"{len(rows) - 1} monotonicity violations "
                              f"with B <= 1")
        return 0.0
    ops.append(_cli_op(ctx, "monotonicity csv", ["monotonicity", "--format",
                                                 "csv", "--samples", "100"]
                       + _param_args(ps_mon, 24), check_monotonicity))
    return ops


def _verify_fields(res):
    regime = res["regime"]
    return (res["max_pairing_error"], res["method_agreement"], res["n"],
            (regime["theorem"], regime["case"]))


def convergence_set(rng) -> ParamSet:
    """A T1 case 1 set (a+e > 0, one real off-circle root y+) with
    1.15 <= y+ <= 1.35, so the deviations at n = 10, 20, 40 stay above
    the 1e-14 fit floor."""
    a, c = q(rng.uniform(0.8, 1.5)), q(rng.uniform(0.8, 1.5))
    e = q(a * rng.uniform(0.1, 0.6))
    y = rng.uniform(1.15, 1.35)
    d = q((a * y * y - e) / (math.sqrt(a / c) * y))
    return ParamSet(a=a, c=c, b=a + c, d=d, e=e, row=("T1", "1"))


def quadratic_plus(ps: ParamSet) -> float:
    """y+ = (d tau + sqrt(d^2 tau^2 + 4ae)) / 2a."""
    dt = ps.d * math.sqrt(ps.a / ps.c)
    return (dt + math.sqrt(dt * dt + 4 * ps.a * ps.e)) / (2 * ps.a)


def monotone_set(rng) -> ParamSet:
    """e > 0, so B = (e-a)/(e+a) lies in (-1, 1): the branch function
    decreases on every branch."""
    a, c = q(rng.uniform(0.6, 2.0)), q(rng.uniform(0.6, 2.0))
    return ParamSet(a=a, c=c, b=a + c, d=q(rng.uniform(-2.0, 2.0)),
                    e=q(a * rng.uniform(0.2, 2.0)))


WORKLOADS = {"sweep": sweep, "scaling": scaling, "verify": verify,
             "simulate": simulate, "cli": cli}
