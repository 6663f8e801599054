"""Each check accepts a correct output and rejects a corrupted one.

    python3 spectrabench/test_checks.py
    python3 -m pytest spectrabench/test_checks.py

Correct outputs are built from the references themselves, so these tests
do not run the program.
"""
import json
import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402

import chain  # noqa: E402
import workloads  # noqa: E402
from chain import CheckFailed  # noqa: E402
from inputs import (CELLS, ParamSet, decentralized_set,  # noqa: E402
                    expected_row, general_set, initial_state)

SCHEMA = os.path.join(os.path.dirname(HERE), "src", "flockspectra", "schemas",
                      "cli_output.schema.json")


def rejects(fn, *args):
    try:
        fn(*args)
    except CheckFailed:
        return True
    return False


def moved(eig, by):
    eig = np.array(eig, dtype=complex)
    eig[len(eig) // 2] += by
    return eig


def test_spectrum_real_and_complex():
    rng = np.random.default_rng(0)
    for row in (("T1", "1"), ("T3", "2b")):
        ps = general_set(rng, row)
        ref = chain.reference_spectrum(ps, 40, "full")
        scale = chain.spectrum_scale(ps)
        assert chain.check_spectrum(ref[::-1], ref, scale) == 0.0
        assert rejects(chain.check_spectrum, moved(ref, 1e-8 * scale), ref,
                       scale)
        assert rejects(chain.check_spectrum, ref[1:], ref, scale)
    assert np.any(ref.imag != 0)       # the T3 2b set has a complex pair


def test_identities():
    ps = general_set(np.random.default_rng(1), ("T1", "3"))
    n = 3000
    ref = chain.reference_spectrum(ps, n, "full")
    scale = chain.spectrum_scale(ps)
    assert chain.check_identities(ref, ps, n, "full") < 1e-13
    assert rejects(chain.check_identities, moved(ref, 1e-8 * scale), ps, n,
                   "full")
    assert rejects(chain.check_identities, ref[1:], ps, n, "full")


def test_sweep_op_check():
    rng = np.random.default_rng(2)
    ps = decentralized_set(rng, CELLS[0])     # e < -a: unstable
    op = workloads._spectrum_op(ps, 48, "full", (1.0, 1.0))
    label = expected_row(ps) + (ps.cell,)
    eig = chain.reference_spectrum(ps, 48, "full")
    good = (label, eig, ("unstable", "unstable"))
    assert op.check(good) >= 0.0
    scale = chain.spectrum_scale(ps)
    for bad in ((("T9", "1", ps.cell), eig, good[2]),
                (label[:2] + (None,), eig, good[2]),
                (label, moved(eig, 1e-8 * scale), good[2]),
                (label, eig, ("stable", "unstable")),
                (label, eig, ("unstable", "inconclusive"))):
        assert rejects(op.check, bad)


def test_verdicts():
    stable = ParamSet(a=1.0, c=1.0, b=2.0, d=0.5, e=0.5)
    lam = chain.reference_spectrum(stable, 30, "laplacian")
    chain.check_verdict("stable", stable, lam)
    assert rejects(chain.check_verdict, "unstable", stable, lam)
    assert rejects(chain.check_verdict, "inconclusive", stable, lam)
    # a+e < 0 with c+e > 0: the unstable mode is hidden at 0
    hidden = ParamSet(a=1.0, c=3.0, b=4.0, d=5.0, e=-2.0)
    lam = chain.reference_spectrum(hidden, 40, "laplacian")
    chain.check_verdict("unstable", hidden, lam)
    chain.check_verdict("inconclusive", hidden, lam)
    assert rejects(chain.check_verdict, "stable", hidden, lam)
    # a mode with Re > 0 contradicts "stable" even if the rule says so
    assert rejects(chain.check_verdict, "stable", stable,
                   np.append(lam, 0.1))


def test_verify_report():
    ps = general_set(np.random.default_rng(3), ("T2", "1"))
    scale = chain.spectrum_scale(ps)
    assert workloads._check_report(ps, 60, 1e-13, 1e-13, 60, ps.row) < 1e-12
    assert rejects(workloads._check_report, ps, 60, 1e-6 * scale, 0.0, 60,
                   ps.row)
    assert rejects(workloads._check_report, ps, 60, 0.0, math.nan, 60, ps.row)
    assert rejects(workloads._check_report, ps, 60, 0.0, 0.0, 30, ps.row)
    assert rejects(workloads._check_report, ps, 60, 0.0, 0.0, 60, ("T1", "1"))
    # a report whose oracles did not run
    assert rejects(workloads._check_report, ps, 60, 1e-13, 0.0, 60, ps.row)
    assert rejects(workloads._check_report, ps, 60, 0.0, 1e-13, 60, ps.row)


def test_trajectories():
    rng = np.random.default_rng(4)
    n = 30
    for order in (1, 2):
        ps = workloads.simulation_set(rng, "stable")
        h, x0, v0 = initial_state(rng, n + 1, order == 2)
        ab = 1.0 if order == 2 else None
        times = np.array([5.0, 10.0])
        pos, vel = chain.reference_states(ps, n, h, x0, v0, ab, ab, times)
        coh = chain.coherence_first(pos - h)
        args = (ps, n, h, x0, v0, ab, ab, times)
        assert workloads._check_states(*args, pos, vel, coh, 0.0) < 1e-12
        scale = np.max(np.abs(x0 - h))
        bad = pos.copy()
        bad[1, 3] += 1e-4 * scale
        assert rejects(workloads._check_states, *args, bad, vel, coh, 0.0)
        assert rejects(workloads._check_states, *args, pos, vel, coh, 1e-3)
        if order == 1:
            assert rejects(workloads._check_states, *args, pos, vel,
                           coh * 1.001, 0.0)
    # the leader is at rest (first order) or at constant velocity
    pos = np.zeros((3, 4))
    vel = np.ones((3, 4))
    assert workloads._leader_drift(pos, vel, np.zeros(4), np.ones(4)) == 0.0
    pos[2, 0] = 1e-3
    assert workloads._leader_drift(pos, None, np.zeros(4), None) == 1e-3


def _cli_ops():
    with tempfile.TemporaryDirectory() as out:
        ctx = workloads.Context(root=os.path.dirname(HERE), out=out)
        return {op.label: op for op in workloads.cli(7, ctx)}


def test_cli_documents():
    doc = {"command": "classify", "inputs": {},
           "result": {"theorem": "T1", "case": "3"}}
    chain.validate_cli_json(doc, SCHEMA)
    doc["result"]["theorem"] = "T7"
    assert rejects(chain.validate_cli_json, doc, SCHEMA)

    ops = _cli_ops()
    mono = ops["cli monotonicity csv"]
    assert mono.check(b"branch,phi,slope\n") == 0.0
    assert rejects(mono.check, b"branch,phi,slope\n3,0.4,0.01\n")

    dc = ops["cli classify decentralized"]

    def classify_out(theorem, cell):
        return json.dumps({"command": "classify", "inputs": {}, "result": {
            "theorem": theorem, "case": "1", "decentralized_cell": cell,
            "predicted_specials": [3.0]}}).encode()
    assert dc.check(classify_out("T1", "|e|<=a, c>a")) == 0.0
    assert rejects(dc.check, classify_out("T1", "|e|<=a, c<a"))
    assert rejects(dc.check, classify_out("T1", None))
    assert rejects(dc.check, classify_out("T2", "|e|<=a, c>a"))

    conv = ops["cli convergence"]
    flags = dict(zip(conv.args[3::2], map(float, conv.args[4::2])))
    ps = ParamSet(**{k[2:]: v for k, v in flags.items()})
    y0 = workloads.quadratic_plus(ps)
    devs = [float(y0 ** (-2 * n)) for n in (10, 20, 40)]
    result = {"n_values": [10, 20, 40], "deviations": devs,
              "fitted_rate": y0 ** 2, "r_squared": 1.0, "r_expected": y0,
              "sign_pattern": [-1, -1, -1]}

    def out(**change):
        return json.dumps({"command": "convergence", "inputs": {},
                           "result": {**result, **change}}).encode()
    assert conv.check(out()) == 0.0
    assert rejects(conv.check, out(fitted_rate=1.1 * y0 ** 2))
    assert rejects(conv.check, out(sign_pattern=[-1, 1, -1]))
    assert rejects(conv.check, out(deviations=devs[::-1]))


if __name__ == "__main__":
    names = [k for k in sorted(globals()) if k.startswith("test_")]
    for name in names:
        globals()[name]()
        print(f"ok  {name}")
    print(f"{len(names)} checks tested")
