"""Benchmark of flockspectra: one workload per process.

    python3 spectrabench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout holding src/flockspectra.  The workload
repeats whole rounds of its operations until the next round would end
after --seconds, then checks every output against the references in
chain.py.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 the
workload runs once untraced and once with tracing.Tracer installed, and
the metrics are the per-layer ones, per round.  Results and traces are
written under spectrabench/out/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

# One BLAS thread, for this process and the CLI children: the workloads
# are single-threaded by design, and OpenBLAS threads that spin while the
# other core is busy made dense matvec times vary by 5x between runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from clock import Clock  # noqa: E402  (after the thread settings)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 5
ERROR_FLOOR = 1e-17       # accuracy_digits tops out at 17
# The RK4 workload spends its time in BLAS matvecs; the rest in the
# interpreter (see clock.py).
CLOCK_KERNEL = {"simulate": "blas"}


def setup_probe(module: str, env: dict, importtime=False):
    """Seconds from starting a fresh interpreter until it has imported
    ``module`` and said so; with ``importtime``, also the interpreter's
    -X importtime report."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        "-c", f"import {module}, sys; sys.stdout.write('ready\\n'); "
              f"sys.stdout.flush(); sys.stdin.read()"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=ROOT, env=env)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    _, err = proc.communicate(b"")
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError(f"import {module} failed: {err.decode()[-500:]}")
    return ready, err.decode()


def current_cpu() -> int:
    """The CPU this process last ran on (field 39 of /proc/self/stat)."""
    with open("/proc/self/stat") as fh:
        stat = fh.read()
    return int(stat[stat.rindex(")") + 2:].split()[36])


def cumulative_import_s(report: str, module: str) -> float:
    """Cumulative seconds of ``module`` in a -X importtime report."""
    for line in report.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) * 1e-6
    return 0.0


def _same(x, y) -> bool:
    if isinstance(x, tuple) and isinstance(y, tuple):
        return len(x) == len(y) and all(_same(u, v) for u, v in zip(x, y))
    if hasattr(x, "shape") or hasattr(y, "shape"):
        import numpy as np
        return (hasattr(x, "shape") and hasattr(y, "shape")
                and x.shape == y.shape and bool(np.array_equal(x, y)))
    return type(x) is type(y) and x == y


class Phase:
    """Timed rounds of one op list.  A digest equal to one kept from an
    earlier round of the same op is not kept again, so memory does not
    grow with the number of rounds."""

    def __init__(self, ops):
        self.ops = ops
        self.records = []        # (op index, reference seconds, digest key)
        self.digests = [[] for _ in ops]
        self.failures = []       # (op label, exception)
        self.rounds = 0

    def op_medians(self, completed=False):
        """Each op's median reference seconds over the rounds (only over
        the calls that returned, with ``completed``)."""
        per_op = [[] for _ in self.ops]
        for i, dt, key in self.records:
            if key is not None or not completed:
                per_op[i].append(dt)
        return [statistics.median(ts) for ts in per_op if ts]

    def median_round(self) -> float:
        """Reference seconds of a round made of each op's median time."""
        return sum(self.op_medians())

    def run(self, kernel, seconds=None, rounds=None, around=None):
        start = time.perf_counter()
        with Clock(kernel) as clock:
            while True:
                for i, op in enumerate(self.ops):
                    digest, exc, dt = clock(op.run if around is None
                                            else around(op.run))
                    if exc is not None:
                        self.records.append((i, dt, None))
                        self.failures.append((op.label, exc))
                        continue
                    kept = self.digests[i]
                    key = next((k for k, d in enumerate(kept)
                                if _same(d, digest)), None)
                    if key is None:
                        kept.append(digest)
                        key = len(kept) - 1
                    self.records.append((i, dt, key))
                self.rounds += 1
                wall = time.perf_counter() - start
                if rounds is not None:
                    if self.rounds >= rounds:
                        return self
                elif wall + wall / self.rounds > seconds:
                    return self


def check_phase(phase, checked):
    """Check every kept digest; ``checked[i]`` holds (digest, error or
    None) pairs of op i already checked, so a digest repeated in a later
    phase is not checked again.  Returns (correct ops, largest relative
    error, check failures)."""
    bad = []
    errors = []
    for i, op in enumerate(phase.ops):
        errors.append([])
        for digest in phase.digests[i]:
            err = next((e for d, e in checked[i] if _same(d, digest)), False)
            if err is False:
                try:
                    err = float(op.check(digest))
                    if not math.isfinite(err):
                        raise ValueError(f"check returned {err}")
                except Exception as ex:   # a check that cannot run fails
                    err = None
                    bad.append((op.label, ex))
                checked[i].append((digest, err))
            errors[i].append(err)
    ok = 0
    worst = 0.0
    for i, _, key in phase.records:
        if key is not None and errors[i][key] is not None:
            ok += 1
            worst = max(worst, errors[i][key])
    return ok, worst, bad


def report(failures, bad):
    for msg in sorted({f"failed: {label}: {type(ex).__name__}: {ex}"
                       for label, ex in failures}):
        print(msg, file=sys.stderr)
    for label, ex in bad:
        print(f"WRONG OUTPUT: {label}: {type(ex).__name__}: {ex}",
              file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep", "scaling", "verify", "simulate", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "flockspectra")):
        print(f"no src/flockspectra under {ROOT}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    # Stay on one vCPU, with every child: the clock's samples then measure
    # the CPU that runs the timed work, CLI children included.
    os.sched_setaffinity(0, {current_cpu()})
    out_dir = os.path.join(HERE, "out", f"{args.workload}-{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    kernel = CLOCK_KERNEL.get(args.workload, "python")
    module = "flockspectra.cli" if args.workload == "cli" else "flockspectra"
    env = workloads.child_env(ROOT)
    setup = []
    with Clock("python") as clock:
        for _ in range(SETUP_PROBES):
            probe, exc, _ = clock(lambda: setup_probe(module, env))
            if exc is not None:
                raise exc
            setup.append(probe[0] * clock.scale)

    ctx = workloads.Context(root=ROOT, out=out_dir)
    ops = workloads.WORKLOADS[args.workload](args.seed, ctx)

    if not args.trace:
        phase = Phase(ops).run(kernel, seconds=args.seconds)
        # read before any reference is computed, so none sets the peak
        usage = resource.getrusage(resource.RUSAGE_CHILDREN
                                   if args.workload == "cli"
                                   else resource.RUSAGE_SELF)
        phases = [phase]
    else:
        untraced = Phase(ops).run(kernel, seconds=args.seconds / 2)
        from tracing import Tracer
        tracer = Tracer()
        ctx.traced_cli = True
        tracer.install()
        try:
            traced = Phase(ops).run(
                kernel, rounds=untraced.rounds,
                around=lambda f: tracer.span("bench.op", f))
        finally:
            tracer.uninstall()
            ctx.traced_cli = False
        phases = [untraced, traced]

    checked = [[] for _ in ops]
    results = [check_phase(p, checked) for p in phases]
    for p, r in zip(phases, results):
        report(p.failures, r[2])

    if not args.trace:
        ok, worst, _ = results[0]
        values = {
            "ops_per_s": ok / phase.rounds / phase.median_round(),
            "op_p50_s": statistics.median(phase.op_medians(completed=True)),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "accuracy_digits": -math.log10(max(worst, ERROR_FLOOR)),
        }
        listed = spec["end_to_end"]
    else:
        values = per_layer(tracer, ctx, untraced, traced, module, env,
                           out_dir)
        listed = spec["per_layer"]

    doc = {"correct": all(not r[2] for r in results),
           "attempted": sum(len(p.records) for p in phases),
           "failed": sum(len(p.failures) for p in phases),
           "metrics": {m["name"]: {"value": values.get(m["name"], 0.0),
                                   "unit": m["unit"]} for m in listed}}
    with open(os.path.join(out_dir, f"result-trace{args.trace}.json"),
              "w") as fh:
        json.dump(doc, fh, indent=1)
    print(json.dumps(doc))
    return 0


def per_layer(tracer, ctx, untraced, traced, module, env, out_dir):
    """Per-layer values per round of the traced phase; import times are
    per process, and round times are in reference seconds."""
    totals = tracer.summary()
    for child in ctx.children:
        for k, v in child["summary"].items():
            totals[k] = totals.get(k, 0.0) + v
        totals["cli.output_bytes"] = (totals.get("cli.output_bytes", 0)
                                      + child["output_bytes"])
    values = {k: v / traced.rounds for k, v in totals.items()}
    if ctx.children:
        values["cli.import_s"] = statistics.median(
            c["import_s"] for c in ctx.children)
    _, importtime = setup_probe(module, env, importtime=True)
    values["setup.import_s"] = cumulative_import_s(importtime, module)
    values["setup.scipy_optimize_import_s"] = cumulative_import_s(
        importtime, "scipy.optimize")
    plain = untraced.median_round()
    with_trace = traced.median_round()
    values["trace.untraced_round_s"] = plain
    values["trace.traced_round_s"] = with_trace
    values["trace.overhead_s"] = with_trace - plain
    values["trace.overhead_pct"] = 100.0 * (with_trace - plain) / plain
    tracer.dump(os.path.join(out_dir, "trace.json"),
                {"rounds": traced.rounds, "values": values,
                 "children": ctx.children})
    return values


if __name__ == "__main__":
    sys.exit(main())
