"""Traced stand-in for ``python -m flockspectra.cli``.

Times the import of flockspectra.cli, wraps the public functions as
tracing.Tracer does in the benchmark's own process, runs cli.main with
the given arguments, and writes the spans and their summary to the path
in SPECTRABENCH_TRACE_OUT.  Output and exit status are the CLI's own.
"""
import os
import sys
import time

t0 = time.perf_counter()
import flockspectra.cli  # noqa: E402
import_s = time.perf_counter() - t0

from tracing import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        rc = flockspectra.cli.main(sys.argv[1:])
        sys.stdout.flush()
    finally:
        tracer.uninstall()
        tracer.dump(os.environ["SPECTRABENCH_TRACE_OUT"],
                    {"import_s": import_s, "summary": tracer.summary()})
    return rc


if __name__ == "__main__":
    sys.exit(main())
