"""BENCH_35.json, written by bench_crossover.py, parses, holds every n
of the ladder, and records the closed form within 1e-12 of 2 sqrt(ac)
of both LAPACK spectra."""
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_file_parses_and_is_accurate():
    doc = json.loads((ROOT / "BENCH_35.json").read_text())
    assert [r["n"] for r in doc["rows"]] == [8, 24, 64, 160, 480, 2000, 8000]
    for key in ("git_revision", "numpy", "scipy", "blas_threads"):
        assert key in doc
    for r in doc["rows"]:
        accuracy = [v for k, v in r.items() if k.startswith("max_diff_")]
        assert len(accuracy) == 2
        assert all(0 <= v <= 1e-12 for v in accuracy), r
        for key in ("compute_spectrum_s", "sterf_s", "mrrr_s",
                    "clock_scale_before", "clock_scale_after"):
            assert math.isfinite(r[key]) and r[key] > 0, (key, r)
