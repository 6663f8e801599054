"""Seeded parameter sets, one generator per regime row or table cell.

Every value lies on a 1/1024 grid, so that b = a + c and d = c - e are
exact in binary floating point and a decentralized set drawn here is
decentralized for the program too.  The round-off rejection of sets
written with decimal literals is measured by a fixed set instead (see
``ROUNDOFF_SET``), because a seed-dependent failure count would make two
runs incomparable.

Each draw stays a margin away from the regime thresholds: next to a
threshold the off-circle root lies within O(|y|^-2n) of the unit circle,
where the documented outcome at small n is a root-count anomaly rather
than a spectrum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

GRID = 1024.0

# (theorem, case) rows that classify_regime can return, and the a+e=0 line.
ROWS = [("T1", "1"), ("T1", "2"), ("T1", "3"),
        ("T2", "1"), ("T2", "2"), ("T2", "3"),
        ("T3", "1"), ("T3", "2a"), ("T3", "2b"), ("T3", "2c"), ("T3", "3"),
        ("P31", "1"), ("P31", "2"), ("P31", "3")]

# Rows and columns of the decentralized special-eigenvalue table.
CELLS = [(row, col) for row in ("e<-a", "|e|<=a", "e>a")
         for col in ("c<a", "c=a", "c>a")]

# Written as a user writes it (d = c - e by hand): -0.3 + 2.3 != 2.0 in
# binary, so model.is_decentralized rejects it although it is
# decentralized.  It fails on every seed.
ROUNDOFF_SET = dict(a=1.0, c=2.0, b=3.0, d=2.3, e=-0.3)


@dataclass(frozen=True)
class ParamSet:
    a: float
    c: float
    b: float
    d: float
    e: float
    row: Optional[Tuple[str, str]] = None       # expected (theorem, case)
    cell: Optional[Tuple[str, str]] = None      # expected decentralized cell

    @property
    def decentralized(self) -> bool:
        return self.cell is not None

    def kwargs(self):
        return dict(a=self.a, c=self.c, b=self.b, d=self.d, e=self.e)


def q(x: float) -> float:
    return round(x * GRID) / GRID


def _thresholds(a, c, e):
    """t = (a - e) sqrt(c/a) and s = 2 sqrt(c |e|), the d-thresholds of
    the (theorem, case) table."""
    return (a - e) * math.sqrt(c / a), 2 * math.sqrt(c * abs(e))


def _inside(rng, lo, hi):
    """A point in the middle three fifths of (lo, hi)."""
    return lo + (hi - lo) * rng.uniform(0.2, 0.8)


def general_set(rng: np.random.Generator, row) -> ParamSet:
    """A non-decentralized set (b drawn apart from a + c) whose
    (theorem, case) is ``row`` by the paper's inequalities."""
    theorem, case = row
    a = q(rng.uniform(0.6, 2.0))
    c = q(rng.uniform(0.6, 2.0))
    b = q(rng.uniform(-3.0, 3.0))
    if abs(b - (a + c)) < 0.25:
        b = q(b - 1.0)
    sac = math.sqrt(a * c)
    # e keeps |B| = |e - a| / |e + a| <= 4 (32 samples per branch), so the
    # branch scan costs the same on every seed.
    if theorem == "T1":
        e = q(a * rng.uniform(-0.55, 0.85))
    elif theorem == "T2":
        e = q(a * rng.uniform(1.2, 2.5))
    elif theorem == "T3":
        e = q(-a * rng.uniform(1.8, 3.0))
    else:
        e = -a
    t, s = _thresholds(a, c, e)
    far = (0.3 * sac, 1.5 * sac)   # margin and width of unbounded intervals
    if theorem == "P31":
        lim = 2 * a / math.sqrt(a / c)          # d tau = +-2a
        lo, hi = {"1": (lim + far[0], lim + far[1]),
                  "2": (-lim, lim),
                  "3": (-lim - far[1], -lim - far[0])}[case]
    elif theorem == "T1":
        lo, hi = {"1": (t + far[0], t + far[1]), "2": (-t, t),
                  "3": (-t - far[1], -t - far[0])}[case]
    elif theorem == "T2":                        # t < 0 here
        lo, hi = {"1": (-t + far[0], -t + far[1]), "2": (t, -t),
                  "3": (t - far[1], t - far[0])}[case]
    else:                                        # t > s > 0 here
        lo, hi = {"1": (-t - far[1], -t - far[0]), "2a": (-t, -s),
                  "2b": (-s, s), "2c": (s, t),
                  "3": (t + far[0], t + far[1])}[case]
    return ParamSet(a=a, c=c, b=b, d=q(_inside(rng, lo, hi)), e=e, row=row)


def decentralized_set(rng: np.random.Generator, cell) -> ParamSet:
    """b = a + c and d = c - e, exact on the grid, in one table cell;
    a + e and c + e stay away from 0, where the sign rule is silent."""
    row, col = cell
    while True:
        a = q(rng.uniform(0.75, 2.0))
        c = {"c<a": lambda: q(a * rng.uniform(0.3, 0.8)),
             "c=a": lambda: a,
             "c>a": lambda: q(a * rng.uniform(1.25, 3.0))}[col]()
        e = {"e<-a": lambda: q(-a * rng.uniform(1.8, 3.0)),
             "|e|<=a": lambda: q(a * rng.uniform(-0.55, 0.85)),
             "e>a": lambda: q(a * rng.uniform(1.2, 2.5))}[row]()
        if abs(c + e) >= 0.25 * math.sqrt(a * c) and abs(e) >= 0.05:
            break
    return ParamSet(a=a, c=c, b=a + c, d=c - e, e=e, row=None, cell=cell)


def expected_row(p: ParamSet):
    """The (theorem, case) of a decentralized set, by the same
    inequalities ``general_set`` draws from."""
    a, c, d, e = p.a, p.c, p.d, p.e
    if a + e == 0:
        dt = d * math.sqrt(a / c)
        return ("P31", "1" if dt > 2 * a else "2" if dt >= -2 * a else "3")
    t, s = _thresholds(a, c, e)
    if -a <= e <= a:
        return ("T1", "1" if d > t else "2" if d >= -t else "3")
    if e > a:
        return ("T2", "1" if d >= -t else "2" if d > t else "3")
    if d <= -t:
        return ("T3", "1")
    if d < t:
        return ("T3", "2a" if d <= -s else "2b" if d < s else "2c")
    return ("T3", "3")


def initial_state(rng: np.random.Generator, m: int, second: bool):
    """Spacing offsets h_k = -k, a jittered start, and a small velocity."""
    h = -np.arange(m, dtype=float)
    x0 = h + 0.5 * rng.standard_normal(m)
    v0 = 0.1 * rng.standard_normal(m) if second else None
    return h, x0, v0
