"""Fixed-step RK4 integration of the consensus and flocking ODEs.

First order: x' = -L (x - h).  Second order: x'' = -alpha L (x - h)
- beta L x'.  Both are linear with constant coefficients in z = x - h
(and v = x'), so one RK4 step is the fixed matrix S = P(dt G), with G
the generator and P(w) = 1 + w + w^2/2 + w^3/6 + w^4/24.  L is
tridiagonal, so S is banded.  L is Toeplitz away from the leader row
and the boundary row, so the band rows away from the two ends repeat
one pattern (period 1 in first order, 2 for the interleaved
second-order state).  The band of S - I is built once, from four
applications of G to a block of probe columns on a chain of fixed
length, which holds both ends and the pattern; it costs the same at
every n.  Each step is then one BLAS product of the overlapping tiles
of the state with a fixed Toeplitz tile matrix, plus a small dense
product for each end, added to y: O(n) work and memory.  The full
(n+1)-dimensional Laplacian includes the leader's zero row, so the
leader coordinate is constant automatically.  A trajectory that leaves
the float range raises DomainError.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .charpoly import _monic_roots
from .errors import DimensionMismatch, DomainError, StepSizeTooLarge
from .model import SystemParams, tridiagonal

DT_MAX_FACTOR = 1.8      # explicit RK4 stability-region heuristic
DT_DEFAULT_FACTOR = 0.5
# Entries per block of the coherence: its scratch buffer stays in cache.
_COHERENCE_BLOCK = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    params: SystemParams
    h: np.ndarray
    x0: np.ndarray
    t_end: float
    dt: Optional[float] = None
    v0: Optional[np.ndarray] = None
    alpha: Optional[float] = None
    beta: Optional[float] = None
    save_stride: int = 1


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    positions: np.ndarray                 # shape (snapshots, n+1)
    velocities: Optional[np.ndarray]      # same shape, second order only
    coherence_errors: np.ndarray

    def csv_rows(self):
        header = ["t"]
        m = self.positions.shape[1]
        header += [f"x_{k}" for k in range(m)]
        if self.velocities is not None:
            header += [f"v_{k}" for k in range(m)]
        header.append("coherence_error")
        yield header
        for i, t in enumerate(self.times):
            row = [t, *self.positions[i]]
            if self.velocities is not None:
                row.extend(self.velocities[i])
            row.append(self.coherence_errors[i])
            yield row


def _matvec(L, x: np.ndarray) -> np.ndarray:
    """L @ x for L given as its three diagonals (sub, diag, sup); x is a
    vector or a block of columns."""
    sub, diag, sup = L if x.ndim == 1 else (t[:, None] for t in L)
    y = diag * x
    y[1:] += sub * x[:-1]
    y[:-1] += sup * x[1:]
    return y


def spectral_radius_estimate(p: SystemParams) -> float:
    """Gershgorin bound on the spectral radius of the Laplacian L of p:
    its largest absolute row sum, max(2(a+c), 2|a+e|) up to rounding."""
    L = [np.abs(t) for t in tridiagonal(p, "laplacian")]
    return float(_matvec(L, np.ones(p.n + 1)).max())


def _resolve_steps(t_end: float, dt: Optional[float], rho: float):
    dt_max = DT_MAX_FACTOR / rho if rho > 0 else np.inf
    step = dt if dt is not None else DT_DEFAULT_FACTOR / max(rho, 1e-30)
    if not (isinstance(t_end, numbers.Real) and 0 < t_end < np.inf
            and isinstance(step, numbers.Real) and 0 < step < np.inf):
        raise DomainError(f"t_end and dt must be finite positive numbers, "
                          f"got t_end={t_end!r}, dt={dt!r}")
    if step > dt_max:
        raise StepSizeTooLarge(
            f"dt={step:g} exceeds the RK4 stability bound {dt_max:g}")
    ratio = t_end / step
    # the saved steps are indexed by int64
    if not ratio < 2.0 ** 63:
        raise DomainError(f"t_end / dt = {ratio:g} steps: too many to count")
    steps = max(1, int(np.ceil(ratio)))
    return t_end / steps, steps


def _check_vec(name: str, v, m: int) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (m,):
        raise DimensionMismatch(f"{name} must have length {m}")
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} must hold finite numbers")
    return arr


def _ends(L, m: int):
    """L's three diagonals cut to a chain of m states: its first m // 2
    rows and its last ones, around the constant interior."""
    k, cut = m // 2, len(L[1]) - m + m // 2
    return [np.r_[t[:k], t[cut:]] for t in L]


def _step_band(f, size: int, dt: float, half: int) -> np.ndarray:
    """The band of S - I, S = P(dt G) on a state of `size` entries: row
    i holds S[i, i - half .. i + half] - I, zero where a column falls
    outside the matrix.  f applies G to a block of columns; it runs
    four times, on one block of probe columns."""
    width = 2 * half + 1
    # probe column c sums the unit vectors e_j with j = c (mod width); at
    # most one such j lies within `half` of any row, so S @ probe holds
    # every band entry of S once.  Horner: S - I = dtG(I + dtG/2(...)),
    # held apart from I so that a step rounds against its increment.
    probe = (np.arange(size)[:, None] % width == np.arange(width))
    probe = probe.astype(float)
    block = probe
    for k in (4, 3, 2, 1):
        block = f(block)
        block *= dt / k
        if k > 1:
            block += probe
    cols = np.arange(size)[:, None] + np.arange(-half, half + 1)
    band = np.take_along_axis(block, cols % width, axis=1)
    band[(cols < 0) | (cols >= size)] = 0.0
    return band


def _dense(rows: np.ndarray) -> np.ndarray:
    """Band rows as a dense matrix D with row r holding rows[r] in
    columns r .. r + 2 half: D @ padded[a:] gives the step at rows a ..
    a + len(rows) - 1."""
    r = np.arange(len(rows))[:, None]
    dense = np.zeros((len(rows), len(rows) + rows.shape[1] - 1))
    dense[r, r + np.arange(rows.shape[1])] = rows
    return dense


def _tiling(f, size: int, dt: float, half: int, period: int):
    """(lo, count, matrix, ends) for a step over the padded state of
    `size` entries: rows lo .. lo + count T - 1 are the product of the
    count overlapping tiles padded[lo + qT : lo + (q+1)T + 2 half] with
    one (T + 2 half) x T Toeplitz matrix, T the power of two above the
    band width; the rows above and below them are exact, taken from
    their own band rows by the pieces (a, D) of `ends`, D the _dense
    rows a .. a + len(D) - 1.

    f applies G on a chain of len(block) states.  A band row depends
    only on the rows of G within `half` of it, and away from the leader
    and the boundary rows of L the band repeats with the given period.
    So the band is built on a chain of 2 half + 2T entries, or the whole
    state if that is shorter: its top rows are the state's top rows, its
    bottom rows the state's bottom rows, and its middle rows the
    pattern.  The tiles start at its first row that equals the pattern
    bit for bit and stop before its last rows that do not; where no
    tile fits, all rows are one exact piece."""
    tile = 1 << (2 * half + 1).bit_length()
    short = min(size, 2 * half + 2 * tile)
    band = _step_band(f, short, dt, half)
    mid = short // 2
    phase = mid + (np.arange(short + tile) - mid) % period
    bits = (band + 0.0).view(np.int64)  # + 0.0 clears the sign of zeros
    off = np.flatnonzero((bits != bits[phase[:short]]).any(axis=1))
    lo = off[off < mid].max(initial=-1) + 1
    bottom = short - off[off > mid].min(initial=short)
    count = (size - bottom - lo) // tile
    if count == 0:
        lo = 0  # no tile fits: every row is in one exact piece
    matrix = _dense(band[phase[lo:lo + tile]]).T
    rest = size - lo - count * tile
    ends = [(0, band[:lo]), (size - rest, band[short - rest:])]
    return lo, count, matrix, [(a, _dense(rows)) for a, rows in ends
                               if len(rows)]


def _rk4(f, y0: np.ndarray, dt: float, steps: int, stride: int,
         half: int, period: int = 1):
    """RK4 for y' = G y, where f applies G to a block of columns on a
    chain of len(block) states and P(dt G) has at most `half` diagonals
    on either side of the main one, repeating with `period` away from
    the two ends.  Each step is one matrix product over the Toeplitz
    tiles of _tiling and a small one per end, added to y at once.  Times
    and states at step 0, every stride-th step and the last one; the
    states fill one array allocated up front.  DomainError if numpy
    refuses that array or the states leave the float range."""
    if not (stride >= 1 and stride % 1 == 0):
        raise DomainError(
            f"save_stride must be an integer of at least 1, got {stride}")
    stride = int(stride)
    size = len(y0)
    lo, count, matrix, pieces = _tiling(f, size, dt, half, period)
    tile = matrix.shape[1]
    hi = lo + count * tile
    # at least one tile long, so that the tile view exists with none
    padded = np.zeros(max(size, tile) + 2 * half)
    y = padded[half:half + size]
    y[:] = y0
    tiles = sliding_window_view(padded, len(matrix))[lo:hi:tile]
    step = np.empty(size)
    body = step[lo:hi].reshape(count, tile)
    ends = [(dense, padded[a:a + dense.shape[1]], step[a:a + len(dense)])
            for a, dense in pieces]
    try:
        saved = np.r_[0:steps:stride, steps]
        states = np.empty((len(saved), size))
    except (ValueError, MemoryError) as ex:
        raise DomainError(f"{steps} RK4 steps at save_stride {stride}: "
                          f"the saved states do not fit ({ex})") from None
    states[0] = y0
    row = 0
    # overflow leaves inf, and 0 inf in a tile NaN: both reported below
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, steps + 1):
            # np.dot copies the overlapping tiles into one block for BLAS
            np.dot(tiles, matrix, out=body)
            for dense, x, out in ends:
                np.dot(dense, x, out=out)
            y += step
            if i % stride == 0 or i == steps:
                row += 1
                states[row] = y
    # a non-finite entry stays non-finite under the band product
    if not np.isfinite(states[-1]).all():
        raise DomainError(f"the state left the float range within {steps} "
                          f"RK4 steps to t_end={saved[-1] * dt:g}")
    return saved * dt, states


def _coherence_first(positions: np.ndarray, h) -> np.ndarray:
    """Distance of each row of positions - h to the span of the constant
    vector, a block of about _COHERENCE_BLOCK entries at a time in one
    reused buffer."""
    m = positions.shape[1]
    size = max(1, _COHERENCE_BLOCK // m)
    buf = np.empty((min(size, len(positions)), m))
    out = np.empty(len(positions))
    for i in range(0, len(positions), size):
        rows = slice(i, i + size)
        off = buf[:len(positions[rows])]
        np.subtract(positions[rows], h, out=off)
        off -= off.mean(axis=1, keepdims=True)
        np.multiply(off, off, out=off)
        off.sum(axis=1, out=out[rows])
    return np.sqrt(out, out=out)


def _coherence_second(positions: np.ndarray, h: np.ndarray,
                      vels: np.ndarray) -> np.ndarray:
    """Distance of (x - h, v) to the family (vbar*t + xbar, vbar) at each
    snapshot.  Its least squares fit has vbar = mean(v) and xbar =
    mean(x - h) - t vbar at every t, so the distance is the spread of x
    - h and the spread of v together."""
    return np.hypot(_coherence_first(positions, h),
                    _coherence_first(vels, 0.0))


def coherence_error(traj: Trajectory, h: Sequence[float]) -> np.ndarray:
    h = _check_vec("h", h, traj.positions.shape[1])
    if traj.velocities is None:
        return _coherence_first(traj.positions, h)
    return _coherence_second(traj.positions, h, traj.velocities)


def simulate_first_order(cfg: SimConfig) -> Trajectory:
    m = cfg.params.n + 1
    h = _check_vec("h", cfg.h, m)
    x0 = _check_vec("x0", cfg.x0, m)
    L = tridiagonal(cfg.params, "laplacian")
    dt, steps = _resolve_steps(cfg.t_end, cfg.dt,
                               spectral_radius_estimate(cfg.params))
    # integrate z = x - h: z' = -L z, a band of half-width 4
    times, states = _rk4(lambda z: -_matvec(_ends(L, len(z)), z), x0 - h,
                         dt, steps, cfg.save_stride, 4)
    states += h
    return Trajectory(times, states, None, _coherence_first(states, h))


def simulate_second_order(cfg: SimConfig) -> Trajectory:
    if cfg.alpha is None or cfg.beta is None or cfg.v0 is None:
        raise DimensionMismatch(
            "second order requires alpha, beta and v0")
    m = cfg.params.n + 1
    h = _check_vec("h", cfg.h, m)
    x0 = _check_vec("x0", cfg.x0, m)
    v0 = _check_vec("v0", cfg.v0, m)
    L = tridiagonal(cfg.params, "laplacian")
    alpha, beta = float(cfg.alpha), float(cfg.beta)

    # Each Laplacian eigenvalue lambda maps to nu solving
    # nu^2 + beta*lambda*nu + alpha*lambda = 0, so the augmented
    # spectral radius is at most rho, the larger root of nu^2 - B nu - A
    # with B = |beta| rho_L and A = |alpha| rho_L.  _monic_roots forms it
    # finite also where B^2 overflows, and bit for bit as 0.5 (B +
    # sqrt(B^2 + 4A)) wherever that neither overflows nor underflows.
    rho_L = spectral_radius_estimate(cfg.params)
    rho = _monic_roots(-0.5 * abs(beta) * rho_L,
                       -abs(alpha) * rho_L)[0].real

    def generator(y):
        # y interleaves (z, v) = (x - h, x'): z' = v, v' = -L(alpha z +
        # beta v).  P(dt G) then reaches 9 entries either side.
        out = np.empty_like(y)
        z, v = y[0::2], y[1::2]
        out[0::2] = v
        out[1::2] = -_matvec(_ends(L, len(z)), alpha * z + beta * v)
        return out

    dt, steps = _resolve_steps(cfg.t_end, cfg.dt, rho)
    y0 = np.empty(2 * m)
    y0[0::2] = x0 - h
    y0[1::2] = v0
    times, states = _rk4(generator, y0, dt, steps, cfg.save_stride, 9, 2)
    pos, vel = states[:, 0::2], states[:, 1::2]
    pos += h
    return Trajectory(times, pos, vel, _coherence_second(pos, h, vel))
