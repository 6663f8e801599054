"""Fixed-step RK4 integration of the consensus and flocking ODEs.

First order: x' = -L (x - h).  Second order: x'' = -alpha L (x - h)
- beta L x'.  Both are linear with constant coefficients in z = x - h
(and v = x'), so one RK4 step is the fixed matrix S = P(dt G), with G
the generator and P(w) = 1 + w + w^2/2 + w^3/6 + w^4/24.  L is
tridiagonal, so S is banded; the band of S - I is built once, from
four applications of G to a small block of probe columns, and each step
adds to y one O(n) windowed product of it.  The full (n+1)-dimensional
Laplacian includes the leader's zero row, so the leader coordinate is
constant automatically.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionMismatch, DomainError, StepSizeTooLarge
from .model import SystemParams, tridiagonal

DT_MAX_FACTOR = 1.8      # explicit RK4 stability-region heuristic
DT_DEFAULT_FACTOR = 0.5


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
    if not (0 < t_end < np.inf and 0 < step < np.inf):
        raise DomainError(f"t_end and dt must be finite and positive, got "
                          f"t_end={t_end}, dt={dt}")
    if step > dt_max:
        raise StepSizeTooLarge(
            f"dt={step:g} exceeds the RK4 stability bound {dt_max:g}")
    steps = max(1, int(np.ceil(t_end / step)))
    return t_end / steps, steps


def _check_vec(name: str, v, m: int) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (m,):
        raise DimensionMismatch(f"{name} must have length {m}")
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} must hold finite numbers")
    return arr


def _rk4(f, y0: np.ndarray, dt: float, steps: int, stride: int,
         half: int):
    """RK4 for y' = G y, where f applies G to a block of columns and
    P(dt G) has at most `half` diagonals on either side of the main one.
    Times and states at step 0, every stride-th step and the last one;
    the states fill one array allocated up front."""
    if stride < 1:
        raise DomainError(f"save_stride must be at least 1, got {stride}")
    saved = np.r_[0:steps:stride, steps]
    size, width = len(y0), 2 * half + 1
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

    padded = np.zeros(size + 2 * half)
    y = padded[half:half + size]
    y[:] = y0
    window = sliding_window_view(padded, width)
    states = np.empty((len(saved), size))
    states[0] = y0
    step = np.empty(size)
    row = 0
    for i in range(1, steps + 1):
        np.einsum("ij,ij->i", window, band, out=step)
        y += step
        if i % stride == 0 or i == steps:
            row += 1
            states[row] = y
    return saved * dt, states


def _coherence_first(positions: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Distance of each row of positions - h to the span of the constant
    vector, with one scratch array the size of positions."""
    off = positions - h
    off -= off.mean(axis=1, keepdims=True)
    np.multiply(off, off, out=off)
    return np.sqrt(off.sum(axis=1))


def _coherence_second(positions: np.ndarray, h: np.ndarray,
                      vels: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Distance of (x - h, v) to the family (vbar*t + xbar, vbar) at each
    snapshot: least squares over (xbar, vbar), all rows at once, with one
    scratch array the size of positions."""
    # minimize |off - xbar - vbar*t|^2 + |vel - vbar|^2; the normal
    # equations in (xbar, vbar) have matrix [[1, t], [t, t^2 + 1]]
    t = times
    off = positions - h
    mo, mv = off.mean(axis=1), vels.mean(axis=1)
    a22 = t * t + 1.0
    b2 = t * mo + mv
    det = a22 - t * t
    xbar = (mo * a22 - b2 * t) / det
    vbar = (b2 - mo * t) / det
    off -= xbar[:, None]
    off -= (vbar * t)[:, None]
    res = np.einsum("ij,ij->i", off, off)
    np.subtract(vels, vbar[:, None], out=off)
    return np.sqrt(res + np.einsum("ij,ij->i", off, off))


def coherence_error(traj: Trajectory, h: Sequence[float]) -> np.ndarray:
    h = _check_vec("h", h, traj.positions.shape[1])
    if traj.velocities is None:
        return _coherence_first(traj.positions, h)
    return _coherence_second(traj.positions, h, traj.velocities, traj.times)


def simulate_first_order(cfg: SimConfig) -> Trajectory:
    m = cfg.params.n + 1
    h = _check_vec("h", cfg.h, m)
    x0 = _check_vec("x0", cfg.x0, m)
    L = tridiagonal(cfg.params, "laplacian")
    dt, steps = _resolve_steps(cfg.t_end, cfg.dt,
                               spectral_radius_estimate(cfg.params))
    # integrate z = x - h: z' = -L z, a band of half-width 4
    times, states = _rk4(lambda z: -_matvec(L, z), x0 - h, dt, steps,
                         cfg.save_stride, 4)
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
    # spectral radius is at most the larger-root bound below.
    rho_L = spectral_radius_estimate(cfg.params)
    rho = 0.5 * (abs(beta) * rho_L
                 + np.sqrt((beta * rho_L) ** 2 + 4 * abs(alpha) * rho_L))

    def generator(y):
        # y interleaves (z, v) = (x - h, x'): z' = v, v' = -L(alpha z +
        # beta v).  P(dt G) then reaches 9 entries either side.
        out = np.empty_like(y)
        z, v = y[0::2], y[1::2]
        out[0::2] = v
        out[1::2] = -_matvec(L, alpha * z + beta * v)
        return out

    dt, steps = _resolve_steps(cfg.t_end, cfg.dt, rho)
    y0 = np.empty(2 * m)
    y0[0::2] = x0 - h
    y0[1::2] = v0
    times, states = _rk4(generator, y0, dt, steps, cfg.save_stride, 9)
    pos, vel = states[:, 0::2], states[:, 1::2]
    pos += h
    return Trajectory(times, pos, vel,
                      _coherence_second(pos, h, vel, times))
