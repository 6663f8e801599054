"""Fixed-step RK4 integration of the consensus and flocking ODEs.

First order: x' = -L (x - h).  Second order: x'' = -alpha L (x - h)
- beta L x'.  The full (n+1)-dimensional Laplacian includes the
leader's zero row, so the leader coordinate is constant automatically.
L is applied from its three diagonals, so a step costs O(n).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

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
    """L @ x for L given as its three diagonals (sub, diag, sup)."""
    sub, diag, sup = L
    y = diag * x
    y[1:] += sub * x[:-1]
    y[:-1] += sup * x[1:]
    return y


def spectral_radius_estimate(p: SystemParams) -> float:
    """Power iteration on the Laplacian L of p (fixed start, a few dozen
    sweeps is plenty for a step-size bound)."""
    L = tridiagonal(p, "laplacian")
    v = np.cos(np.arange(p.n + 1) + 0.5)
    v /= np.linalg.norm(v)
    rho = 0.0
    for _ in range(60):
        w = _matvec(L, v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            # the infinity norm: the largest absolute row sum
            return float(_matvec([np.abs(t) for t in L], np.ones_like(v)).max())
        rho = norm
        v = w / norm
    # Inflate slightly: power iteration underestimates for non-normal L.
    return 1.25 * rho


def _resolve_steps(cfg: SimConfig, rho: float):
    dt_max = DT_MAX_FACTOR / rho if rho > 0 else np.inf
    dt = cfg.dt if cfg.dt is not None else DT_DEFAULT_FACTOR / max(rho, 1e-30)
    if not (0 < cfg.t_end < np.inf and 0 < dt < np.inf):
        raise DomainError(f"t_end and dt must be finite and positive, got "
                          f"t_end={cfg.t_end}, dt={cfg.dt}")
    if dt > dt_max:
        raise StepSizeTooLarge(
            f"dt={dt:g} exceeds the RK4 stability bound {dt_max:g}")
    steps = max(1, int(np.ceil(cfg.t_end / dt)))
    dt = cfg.t_end / steps
    return dt, steps


def _check_vec(name: str, v, m: int) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (m,):
        raise DimensionMismatch(f"{name} must have length {m}")
    return arr


def _rk4(f, y0: np.ndarray, dt: float, steps: int, stride: int):
    times = [0.0]
    states = [y0.copy()]
    y = y0.copy()
    t = 0.0
    for i in range(1, steps + 1):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = i * dt
        if i % stride == 0 or i == steps:
            times.append(t)
            states.append(y.copy())
    return np.array(times), np.array(states)


def _coherence_first(offsets: np.ndarray) -> np.ndarray:
    """Distance of each row to the span of the constant vector."""
    mean = offsets.mean(axis=1, keepdims=True)
    return np.linalg.norm(offsets - mean, axis=1)


def _coherence_second(offsets: np.ndarray, vels: np.ndarray,
                      times: np.ndarray) -> np.ndarray:
    """Distance of (x - h, v) to the family (vbar*t + xbar, vbar) at each
    snapshot: least squares over (xbar, vbar) per row."""
    m = offsets.shape[1]
    out = np.empty(len(times))
    for i, t in enumerate(times):
        # minimize |off - xbar - vbar*t|^2 + |vel - vbar|^2
        mo, mv = offsets[i].mean(), vels[i].mean()
        # normal equations in (xbar, vbar)
        a11, a12, a22 = 1.0, t, t * t + 1.0
        b1, b2 = mo, t * mo + mv
        det = a11 * a22 - a12 * a12
        xbar = (b1 * a22 - b2 * a12) / det
        vbar = (b2 * a11 - b1 * a12) / det
        res = (np.linalg.norm(offsets[i] - xbar - vbar * t) ** 2
               + np.linalg.norm(vels[i] - vbar) ** 2)
        out[i] = np.sqrt(max(res, 0.0))
    return out


def coherence_error(traj: Trajectory, h: Sequence[float]) -> np.ndarray:
    h = _check_vec("h", h, traj.positions.shape[1])
    offsets = traj.positions - h
    if traj.velocities is None:
        return _coherence_first(offsets)
    return _coherence_second(offsets, traj.velocities, traj.times)


def simulate_first_order(cfg: SimConfig) -> Trajectory:
    m = cfg.params.n + 1
    h = _check_vec("h", cfg.h, m)
    x0 = _check_vec("x0", cfg.x0, m)
    L = tridiagonal(cfg.params, "laplacian")
    dt, steps = _resolve_steps(cfg, spectral_radius_estimate(cfg.params))
    times, states = _rk4(lambda x: -_matvec(L, x - h), x0, dt, steps,
                         cfg.save_stride)
    traj = Trajectory(times, states, None, np.zeros(len(times)))
    return Trajectory(times, states, None, coherence_error(traj, h))


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

    def rhs(y):
        x, v = y[:m], y[m:]
        return np.concatenate([v, -alpha * _matvec(L, x - h)
                               - beta * _matvec(L, v)])

    dt, steps = _resolve_steps(
        SimConfig(cfg.params, h, x0, cfg.t_end, cfg.dt), rho)
    y0 = np.concatenate([x0, v0])
    times, states = _rk4(rhs, y0, dt, steps, cfg.save_stride)
    pos, vel = states[:, :m], states[:, m:]
    traj = Trajectory(times, pos, vel, np.zeros(len(times)))
    return Trajectory(times, pos, vel, coherence_error(traj, h))
