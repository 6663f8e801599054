"""Asymptotic stability verdicts for the consensus and flocking systems.

The verdicts combine the sign rules (valid for n large enough) with a
finite-n spectral check; when the two disagree the verdict is
inconclusive rather than overclaimed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, NotDecentralized
from .model import SystemParams, is_decentralized
from .oracle import _modulus
from .spectrum import compute_spectrum

ZERO_MODE_REL_TOL = 1e-8
_DBL_MIN = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class StabilityVerdict:
    stable: str                       # "stable" | "unstable" | "inconclusive"
    witness: Optional[complex]        # violating (or marginal) eigenvalue
    zero_multiplicity: int
    rule: str                         # which sign-rule case fired
    spectral_abscissa: float          # max Re over non-zero modes
    predicted_marginal: Optional[float] = None
    # -(a+e)(c+e)/e, the non-bulk mode the instability argument tracks

    def as_dict(self):
        return {
            "stable": self.stable,
            "rule": self.rule,
            "witness": None if self.witness is None
                       else [self.witness.real, self.witness.imag],
            "zero_multiplicity": self.zero_multiplicity,
            "spectral_abscissa": self.spectral_abscissa,
            "predicted_marginal": self.predicted_marginal,
        }


@dataclass(frozen=True)
class SecondOrderParams:
    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise DomainError(f"alpha and beta must be finite, got "
                              f"alpha={self.alpha}, beta={self.beta}")


def laplacian_spectrum(p: SystemParams) -> np.ndarray:
    """Eigenvalues of -L, the system matrix of the consensus ODE, as a
    complex array: the full spectrum of the decentralized twin shifted by
    -(a+c)."""
    return compute_spectrum(p, "laplacian").eigenvalues()


def _modes(values, scale):
    """(zero modes, spectral abscissa, witness): how many values lie
    within ZERO_MODE_REL_TOL scale of 0, the largest real part of the
    others, and the first of them that has it."""
    zero = _modulus(values) <= ZERO_MODE_REL_TOL * scale
    rest = values[~zero]
    k = int(np.argmax(rest.real))
    return int(zero.sum()), float(rest.real[k]), complex(rest[k])


def _nearest(values, z) -> complex:
    """The first of values nearest z."""
    return complex(values[np.argmin(_modulus(values - z))])


def first_order_verdict(p: SystemParams) -> StabilityVerdict:
    """Consensus system verdict (decentralized parameters only).

    Sign rule: stable when a + e > 0; unstable when a + e < 0 and
    c + e != 0 (the nearly-zero mode then sits at -(a+e)(c+e)/e > 0 or
    the near-(a+c) mode crosses); inconclusive at a + e = 0 or when the
    sign rule and the finite-n spectrum disagree.
    """
    if not is_decentralized(p):
        raise NotDecentralized("the stability sign rule assumes b=a+c and c=e+d")
    return _first_order_rule(p, laplacian_spectrum(p))


def _first_order_rule(p: SystemParams, lambdas) -> StabilityVerdict:
    """The first-order verdict from the eigenvalue array lambdas of -L."""
    a, c, e = p.a, p.c, p.e
    nzero, abscissa, witness_pos = _modes(lambdas, a + c)
    # -(a+e)(c+e)/e on its factors' fractions: finite where the mode is
    (x, i), (y, j), (z, k) = map(math.frexp, (a + e, c + e, e))
    with np.errstate(over="ignore"):
        marginal = None if e == 0 else -float(np.ldexp(x * y / z, i + j - k))

    if a + e > 0:
        rule = "first-order: a+e>0 => stable"
        # Corroborate: exactly one zero mode, everything else decays.
        if nzero == 1 and abscissa < 0:
            return StabilityVerdict("stable", witness_pos, nzero, rule,
                                    abscissa, marginal)
        return StabilityVerdict("inconclusive", witness_pos, nzero,
                                rule + " (finite-n spectrum disagrees)",
                                abscissa, marginal)
    if a + e < 0 and c + e != 0:
        rule = "first-order: a+e<0, c+e!=0 => unstable"
        # When c+e>0 the unstable mode sits O(kappa^-n) above zero,
        # below floating-point resolution for moderate n; report the
        # eigenvalue nearest the predicted marginal mode as witness.
        witness = (witness_pos if abscissa > 0
                   else _nearest(lambdas, marginal))
        return StabilityVerdict("unstable", witness, nzero, rule,
                                abscissa, marginal)
    if a + e < 0:
        return StabilityVerdict("inconclusive", witness_pos, nzero,
                                "first-order: a+e<0 with c+e=0 (not covered)",
                                abscissa, marginal)
    return StabilityVerdict("inconclusive", witness_pos, nzero,
                            "first-order: a+e=0 (not covered)", abscissa,
                            marginal)


def _cmath_sqrt(z):
    """cmath.sqrt elementwise, to the last bit on finite z (np.sqrt rounds
    some values differently): s = 2 sqrt(|x|/8 + hypot(x/8, y/8)), or with
    |x| and |y| scaled by 2^53 and s by 2^-27 when both are subnormal."""
    ax, ay = np.abs(z.real), np.abs(z.imag)
    s = 2 * np.sqrt(ax / 8 + np.hypot(ax / 8, ay / 8))
    tiny = (ax < _DBL_MIN) & (ay < _DBL_MIN)
    if tiny.any():
        up = np.ldexp(ax[tiny], 53)
        s[tiny] = np.ldexp(np.sqrt(up + np.hypot(
            up, np.ldexp(ay[tiny], 53))), -27)
    with np.errstate(invalid="ignore"):  # 0/0 at z = 0, set below
        d = ay / (2 * s)
    pos = z.real >= 0
    out = np.empty_like(z)
    out.real = np.where(pos, s, d)
    out.imag = np.copysign(np.where(pos, d, s), z.imag)
    zero = (z.real == 0) & (z.imag == 0)
    out.real[zero], out.imag[zero] = 0.0, z.imag[zero]
    return out


def _cmul(a, b):
    """a b as Python's complex product forms it, (ar br - ai bi) + (ar bi +
    ai br) i, a real a taken as a + 0i; numpy's complex product may fuse
    these into FMAs and differ in the last bit or the sign of a zero."""
    ar, ai, br, bi = np.real(a), np.imag(a), b.real, b.imag
    out = np.empty(b.shape, dtype=complex)
    out.real = ar * br - ai * bi
    out.imag = ar * bi + ai * br
    return out


def second_order_eigenvalues(lambdas, so: SecondOrderParams) -> np.ndarray:
    """nu+- = (beta lambda +- sqrt(beta^2 lambda^2 + 4 alpha lambda)) / 2
    for each lambda; both roots of nu^2 - beta lambda nu - alpha lambda,
    as a complex array ordered nu+, nu- per lambda, equal to the last bit
    to the same expression in Python complex arithmetic with cmath.sqrt."""
    lam = np.asarray(lambdas, dtype=complex)
    x = _cmul(_cmul(so.beta ** 2, lam), lam) + _cmul(4 * so.alpha, lam)
    root, bl = _cmath_sqrt(x), _cmul(so.beta, lam)
    out = np.empty(2 * len(lam), dtype=complex)
    out[0::2] = _cmul(0.5, bl + root)
    out[1::2] = _cmul(0.5, bl - root)
    return out


def second_order_verdict(p: SystemParams,
                         so: SecondOrderParams) -> StabilityVerdict:
    """Flocking system verdict (decentralized parameters only).

    Negative lambda always exist, so any non-positive alpha or beta puts
    a nu in the closed right half plane: unstable.  With alpha, beta > 0
    the verdict mirrors the first-order one, with a double zero mode.
    """
    if not is_decentralized(p):
        raise NotDecentralized("the stability sign rule assumes b=a+c and c=e+d")
    lambdas = laplacian_spectrum(p)
    nus = second_order_eigenvalues(lambdas, so)
    nzero, abscissa, witness = _modes(nus, p.a + p.c)

    if so.alpha <= 0 or so.beta <= 0:
        return StabilityVerdict("unstable", witness, nzero,
                                "second-order: alpha or beta not positive",
                                abscissa)
    first = _first_order_rule(p, lambdas)
    rule = "second-order (alpha,beta>0): " + first.rule
    if first.stable == "stable":
        if nzero == 2 and abscissa < 0:
            return StabilityVerdict("stable", witness, nzero, rule,
                                    abscissa, first.predicted_marginal)
        return StabilityVerdict("inconclusive", witness, nzero,
                                rule + " (finite-n spectrum disagrees)",
                                abscissa, first.predicted_marginal)
    if first.stable == "unstable":
        if abscissa <= 0 and first.witness is not None:
            witness = _nearest(nus, first.witness)
        return StabilityVerdict("unstable", witness, nzero, rule,
                                abscissa, first.predicted_marginal)
    return StabilityVerdict("inconclusive", witness, nzero, rule,
                            abscissa, first.predicted_marginal)
