"""Asymptotic stability verdicts for the consensus and flocking systems.

The verdicts combine the sign rules (valid for n large enough) with a
finite-n spectral check; when the two disagree the verdict is
inconclusive rather than overclaimed.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, NotDecentralized
from .model import SystemParams, is_decentralized
from .spectrum import compute_spectrum

ZERO_MODE_REL_TOL = 1e-8


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
        if not all(isinstance(x, numbers.Real) and math.isfinite(x)
                   for x in (self.alpha, self.beta)):
            raise DomainError(f"alpha and beta must be finite real numbers, "
                              f"got alpha={self.alpha!r}, beta={self.beta!r}")


def laplacian_spectrum(p: SystemParams) -> np.ndarray:
    """Eigenvalues of -L, the system matrix of the consensus ODE, as a
    new complex array: the full spectrum of the decentralized twin
    shifted by -(a+c).  Its assembly is kept on p (see compute_spectrum),
    so both verdicts on one p, and its "full" and "reduced" spectra when
    b = a+c and d = c-e exactly, share one branch scan."""
    return compute_spectrum(p, "laplacian").eigenvalues()


def _zero_lambdas(p: SystemParams, lambdas):
    """Which eigenvalues of -L are zero modes: those within
    ZERO_MODE_REL_TOL (a+c) of 0."""
    return np.abs(lambdas) <= ZERO_MODE_REL_TOL * (p.a + p.c)


def _modes(values, zero):
    """(zero modes, spectral abscissa, witness): how many values the mask
    zero marks, the largest real part of the others, and the first of
    them that has it."""
    rest = values[~zero]
    k = int(np.argmax(rest.real))
    return int(zero.sum()), float(rest.real[k]), complex(rest[k])


def _nearest(values, z) -> complex:
    """The first of values nearest z."""
    return complex(values[np.argmin(np.abs(values - z))])


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
    nzero, abscissa, witness_pos = _modes(lambdas, _zero_lambdas(p, lambdas))
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


def second_order_eigenvalues(lambdas, so: SecondOrderParams) -> np.ndarray:
    """Both roots nu+- = -b +- s of nu^2 - beta lambda nu - alpha lambda
    per lambda, in that order, as a complex array: b = -beta lambda / 2,
    c = -alpha lambda, s the principal sqrt(b^2 - c), formed as in
    charpoly._monic_roots on b and c over a power of two, and the root
    that -b +- s forms by cancellation (the slow mode ~ -alpha/beta of a
    small lambda) taken as c over the other.  DomainError for a lambda
    that is not a finite number, or a nu that leaves the float range."""
    lam = np.ravel(lambdas)
    if lam.dtype.kind not in "biufc" or not np.isfinite(lam).all():
        raise DomainError("lambdas must be finite numbers")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        b, c = -0.5 * so.beta * lam.astype(complex), -so.alpha * lam
        m = np.ldexp(1.0, np.frexp(np.maximum(abs(b), abs(c) ** 0.5))[1])
        bm = b / m
        sm = np.sqrt(bm * bm - c / m / m + 0.0)  # + 0.0: a real d has +0j
        x_plus, x_minus = -b + m * sm, -b - m * sm
        dot = (bm.conj() * sm).real  # > 0 where -b + s cancels
        up, down = dot > 0, dot < 0
        x_plus[up] = c[up] / x_minus[up]
        x_minus[down] = c[down] / x_plus[down]
    nus = np.stack((x_plus, x_minus), axis=-1).ravel() + 0.0  # no -0.0
    if not np.isfinite(nus).all():
        raise DomainError("nu+- ~ beta lambda leaves the float range")
    return nus


def second_order_verdict(p: SystemParams,
                         so: SecondOrderParams) -> StabilityVerdict:
    """Flocking system verdict (decentralized parameters only).

    Negative lambda always exist, so any non-positive alpha or beta puts
    a nu in the closed right half plane: unstable.  With alpha, beta > 0
    the verdict mirrors the first-order one, with a double zero mode:
    the two nu of each zero mode of -L, and no others.
    """
    if not is_decentralized(p):
        raise NotDecentralized("the stability sign rule assumes b=a+c and c=e+d")
    lambdas = laplacian_spectrum(p)
    nus = second_order_eigenvalues(lambdas, so)
    # each zero lambda gives its two nu = 0, and only these are zero
    # modes: a slow mode nu ~ -alpha/beta keeps its size at any scale
    nzero, abscissa, witness = _modes(
        nus, np.repeat(_zero_lambdas(p, lambdas), 2))

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
