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
    shifted by -(a+c).  Its assembly is kept on the twin (see
    compute_spectrum), which is p itself when b = a+c and d = c-e
    exactly, so both verdicts on p and its "full" and "reduced" spectra
    then share one branch scan."""
    return compute_spectrum(p, "laplacian").eigenvalues()


def _zero_lambdas(p: SystemParams, lambdas):
    """Which eigenvalues of -L are zero modes: those within
    ZERO_MODE_REL_TOL (a+c) of 0."""
    return np.abs(lambdas) <= ZERO_MODE_REL_TOL * (p.a + p.c)


def _verdict(sign, rule, values, zero, k, hint=None, marginal=None):
    """The verdict on the modes values, of which the mask zero marks the
    zero modes, when a sign rule labelled rule reads sign ("stable",
    "unstable" or "inconclusive").  The witness is the first of the
    other modes with the largest real part, the spectral abscissa.  The
    finite-n spectrum must corroborate "stable" with k zero modes and a
    negative abscissa, or the verdict is inconclusive; an "unstable"
    verdict with no mode in the open right half plane takes as witness
    the first mode nearest hint, where one is given."""
    rest = values[~zero]
    i = int(np.argmax(rest.real))
    nzero, abscissa, witness = (int(zero.sum()), float(rest.real[i]),
                                complex(rest[i]))
    if sign == "stable" and not (nzero == k and abscissa < 0):
        sign, rule = "inconclusive", rule + " (finite-n spectrum disagrees)"
    if sign == "unstable" and abscissa <= 0 and hint is not None:
        witness = complex(values[np.argmin(np.abs(values - hint))])
    return StabilityVerdict(sign, witness, nzero, rule, abscissa, marginal)


def first_order_verdict(p: SystemParams) -> StabilityVerdict:
    """Consensus system verdict (decentralized parameters only).

    Sign rule: stable when a + e > 0; unstable when a + e < 0 and
    c + e != 0 (the nearly-zero mode then sits at -(a+e)(c+e)/e > 0 or
    the near-(a+c) mode crosses); inconclusive at a + e = 0 or when the
    sign rule and the finite-n spectrum disagree.  The verdict (frozen)
    is kept on p's memo, where second_order_verdict reads it.
    """
    if not is_decentralized(p):
        raise NotDecentralized("the stability sign rule assumes b=a+c and c=e+d")
    return p._kept("verdict", _first_order)


def _first_order(p: SystemParams) -> StabilityVerdict:
    a, c, e = p.a, p.c, p.e
    lambdas = laplacian_spectrum(p)
    # -(a+e)(c+e)/e on its factors' fractions: finite where the mode is
    (x, i), (y, j), (z, k) = map(math.frexp, (a + e, c + e, e))
    with np.errstate(over="ignore"):
        marginal = None if e == 0 else -float(np.ldexp(x * y / z, i + j - k))
    if a + e > 0:
        sign, rule = "stable", "a+e>0 => stable"
    elif a + e < 0 and c + e != 0:
        # When c+e>0 the unstable mode sits O(kappa^-n) above zero,
        # below floating-point resolution for moderate n; the witness is
        # then the eigenvalue nearest the predicted marginal mode.
        sign, rule = "unstable", "a+e<0, c+e!=0 => unstable"
    elif a + e < 0:
        sign, rule = "inconclusive", "a+e<0 with c+e=0 (not covered)"
    else:
        sign, rule = "inconclusive", "a+e=0 (not covered)"
    return _verdict(sign, "first-order: " + rule, lambdas,
                    _zero_lambdas(p, lambdas), 1, marginal, marginal)


def second_order_eigenvalues(lambdas, so: SecondOrderParams) -> np.ndarray:
    """Both roots nu+- = -b +- s of nu^2 - beta lambda nu - alpha lambda
    per lambda, in that order, as a complex array: b = -beta lambda / 2,
    c = -alpha lambda, s the principal sqrt(b^2 - c), formed as in
    charpoly._monic_roots on b and c over a power of two, and the root
    that -b +- s forms by cancellation (the slow mode ~ -alpha/beta of a
    small lambda) taken as c over the other.  DomainError for gains so
    that are not a SecondOrderParams, a lambda that is not a finite
    number, or a nu that leaves the float range."""
    if not isinstance(so, SecondOrderParams):
        raise DomainError(f"gains must be a SecondOrderParams, got {so!r}")
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
    the verdict is the first-order one kept on p (first_order_verdict),
    read on the nu: its sign, rule and marginal mode, the nu nearest its
    witness as the witness of an unstable verdict with no nu in the open
    right half plane, and a double zero mode, the two nu of each zero
    mode of -L and no others.
    """
    first = first_order_verdict(p)
    lambdas = laplacian_spectrum(p)
    nus = second_order_eigenvalues(lambdas, so)
    # each zero lambda gives its two nu = 0, and only these are zero
    # modes: a slow mode nu ~ -alpha/beta keeps its size at any scale
    zero = np.repeat(_zero_lambdas(p, lambdas), 2)
    if so.alpha <= 0 or so.beta <= 0:
        return _verdict("unstable", "second-order: alpha or beta not "
                        "positive", nus, zero, 2)
    return _verdict(first.stable, "second-order (alpha,beta>0): "
                    + first.rule, nus, zero, 2, first.witness,
                    first.predicted_marginal)
