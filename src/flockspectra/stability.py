"""Asymptotic stability verdicts for the consensus and flocking systems.

The verdicts combine the sign rules (valid for n large enough) with a
finite-n spectral check; when the two disagree the verdict is
inconclusive rather than overclaimed.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import NotDecentralized
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


def laplacian_spectrum(p: SystemParams) -> List[complex]:
    """Eigenvalues of -L, the system matrix of the consensus ODE.

    Decentralized parameters shift the full spectrum by -(a+c); otherwise
    the row sums are not constant and the oracle diagonalizes -L itself.
    """
    return compute_spectrum(p, "laplacian").eigenvalues()


def _split_zero_modes(lambdas, scale):
    tol = ZERO_MODE_REL_TOL * scale
    zero = [z for z in lambdas if abs(z) <= tol]
    rest = [z for z in lambdas if abs(z) > tol]
    return zero, rest


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
    """The first-order verdict from the eigenvalues lambdas of -L."""
    a, c, e = p.a, p.c, p.e
    zero, rest = _split_zero_modes(lambdas, a + c)
    abscissa = max(z.real for z in rest)
    witness_pos = max(rest, key=lambda z: z.real)
    marginal = None if e == 0 else -(a + e) * (c + e) / e

    if a + e > 0:
        rule = "first-order: a+e>0 => stable"
        # Corroborate: exactly one zero mode, everything else decays.
        if len(zero) == 1 and abscissa < 0:
            return StabilityVerdict("stable", witness_pos, len(zero), rule,
                                    abscissa, marginal)
        return StabilityVerdict("inconclusive", witness_pos, len(zero),
                                rule + " (finite-n spectrum disagrees)",
                                abscissa, marginal)
    if a + e < 0 and c + e != 0:
        rule = "first-order: a+e<0, c+e!=0 => unstable"
        # When c+e>0 the unstable mode sits O(kappa^-n) above zero,
        # below floating-point resolution for moderate n; report the
        # eigenvalue nearest the predicted marginal mode as witness.
        if abscissa > 0:
            witness = witness_pos
        else:
            witness = min(lambdas, key=lambda z: abs(z - marginal))
        return StabilityVerdict("unstable", witness, len(zero), rule,
                                abscissa, marginal)
    if a + e < 0:
        return StabilityVerdict("inconclusive", witness_pos, len(zero),
                                "first-order: a+e<0 with c+e=0 (not covered)",
                                abscissa, marginal)
    return StabilityVerdict("inconclusive", witness_pos, len(zero),
                            "first-order: a+e=0 (not covered)", abscissa,
                            marginal)


def second_order_eigenvalues(lambdas, so: SecondOrderParams) -> List[complex]:
    """nu+- = (beta lambda +- sqrt(beta^2 lambda^2 + 4 alpha lambda)) / 2
    for each lambda; both roots of nu^2 - beta lambda nu - alpha lambda."""
    out = []
    for lam in lambdas:
        lam = complex(lam)
        root = cmath.sqrt(so.beta ** 2 * lam * lam + 4 * so.alpha * lam)
        out.append(0.5 * (so.beta * lam + root))
        out.append(0.5 * (so.beta * lam - root))
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
    zero, rest = _split_zero_modes(nus, p.a + p.c)
    abscissa = max(z.real for z in rest)
    witness = max(rest, key=lambda z: z.real)

    if so.alpha <= 0 or so.beta <= 0:
        return StabilityVerdict("unstable", witness, len(zero),
                                "second-order: alpha or beta not positive",
                                abscissa)
    first = _first_order_rule(p, lambdas)
    rule = "second-order (alpha,beta>0): " + first.rule
    if first.stable == "stable":
        if len(zero) == 2 and abscissa < 0:
            return StabilityVerdict("stable", witness, len(zero), rule,
                                    abscissa, first.predicted_marginal)
        return StabilityVerdict("inconclusive", witness, len(zero),
                                rule + " (finite-n spectrum disagrees)",
                                abscissa, first.predicted_marginal)
    if first.stable == "unstable":
        if abscissa <= 0 and first.witness is not None:
            witness = min(nus, key=lambda z: abs(z - first.witness))
        return StabilityVerdict("unstable", witness, len(zero), rule,
                                abscissa, first.predicted_marginal)
    return StabilityVerdict("inconclusive", witness, len(zero), rule,
                            abscissa, first.predicted_marginal)
