"""Spectra, stability and dynamics of boundary-parameterized
tridiagonal consensus chains.

The package computes the eigenvalues of the (n+1)-agent leader-follower
matrix (and its reduced and Laplacian forms) by the characteristic-
polynomial theory — bulk eigenvalues from the cotangent branch equation,
special eigenvalues from off-unit-circle polynomial roots — classifies
the boundary-parameter regime, cross-validates against independent
eigensolver oracles, issues asymptotic stability verdicts, and
integrates the first- and second-order consensus ODEs.
"""
from .errors import (BranchPole, DegenerateCoupling, DegenerateRoot,
                     DimensionMismatch, DimensionTooSmall,
                     DiscriminantCollapse, DomainError, FlockSpectraError,
                     NoConvergence, NotApplicable, NotDecentralized,
                     RootCountAnomaly, StepSizeTooLarge, UnitCircleCollapse,
                     ZeroDenominator)
from .model import (SystemParams, build_full_matrix, build_laplacian,
                    build_reduced_matrix, is_decentralized, make_params)
from .charpoly import (BranchRoot, QuadraticRoots, SpecialEigenEstimate,
                       closed_form_branch_roots, eigenvalue_from_root,
                       eval_cotangent_residual, eval_polynomial,
                       find_branch_roots, quadratic_roots,
                       refine_special_root, special_eigen_estimates)
from .spectrum import (EigenPair, RegimeLabel, SpecialRoot, Spectrum,
                       classify_regime, compute_spectrum, eigenvector_for,
                       leader_eigenvector, residual)
from .oracle import (ValidationReport, cross_validate, pairing_distance,
                     qr_eigenvalues, tridiag_polynomial_eigenvalues)
from .stability import (SecondOrderParams, StabilityVerdict,
                        first_order_verdict, laplacian_spectrum,
                        second_order_eigenvalues, second_order_verdict)
from .simulate import (SimConfig, Trajectory, coherence_error,
                       simulate_first_order, simulate_second_order,
                       spectral_radius_estimate)
from .perturb import (ConvergenceReport, MonotonicityReport,
                      branch_function, perturbation_sign,
                      track_root_convergence, verify_branch_monotonicity)

__version__ = "1.0.0"

__all__ = [
    "BranchPole", "DegenerateCoupling", "DegenerateRoot",
    "DimensionMismatch", "DimensionTooSmall", "DiscriminantCollapse",
    "DomainError", "FlockSpectraError", "NoConvergence", "NotApplicable",
    "NotDecentralized", "RootCountAnomaly", "StepSizeTooLarge",
    "UnitCircleCollapse", "ZeroDenominator",
    "SystemParams", "build_full_matrix", "build_laplacian",
    "build_reduced_matrix", "is_decentralized", "make_params",
    "BranchRoot", "QuadraticRoots", "SpecialEigenEstimate",
    "closed_form_branch_roots", "eigenvalue_from_root",
    "eval_cotangent_residual", "eval_polynomial", "find_branch_roots",
    "quadratic_roots", "refine_special_root", "special_eigen_estimates",
    "EigenPair", "RegimeLabel", "SpecialRoot", "Spectrum",
    "classify_regime", "compute_spectrum", "eigenvector_for",
    "leader_eigenvector", "residual",
    "ValidationReport", "cross_validate", "pairing_distance",
    "qr_eigenvalues", "tridiag_polynomial_eigenvalues",
    "SecondOrderParams", "StabilityVerdict", "first_order_verdict",
    "laplacian_spectrum", "second_order_eigenvalues",
    "second_order_verdict",
    "SimConfig", "Trajectory", "coherence_error", "simulate_first_order",
    "simulate_second_order", "spectral_radius_estimate",
    "ConvergenceReport", "MonotonicityReport", "branch_function",
    "perturbation_sign", "track_root_convergence",
    "verify_branch_monotonicity",
]
