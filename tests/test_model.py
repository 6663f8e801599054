import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flockspectra import (DegenerateCoupling, DimensionTooSmall, DomainError,
                          SimConfig, SystemParams, build_full_matrix,
                          build_laplacian, build_reduced_matrix,
                          eigenvalue_from_root, eval_cotangent_residual,
                          is_decentralized, make_params,
                          simulate_first_order, track_root_convergence)
from flockspectra.model import tridiagonal


class TestMakeParams:
    def test_tau_one_when_a_equals_c(self):
        p = make_params(1, 1, 2, 0, 0, 10)
        assert p.tau == 1.0

    def test_tau_half(self):
        p = make_params(1, 4, 5, 3, 1, 50)
        assert p.tau == 0.5

    def test_zero_coupling_rejected(self):
        with pytest.raises(DegenerateCoupling):
            make_params(0, 1, 1, 0, 0, 10)

    def test_negative_coupling_rejected(self):
        with pytest.raises(DegenerateCoupling):
            make_params(1, -2, 1, 0, 0, 10)

    def test_small_dimension_rejected(self):
        with pytest.raises(DimensionTooSmall):
            make_params(1, 1, 2, 0, 0, 1)

    @pytest.mark.parametrize("args", [
        (math.nan, 1, 2, 1, 1, 10), (1, 1, 2, math.inf, 1, 10),
        (1, 1, -math.inf, 1, 1, 10), (1, 1, 2, 1, math.nan, 10),
        (-math.inf, 1, 2, 1, 1, 10), (1e308, 1e308, None, 1, 1, 10),
        ("abc", 1, None, 1, 1, 10), (1, 1, 2, None, 1, 10),
        (1, 1, 2, 1, 1, math.inf), (1, 1, 2, 1, 1, math.nan),
        (1, 1, 2, 1, 1, "ten")])
    def test_non_finite_or_non_numeric_rejected(self, args):
        with pytest.raises(DomainError):
            make_params(*args)

    def test_b_defaults_to_a_plus_c(self):
        assert make_params(1, 2, None, 0.5, 1.5, 5).b == 3.0

    @pytest.mark.parametrize("field, value", [
        ("d", math.inf), ("a", math.nan), ("b", "abc"), ("n", 2.5)])
    def test_post_init_rejects_bad_values(self, field, value):
        fields = dict(a=1.0, c=1.0, b=2.0, d=0.5, e=0.5, n=5)
        fields[field] = value
        with pytest.raises(DomainError):
            SystemParams(**fields)


class TestIsDecentralized:
    def test_true_case(self):
        assert is_decentralized(make_params(1, 1, 2, 0.5, 0.5, 5))

    def test_false_when_c_not_e_plus_d(self):
        assert not is_decentralized(make_params(1, 1, 2, 0, 0, 5))

    def test_true_asymmetric(self):
        assert is_decentralized(make_params(1, 2, 3, 1, 1, 5))

    def test_decimal_round_off_accepted(self):
        # -0.3 + 2.3 = 1.9999999999999998 in binary
        assert is_decentralized(make_params(1, 2, 3, 2.3, -0.3, 5))
        assert is_decentralized(make_params(1, 0.3, 1.3, 0.1, 0.2, 5))

    def test_tolerance_overload(self):
        p = make_params(1, 1, 2 + 1e-12, 0.5, 0.5, 5)
        assert not is_decentralized(p)


class TestBuildFullMatrix:
    def test_direct_transcription(self):
        A = build_full_matrix(make_params(1, 1, 2, 3, 4, 2))
        assert np.array_equal(A, [[2, 0, 0], [1, 0, 1], [0, 5, 3]])

    def test_zero_boundary(self):
        A = build_full_matrix(make_params(1, 1, 0, 0, 0, 2))
        assert np.array_equal(A, [[0, 0, 0], [1, 0, 1], [0, 1, 0]])

    def test_decentralized_row_sums_equal_b(self):
        p = make_params(1, 1, 2, 0.5, 0.5, 3)
        A = build_full_matrix(p)
        assert A[-1, -2] == 1.5 and A[-1, -1] == 0.5
        assert np.allclose(A.sum(axis=1), p.b)


class TestBuildReducedMatrix:
    def test_two_by_two(self):
        Q = build_reduced_matrix(make_params(1, 1, 9, 3, 4, 2))
        assert np.array_equal(Q, [[0, 1], [5, 3]])

    def test_zeroed_last_row(self):
        Q = build_reduced_matrix(make_params(1, 1, 9, 0, -1, 3))
        assert np.array_equal(Q, [[0, 1, 0], [1, 0, 1], [0, 0, 0]])

    def test_asymmetric_couplings(self):
        Q = build_reduced_matrix(make_params(4, 1, 9, 1, 0, 3))
        assert np.array_equal(Q, [[0, 1, 0], [4, 0, 1], [0, 4, 1]])

    def test_trailing_submatrix_of_full(self):
        p = make_params(2, 3, 1, -1, 0.7, 6)
        assert np.array_equal(build_reduced_matrix(p),
                              build_full_matrix(p)[1:, 1:])


class TestBuildLaplacian:
    def test_decentralized_shift_form(self):
        p = make_params(1, 1, 2, 0.5, 0.5, 2)
        L = build_laplacian(p)
        assert np.allclose(L, [[0, 0, 0], [-1, 2, -1], [0, -1.5, 1.5]])
        A = build_full_matrix(p)
        assert np.allclose(L, (p.a + p.c) * np.eye(3) - A)

    def test_annihilates_constant_vector(self):
        p = make_params(1, 2, 3, 1, 1, 8)
        assert np.allclose(build_laplacian(p) @ np.ones(9), 0)

    def test_non_decentralized_row_sums(self):
        p = make_params(1, 1, 0, 0, 0, 2)
        L = build_laplacian(p)
        D = np.diag([0, 2, 1])
        assert np.array_equal(L, D - build_full_matrix(p))


@settings(max_examples=50, deadline=None)
@given(a=st.floats(0.1, 10), c=st.floats(0.1, 10), b=st.floats(-5, 5),
       d=st.floats(-5, 5), e=st.floats(-5, 5), n=st.integers(2, 30))
def test_structural_zeros(a, c, b, d, e, n):
    A = build_full_matrix(make_params(a, c, b, d, e, n))
    mask = np.zeros_like(A, dtype=bool)
    mask[0, 0] = True
    for k in range(1, n):
        mask[k, k - 1] = mask[k, k + 1] = True
    mask[n, n - 1] = mask[n, n] = True
    assert np.all(A[~mask] == 0.0)


def _loop_full_matrix(p):
    """The full matrix transcribed entry by entry."""
    m = p.n + 1
    A = np.zeros((m, m))
    A[0, 0] = p.b
    for k in range(1, m - 1):
        A[k, k - 1] = p.a
        A[k, k + 1] = p.c
    A[m - 1, m - 2] = p.a + p.e
    A[m - 1, m - 1] = p.d
    return A


@settings(max_examples=200, deadline=None)
@given(a=st.floats(0.01, 100), c=st.floats(0.01, 100), b=st.floats(-50, 50),
       d=st.floats(-50, 50), e=st.floats(-50, 50), n=st.integers(2, 12))
def test_dense_builders_match_entrywise_reference(a, c, b, d, e, n):
    p = make_params(a, c, b, d, e, n)
    A = _loop_full_matrix(p)
    L = np.diag(A.sum(axis=1)) - A
    assert np.array_equal(build_full_matrix(p), A)
    assert np.array_equal(build_reduced_matrix(p), A[1:, 1:])
    assert np.array_equal(build_laplacian(p), L)
    for kind, M in (("full", A), ("reduced", A[1:, 1:]), ("laplacian", L)):
        sub, diag, sup = tridiagonal(p, kind)
        assert np.array_equal(sub, np.diag(M, -1))
        assert np.array_equal(diag, np.diag(M))
        assert np.array_equal(sup, np.diag(M, 1))


def test_tridiagonal_unknown_kind():
    with pytest.raises(DomainError):
        tridiagonal(make_params(1, 1, 2, 0, 0, 3), "dense")


@pytest.mark.parametrize("call", [
    lambda p: eigenvalue_from_root(p, 0),
    lambda p: eval_cotangent_residual(p, np.inf),
    lambda p: track_root_convergence(p, ["a"]),
    lambda p: simulate_first_order(SimConfig(p, np.zeros(p.n + 1),
                                             np.zeros(p.n + 1), t_end="1.0")),
], ids=["eigenvalue_from_root-y=0", "eval_cotangent_residual-inf",
        "track_root_convergence-str", "simulate_first_order-str"])
def test_invalid_arguments_raise_domain_error(call):
    # not a bare ZeroDivisionError, RuntimeWarning, ValueError or TypeError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            call(make_params(1, 2, 3, 0.5, 1.5, 20))
