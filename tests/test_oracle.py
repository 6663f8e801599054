import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flockspectra import (DimensionMismatch, DomainError, NoConvergence,
                          build_full_matrix, build_reduced_matrix,
                          cross_validate, make_params, pairing_distance,
                          qr_eigenvalues, tridiag_polynomial_eigenvalues)
from flockspectra import oracle
from flockspectra.oracle import (_newton_correction, _tau_balance,
                                 matrix_for_kind)
from kappa_bound import assert_within_kappa_bound


def _sorted_real(vals):
    return sorted(v.real for v in vals)


def _reference_correction(z, d, w):
    """p(z)/p'(z) one row at a time: D_k = (z - d_k) D_(k-1) -
    w_(k-1) D_(k-2) and its derivative, both divided by their largest
    modulus every 8 rows."""
    prev = np.zeros((2, len(z)), dtype=complex)
    prev[0] = 1.0
    cur = np.empty_like(prev)
    cur[0] = z - d[0]
    cur[1] = 1.0
    for k in range(1, len(d)):
        nxt = (z - d[k]) * cur - w[k - 1] * prev
        nxt[1] += cur[0]
        prev, cur = cur, nxt
        if k % 8 == 0:
            s = np.abs(cur).max(axis=0)
            prev /= s
            cur /= s
    return cur[0] / cur[1]


def _spy_routes(monkeypatch):
    """The list that records, call by call, which LAPACK routine
    qr_eigenvalues hands its matrix: "eigvals" (dense Francis QR) or the
    eigh_tridiagonal driver ("sterf" for QR on the symmetric twin)."""
    routes = []
    eigvals, eigh = scipy.linalg.eigvals, scipy.linalg.eigh_tridiagonal

    def spy_eigvals(*args, **kwargs):
        routes.append("eigvals")
        return eigvals(*args, **kwargs)

    def spy_eigh(*args, **kwargs):
        routes.append(kwargs.get("lapack_driver"))
        return eigh(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigvals", spy_eigvals)
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", spy_eigh)
    return routes


class TestQrEigenvalues:
    def test_hand_expanded_3x3(self):
        eigs = qr_eigenvalues(np.array([[2., 0, 0], [1, 0, 1], [0, 1, 0]]))
        assert _sorted_real(eigs) == pytest.approx([-1, 1, 2])
        assert all(abs(z.imag) < 1e-12 for z in eigs)

    def test_symmetric_chain_closed_form(self):
        Q = build_reduced_matrix(make_params(1, 1, 2, 0, 0, 5))
        eigs = _sorted_real(qr_eigenvalues(Q))
        want = sorted(2 * math.cos(k * math.pi / 6) for k in range(1, 6))
        assert eigs == pytest.approx(want, abs=1e-12)

    def test_one_by_one(self):
        assert qr_eigenvalues(np.array([[7.0]])).tolist() == [
            pytest.approx(7)]

    def test_complex_pair(self):
        eigs = qr_eigenvalues(np.array([[0., -1], [1, 0]]))
        assert sorted(z.imag for z in eigs) == pytest.approx([-1, 1])

    @pytest.mark.parametrize("s", [1e-160, 1e-140, 1e140, 1e160, 1e300])
    @pytest.mark.parametrize("e", [-2.25, 0.4])  # dense QR, symmetric QR
    def test_eigenvalues_do_not_depend_on_scale(self, e, s, monkeypatch):
        # LAPACK QR on s M itself is off by up to 8e21 of the scale here
        routes = _spy_routes(monkeypatch)
        M = build_reduced_matrix(make_params(1, 1, 2, 2.95, e, 60))
        assert pairing_distance([z / s for z in qr_eigenvalues(s * M)],
                                qr_eigenvalues(M)) < 1e-13
        # a+e < 0 gives one negative off-diagonal product
        assert routes == 2 * ["eigvals" if e < 0 else "sterf"]

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            qr_eigenvalues(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            qr_eigenvalues(np.array([[1.0, np.nan], [0.0, 1.0]]))

    @pytest.mark.parametrize("M", ["a", [["a", 1.0], [0.0, 1.0]]])
    def test_non_numeric_rejected(self, M):
        with pytest.raises(DomainError, match="real numbers"):
            qr_eigenvalues(M)

    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        # a negative off-diagonal product: the dense route
        def fail(*args, **kwargs):
            raise scipy.linalg.LinAlgError("eigenvalue iteration failed")
        monkeypatch.setattr(scipy.linalg, "eigvals", fail)
        with pytest.raises(NoConvergence):
            qr_eigenvalues(np.array([[0., -1], [1, 0]]))

    def test_symmetric_lapack_failure_is_no_convergence(self, monkeypatch):
        def fail(*args, **kwargs):
            raise scipy.linalg.LinAlgError("eigenvalue iteration failed")
        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", fail)
        with pytest.raises(NoConvergence):
            qr_eigenvalues(np.eye(3))

    @pytest.mark.parametrize("M", [
        # one entry off the band of an otherwise symmetric chain
        np.array([[2., 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [1e-3, 0, 1, 1]]),
        # tridiagonal, one negative off-diagonal product
        np.array([[2., 1, 0], [1, 0, -1], [0, 1, 0]])])
    def test_dense_route_when_the_chain_does_not_symmetrize(self, M,
                                                           monkeypatch):
        routes = _spy_routes(monkeypatch)
        eigs = qr_eigenvalues(M)
        assert routes == ["eigvals"]
        assert pairing_distance(eigs, np.linalg.eigvals(M)) < 1e-13

    def test_empty(self):
        eigs = qr_eigenvalues(np.zeros((0, 0)))
        assert eigs.dtype == complex and eigs.shape == (0,)


class TestPolynomialEigenvalues:
    def test_quadratic(self):
        # det(zI - M) = z^2 - 3z - 5
        M = build_reduced_matrix(make_params(1, 1, 9, 3, 4, 2))
        roots = _sorted_real(tridiag_polynomial_eigenvalues(M))
        s = math.sqrt(29)
        assert roots == pytest.approx([(3 - s) / 2, (3 + s) / 2])

    def test_cubic_with_zero(self):
        # det(zI - M) = z^3 - z
        M = build_reduced_matrix(make_params(1, 1, 9, 0, -1, 3))
        roots = _sorted_real(tridiag_polynomial_eigenvalues(M))
        assert roots == pytest.approx([-1, 0, 1], abs=1e-10)

    def test_chain_closed_form(self):
        M = build_reduced_matrix(make_params(1, 1, 2, 0, 0, 4))
        roots = _sorted_real(tridiag_polynomial_eigenvalues(M))
        want = sorted(2 * math.cos(k * math.pi / 5) for k in range(1, 5))
        assert roots == pytest.approx(want, abs=1e-10)

    def test_determinant_backend_large_n(self):
        p = make_params(1, 1, 2, 0, 0, 120)
        Q = build_reduced_matrix(p)
        roots = _sorted_real(tridiag_polynomial_eigenvalues(Q))
        want = sorted(2 * math.cos(k * math.pi / 121) for k in range(1, 121))
        assert np.allclose(roots, want, atol=1e-9)

    def test_real_roots_by_mrrr(self, monkeypatch):
        # every off-diagonal product positive: the symmetric twin goes to
        # LAPACK dstemr (MRRR), another algorithm than the QR oracle's
        drivers = []
        real = scipy.linalg.eigh_tridiagonal

        def spy(*args, **kwargs):
            drivers.append(kwargs.get("lapack_driver"))
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", spy)
        p = make_params(1.3, 0.7, 2.0, 0.9, 0.4, 400)
        B = _tau_balance(p, build_reduced_matrix(p))
        roots = tridiag_polynomial_eigenvalues(B)
        assert drivers == ["stemr"]
        assert pairing_distance(roots, scipy.linalg.eigvals(B)) < 1e-12

    def test_complex_roots_match_lapack(self):
        # (a+e)c < 0: one negative off-diagonal product, complex roots
        p = make_params(1, 1, 2, 2.95, -2.25, 60)
        B = _tau_balance(p, build_reduced_matrix(p))
        roots = tridiag_polynomial_eigenvalues(B)
        assert any(abs(z.imag) > 0.1 for z in roots)
        assert pairing_distance(roots, scipy.linalg.eigvals(B)) < 1e-12

    def test_complex_case_converges_at_n_480(self):
        p = make_params(1.3, 0.7, 2.0, 0.9, -2.4, 480)
        B = _tau_balance(p, build_reduced_matrix(p))
        roots = tridiag_polynomial_eigenvalues(B)
        assert pairing_distance(roots, scipy.linalg.eigvals(B)) < 1e-10

    @pytest.mark.parametrize("args", [(0.6, 0.6, 1.2, 2, -1.8, 400),
                                      (1, 1, 2, 2.95, -2.25, 600)])
    def test_weak_coupling_does_not_underflow(self, args):
        # |d| and sqrt|c(a+e)| well above sqrt(ac): scaled to unit size,
        # D shrinks by 0.15-0.25 a row across the bulk, so a chunk sized
        # for growth alone runs D down to 0
        p = make_params(*args)
        B = _tau_balance(p, build_reduced_matrix(p))
        roots = tridiag_polynomial_eigenvalues(B)
        assert pairing_distance(roots, scipy.linalg.eigvals(B)) < 1e-10

    def test_recurrence_rescaling_avoids_overflow(self):
        # |det(zI - M)| reaches ~1e360 here without the joint rescaling
        p = make_params(1, 1, 2, 2.95, -2.25, 120)
        B = 1e3 * build_reduced_matrix(p)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            roots = tridiag_polynomial_eigenvalues(B)
        assert pairing_distance(roots, scipy.linalg.eigvals(B)) < 1e-9 * 1e3

    @pytest.mark.parametrize("s", [1e-170, 1e-100, 1e-20, 1e-10, 1e40,
                                   1e100, 1e170, 5e307])
    @pytest.mark.parametrize("e", [-2.25, 0.4])  # Aberth, MRRR
    def test_roots_do_not_depend_on_scale(self, e, s):
        # past 1e+-154 the products sub_k * sup_k leave the float range,
        # and at 5e307 the power of two above the largest entry does
        M = build_reduced_matrix(make_params(1, 1, 2, 2.95, e, 60))
        roots = tridiag_polynomial_eigenvalues(s * M)
        assert pairing_distance([z / s for z in roots],
                                qr_eigenvalues(M)) < 1e-12

    def test_no_convergence_reports_progress(self, monkeypatch):
        monkeypatch.setattr(oracle, "_ABERTH_MAX_ITER", 2)
        M = build_reduced_matrix(make_params(1, 1, 2, 2.95, -2.25, 60))
        with pytest.raises(NoConvergence,
                           match=r"in 2 sweeps: \d+ of 60 points still "
                                 r"moving, largest last step \S+"):
            tridiag_polynomial_eigenvalues(M)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            tridiag_polynomial_eigenvalues(np.zeros((3, 2)))

    def test_empty(self):
        roots = tridiag_polynomial_eigenvalues(np.zeros((0, 0)))
        assert roots.dtype == complex and roots.shape == (0,)

    def test_one_by_one(self):
        assert tridiag_polynomial_eigenvalues(
            np.array([[-7.0]])).tolist() == [-7]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 700), m=st.integers(1, 60),
       spread=st.sampled_from([1.0, 0.1]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_banded_correction_matches_recurrence(n, m, spread, seed):
    # entries scaled to |d|, |w| <= 1 as _aberth passes them; at n=700
    # the solves run in two to four chunks.  A spread of 0.1 puts every
    # d_k and z near one centre with |w| <= 0.01, as when |d| dominates
    # sqrt|w|: D then shrinks ~10-fold a row and the chunks are shorter
    rng = np.random.default_rng(seed)
    centre = (1 - spread) * rng.uniform(-1, 1)
    d = centre + spread * rng.uniform(-1, 1, n)
    w = spread ** 2 * rng.uniform(-1, 1, n - 1)
    z = centre + spread * (rng.uniform(-3, 3, m)
                           + 1j * rng.uniform(-1.5, 1.5, m))
    got = _newton_correction(z, d, w)
    want = _reference_correction(z, d, w)
    assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))


class TestTauBalance:
    def test_matches_power_formula(self):
        p = make_params(1.3, 0.7, 2.0, 0.9, 0.4, 120)
        M = build_full_matrix(p)
        dpow = p.tau ** np.arange(M.shape[0])
        old = (M / dpow[:, None]) * dpow[None, :]
        np.testing.assert_allclose(_tau_balance(p, M), old, rtol=1e-15,
                                   atol=0)

    def test_no_overflow_at_large_n(self):
        # tau^k passes the float range at k ~ 2290 for this tau
        p = make_params(1.3, 0.7, 2.0, 0.9, 0.4, 7680)
        M = build_reduced_matrix(p)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            B = _tau_balance(p, M)
        del M
        sac = math.sqrt(1.3 * 0.7)
        np.testing.assert_allclose(np.diag(B, -1)[:-1], sac, rtol=1e-15)
        np.testing.assert_allclose(np.diag(B, 1), sac, rtol=1e-15)
        assert np.diag(B)[-1] == 0.9


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.2, 5), c=st.floats(0.2, 5), b=st.floats(-6, 6),
       d=st.floats(-6, 6), t=st.one_of(st.just(0.0), st.floats(0, 3)),
       n=st.integers(2, 130),
       kind=st.sampled_from(["full", "reduced", "laplacian"]))
@example(a=1.3, c=0.7, b=2.0, d=0.9, t=0.0, n=40, kind="full")
@example(a=1.0, c=1.0, b=0.0, d=1.0, t=1e-8, n=33, kind="full")
def test_symmetric_route_matches_dense_qr(a, c, b, d, t, n, kind):
    # e = a t - a >= -a, so c(a+e) >= 0 and every off-diagonal product of
    # the tau-balanced matrix is >= 0; t = 0 puts e on a+e = 0 exactly,
    # and the full kind's leader product is always 0.  The dense QR
    # reference is the less accurate side: on 8000 random draws it was
    # at worst 2.1e-13 of the row-sum norm off, on the full kind just
    # above a+e = 0; on one such draw a 40-digit reference put dense QR
    # 1.7e-13 and the symmetric route 8e-16 off.  On the second example
    # a 40-digit reference puts dense QR 3.2e-12 off and the symmetric
    # route 8.9e-16, at kappa = 5.0e3, so the flat 1e-12 of the norm
    # grows by the condition number of each eigenvalue
    p = make_params(a, c, b, d, a * t - a, n)
    B = _tau_balance(p, matrix_for_kind(p, kind))
    with pytest.MonkeyPatch.context() as mp:
        routes = _spy_routes(mp)
        got = qr_eigenvalues(B)
    assert routes == ["sterf"]
    norm = np.abs(B).sum(axis=1).max()
    assert_within_kappa_bound(got, B, 1e-12 * norm, norm)


class TestCrossValidate:
    @pytest.mark.parametrize("kind", ["full", "reduced", "laplacian"])
    @pytest.mark.parametrize("n", [30, 60, 120])
    @pytest.mark.parametrize("e", [0.4, -1.3])  # a+e > 0, a+e = 0
    def test_oracles_never_coincide(self, e, n, kind):
        # a distance of exactly 0 means both sides ran the same code
        rep = cross_validate(make_params(1.3, 0.7, 2.0, 0.9, e, n), kind)
        for dist in (rep.max_pairing_error, rep.method_agreement):
            assert math.isfinite(dist) and dist > 0

    def test_symmetric_chain(self):
        rep = cross_validate(make_params(1, 1, 2, 0, 0, 50), "full")
        assert rep.max_pairing_error < 1e-8
        assert rep.method_agreement < 1e-8

    def test_deep_negative_e_real_case(self):
        rep = cross_validate(make_params(1, 1, 2, 3.3, -2.25, 100), "full")
        assert rep.max_pairing_error < 1e-6

    def test_complex_special_pair(self):
        rep = cross_validate(make_params(1, 1, 2, 2.95, -2.25, 100), "full")
        assert rep.max_pairing_error < 1e-6

    def test_laplacian_kind(self):
        rep = cross_validate(make_params(1, 2, 3, 1, 1, 40), "laplacian")
        assert rep.max_pairing_error < 1e-8

    def test_laplacian_kind_non_decentralized(self):
        rep = cross_validate(make_params(1, 1.5, 0.3, 0.7, -0.3, 60),
                             "laplacian")
        assert rep.max_pairing_error < 1e-8
        assert rep.method_agreement < 1e-8


class TestMultisetInvariants:
    def test_full_is_leader_plus_reduced(self):
        p = make_params(1.5, 0.7, 2.6, -1.2, 0.9, 30)
        full = qr_eigenvalues(build_full_matrix(p))
        reduced = qr_eigenvalues(build_reduced_matrix(p))
        assert pairing_distance(full, np.append(reduced, p.b)) < 1e-9

    def test_trace_of_reduced_is_d(self):
        p = make_params(0.4, 2.2, 1.0, 3.7, -0.6, 50)
        eigs = qr_eigenvalues(build_reduced_matrix(p))
        assert sum(eigs).real == pytest.approx(3.7, abs=1e-9)
        assert sum(eigs).imag == pytest.approx(0, abs=1e-9)

    def test_pairing_distance_of_empty_multisets(self):
        assert pairing_distance([], []) == 0.0

    @pytest.mark.parametrize("u, v", [([np.nan], [1]), ([1], [np.inf]),
                                      ([1, 2], [2, complex(1, np.nan)])])
    def test_pairing_distance_of_non_finite_values_raises(self, u, v):
        with pytest.raises(DomainError, match="finite"):
            pairing_distance(u, v)

    def test_pairing_distance_zero_on_permutation(self):
        vals = [1 + 1j, 1 - 1j, -2.0, 0.5]
        assert pairing_distance(vals, list(reversed(vals))) < 1e-15

    def test_conjugate_pair_sorts_without_assignment(self, monkeypatch):
        # the real parts differ in the last bit, which flips a plain
        # (re, im) sort of the pair in one multiset
        def fail(cost):
            raise AssertionError("pairing was ambiguous")
        monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", fail)
        u = [1 + 1j, 1 - 1j, -2.0]
        v = [-2.0, 1 + 1j, complex(1 + 2.0 ** -52, -1)]
        assert pairing_distance(u, v) < 1e-15


_grid = st.integers(-32, 32).map(lambda k: k / 8)


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       u=st.lists(st.builds(complex, _grid, _grid), min_size=1, max_size=10),
       shift=st.builds(complex, _grid, _grid),
       s=st.sampled_from([2.0 ** -332, 2.0 ** -66, 2.0 ** 66, 2.0 ** 332]))
def test_pairing_distance_scales_with_its_input(data, u, shift, s):
    # s ~ 1e-100, 1e-20, 1e20, 1e100; powers of two keep the scaling exact
    v = data.draw(st.permutations(u))
    v[0] += shift
    got = pairing_distance([s * z for z in u], [s * z for z in v])
    assert got == pytest.approx(s * pairing_distance(u, v), rel=1e-15, abs=0)


def _list_pairing_distance(u, v):
    """pairing_distance as written on Python lists: a key-function sort
    by (re/r, rounded by round(., 9) off the real axis, im), then the
    optimal assignment when the sorted pairing looks ambiguous."""
    u = [complex(z) for z in u]
    v = [complex(z) for z in v]
    if not u:
        return 0.0
    r = max(map(abs, u + v)) or 1.0

    def key(z):
        x = z.real / r
        return (round(x, 9) if abs(z.imag) > 1e-9 * r else x), z.imag
    u.sort(key=key)
    v.sort(key=key)
    d_sorted = max(abs(a - b) for a, b in zip(u, v))
    if d_sorted < 1e-9 * r or len(u) > 600:
        return d_sorted
    cost = np.abs(np.array(u)[:, None] - np.array(v)[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))


def _nudge(x, k):
    """x moved by k ulps."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def _assert_pairing_matches_list_sort(u, v):
    got, want = pairing_distance(u, v), _list_pairing_distance(u, v)
    assert type(got) is float
    assert abs(got - want) <= 4 * math.ulp(want)


_part = st.tuples(st.sampled_from(["free", "pair", "cluster", "axis"]),
                  st.floats(-4, 4), st.floats(-4, 4), st.integers(-3, 3))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), centre=st.floats(-4, 4),
       parts=st.lists(_part, max_size=8),
       shift=st.sampled_from([0.0, 1e-12, 1e-6, 0.5]),
       s=st.sampled_from([1.0, 2.0 ** -40, 2.0 ** 40]))
def test_pairing_distance_matches_list_sort(data, centre, parts, shift, s):
    u = []
    for kind, x, y, k in parts:
        if kind == "pair":       # a conjugate pair, real parts k ulps apart
            u += [complex(x, y), complex(_nudge(x, k), -y)]
        elif kind == "cluster":  # real parts within 1e-9 of one another
            u.append(complex(centre + 1e-10 * x, y))
        elif kind == "axis":     # within 1e-9 r of the real axis, or on it
            u.append(complex(x, 1e-10 * y * (k != 0)))
        else:
            u.append(complex(x, y))
    v = data.draw(st.permutations(u))
    ulps = data.draw(st.lists(st.integers(-3, 3), min_size=len(v),
                              max_size=len(v)))
    v = [complex(_nudge(z.real, k), z.imag) for z, k in zip(v, ulps)]
    if v:
        v[0] += shift
    _assert_pairing_matches_list_sort([s * z for z in u], [s * z for z in v])


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(601, 700))
def test_pairing_distance_matches_list_sort_past_600(seed, m):
    # conjugate pairs a few ulps apart and a cluster of real parts within
    # 1e-9 r, permuted and nudged; past 600 the sorted pairing is final
    rng = np.random.default_rng(seed)
    half = rng.normal(size=m // 2) + 1j * rng.normal(size=m // 2)
    mate = half.conj()
    mate.real = np.nextafter(mate.real, np.inf)
    u = np.concatenate((half, mate, rng.normal(size=m % 2)))
    u.real[:m // 10] = 0.3 + 1e-10 * rng.normal(size=m // 10)
    v = rng.permutation(u)
    v.real = v.real + 1e-13 * rng.normal(size=m) * (seed % 2)
    _assert_pairing_matches_list_sort(u, v)
    _assert_pairing_matches_list_sort(list(u), list(v))


def test_pairing_sort_rounds_ties_like_round():
    # 5e-10 * 1e9 rounds to 0.5 exactly, which rint takes to 0, but the
    # double 5e-10 lies above 5e-10 and round(., 9) takes it to 1e-9; the
    # one-ulp-larger mate rounds to 1e-9 either way.  Sorted on rint the
    # two would pair with different neighbours, and past 600 entries
    # nothing repairs that.
    rest = [complex(x, 0.0) for x in np.linspace(-1, 1, 599)]
    u = [complex(5e-10, 0.5), complex(0.0, 0.9)] + rest
    v = [complex(0.0, 0.9), complex(math.nextafter(5e-10, 1), 0.5)] + rest
    assert pairing_distance(u, v) == _list_pairing_distance(u, v) < 1e-24


@settings(max_examples=15, deadline=None)
@given(a=st.floats(0.2, 5), c=st.floats(0.2, 5),
       d=st.floats(-5, 5), e=st.floats(-5, 5))
def test_methods_agree_randomized(a, c, d, e):
    p = make_params(a, c, a + c, d, e, 40)
    M = build_reduced_matrix(p)
    from flockspectra.oracle import _tau_balance
    B = _tau_balance(p, M)
    qr = qr_eigenvalues(B)
    dk = tridiag_polynomial_eigenvalues(B)
    assert pairing_distance(qr, dk) < 1e-6


def test_import_does_not_load_scipy():
    code = ("import sys, flockspectra, flockspectra.cli; "
            "sys.exit('scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr or "scipy was imported"


def test_import_does_not_load_mpmath():
    code = ("import sys, flockspectra, flockspectra.cli; "
            "sys.exit('mpmath' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr or "mpmath was imported"
    # with mpmath made unimportable, perturb and the convergence
    # subcommand still run: mpmath is a test dependency only
    code = ("import runpy, sys\n"
            "sys.modules['mpmath'] = None\n"
            "from flockspectra import (make_params, perturbation_sign,\n"
            "                          track_root_convergence)\n"
            "p = make_params(1, 2, 3, 1, 1, 20)\n"
            "rep = track_root_convergence(p, [20, 40, 80])\n"
            "assert rep.sign_pattern == [-1, -1, -1], rep\n"
            "assert perturbation_sign(p, 100) == -1\n"
            "sys.argv = ['flockspectra', 'convergence', '--a', '1', '--c',\n"
            "            '2', '--b', '3', '--d', '1', '--e', '1']\n"
            "runpy.run_module('flockspectra.cli', run_name='__main__',\n"
            "                 alter_sys=True)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert '"sign_pattern": [' in proc.stdout
