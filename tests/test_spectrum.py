import functools
import logging
import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvals

from flockspectra import (DegenerateRoot, DiscriminantCollapse,
                          DimensionMismatch, DomainError, FlockSpectraError,
                          RootCountAnomaly, build_full_matrix,
                          build_laplacian, build_reduced_matrix,
                          classify_regime, compute_spectrum,
                          eigenvalue_from_root, eigenvector_for,
                          find_branch_roots, is_decentralized,
                          leader_eigenvector, make_params, pairing_distance,
                          quadratic_roots, residual)
from flockspectra import (SecondOrderParams, SystemParams,
                          first_order_verdict, second_order_verdict)
from flockspectra.charpoly import (CIRCLE_EPS, EPLUSA_THRESHOLD,
                                   _special_seeds)
from flockspectra.oracle import _tau_balance
from flockspectra.spectrum import (_branch_root_arrays, _certify_count,
                                   _power_sum_residuals, _power_sum_tol)
from kappa_bound import assert_within_kappa_bound


class TestClassifyRegime:
    @pytest.mark.parametrize("d,case", [(2.95, "2b"), (3.05, "2c"),
                                        (3.3, "3")])
    def test_deep_negative_e_cases(self, d, case):
        label = classify_regime(make_params(1, 1, 2, d, -2.25, 100))
        assert label.theorem == "T3"
        assert label.case == case

    def test_symmetric_middle_case(self):
        label = classify_regime(make_params(1, 1, 2, 0.5, 0.5, 20))
        assert label.theorem == "T1" and label.case == "2"
        assert list(label.predicted_specials) == []

    def test_a_plus_e_zero_routes_to_closed_form(self):
        label = classify_regime(make_params(1, 1, 2, 3, -1, 20))
        assert label.theorem == "P31"

    def test_e_above_a(self):
        label = classify_regime(make_params(1, 2, 3, 0, 2, 20))
        assert label.theorem == "T2"
        assert label.case == "2"   # t = (a-e)sqrt(c/a) < 0, t < d < -t

    def test_decentralized_cell_attached(self):
        label = classify_regime(make_params(1, 2, 3, 0, 2, 20))
        assert label.decentralized_cell is not None
        assert sorted(label.predicted_specials) == pytest.approx([-3.0, 3.0])

    def test_decentralized_cell_single_special(self):
        # e = a sits in the middle band: only a+c is predicted
        label = classify_regime(make_params(1, 2, 3, 1, 1, 20))
        assert label.theorem == "T1" and label.case == "1"
        assert list(label.predicted_specials) == pytest.approx([3.0])

    def test_non_decentralized_has_no_cell(self):
        label = classify_regime(make_params(1, 1, 2, 3.3, -2.25, 20))
        assert label.decentralized_cell is None


class TestComputeSpectrum:
    def test_zero_boundary_closed_form(self):
        s = compute_spectrum(make_params(1, 1, 2, 0, 0, 10), "full")
        got = sorted(z.real for z in s.eigenvalues())
        want = sorted([2.0] + [2 * math.cos(k * math.pi / 11)
                               for k in range(1, 11)])
        assert np.allclose(got, want, atol=1e-10)

    def test_odd_chain_closed_form(self):
        s = compute_spectrum(make_params(1, 1, 2, 1, 0, 10), "full")
        got = sorted(z.real for z in s.eigenvalues())
        want = sorted([2.0] + [2 * math.cos((2 * k - 1) * math.pi / 21)
                               for k in range(1, 11)])
        assert np.allclose(got, want, atol=1e-10)

    def test_decentralized_specials_present(self):
        # e > a cell predicting both a+c and -(ac/e+e)
        s = compute_spectrum(make_params(1, 2, 3, 0, 2, 60), "full")
        eigs = s.eigenvalues()
        assert min(abs(z - 3) for z in eigs) < 1e-6
        assert min(abs(z + 3) for z in eigs) < 1e-6
        bulk = [b.eigenvalue for b in s.bulk]
        assert len(bulk) == 58
        assert all(abs(r) <= 2 * math.sqrt(2) + 1e-12 for r in bulk)

    def test_decentralized_single_special(self):
        # e = a: y_minus sits inside the unit circle, only a+c appears
        s = compute_spectrum(make_params(1, 2, 3, 1, 1, 60), "full")
        eigs = s.eigenvalues()
        assert min(abs(z - 3) for z in eigs) < 1e-6
        assert min(z.real for z in eigs) > -2 * math.sqrt(2) - 1e-9
        assert len(s.special) == 1

    def test_count_full_vs_reduced(self):
        p = make_params(1, 1, 2, 3.3, -2.25, 50)
        assert len(compute_spectrum(p, "full").eigenvalues()) == 51
        assert len(compute_spectrum(p, "reduced").eigenvalues()) == 50

    def test_laplacian_decentralized_shift(self):
        p = make_params(1, 1, 2, 0.5, 0.5, 20)
        lam = compute_spectrum(p, "laplacian").eigenvalues()
        r = compute_spectrum(p, "full").eigenvalues()
        assert np.allclose(sorted(z.real for z in lam),
                           sorted(z.real - 2 for z in r))

    def test_laplacian_non_decentralized_labeled(self):
        # -L ignores b and d: it is the decentralized twin (b, d) =
        # (a+c, c-e) shifted by -(a+c), so the closed form applies
        p = make_params(1, 1, 2, 0, 0, 10)
        s = compute_spectrum(p, "laplacian")
        assert (s.params.b, s.params.d) == (2, 1)
        assert s.regime.decentralized_cell is not None
        assert len(s.eigenvalues()) == 11
        want = np.linalg.eigvals(-build_laplacian(p))
        assert pairing_distance(s.eigenvalues(), want) < 1e-9 * 2

    def test_seeds_converging_to_one_root_counted_once(self):
        # n=2, T3 case 2c: both seeds converge to the same off-circle root;
        # kept twice it hid the missing root.  Counted once, the root is
        # one short, and the trace recovers the other one.
        p = make_params(0.29, 2.75, None, 2.75 + 4.07, -4.07, 2)
        s = compute_spectrum(p, "full")
        assert len(s.special) == 2
        assert pairing_distance(s.eigenvalues(),
                                np.linalg.eigvals(build_full_matrix(p))) < 1e-9
        s = compute_spectrum(p, "laplacian")
        assert pairing_distance(s.eigenvalues(),
                                np.linalg.eigvals(-build_laplacian(p))) < 1e-9

    def test_duplicate_seed_root_dropped(self):
        # the same collapse with a bulk root present: dropping the copy
        # leaves exactly n roots, which used to be one too many
        p = make_params(1.2, 3.3, None, 3.3 + 3.5, -3.5, 2)
        s = compute_spectrum(p, "full")
        assert len(s.special) == 1
        assert pairing_distance(s.eigenvalues(),
                                np.linalg.eigvals(build_full_matrix(p))) < 1e-9

    def test_t2_special_bounds(self):
        p = make_params(1, 1, 2, 0, 3, 80)   # e > a, t = -2 < d=0 < 2
        s = compute_spectrum(p, "reduced")
        specials = sorted(x.eigenvalue.real for x in s.special)
        assert len(specials) == 2
        sq = math.sqrt(p.a * p.c)
        hi = sq * (p.e / p.a + p.a / p.e)
        assert -hi < specials[0] <= -2 * sq + 1e-9
        assert 2 * sq - 1e-9 <= specials[1] < hi

    def test_conjugate_closure(self):
        s = compute_spectrum(make_params(1, 1, 2, 2.95, -2.25, 60), "full")
        eigs = s.eigenvalues()
        for z in eigs:
            assert min(abs(z.conjugate() - w) for w in eigs) < 1e-9

    def test_oracle_agreement_asymmetric_couplings(self):
        # numpy's eigvals loses digits on the unbalanced non-normal Q at
        # tau != 1, so the check goes through the balanced-QR oracle
        from flockspectra import cross_validate
        rep = cross_validate(make_params(2, 0.5, 1, -1.3, 0.8, 40),
                             "reduced")
        assert rep.max_pairing_error < 1e-8


class TestEigenvectors:
    def test_unit_circle_eigenvector(self):
        p = make_params(1, 1, 2, 0, 0, 12)
        import cmath
        y = cmath.exp(1j * math.pi / 13)
        pair = eigenvector_for(p, y)
        Q = build_reduced_matrix(p)
        assert residual(Q, pair.eigenvalue, np.array(pair.vector)) < 1e-10

    def test_degenerate_root_rejected(self):
        with pytest.raises(DegenerateRoot):
            eigenvector_for(make_params(1, 1, 2, 0, 0, 12), 1.0)

    def test_leader_constant_when_decentralized(self):
        pair = leader_eigenvector(make_params(1, 1, 2, 0.5, 0.5, 5))
        assert np.allclose(pair.vector, 1.0)
        assert pair.eigenvalue == 2

    def test_leader_general(self):
        p = make_params(1, 1, 3, 0, 0, 4)
        pair = leader_eigenvector(p)
        A = build_full_matrix(p)
        assert residual(A, 3.0, np.array(pair.vector)) < 1e-10

    def test_leader_general_asymmetric(self):
        p = make_params(2, 0.5, 4, 1.5, -0.4, 6)
        pair = leader_eigenvector(p)
        A = build_full_matrix(p)
        assert residual(A, p.b, np.array(pair.vector)) < 1e-8

    def test_discriminant_collapse(self):
        with pytest.raises(DiscriminantCollapse):
            leader_eigenvector(make_params(1, 1, 2, 0, 0, 5))

    def test_special_eigenvector_finite_at_large_n(self):
        # (tau y)^n with |y| = 2.34 leaves the float range at n = 2000
        p = make_params(1, 1, 2, 3.3, -2.25, 2000)
        y = max((s.y for s in compute_spectrum(p, "reduced").special),
                key=abs)
        assert abs(abs(y) - 2.337) < 1e-3
        pair = eigenvector_for(p, y)
        assert np.isfinite(pair.vector).all()
        assert residual(build_reduced_matrix(p), pair.eigenvalue,
                        pair.vector) <= 1e-12

    @pytest.mark.parametrize("args", [(1, 1, 5, 0.3, 0.2, 1000),
                                      (1, 1, 1e160, 0.3, 0.2, 10)])
    def test_leader_eigenvector_finite(self, args):
        # x_+^(2n-1) overflowed at n = 1000, and b^2 at b = 1e160
        p = make_params(*args)
        pair = leader_eigenvector(p)
        assert np.isfinite(pair.vector).all()
        assert residual(build_full_matrix(p), p.b, pair.vector) <= 1e-12


class TestResidual:
    def test_identity(self):
        v = np.array([1.0, 2.0, 3.0])
        assert residual(np.eye(3), 1.0, v) == 0

    def test_known_eigenpair(self):
        Q = build_reduced_matrix(make_params(1, 1, 2, 0, 0, 3))
        v = np.array([1.0, math.sqrt(2), 1.0])
        assert residual(Q, math.sqrt(2), v) < 1e-15

    def test_non_eigenpair_positive(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(4, 4))
        v = rng.normal(size=4)
        assert residual(M, 0.0, v) > 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            residual(np.eye(3), 1.0, np.ones(4))

    @pytest.mark.parametrize("M, r, v", [
        (np.eye(3), 1.0, np.array([1.0, math.nan, 0.0])),
        (np.diag([1.0, math.inf, 1.0]), 1.0, np.ones(3)),
        (np.eye(3), complex(math.nan, 0.0), np.ones(3))],
        ids=["nan-in-v", "inf-in-M", "nan-r"])
    def test_non_finite_input_raises(self, M, r, v):
        # a NaN result with a RuntimeWarning, before this was checked
        with pytest.raises(DomainError, match="finite"):
            residual(M, r, v)


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.2, 5), c=st.floats(0.2, 5), b=st.floats(-5, 5),
       d=st.floats(-5, 5), e=st.floats(-5, 5), n=st.integers(2, 300))
@example(a=0.2858832926857671, c=2.7511380816242483, b=-2.3353740956122038,
         d=-4.526070497573619, e=-4.06527463184767, n=2)
@example(a=0.5, c=4.0, b=0.0, d=1.0, e=-4.0, n=16)
@example(a=2.0, c=5.0, b=0.0, d=1.0, e=-5.0, n=36)
@example(a=0.203125, c=1.1, b=0.0, d=1.0, e=-1.1, n=19)
def test_laplacian_matches_lapack_for_any_boundary(a, c, b, d, e, n):
    # c + e = 0 gives the twin's quadratic a double root, where both
    # sides are good only to about sqrt(eps): on the first two c + e = 0
    # examples a 40-digit reference puts LAPACK 1.8e-9 and 7.2e-9 off,
    # the theory path 4.4e-9 and 9.2e-10, at kappa 1.8e7 and 2.0e7.  So
    # the flat 1e-9 (a+c) grows by the condition number of each eigenvalue
    p = make_params(a, c, b, d, e, n)
    assume(not is_decentralized(p))
    B = -_tau_balance(p, build_laplacian(p))
    got = compute_spectrum(p, "laplacian").eigenvalues()
    assert_within_kappa_bound(got, B, 1e-9 * (a + c),
                              np.abs(B).sum(axis=1).max())


# The quadratic roots each theorem case of the paper lists as special
# eigenvalues; "+" is y_plus and "-" is y_minus.
SEED_TABLE = {
    ("T1", "1"): "+", ("T1", "2"): "", ("T1", "3"): "-",
    ("T2", "1"): "+", ("T2", "2"): "+-", ("T2", "3"): "-",
    ("T3", "1"): "-", ("T3", "2a"): "+-", ("T3", "2b"): "+-",
    ("T3", "2c"): "+-", ("T3", "3"): "+",
}


@st.composite
def boundary_params(draw):
    """(a, c, d, e) off the a + e = 0 line, with e and d often exactly on
    the thresholds classify_regime compares them with."""
    a, c = draw(st.floats(0.2, 5)), draw(st.floats(0.2, 5))
    e = draw(st.one_of(st.floats(-5, 5), st.sampled_from([a, 0.0])))
    assume(abs(e + a) >= 1e-6 * a)
    t = (a - e) * math.sqrt(c / a)
    s = 2 * math.sqrt(c * abs(e))
    d = draw(st.one_of(st.floats(-5, 5), st.sampled_from([t, -t, s, -s])))
    return a, c, d, e


@settings(max_examples=400, deadline=None)
@given(boundary_params())
@example((1.0, 1.0, 3.0, -2.25))     # T3 boundary d = 2 sqrt(c|e|)
@example((1.0, 2.0, 0.0, 1.0))       # e = a
def test_off_circle_seeds_are_the_theorem_table(params):
    """The special seeds, the quadratic roots outside the unit circle, are
    the roots the theorem case lists.  On a case threshold a listed root
    may sit on the circle; charpoly's circle tolerance CIRCLE_EPS drops
    it on both sides of the comparison."""
    a, c, d, e = params
    p = make_params(a, c, None, d, e, 10)
    regime = classify_regime(p)
    q = quadratic_roots(p)
    listed = [{"+": q.y_plus, "-": q.y_minus}[k]
              for k in SEED_TABLE[(regime.theorem, regime.case)]]
    assert _special_seeds(p) == [y for y in listed
                                 if abs(y) > 1 + CIRCLE_EPS]


@pytest.mark.parametrize("kind", ["full", "reduced"])
@pytest.mark.parametrize("side", [1, -1], ids=["e>-a", "e<-a"])
def test_assembly_near_a_plus_e_zero_ends_promptly(kind, side):
    # |a+e| = 1e-10 a, so |B| ~ 2e10: the roots crowd against the branch
    # ends, and whether or not the count comes out right, the assembly
    # must end without delay
    p = make_params(1, 1, 2, 0.5, -1 + side * 1e-10, 400)
    start = time.perf_counter()
    try:
        assert len(compute_spectrum(p, kind).eigenvalues()) in (400, 401)
    except FlockSpectraError:
        pass
    assert time.perf_counter() - start < 1.0


@settings(max_examples=100, deadline=None)
@given(a=st.floats(0.2, 5), c=st.floats(0.2, 5), d=st.floats(-6, 6),
       side=st.sampled_from([1, -1]), u=st.floats(-16, -12),
       n=st.integers(2, 400))
@example(a=1.0, c=1.0, d=0.0, side=1, u=-13.0, n=2)
def test_a_plus_e_dispatch_band_matches_lapack(a, c, d, side, u, n):
    """|a+e| < EPLUSA_THRESHOLD a takes the closed-form layout of the line
    a + e = 0, where the cotangent scan would drop roots or misplace them.

    The layout is exact on the line; off it, the roots move by about
    c |a+e| / delta, delta the distance from the special eigenvalue d to
    the nearest bulk eigenvalue, and by up to sqrt(c |a+e|) where the two
    meet (a double root: n = 2, d = 0, a+e = -1e-13 is 3.2e-7 off)."""
    p = make_params(a, c, None, d, -a * (1 + side * 10 ** u), n)
    assume(abs(p.a + p.e) < EPLUSA_THRESHOLD * p.a)
    got = compute_spectrum(p, "reduced").eigenvalues()
    want = eigvals(_tau_balance(p, build_reduced_matrix(p)))
    bulk = 2 * math.sqrt(a * c) * np.cos(np.pi * np.arange(1, n) / n)
    shift = c * abs(p.a + p.e)
    delta = np.abs(bulk - d).min()
    moved = math.sqrt(shift) if delta <= math.sqrt(shift) else shift / delta
    assert (pairing_distance(got, want)
            <= 1e-9 * 2 * math.sqrt(a * c) + moved)


@pytest.mark.parametrize("kind", ["full", "reduced"])
@pytest.mark.parametrize("args", [
    (1.9622768212420452, 4.179999553518589, 4.650296370269988,
     -1.9791010244640208, 26),
    (1.0, 1.0, 0.5, -1 - 1e-5, 50)], ids=["close-pair", "a+e=-1e-5"])
def test_large_b_sets_assemble(kind, args):
    # |B| = 234 with two roots of branch 6 in one sample interval, and
    # |B| = 2e5 with every root near a branch end
    a, c, d, e, n = args
    p = make_params(a, c, a + c, d, e, n)
    got = compute_spectrum(p, kind).eigenvalues()
    M = build_full_matrix(p) if kind == "full" else build_reduced_matrix(p)
    want = eigvals(_tau_balance(p, M))
    assert len(got) == len(want)
    assert pairing_distance(got, want) <= 1e-9 * 2 * math.sqrt(a * c)


@pytest.mark.parametrize("kind", ["full", "reduced"])
@pytest.mark.parametrize("args", [
    (4.066298483196855, 1.0885899760998974, -2.9152706755059867,
     -1.2669744137092758, 6.59515826166445, 133),
    (3.257438706190912, 4.528638368453062, 0.8691991572758564,
     2.017282887998502, 4.994110946206543, 320),
    (3.8400643712810885, 4.897749571673629, 2.6974136460169067,
     4.801126159515471, 8.687856973170597, 21)],
    ids=["G(0)=0", "n=320", "n=21"])
def test_finite_n_threshold_band_assembles(kind, args):
    # d on a finite-n threshold +-((a-e) + (a+e)/n)/tau, where G(0) or
    # G(pi) vanishes: a root of an end branch merges with y = +-1, and
    # the count, not the branch, accounts for it
    p = make_params(*args)
    got = compute_spectrum(p, kind).eigenvalues()
    M = build_full_matrix(p) if kind == "full" else build_reduced_matrix(p)
    want = eigvals(_tau_balance(p, M))
    assert len(got) == len(want)
    assert pairing_distance(got, want) <= 1e-12 * 2 * math.sqrt(p.a * p.c)


@pytest.mark.parametrize("kind", ["full", "reduced"])
@pytest.mark.parametrize("n", [50, 400])
@pytest.mark.parametrize("gap", [1e-8, 1e-11])
@pytest.mark.parametrize("acd", [(1, 1, 0.5), (1.3, 0.7, 0.9), (2, 3, 4)])
def test_assembles_just_below_a_plus_e_zero(acd, gap, n, kind):
    # e = -a (1 + gap): the interior roots crowd against the branch ends,
    # where H has no pole, and both y+- leave the unit circle
    a, c, d = acd
    p = make_params(a, c, a + c, d, -a * (1 + gap), n)
    got = compute_spectrum(p, kind).eigenvalues()
    M = build_full_matrix(p) if kind == "full" else build_reduced_matrix(p)
    want = eigvals(_tau_balance(p, M))
    assert len(got) == len(want)
    assert pairing_distance(got, want) <= 1e-12 * 2 * math.sqrt(a * c)


@pytest.mark.parametrize("a,c,e,n", [
    (1.439076088902024, 4.895845459108242, -1.4390760905779676, 376),
    (2.381770183046295, 3.7666458787315364, -2.3817701897114, 322),
    (1.3, 0.7, -1.3 * (1 + 1e-9), 400)])
def test_laplacian_fallback_is_balanced(a, c, e, n):
    # just below a+e = 0 the twin assembles, labeled.  Unbalanced, -L is
    # so far from normal here that QR on it is off by up to 0.54 of
    # scale, so the reference scales -L by exact powers of two near
    # tau^k, a similarity that rounds nothing.
    p = make_params(a, c, a + c, c - e, e, n)
    s = compute_spectrum(p, "laplacian")
    M = -build_laplacian(p)
    step = np.diff(np.round(np.arange(n + 1) * np.log2(p.tau)).astype(int))
    B = (np.diag(np.diag(M)) + np.diag(np.ldexp(np.diag(M, -1), -step), -1)
         + np.diag(np.ldexp(np.diag(M, 1), step), 1))
    assert pairing_distance(s.eigenvalues(), np.linalg.eigvals(B)) \
        < 1e-10 * 2 * math.sqrt(a * c)


@pytest.mark.parametrize("kind", ["full", "reduced", "laplacian"])
@pytest.mark.parametrize("args", [
    (1.3, 0.7, 2.0, 0.9, 0.4, 3000),
    (1.9622768212420452, 4.179999553518589, None, 4.650296370269988,
     -1.9791010244640208, 26),
    (1.0, 1.0, 2.0, 0.5, -1.0, 20)], ids=["baseline", "close-pair", "a+e=0"])
def test_bulk_views_agree_bit_for_bit(kind, args):
    s = compute_spectrum(make_params(*args), kind)
    roots = find_branch_roots(s.params)
    assert s.bulk == roots
    lead = 0 if s.leader is None else 1
    r = [b.eigenvalue + s.shift for b in roots]
    bulk = s.eigenvalues()[lead:lead + len(roots)]
    assert bulk.dtype == complex
    assert bulk.tobytes() == np.array(r, dtype=complex).tobytes()
    assert s.as_dict()["bulk"] == [{"ell": b.ell, "phi": b.phi, "r": x}
                                   for b, x in zip(roots, r)]
    assert s.csv_rows()[lead:lead + len(roots)] == [
        (x, 0.0, f"bulk:{b.ell}") for b, x in zip(roots, r)]


def test_spectrum_equality_and_repr():
    p = make_params(1.3, 0.7, 2.0, 0.9, 0.4, 40)
    s = compute_spectrum(p, "full")
    assert s == compute_spectrum(p, "full")
    assert s != compute_spectrum(p, "reduced")
    assert s != compute_spectrum(make_params(1.3, 0.7, 2.0, 0.9, 0.41, 40),
                                 "full")
    assert repr(s).startswith("Spectrum(leader=2.0, bulk_ell=array([")


def _eigenvalue_list(s):
    """The eigenvalues as a list of Python complex, assembled from the
    Spectrum's fields the way the list-returning eigenvalues() did."""
    out = [] if s.leader is None else [complex(s.leader + s.shift)]
    out += (s.bulk_eigenvalue + s.shift).astype(complex).tolist()
    out.extend(x.eigenvalue + s.shift for x in s.special)
    return out


@pytest.mark.parametrize("kind", ["full", "reduced", "laplacian"])
@pytest.mark.parametrize("args", [
    (1.3, 0.7, 2.0, 0.9, 0.4, 40),         # bulk only
    (1.0, 1.0, 2.0, 2.95, -2.25, 40),      # a complex special pair
    (1.0, 1.0, 2.0, 3.0, -1.0, 60)],       # a+e = 0, the special root d
    ids=["bulk", "complex-pair", "a+e=0"])
def test_eigenvalues_is_a_fresh_complex_array(args, kind):
    p = make_params(*args)
    s = compute_spectrum(p, kind)
    got = s.eigenvalues()
    assert type(got) is np.ndarray
    assert got.dtype == np.complex128 and got.ndim == 1
    # same values, bit for bit, in the same order
    assert got.tobytes() == np.array(_eigenvalue_list(s), complex).tobytes()
    got[:] = np.nan
    assert s.eigenvalues().tobytes() == np.array(_eigenvalue_list(s),
                                                complex).tobytes()
    assert s == compute_spectrum(p, kind)


@functools.lru_cache(maxsize=None)
def _lapack_reduced(a, c, d, e, n):
    """eigvals of the tau-balanced reduced matrix, shared by both kinds:
    the full matrix adds only its leader eigenvalue b."""
    p = make_params(a, c, None, d, e, n)
    return tuple(eigvals(_tau_balance(p, build_reduced_matrix(p))))


def _assert_matches_lapack(a, c, b, d, e, n, kind):
    p = make_params(a, c, b, d, e, n)
    got = compute_spectrum(p, kind).eigenvalues()
    want = list(_lapack_reduced(a, c, d, e, n))
    if kind == "full":
        want.append(p.b)
    assert len(got) == len(want)
    assert pairing_distance(got, want) <= 1e-12 * 2 * math.sqrt(a * c)


@pytest.mark.parametrize("kind", ["full", "reduced"])
@pytest.mark.parametrize("n", [10, 50, 400, 2000])
@pytest.mark.parametrize("gap", [1e-9, 1e-11])
def test_assembles_just_above_a_plus_e_zero(gap, n, kind):
    # e = -a (1 - gap): the roots of the end branches crowd against the
    # inner branch ends, where a sampled scan kept off the ends misses
    # them; the closed-form signs of G at phi = 0 and pi bracket them
    _assert_matches_lapack(1, 1, None, 0.5, -(1 - gap), n, kind)


@pytest.mark.parametrize("kind", ["full", "reduced"])
@pytest.mark.parametrize("args", [
    (1.0, 1.0, None, 3.0, -2.25, 10),
    (1.3812604072160024, 3.621632637925091, None, 4.4851962716305644,
     -1.3886583804323795, 7),
    (0.31801331583289427, 4.227799272189352, None, 2.3924687403369207,
     -0.31801331583733317, 5),
    (2.8968475056654825, 1.3534325065455581, None, -1.8552485678857764,
     0.1926812795853019, 307),
    (2.69570434989378, 4.430939088968237, -0.5534614419012716,
     -3.9365674444470606, 0.2054594996937169, 5)],
    ids=["T3-double-root", "case-1/3-threshold", "below-line-n=5",
         "one-too-many", "G(pi)=0"])
def test_count_is_certified_by_the_trace(args, kind):
    # Sets a sampled end-branch scan could not count or place: a double
    # root of a y^2 - d tau y - e that both seeds converge to, and a root
    # of the quadratic exactly on y = 1 (each one short, so the trace
    # recovers the missing root); an end branch below a+e = 0 that the
    # scan missed; and two sets with G(pi) = 0 to rounding, where a root
    # merges with y = -1 and branch n leaves it to the count (the scan
    # put that root 2e-12 of scale off on the second)
    _assert_matches_lapack(*args, kind)


@pytest.mark.parametrize("kind", ["full", "reduced"])
def test_t3_double_root_at_n_100_passes_the_power_sums(kind):
    # d = 2 sqrt(c|e|): the double root leaves both LAPACK and the
    # recovered pair only sqrt(eps) accurate (2.1e-8 of scale apart), so
    # the check is the root count and both power sums
    p = make_params(1, 1, None, 3, -2.25, 100)
    s = compute_spectrum(p, kind)
    assert len(s.eigenvalues()) == p.n + (kind == "full")
    res = _power_sum_residuals(p, s.bulk_eigenvalue, s.special)
    assert max(res) <= _power_sum_tol(p.n)


# (a, c, d, e), one set per regime row off the line a + e = 0 and one per
# cell of the decentralized table (b = a + c, d = c - e), drawn as the
# benchmark draws them
REGIME_SETS = [
    (1.064453125, 1.45703125, 3.0517578125, -0.3525390625),  # T1 1
    (0.6259765625, 0.70703125, 0.0537109375, 0.4912109375),  # T1 2
    (0.9990234375, 1.4208984375, -2.8330078125, -0.138671875),  # T1 3
    (0.607421875, 1.6923828125, 2.3681640625, 1.501953125),  # T2 1
    (1.029296875, 0.6318359375, 0.0732421875, 1.392578125),  # T2 2
    (1.5927734375, 0.787109375, -1.5703125, 2.8818359375),  # T2 3
    (1.111328125, 1.8662109375, -6.2861328125, -2.603515625),  # T3 1
    (1.2646484375, 0.6875, -3.2685546875, -3.373046875),  # T3 2a
    (1.6142578125, 0.71484375, -1.2744140625, -3.861328125),  # T3 2b
    (1.001953125, 1.6591796875, 4.62890625, -2.6904296875),  # T3 2c
    (1.7216796875, 1.302734375, 6.869140625, -4.3759765625),  # T3 3
    (0.7666015625, 0.447265625, 2.607421875, -2.16015625),  # e<-a, c<a
    (1.6669921875, 1.6669921875, 4.974609375, -3.3076171875),  # e<-a, c=a
    (1.8154296875, 5.05078125, 8.7021484375, -3.6513671875),  # e<-a, c>a
    (0.78515625, 0.4033203125, 0.095703125, 0.3076171875),  # |e|<=a, c<a
    (1.95703125, 1.95703125, 2.078125, -0.12109375),  # |e|<=a, c=a
    (1.412109375, 2.2861328125, 1.7080078125, 0.578125),  # |e|<=a, c>a
    (1.49609375, 1.0166015625, -1.37890625, 2.3955078125),  # e>a, c<a
    (1.5576171875, 1.5576171875, -1.8427734375, 3.400390625),  # e>a, c=a
    (1.4130859375, 2.4130859375, -0.6796875, 3.0927734375),  # e>a, c>a
]


def _h_points(p):
    """(H points, brackets) of the branch scan of p, and whether every
    root lies in its bracket (a step at the rounding floor may pass an
    end by an ulp)."""
    from flockspectra.charpoly import _BLOCK, _brackets, _safeguarded_newton
    ell, lo, hi, neg = _brackets(p)
    stats = np.zeros(4, dtype=int)
    phi = np.concatenate([_safeguarded_newton(
        p, ell[i:i + _BLOCK], lo[i:i + _BLOCK], hi[i:i + _BLOCK],
        neg[i:i + _BLOCK], stats) for i in range(0, len(ell), _BLOCK)])
    inside = np.all(np.abs(phi - np.clip(phi, lo, hi)) <= np.spacing(hi))
    return stats[1], len(ell), inside


@pytest.mark.parametrize("n", [24, 64, 160, 480])
def test_one_h_evaluation_per_bracket_at_sweep_sizes(n):
    # A seed of one Newton step on F takes 2.33, 2.04, 1.96 and 1.87 H
    # points per bracket over these sets; with a second step where the
    # first leaves more than one H step of work it takes 1.00
    for a, c, d, e in REGIME_SETS:
        p = make_params(a, c, None, d, e, n)
        points, brackets, inside = _h_points(p)
        assert points <= 1.2 * brackets and inside
        _assert_matches_lapack(a, c, None, d, e, n, "reduced")


@pytest.mark.parametrize("n, before", [(1920, 54917), (7680, 163343)])
def test_h_points_at_scaling_sizes_no_more_than_before(n, before):
    # before: the H points a seed of one Newton step on F takes over
    # these sets
    total = 0
    for a, c, d, e in REGIME_SETS:
        points, _, inside = _h_points(make_params(a, c, None, d, e, n))
        assert inside
        total += points
    assert total <= before


def test_split_pair_next_to_a_double_root_assembles():
    # y+- = 1.48009538541 and 1.48009534395, 4e-8 apart: the roots of f
    # they seed are 1.2e-6 apart, and formed about the float y+- Newton
    # reaches them (both seeds used to end in NoConvergence, two roots
    # short).  1.04e-10 of scale is the limit the split sets.
    import mpmath as mp
    a, c, d, e, n = (1.4377672033329019, 2.62971729476756, 5.755969869106085,
                     -3.1496911474076894, 37)
    p = make_params(a, c, None, d, e, n)
    s = compute_spectrum(p, "reduced")
    assert len(s.special) == 2 and len(s.eigenvalues()) == n
    q = quadratic_roots(p)
    with mp.workdps(60):
        A, C, D, E = (mp.mpf(x) for x in (a, c, d, e))
        T = mp.sqrt(A / C)
        g = lambda y: ((A * y * y - D * T * y - E)
                       + (E * y * y + D * T * y - A) * y ** (-2 * n))
        want = sorted(float(mp.sqrt(A * C) * (y + 1 / y)) for y in (
            mp.findroot(g, mp.mpf(y0.real)) for y0 in (q.y_plus, q.y_minus)))
    got = sorted(r.eigenvalue.real for r in s.special)
    assert want[0] != want[1]
    assert np.max(np.abs(np.subtract(got, want))) <= 4e-10 * 2 * math.sqrt(
        a * c)


def test_decentralized_c_plus_e_zero_assembles():
    # the twin's quadratic has the double root sqrt(3), with y^(-2n) in
    # range: the full matrix and -L assemble, labeled (both used to raise
    # RootCountAnomaly, -L by way of a QR fallback since removed)
    p = make_params(1, 3, 4, 6, -3, 30)
    s = compute_spectrum(p, "full")
    assert len(s.eigenvalues()) == p.n + 1
    lap = compute_spectrum(p, "laplacian")
    assert pairing_distance(lap.eigenvalues(), np.linalg.eigvals(
        _tau_balance(p, -build_laplacian(p)))) < 1e-8


@st.composite
def threshold_params(draw):
    """(a, c, d, e, n) with e often within 1e-12..1e-6 a of -a, and d often
    on a case threshold +-(a-e)/tau, the T3 threshold +-2 sqrt(c|e|) or a
    finite-n threshold +-((a-e) + (a+e)/n)/tau."""
    a, c = draw(st.floats(0.2, 5)), draw(st.floats(0.2, 5))
    n = draw(st.integers(2, 400))
    gap = 10 ** draw(st.floats(-12, -6))
    e = draw(st.floats(-5, 5)
             | st.sampled_from([-a * (1 + gap), -a * (1 - gap)]))
    tau = math.sqrt(a / c)
    d = draw(st.floats(-5, 5) | st.sampled_from([
        (a - e) / tau, 2 * math.sqrt(c * abs(e)),
        ((a - e) + (a + e) / n) / tau]))
    return a, c, d * draw(st.sampled_from([1, -1])), e, n


@settings(max_examples=150, deadline=None)
@given(threshold_params())
def test_assembled_spectra_pass_the_power_sums(params):
    a, c, d, e, n = params
    p = make_params(a, c, None, d, e, n)
    try:
        s = compute_spectrum(p, "reduced")
    except RootCountAnomaly:
        return  # off by two or more, or no correction passed
    res = _power_sum_residuals(p, s.bulk_eigenvalue, s.special)
    assert max(res) <= _power_sum_tol(n)


def test_one_root_too_many_raises():
    # the brackets certify every bulk root once, so a count above n is
    # never corrected: a bulk root found twice is a fault upstream
    p = make_params(1.3, 0.7, None, 0.3, 0.4, 40)   # T1 case 2: no special
    bulk = _branch_root_arrays(p)
    doubled = tuple(np.insert(x, 17, x[17]) for x in bulk)
    with pytest.raises(RootCountAnomaly, match="found 41 bulk"):
        _certify_count(p, doubled, [])


def test_right_count_with_a_moved_root_raises(monkeypatch):
    # the power sums check every spectrum, not only a corrected one
    p = make_params(1.3, 0.7, None, 0.3, 0.4, 40)
    ell, phi, eig = _branch_root_arrays(p)
    eig = eig.copy()
    eig[5] += 0.1
    monkeypatch.setattr("flockspectra.spectrum._branch_root_arrays",
                        lambda q: (ell, phi, eig))
    with pytest.raises(RootCountAnomaly, match="; power-sum residuals"):
        compute_spectrum(p, "reduced")


def test_trace_correction_failing_the_power_sums_raises():
    # one root missing and another 0.1 off: the trace alone would
    # recover a root 0.1 off the other way, which the sum of squares
    # rejects
    p = make_params(1.3, 0.7, None, 0.3, 0.4, 40)
    ell, phi, eig = _branch_root_arrays(p)
    eig = eig.copy()
    eig[5] += 0.1
    bad = tuple(np.delete(x, 20) for x in (ell, phi, eig))
    with pytest.raises(RootCountAnomaly):
        _certify_count(p, bad, [])


def test_power_sums_of_a_huge_d_are_scale_free():
    # of the quadratic's roots 1e160 and -1e-160 only the first seeds
    # Newton, which ends in NoConvergence, so the trace recovers r = d =
    # 1e160; the power sums are formed over s = |d|, so no square
    # overflows to inf - inf = NaN
    p = make_params(1, 1, 2, 1e160, 1, 10)
    s = compute_spectrum(p, "reduced")
    res = _power_sum_residuals(p, s.bulk_eigenvalue, s.special)
    assert all(math.isfinite(x) and x <= _power_sum_tol(p.n) for x in res)


def test_nan_power_sum_residual_fails_the_count(monkeypatch):
    # max((0.0, nan)) is 0.0: the check must not let a NaN pass
    monkeypatch.setattr("flockspectra.spectrum._power_sum_residuals",
                        lambda *args: (0.0, math.nan))
    with pytest.raises(RootCountAnomaly):
        compute_spectrum(make_params(1, 1, 2, 1e160, 1, 10), "reduced")


@pytest.mark.parametrize("kind", ["full", "reduced"])
@pytest.mark.parametrize("args", [
    (1.3, 0.7, None, 0.9, -1.3, 12),
    (0.7, 1.9, None, -0.4, -0.7, 12),
    (1.0, 1.0, None, 3.0, -1.0, 12),
])
def test_line_special_eigenvalue_is_exactly_d(args, kind):
    # on a + e = 0 the factor a y^2 - d tau y + a of f gives one special
    # root, whose eigenvalue is d; y is the root with |y| >= 1, and the
    # one with Im y >= 0 where both lie on the circle (the first two)
    p = make_params(*args)
    [special] = compute_spectrum(p, kind).special
    assert special.eigenvalue == p.d and special.eigenvalue.imag == 0
    assert special.seed == special.y
    assert abs(special.y) >= 1 - 1e-15 and special.y.imag >= 0
    assert abs(eigenvalue_from_root(p, special.y) - p.d) <= 4e-15


def test_trace_corrections_and_fallbacks_are_logged(caplog):
    # the trace correction is the fallback for a root that no seed finds
    with caplog.at_level(logging.INFO, logger="flockspectra"):
        compute_spectrum(make_params(1, 1, None, 3, -2.25, 10), "reduced")
        compute_spectrum(make_params(1, 16, 17, 32, -16, 280), "laplacian")
    same, recovered, same4, recovered4 = [
        r.getMessage() for r in caplog.records if r.name == "flockspectra"]
    # d = 2 sqrt(c|e|): both seeds reach the one double root
    assert same.startswith("special root (1.51949")
    assert "found the kept special root (1.51949" in same
    assert recovered.startswith("trace correction: recovered root 2.15304")
    assert "power-sum residuals" in recovered
    # c+e = 0: the twin's quadratic has the exact double root 4, where
    # y^(-2n) underflows, f = f' = 0 and both seeds stop at 4
    assert same4 == ("special root (4+0j) dropped: seed (4+0j) found the "
                     "kept special root (4+0j)")
    assert recovered4.startswith("trace correction: recovered root 16.99999")
    assert "power-sum residuals" in recovered4


# c + e = 0, where the twin's quadratic has the double root y0 = sqrt(c/a)
# and 2 a y0 = d tau holds exactly in floats, with y0^(-2n) below the float
# range: both seeds stop at y0, one is kept and the trace recovers the
# other.  "full" raised RootCountAnomaly here, and -L took a QR fallback
# that split its double zero mode by about sqrt(eps).  The last three are
# seeded draws a, c ~ U(0.2, 5), n in 2..400.
@pytest.mark.parametrize("a,c,n", [
    (1, 16, 280), (0.25, 16384, 68),
    (0.24696742061340232, 2.4708267592594635, 327),
    (0.23510573377951705, 2.290373357696465, 389),
    (0.2527080848665282, 3.2681087939162095, 329)])
def test_underflowed_double_root_assembles(a, c, n):
    p = make_params(a, c, a + c, 2 * c, -c, n)
    assert len(compute_spectrum(p, "full").eigenvalues()) == n + 1
    lam = compute_spectrum(p, "laplacian").eigenvalues()
    assert len(lam) == n + 1
    # the exact zero mode and the pair, +-1.5e-167 at (1, 16, 280)
    near = np.argsort(np.abs(lam))
    assert np.abs(lam[near[:3]]).max() <= 1e-12 * (a + c)
    want = eigvals(_tau_balance(p, -build_laplacian(p)))
    want = want[np.argsort(np.abs(want))[3:]]
    assert pairing_distance(lam[near[3:]], want) <= 1e-12 * (a + c)


def _laplacian_draws():
    """200 seeded c + e = 0 sets, every other one with c = a 4^j, whose
    double root y0 = 2^j is exact and y0^(-2n) underflows once j n > 512,
    then 200 seeded (a, c, e) with e = U(-3, 3) a."""
    rng = np.random.default_rng(1)
    for i in range(200):
        a = rng.uniform(0.2, 5)
        c = rng.uniform(0.2, 5) if i % 2 else a * 4.0 ** rng.integers(1, 4)
        yield make_params(a, c, a + c, 2 * c, -c, int(rng.integers(2, 401)))
    for _ in range(200):
        a, c = rng.uniform(0.2, 5, 2)
        e = rng.uniform(-3, 3) * a
        yield make_params(a, c, a + c, c - e, e, int(rng.integers(2, 401)))


def test_seeded_laplacian_sweep_assembles():
    # every -L assembles in closed form: its exact zero mode is the
    # leader a + c shifted by -(a+c), and the power sums certify the rest
    underflowed = 0
    for p in _laplacian_draws():
        s = compute_spectrum(p, "laplacian")
        lam = s.eigenvalues()
        assert len(lam) == p.n + 1 and np.isfinite(lam).all(), p
        assert lam[0] == 0, p
        underflowed += p.c + p.e == 0 and (p.a / p.c) ** p.n == 0
    assert underflowed >= 20


@pytest.mark.parametrize("args,parts,kept", [
    ((1, 1, 2, 3.0, -2.25, 20),
     ("special root (1.50037", "found the kept special root (1.50037"),
     ("special", "(1.50037")),
    ((1.4653897123758932, 4.57761219254822, None, -2.5939615996226326,
      3.035322247523256, 44),
     ("special root (1.00000000621", "2 special roots converged",
      "the brackets leave room for 1", "a bulk root found twice"),
     ("bulk", "5.17995591262")),
], ids=["special-special", "special-bulk"])
def test_dropped_duplicate_root_is_logged(caplog, args, parts, kept):
    # the double root d = 2 sqrt(c|e|), where both seeds reach one root;
    # and G(0) = 1.4e-8, where the bulk root at phi = 2.2e-6 and the
    # special root y = 1.0000000062 are one eigenvalue found twice: the
    # brackets leave room for one special root, and the one nearer the
    # unit circle goes
    with caplog.at_level(logging.INFO, logger="flockspectra"):
        spec = compute_spectrum(make_params(*args), "reduced")
    assert len(spec.eigenvalues()) == spec.params.n
    msg = next(r.getMessage() for r in caplog.records
               if r.name == "flockspectra"
               and r.getMessage().startswith("special root"))
    assert msg.startswith(parts[0])
    assert all(part in msg for part in parts[1:])
    where, prefix = kept
    values = (spec.bulk_eigenvalue.tolist() if where == "bulk"
              else [s.y for s in spec.special])
    assert any(repr(v).startswith(prefix) for v in values)


def test_dropped_special_seed_is_logged(caplog):
    # T2 at n=5: y_plus is off the circle, but the root of f near y_minus
    # is still on it, so Newton from that seed collapses
    p = make_params(1, 1, None, 0.25, 1.5, 5)
    with caplog.at_level(logging.INFO, logger="flockspectra"):
        spec = compute_spectrum(p, "reduced")
    assert len(spec.bulk_eigenvalue) == 4 and len(spec.special) == 1
    (msg,) = [r.getMessage() for r in caplog.records
              if r.name == "flockspectra"]
    assert msg.startswith("special seed (-1.10610")
    assert "dropped: UnitCircleCollapse: iterate collapsed" in msg


def test_no_special_refinement_when_the_brackets_hold_every_root(
        monkeypatch, caplog):
    # T1/1 just past d = (a-e) sqrt(c/a): at n=5 the quadratic's seed lies
    # off the circle, but all five roots of f are on it and bracketed
    calls = []
    monkeypatch.setattr("flockspectra.spectrum.refine_special_root",
                        lambda *args: calls.append(args))
    with caplog.at_level(logging.INFO, logger="flockspectra"):
        spec = compute_spectrum(make_params(1, 1, None, 0.6, 0.5, 5),
                                "reduced")
    assert len(spec.bulk_eigenvalue) == 5 and spec.special == []
    assert calls == [] and not caplog.records


def test_logging_adds_no_output_by_default():
    # the package logs at INFO and installs no handler, so a trace
    # correction prints nothing
    code = ("from flockspectra import compute_spectrum, make_params\n"
            "compute_spectrum(make_params(1, 1, None, 3, -2.25, 10))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout == out.stderr == ""


SCALE_SETS = [(1, 2, None, 0.75, 0.5, 20), (1.3, 0.7, 2.0, 0.9, 0.4, 30),
              (1, 1, None, 3.3, -2.25, 25), (2, 0.5, 1.0, -1.5, 3.0, 24),
              (0.75, 1.5, None, 2.5, -1.25, 40)]


@pytest.mark.parametrize("k", [530, -530, 600, -600])
@pytest.mark.parametrize("kind", ["full", "reduced", "laplacian"])
def test_spectrum_scales_exactly_by_powers_of_two(kind, k):
    # a c and 4 a e leave the float range here; sqrt(ac) and the
    # quadratic are formed on power-of-two scalings, so every eigenvalue
    # scales by 2^k bit for bit.  Formed plainly, sqrt(ac) underflows to
    # 0 at 2^-600 and 4 a e overflows from 2^530 up.
    for *args, n in SCALE_SETS:
        scaled = [None if x is None else math.ldexp(x, k) for x in args]
        got = compute_spectrum(make_params(*scaled, n), kind).eigenvalues()
        want = compute_spectrum(make_params(*args, n), kind).eigenvalues()
        assert got.tobytes() == (np.ldexp(want.real, k)
                                 + 1j * np.ldexp(want.imag, k)).tobytes()


@pytest.mark.parametrize("kind", ["full", "reduced", "laplacian"])
def test_spectrum_at_1e160_is_finite(kind):
    # 4 a e = 1e320 leaves the float range
    p = make_params(1e160, 1e160, None, 0.5e160, 0.5e160, 20)
    got = compute_spectrum(p, kind).eigenvalues()
    want = compute_spectrum(make_params(1, 1, None, 0.5, 0.5, 20),
                            kind).eigenvalues()
    assert np.all(np.isfinite(got))
    assert np.abs(got / 1e160 - want).max() <= 1e-15 * 2


@pytest.mark.parametrize("kind", ["full", "reduced"])
def test_quadratic_root_beyond_the_float_range_is_a_domain_error(kind):
    # y+ = d tau / a = 4e308: a typed error, not math's OverflowError
    with pytest.raises(DomainError, match="leaves the float range"):
        compute_spectrum(make_params(0.25, 0.25, None, 1e308, 0.25, 10),
                         kind)


# --- the assembly kept on the params object -----------------------------

def _spy(monkeypatch, name):
    """Replace spectrum.<name> or charpoly.<name> by a wrapper that logs
    each call's first argument."""
    module, attr = name.split(".")
    target = f"flockspectra.{module}"
    orig = getattr(sys.modules[target], attr)
    calls = []

    def spy(p, *args):
        calls.append(p)
        return orig(p, *args)
    monkeypatch.setattr(f"{target}.{attr}", spy)
    return calls


def test_decentralized_kinds_and_verdicts_share_one_assembly(monkeypatch):
    # b = a + c and d = c - e exactly, so p is its own Laplacian twin:
    # every kind and both verdicts, at two gains, read one label, one
    # assembly and one first-order verdict
    def fresh():
        return make_params(1, 2, None, 1.5, 0.5, 40)
    want = {kind: compute_spectrum(fresh(), kind).eigenvalues()
            for kind in ("full", "reduced", "laplacian")}
    gains = (SecondOrderParams(1.0, 1.5), SecondOrderParams(2.0, 0.5))
    verdicts = (first_order_verdict(fresh()),
                *(second_order_verdict(fresh(), so) for so in gains))
    calls = [_spy(monkeypatch, name) for name in (
        "spectrum._classify", "spectrum._assemble_reduced",
        "stability._first_order")]
    p = fresh()
    for kind, eig in want.items():
        spec = compute_spectrum(p, kind)
        assert spec.eigenvalues().tobytes() == eig.tobytes()
        assert spec.params is p
    assert (first_order_verdict(p),
            *(second_order_verdict(p, so) for so in gains)) == verdicts
    assert calls == [[p]] * 3


def test_twin_of_b_off_a_plus_c_matches_a_fresh_twin(monkeypatch):
    # d = c - e but b != a + c: -L is the twin's, assembled on the twin,
    # bit for bit the -L of the decentralized set with p's a, c, d, e
    fresh = make_params(1, 2, None, 1.5, 0.5, 30)
    want = compute_spectrum(fresh, "laplacian")
    calls = _spy(monkeypatch, "spectrum._assemble_reduced")
    p = make_params(1, 2, 3.5, 1.5, 0.5, 30)
    for kind in ("reduced", "laplacian", "full", "laplacian"):
        got = compute_spectrum(p, kind)
    assert got.eigenvalues().tobytes() == want.eigenvalues().tobytes()
    assert got.as_dict() == want.as_dict() and got.params == fresh
    assert calls == [p, got.params]


def test_kept_call_only_builds_the_spectrum(monkeypatch):
    # the twin and the regime labels are kept on p next to the assembly:
    # a later call of any kind forms no params, label or assembly again
    import flockspectra.spectrum as spectrum
    p = make_params(1, 2, 3, 1.25, 0.5, 30)
    first = {kind: compute_spectrum(p, kind)
             for kind in ("full", "reduced", "laplacian")}
    labels = _spy(monkeypatch, "spectrum._classify")
    assemblies = _spy(monkeypatch, "spectrum._assemble_reduced")
    made = []
    monkeypatch.setattr(spectrum, "replace",
                        lambda *a, **kw: made.append(kw) or replace(*a, **kw))
    for kind, s in first.items():
        again = compute_spectrum(p, kind)
        assert again == s
        assert again.params is s.params and again.regime is s.regime
    assert classify_regime(p) is first["full"].regime
    assert labels == assemblies == made == []


def test_signed_zero_d_keeps_two_assemblies(monkeypatch):
    # c = e, so the twin's d = c - e is +0.0 against p.d = -0.0
    calls = _spy(monkeypatch, "spectrum._assemble_reduced")
    p = make_params(1, 2, 3, -0.0, 2, 12)
    for kind in ("full", "laplacian", "full", "laplacian"):
        compute_spectrum(p, kind)
    assert [math.copysign(1, q.d) for q in calls] == [-1.0, 1.0]


def test_twin_keeps_the_type_of_b():
    # a + c = 3 is an int and p.b = 3.0 a float: the twin is a params
    # object of its own, and -L reports its b, 3
    p = SystemParams(a=1, c=2, b=3.0, d=1, e=1, n=12)
    q = compute_spectrum(p, "laplacian").params
    assert q is not p and type(q.b) is int and q == replace(p, b=3)

def test_twin_off_p_d_is_assembled_apart(monkeypatch):
    # c - e = 1.5 against d = 1.25: -L is not p's reduced matrix
    twin = make_params(1, 2, None, 1.5, 0.5, 30)
    want = compute_spectrum(twin, "laplacian").eigenvalues()
    calls = _spy(monkeypatch, "spectrum._assemble_reduced")
    p = make_params(1, 2, 3, 1.25, 0.5, 30)
    for kind in ("reduced", "laplacian", "full", "laplacian"):
        got = compute_spectrum(p, kind).eigenvalues()
    assert got.tobytes() == want.tobytes()
    assert [q.d for q in calls] == [1.25, 1.5]


@pytest.mark.parametrize("change", [{"d": 0.75}, {"n": 31}])
def test_replaced_params_assemble_afresh(monkeypatch, change):
    p = make_params(1.3, 0.7, None, 0.9, 0.4, 30)
    compute_spectrum(p, "reduced")
    calls = _spy(monkeypatch, "spectrum._assemble_reduced")
    q = replace(p, **change)
    got = compute_spectrum(q, "reduced").eigenvalues()
    want = compute_spectrum(make_params(**{
        **dict(a=1.3, c=0.7, b=2.0, d=0.9, e=0.4, n=30), **change}),
        "reduced").eigenvalues()
    assert got.tobytes() == want.tobytes()
    assert len(calls) == 2 and calls[0] is q


def test_kept_arrays_are_read_only_and_special_lists_fresh():
    p = make_params(1, 1, None, 3.3, -2.25, 25)
    first = compute_spectrum(p, "reduced")
    for x in (first.bulk_ell, first.bulk_phi, first.bulk_eigenvalue):
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 0
    kept = list(first.special)
    first.special.append(first.special[0])
    second = compute_spectrum(p, "reduced")
    assert second.special == kept and second.special is not first.special
    assert second.bulk_eigenvalue is first.bulk_eigenvalue


def test_failed_assembly_raises_on_every_call(monkeypatch):
    monkeypatch.setattr("flockspectra.spectrum._power_sum_residuals",
                        lambda *args: (0.0, math.nan))
    calls = _spy(monkeypatch, "spectrum._assemble_reduced")
    p = make_params(1, 1, 2, 1e160, 1, 10)
    for _ in range(3):
        with pytest.raises(RootCountAnomaly):
            compute_spectrum(p, "reduced")
    assert len(calls) == 3


def test_kept_assembly_logs_once(caplog):
    p = make_params(1, 1, None, 3, -2.25, 10)
    with caplog.at_level(logging.INFO, logger="flockspectra"):
        compute_spectrum(p, "reduced")
        n_first = len(caplog.records)
        compute_spectrum(p, "full")
    assert n_first == len(caplog.records) == 2


@pytest.mark.parametrize("kind", ["full", "reduced", "laplacian"])
def test_one_quadratic_per_spectrum(monkeypatch, kind):
    # T2/2, with the twin's d = c - e = d: both seeds lie off the circle
    # and are refined, each anchored on the roots _special_seeds took
    quadratics = _spy(monkeypatch, "charpoly.quadratic_roots")
    refined = _spy(monkeypatch, "spectrum.refine_special_root")
    p = make_params(1, 2, None, -0.25, 2.25, 25)
    spec = compute_spectrum(p, kind)
    assert len(spec.special) == len(refined) == 2
    assert len(quadratics) == 1
    for other in ("full", "reduced", "laplacian"):
        compute_spectrum(p, other)
    assert len(quadratics) == 1 and len(refined) == 2
