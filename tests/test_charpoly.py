import cmath
import collections
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flockspectra import (BranchPole, BranchRoot, DomainError,
                          NoConvergence, UnitCircleCollapse, ZeroDenominator,
                          build_reduced_matrix, compute_spectrum,
                          eigenvalue_from_root, eval_cotangent_residual,
                          eval_polynomial, find_branch_roots, make_params,
                          pairing_distance, quadratic_roots,
                          refine_special_root, special_eigen_estimates)
from flockspectra.charpoly import (POLE_TOL, _brackets, _branch_root_arrays,
                                   _h_and_slope, _off_circle_newton,
                                   _on_a_plus_e_line,
                                   _root_of_eigenvalue, _safeguarded_newton,
                                   _sqrt_product, _stationary_angles)
from flockspectra.model import EPS, tridiagonal
from flockspectra.oracle import _tau_balance


class TestEvalPolynomial:
    def test_y_equals_one_is_always_root(self):
        p = make_params(1, 1, 2, 0, 0, 7)
        assert eval_polynomial(p, 1.0) == 0

    def test_unit_root_when_a_plus_e_zero(self):
        p = make_params(1, 1, 2, 0, -1, 4)
        y = cmath.exp(1j * math.pi / 4)
        assert abs(eval_polynomial(p, y)) < 1e-12

    def test_odd_circle_root(self):
        # (y-1)(y^(2n+1)+1) = 0 layout: y = e^{i pi/(2n+1)}, n=3
        p = make_params(1, 1, 2, 1, 0, 3)
        y = cmath.exp(1j * math.pi / 7)
        assert abs(eval_polynomial(p, y)) < 1e-12

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            eval_polynomial(make_params(1, 1, 2, 0, 0, 4), 0.0)


class TestCotangentResidual:
    def test_pure_cotangent_zero(self):
        # d=0, e=a: RHS = 0, cot(n phi) vanishes at phi = pi/(2n)
        p = make_params(1, 1, 2, 0, 1, 10)
        assert abs(eval_cotangent_residual(p, math.pi / 20)) < 1e-12

    def test_zero_boundary_root(self):
        p = make_params(1, 1, 2, 0, 0, 10)
        assert abs(eval_cotangent_residual(p, math.pi / 11)) < 1e-12

    def test_half_open_chain_root(self):
        p = make_params(1, 1, 2, 1, 0, 10)
        assert abs(eval_cotangent_residual(p, math.pi / 21)) < 1e-12

    def test_branch_pole(self):
        p = make_params(1, 1, 2, 1, 0.5, 10)
        with pytest.raises(BranchPole):
            eval_cotangent_residual(p, math.pi / 10)

    def test_zero_denominator(self):
        p = make_params(1, 1, 2, 1, -1, 10)
        with pytest.raises(ZeroDenominator):
            eval_cotangent_residual(p, 0.3)

    def test_non_numeric_angle_is_a_domain_error(self):
        p = make_params(1, 1, 2, 1, 0.5, 10)
        with pytest.raises(DomainError, match="real angles"):
            eval_cotangent_residual(p, "a")

    def test_array_matches_float_calls(self):
        p = make_params(1.3, 0.7, 2, 0.9, 0.4, 37)
        phi = np.random.default_rng(7).uniform(0, math.pi, 2000)
        phi = np.r_[0.0, phi[np.abs(np.sin(37 * phi)) > 1e-9], math.pi]
        got = eval_cotangent_residual(p, phi)
        assert isinstance(eval_cotangent_residual(p, 0.3), float)
        assert got.shape == phi.shape
        assert got.tolist() == [eval_cotangent_residual(p, x)
                                for x in phi.tolist()]

    def test_array_pole_raises(self):
        p = make_params(1, 1, 2, 1, 0.5, 10)
        with pytest.raises(BranchPole):
            eval_cotangent_residual(p, np.array([0.3, math.pi / 10]))

    @pytest.mark.parametrize("n", [10, 11])
    def test_endpoint_limit_without_warning(self, n):
        # cot(n phi) sin(phi) tends to +1/n at 0 and to -1/n at pi, for
        # either parity of n; the suite turns RuntimeWarning into an error
        p = make_params(1, 1, 2, 1, 0.5, n)
        got = eval_cotangent_residual(p, np.array([0.0, math.pi]))
        # rhs = (d + (e - a) cos(phi)) / (e + a)
        want = [1 / n - 0.5 / 1.5, -1 / n - 1.5 / 1.5]
        assert got == pytest.approx(want, abs=1e-12)


class TestQuadraticRoots:
    def test_real_pair_bracket(self):
        q = quadratic_roots(make_params(1, 1, 2, 3.3, -2.25, 10))
        for y in (q.y_plus, q.y_minus):
            assert abs(y.imag) < 1e-14
            assert y.real > 0
        # product of roots is -e/a; the larger root exceeds sqrt(-e/a)
        assert q.y_plus.real * q.y_minus.real == pytest.approx(2.25)
        assert q.y_plus.real >= math.sqrt(2.25)

    def test_conjugate_pair(self):
        q = quadratic_roots(make_params(1, 1, 2, 0, -2.25, 10))
        assert q.y_plus == pytest.approx(1.5j)
        assert q.y_minus == pytest.approx(-1.5j)

    def test_degenerate_e_zero(self):
        q = quadratic_roots(make_params(1, 1, 2, 2, 0, 10))
        roots = sorted((q.y_plus, q.y_minus), key=abs)
        assert roots[0] == pytest.approx(0)
        assert roots[1] == pytest.approx(2)

    def test_residuals(self):
        p = make_params(2, 0.5, 1, -1.7, 3.1, 10)
        q = quadratic_roots(p)
        scale = max(p.a, abs(p.d * p.tau), abs(p.e))
        for y in (q.y_plus, q.y_minus):
            assert abs(p.a * y * y - p.d * p.tau * y - p.e) < 1e-12 * scale

    def test_sqrt_branch_nonnegative_real_part(self):
        # y_plus - y_minus = sqrt(disc)/a must have Re >= 0
        for d, e in [(3, -1), (-3, -1), (0, -4), (-2, 5)]:
            q = quadratic_roots(make_params(1, 1, 2, d, e, 10))
            assert (q.y_plus - q.y_minus).real >= 0


class TestSpecialEigenEstimates:
    def test_decentralized_plus_is_a_plus_c(self):
        est = special_eigen_estimates(make_params(1, 2, 3, 1, 1, 10))
        assert est.r_plus == pytest.approx(3)

    def test_decentralized_minus(self):
        est = special_eigen_estimates(make_params(1, 2, 3, 1, 1, 10))
        assert est.r_minus == pytest.approx(-3)   # -(ac/e + e)

    def test_e_zero_positive_d(self):
        est = special_eigen_estimates(make_params(1, 1, 2, 2, 0, 10))
        assert est.r_plus == pytest.approx(2.5)   # d + ac/d
        assert est.r_minus is None

    def test_e_zero_negative_d(self):
        est = special_eigen_estimates(make_params(1, 1, 2, -2, 0, 10))
        assert est.r_minus == pytest.approx(-2.5)
        assert est.r_plus is None

    def test_e_zero_d_zero_both_undefined(self):
        est = special_eigen_estimates(make_params(1, 1, 2, 0, 0, 10))
        assert est.r_plus is None and est.r_minus is None


def test_special_eigen_estimates_match_a_40_digit_reference():
    # (1 - a/e) d and (1 + a/e) sqrt(d^2 + 4ce) cancel at small |e|/a: the
    # closed form the estimates were once computed from is 2.9e-2 off here
    # at worst, the estimates from the quadratic's roots 2.0e-15
    import mpmath as mp
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(2000):
        a, c = rng.uniform(0.2, 5, 2)
        d = rng.uniform(-6, 6)
        e = (rng.uniform(-5, 5) if rng.random() < 0.5
             else rng.choice([-1, 1]) * 10 ** rng.uniform(-14, 0))
        est = special_eigen_estimates(make_params(a, c, None, d, e, 10))
        with mp.workdps(40):
            A, C, D, E = (mp.mpf(float(x)) for x in (a, c, d, e))
            root = mp.sqrt(D * D + 4 * C * E)
            ref = [((1 - A / E) * D + s * (1 + A / E) * root) / 2
                   for s in (1, -1)]
            if mp.im(root) == 0 and ref[0] < ref[1]:
                ref.reverse()
        for r, exact in zip((est.r_plus, est.r_minus), ref):
            worst = max(worst, float(abs(mp.mpc(r) - exact) / abs(exact)))
    assert worst <= 1e-13


def test_quadratic_at_a_huge_d_is_finite():
    # d^2 tau^2 = 1e320 leaves the float range; the parent's seeds, their
    # estimates and the root of r = 1e160 were inf or NaN
    p = make_params(1, 1, 2, 1e160, 1, 10)
    q = quadratic_roots(p)
    est = special_eigen_estimates(p)
    for z in (q.y_plus, q.y_minus, est.r_plus, est.r_minus,
              _root_of_eigenvalue(p, 1e160)):
        assert cmath.isfinite(z)
    assert q.y_plus == 1e160 and est.r_plus == 1e160
    [special] = compute_spectrum(p, "reduced").special
    assert cmath.isfinite(special.seed) and cmath.isfinite(special.y)
    assert special.eigenvalue == 1e160


def _count_calls(monkeypatch, charpoly):
    """Lists that collect the array length of every _h_and_slope call and
    every eval_cotangent_residual call inside charpoly."""
    calls, residual_calls = [], []
    h_and_slope = charpoly._h_and_slope

    def counted(p, phi):
        calls.append(len(phi))
        return h_and_slope(p, phi)

    def counted_residual(p, phi):
        residual_calls.append(phi)
        return eval_cotangent_residual(p, phi)

    monkeypatch.setattr(charpoly, "_h_and_slope", counted)
    monkeypatch.setattr(charpoly, "eval_cotangent_residual", counted_residual)
    return calls, residual_calls


class TestFindBranchRoots:
    def test_zero_boundary_closed_form(self):
        roots = find_branch_roots(make_params(1, 1, 2, 0, 0, 10))
        assert len(roots) == 10
        for k, r in enumerate(sorted(roots, key=lambda b: b.phi), start=1):
            assert r.phi == pytest.approx(k * math.pi / 11, abs=1e-12)

    def test_odd_chain_closed_form(self):
        roots = find_branch_roots(make_params(1, 1, 2, 1, 0, 10))
        assert len(roots) == 10
        for k, r in enumerate(sorted(roots, key=lambda b: b.phi), start=1):
            assert r.phi == pytest.approx((2 * k - 1) * math.pi / 21,
                                          abs=1e-12)

    def test_last_branch_empty_in_special_regime(self):
        roots = find_branch_roots(make_params(1, 1, 2, 3.3, -2.25, 100))
        assert len(roots) == 99
        assert all(r.ell <= 99 for r in roots)

    def test_eigenvalue_consistency_with_unit_circle(self):
        for r in find_branch_roots(make_params(2, 0.5, 1, 1.3, 0.4, 30)):
            y = cmath.exp(1j * r.phi)
            assert r.eigenvalue == pytest.approx(
                eigenvalue_from_root(make_params(2, 0.5, 1, 1.3, 0.4, 30),
                                     y).real, abs=1e-10)

    def test_peak_memory_bounded_by_result(self):
        # The scan holds one bracket table and polishes it in fixed-size
        # slices, so its transient memory stays small next to the list of
        # roots it returns.
        p = make_params(1.3, 0.7, 2.0, 0.9, 0.4, 30720)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            roots = find_branch_roots(p)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(roots) == p.n - 1
        assert peak - base <= 1.25 * (kept - base)

    @pytest.mark.parametrize("side", [1, -1], ids=["e>-a", "e<-a"])
    def test_residual_calls_do_not_grow_near_a_plus_e_zero(self, monkeypatch,
                                                            side):
        # |a+e| = 1e-3 a, so |B| ~ 2000; the H evaluations over branches
        # 1..n must not grow with |B|: one at the stationary angles and
        # one per safeguarded Newton step.  No branch samples the
        # cotangent residual.  No root is off the circle for e > -a; y+-
        # both are for e < -a.
        import flockspectra.charpoly as charpoly
        calls, residual_calls = _count_calls(monkeypatch, charpoly)
        p = make_params(1, 1, 2, 0.5, -1 + side * 1e-3, 50)
        assert len(find_branch_roots(p)) == (p.n if side == 1 else p.n - 2)
        assert not residual_calls
        assert len(calls) <= 12
        assert sum(calls) <= 4 * p.n

    @pytest.mark.parametrize("args", [
        (1.3, 0.7, 2.0, 0.9, 0.4, 3000),
        (1, 1, 2, 0.5, -1 + 1e-3, 50),
        (1, 1, 2, 0.5, -1 - 1e-3, 50)],
        ids=["baseline", "a+e=1e-3", "a+e=-1e-3"])
    def test_end_branches_take_few_residual_calls(self, monkeypatch, args):
        # the end branches are brackets like the interior ones: one H
        # evaluation at the stationary angles, a few Newton steps per
        # slice of brackets, no sample grid and no bisection down to
        # adjacent doubles
        import flockspectra.charpoly as charpoly
        calls, residual_calls = _count_calls(monkeypatch, charpoly)
        p = make_params(*args)
        find_branch_roots(p)
        assert not residual_calls
        assert len(calls) <= 12 * math.ceil(p.n / charpoly._BLOCK)
        assert sum(calls) <= 4 * p.n

    @pytest.mark.parametrize("args", [
        (1.3, 0.7, 2.0, 0.9, 0.4, 3000),
        (1.9622768212420452, 4.179999553518589, None, 4.650296370269988,
         -1.9791010244640208, 26),
        (1, 1, None, 0.628, 0.4, 50),
        (1, 1, 2, 0.5, -1 - 1e-3, 500)],
        ids=["baseline", "close-pair", "G(0)=0", "a+e=-1e-3"])
    def test_newton_slices_change_no_bit(self, monkeypatch, args):
        # the brackets are built once for all n branches; _BLOCK only
        # slices their Newton polish, which works bracket by bracket
        import flockspectra.charpoly as charpoly
        p = make_params(*args)
        want = charpoly._branch_root_arrays(p)
        monkeypatch.setattr(charpoly, "_BLOCK", 7)
        got = charpoly._branch_root_arrays(p)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]

    @pytest.mark.parametrize("side", [1, -1], ids=["e>-a", "e<-a"])
    def test_h_calls_per_block_do_not_grow_near_a_plus_e_zero(
            self, monkeypatch, side):
        # The interior branches are their own brackets: one evaluation at
        # the stationary angles, then per slice of _BLOCK brackets a few
        # Newton steps (two here), never a sample column or a bisection
        # down to adjacent doubles.
        import flockspectra.charpoly as charpoly
        calls = []

        def counted(p, phi):
            calls.append(len(phi))
            return h_and_slope(p, phi)

        h_and_slope = charpoly._h_and_slope
        monkeypatch.setattr(charpoly, "_h_and_slope", counted)
        p = make_params(1, 1, 2, 0.5, -1 + side * 1e-3, 30720)
        assert len(find_branch_roots(p)) == (p.n if side == 1 else p.n - 2)
        blocks = math.ceil((p.n - 2) / charpoly._BLOCK)
        assert len(calls) <= 1 + 3 * blocks
        assert sum(calls) <= 1 + 2.5 * (p.n - 2)

    def test_close_pair_on_one_branch(self):
        # T3 case 2b, |B| = 234 at n = 26: branch 6 holds three roots,
        # two of them 0.0031 apart inside one 0.0038-wide sample interval.
        # The stationary angles of n phi - arccot(R(phi)) separate them.
        p = make_params(1.9622768212420452, 4.179999553518589, None,
                        4.650296370269988, -1.9791010244640208, 26)
        stationary = _stationary_angles(p)
        roots = [r.phi for r in find_branch_roots(p) if r.ell == 6]
        assert len(roots) == 3
        assert roots[0] < stationary[0] < roots[1] < stationary[1] < roots[2]
        # closer than the spacing of a 32-sample scan of the branch
        assert roots[1] - roots[0] < (math.pi / p.n) / 32

    @pytest.mark.parametrize("e", [0.4, -1.3])
    def test_no_stationary_angles_when_c_overflows(self, e):
        # C = d tau/(e+a) squared overflows: the quadratic is not formed
        assert _stationary_angles(make_params(1, 1, 2, 1e200, e, 20)) == []

    def test_bulk_roots_take_one_h_evaluation_each(self, monkeypatch):
        # The five rows of spectrabench `scaling` (seed 1): the Newton
        # step on F seeds every bracket close enough that the quadratic
        # stop takes the first Newton step on H without evaluating H
        # again.  A fixed-point seed with a confirming evaluation needs
        # 2.04 points per root here.
        import flockspectra.charpoly as charpoly
        calls, _ = _count_calls(monkeypatch, charpoly)
        rows = [((1.2275390625, 1.203125, -0.48046875, 2.7880859375,
                  -0.19921875, 1920), "reduced"),
                ((0.669921875, 0.73046875, 2.25, -0.26171875,
                  1.3798828125, 3840), "full"),
                ((1.328125, 1.9833984375, 2.3251953125, -3.5888671875,
                  -0.1123046875, 7680), "reduced"),
                ((0.83203125, 1.19140625, 2.4521484375, -0.0224609375,
                  -1.6611328125, 15360), "full"),
                ((1.5146484375, 1.328125, -2.296875, 6.9326171875,
                  -4.3154296875, 30720), "reduced")]
        for args, kind in rows:
            compute_spectrum(make_params(*args), kind)
        assert sum(calls) <= 1.1 * sum(args[-1] for args, _ in rows)

    def test_debug_record_counts_the_newton_work(self, monkeypatch, caplog):
        import flockspectra.charpoly as charpoly
        calls, _ = _count_calls(monkeypatch, charpoly)
        p = make_params(1, 1, 2, 0.5, -1 - 1e-3, 500)
        with caplog.at_level(logging.DEBUG, logger="flockspectra"):
            ell, _, _ = charpoly._branch_root_arrays(p)
        [record] = [r for r in caplog.records if r.levelno == logging.DEBUG]
        n, brackets, points, sweeps, bisections = record.args
        assert (n, brackets) == (500, len(ell))
        # H is also evaluated at the (here two) stationary cuts
        assert points == sum(calls) - len(_stationary_angles(p))
        assert 1 <= sweeps <= len(calls) and 0 <= bisections < points

    def test_no_debug_counts_without_debug_logging(self, monkeypatch,
                                                   caplog):
        import flockspectra.charpoly as charpoly
        seen = []
        newton = charpoly._safeguarded_newton

        def spy(p, ell, lo, hi, neg, stats=None):
            seen.append(stats)
            return newton(p, ell, lo, hi, neg, stats)

        monkeypatch.setattr(charpoly, "_safeguarded_newton", spy)
        with caplog.at_level(logging.INFO, logger="flockspectra"):
            charpoly._branch_root_arrays(make_params(1.3, 0.7, 2, 0.9, 0.4,
                                                     5000))
        assert seen == [None] * 3 and not caplog.records

    def test_huge_d_roots_take_one_h_evaluation_each(self):
        # |d tau| ~ 2e22 puts every root within rounding of a branch end,
        # where the Newton step on F lands at or past it; restarting at
        # the midpoint took 3806 H points and 3746 bisection steps here
        p = make_params(4.815954529586176, 3.6789917157129617, None,
                        1.6686504799056398e22, -6.446890898809286, 118)
        ell, lo, hi, neg = _brackets(p)
        stats = np.zeros(3, dtype=int)
        phi = _safeguarded_newton(p, ell, lo, hi, neg, stats)
        # a Newton step at the rounding floor may pass an end by an ulp
        assert len(phi) == 117
        assert np.all(np.abs(phi - np.clip(phi, lo, hi)) <= np.spacing(hi))
        assert stats[0] <= 1.2 * len(phi)


def test_huge_d_tau_n_assembles_exactly_in_scale():
    # d tau n = 8e308 left the float range in G(0), G(pi) and their
    # rounding floor: two bulk roots were lost
    p = make_params(1e10, 2.5e9, None, 4e307, 1e10, 10)
    small = make_params(*(math.ldexp(x, -34) for x in (1e10, 2.5e9)), None,
                        *(math.ldexp(x, -34) for x in (4e307, 1e10)), 10)
    got = compute_spectrum(p, "reduced").eigenvalues()
    assert len(got) == 10
    assert np.array_equal(got,
                          compute_spectrum(small, "reduced").eigenvalues()
                          * 2.0 ** 34)


def _h_rounding(p, phi):
    """A bound on the rounding error of _h_and_slope's H at phi: the
    product n x (x = min(phi, pi - phi), the angle H is evaluated at) is
    rounded by eps/2 n x, and each sine, product and sum adds an ulp."""
    coef = abs(p.a - p.e) + abs(p.a + p.e) + abs(p.d * p.tau)
    return 4 * EPS * coef * (p.n * np.minimum(phi, np.pi - phi) + 1)


@st.composite
def newton_params(draw):
    """(a, c, b, d, e, n): three roots on one branch (e < -a, |d| <
    2 sqrt(c|e|)), or |a+e|/a in [1e-12, 1e-3], or |d| up to 1e154."""
    a, c = draw(st.floats(0.2, 5)), draw(st.floats(0.2, 5))
    kind = draw(st.sampled_from(["three roots", "near the line", "huge d"]))
    u, v = draw(st.floats(0, 1)), draw(st.floats(-1, 1))
    if kind == "three roots":
        e = -a * (1 + 2 * u)
        d = v * 2 * math.sqrt(c * -e)
    elif kind == "near the line":
        e = -a * (1 + math.copysign(10 ** (-12 + 9 * u), v))
        d = 6 * v
    else:
        e = 3 * a * v
        d = math.copysign(10 ** (-3 + 157 * u), v)
    return a, c, None, d, e, draw(st.integers(2, 400))


@settings(max_examples=60, deadline=None)
@given(newton_params())
@example((1.9622768212420452, 4.179999553518589, None, 4.650296370269988,
          -1.9791010244640208, 26))  # three roots on branch 6
@example((1.7383866669485428, 0.8479622883363869, None, 2.4268924360175177,
          -1.7383866669519814, 312))  # three roots, H' small at the middle
@example((4.815954529586176, 3.6789917157129617, None, 1.6686504799056398e22,
          -6.446890898809286, 118))  # a root just past its bracket's end
def test_one_more_guarded_newton_step_stays_at_the_rounding_floor(args):
    # Each returned angle is where a further Newton step on H, kept in
    # its bracket, moves it by no more than the stop rule's 4 eps phi
    # (plus one spacing, as a bisection midpoint rounds to a double) and
    # the rounding noise of H over |H'|.  The quadratic stop's early
    # exits leave an error below eps phi / 512, so they pass as well.
    p = make_params(*args)
    assume(not _on_a_plus_e_line(p))
    _, lo, hi, _ = _brackets(p)
    _, phi, _ = _branch_root_arrays(p)
    h, dh = _h_and_slope(p, phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        moved = np.abs(np.clip(phi - h / dh, lo, hi) - phi)
        floor = (4 * EPS * phi + np.spacing(phi)
                 + _h_rounding(p, phi) / np.abs(dh))
    assert np.all(moved <= floor)


@settings(max_examples=200, deadline=None)
@given(a=st.floats(1e-150, 1e150), c=st.floats(1e-150, 1e150))
def test_sqrt_product_is_math_sqrt_wherever_the_product_is_normal(a, c):
    assume(2.3e-308 <= a * c <= 1.7e308)
    assert _sqrt_product(a, c) == math.sqrt(a * c)


@pytest.mark.parametrize("k", [530, -530, 600, -600])
def test_quadratic_roots_do_not_depend_on_the_scale(k):
    # 4ae, formed plainly, leaves the float range at 2^+-530: it
    # overflows to -inf or underflows to 0
    for a, c, d, e, n in [(1, 2, 0.75, 0.5, 20), (1, 1, 3.3, -2.25, 25),
                          (1.3, 0.7, 0.9, 0.4, 30), (1, 1, 0, 1e-3, 12)]:
        sa, sc, sd, se = (math.ldexp(x, k) for x in (a, c, d, e))
        assert (quadratic_roots(make_params(sa, sc, None, sd, se, n))
                == quadratic_roots(make_params(a, c, None, d, e, n)))


def _scalar_residual(p, phi):
    """The per-point residual the branch scan used to call (reference)."""
    a, d, e, tau, n = p.a, p.d, p.e, p.tau, p.n
    s = math.sin(n * phi)
    sphi = math.sin(phi)
    if abs(s) < POLE_TOL:
        if abs(sphi) < n * POLE_TOL:
            lhs = math.cos(n * phi) * math.cos(phi) / n
        else:
            raise BranchPole(f"phi={phi} is at a pole of cot(n phi)")
    else:
        lhs = math.cos(n * phi) / s * sphi
    rhs = d * tau / (e + a) + (e - a) / (e + a) * math.cos(phi)
    return lhs - rhs


def _bisect_then_secant(g, lo, hi, glo, ghi):
    """The reference's polisher: bisection to 1e-10, then secant steps."""
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (glo < 0) != (gm < 0):
            hi, ghi = mid, gm
        else:
            lo, glo = mid, gm
    x0, x1, f0, f1 = lo, hi, glo, ghi
    for _ in range(8):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not (lo <= x2 <= hi):
            x2 = 0.5 * (lo + hi)
        if abs(x2 - x1) < 1e-13:
            return x2
        x0, f0, x1, f1 = x1, f1, x2, g(x2)
    return x1


def _scalar_branch_roots(p):
    """Reference: the point-by-point branch scan, for a + e != 0."""
    n = p.n
    B = (p.e - p.a) / (p.e + p.a)
    samples = max(32, 8 * math.ceil(abs(B)))
    delta = 1e-9 / n
    two_sqrt_ac = 2 * math.sqrt(p.a * p.c)

    def g(phi):
        return _scalar_residual(p, phi)

    out = []
    for ell in range(1, n + 1):
        lo = (ell - 1) * math.pi / n + delta
        hi = ell * math.pi / n - delta
        grid = np.linspace(lo, hi, samples + 1)
        vals = [g(x) for x in grid]
        for i in range(samples):
            if vals[i] == 0.0:
                phi = grid[i]
            elif (vals[i] < 0) != (vals[i + 1] < 0):
                phi = _bisect_then_secant(g, grid[i], grid[i + 1],
                                          vals[i], vals[i + 1])
            else:
                continue
            if min(phi - (lo - delta), (hi + delta) - phi) < 10 * delta:
                y = cmath.exp(1j * phi)
                scale = max(abs(p.a), abs(p.d * p.tau), abs(p.e), 1.0)
                if abs(eval_polynomial(p, y)) > 1e-6 * scale:
                    continue
            out.append(BranchRoot(ell=ell, phi=phi,
                                  eigenvalue=two_sqrt_ac * math.cos(phi)))
    return out


@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.2, 5), c=st.floats(0.2, 5),
       d=st.floats(-5, 5), e=st.floats(-5, 5), n=st.integers(2, 500))
def test_branch_scan_matches_scalar_reference(a, c, d, e, n):
    assume(abs(e + a) > 1e-3 * a)
    p = make_params(a, c, a + c, d, e, n)
    want = _scalar_branch_roots(p)
    got = find_branch_roots(p)
    assert [r.ell for r in got] == [r.ell for r in want]
    tol = 1e-14 * 2 * math.sqrt(a * c)
    for r, w in zip(got, want):
        assert abs(r.eigenvalue - w.eigenvalue) <= tol


@st.composite
def large_b_params(draw):
    """(a, c, d, e, n) with 1e-3 a <= |a+e| <= 0.6 a, so |B| >= 4, and d
    often within a relative 1e-6..1e-1 of a case threshold."""
    a, c = draw(st.floats(0.2, 5)), draw(st.floats(0.2, 5))
    gap = 10 ** draw(st.floats(-3, math.log10(0.6)))
    e = -a * (1 + draw(st.sampled_from([1, -1])) * gap)
    t = (a - e) * math.sqrt(c / a)
    s = 2 * math.sqrt(c * abs(e))
    d = draw(st.one_of(
        st.floats(-5, 5),
        st.builds(lambda x, r: x * (1 + r), st.sampled_from([t, -t, s, -s]),
                  st.floats(1e-6, 1e-1) | st.floats(-1e-1, -1e-6))))
    return a, c, d, e, draw(st.integers(2, 40))


def _dense_sign_scan(p, samples=1024):
    """Roots per branch, by a plain scan of the signs of H(phi) = a
    sin((n+1) phi) - d tau sin(n phi) - e sin((n-1) phi) at samples + 1
    points of each branch, 1e-9/n in from its ends.  H is
    expanded as (a+e) cos(n phi) sin(phi) - (d tau + (e-a) cos(phi))
    sin(n phi): near phi = 0 and pi the three sines cancel to below
    their rounding error, and the product form does not."""
    n = p.n
    delta = 1e-9 / n
    ell = np.arange(1, n + 1)
    phi = np.linspace((ell - 1) * math.pi / n + delta,
                      ell * math.pi / n - delta, samples + 1, axis=1)
    neg = ((p.a + p.e) * np.cos(n * phi) * np.sin(phi)
           - (p.d * p.tau + (p.e - p.a) * np.cos(phi)) * np.sin(n * phi)) < 0
    changes = (neg[:, 1:] != neg[:, :-1]).sum(axis=1)
    return collections.Counter(dict(zip(ell.tolist(), changes.tolist())))


@settings(max_examples=40, deadline=None)
@given(large_b_params())
@example((1.9622768212420452, 4.179999553518589, 4.650296370269988,
          -1.9791010244640208, 26))
def test_fixed_scan_finds_what_a_dense_scan_finds(params):
    """The bracketed scan finds every root that a plain 1024-sample sign
    scan finds, and an odd number on each interior branch, across whose
    ends H changes sign."""
    a, c, d, e, n = params
    p = make_params(a, c, a + c, d, e, n)
    got = collections.Counter(r.ell for r in find_branch_roots(p))
    dense = _dense_sign_scan(p)
    assert not dense - got
    assert all(got[ell] % 2 == 1 for ell in range(2, n))


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.2, 5), c=st.floats(0.2, 5), d=st.floats(-5, 5),
       e=st.floats(-5, 5), n=st.integers(2, 300))
@example(a=1.9622768212420452, c=4.179999553518589, d=4.650296370269988,
         e=-1.9791010244640208, n=26)
def test_interior_branch_without_stationary_angle_has_one_root(a, c, d, e,
                                                                n):
    """F = n phi - arccot(R) is monotone away from the stationary angles,
    and H changes sign across every interior branch: such a branch holds
    exactly one root."""
    assume(abs(e + a) > 1e-9 * a)
    p = make_params(a, c, a + c, d, e, n)
    got = collections.Counter(r.ell for r in find_branch_roots(p))
    holding = {int(phi * n / math.pi) + 1 for phi in _stationary_angles(p)}
    assert all(got[ell] == 1 for ell in range(2, n) if ell not in holding)


@pytest.mark.parametrize("args", [
    (0.49228133741805474, 4.671881441301845, 1.6662859958789524,
     1.1179206292266861, 19),
    (1.077669135907969, 3.104486285234755, -2.1755890245931067,
     -0.15276011907845433, 18)], ids=["rejected", "kept"])
def test_near_endpoint_roots_match_scalar_reference(args):
    """d within 1e-6 of a finite-n threshold puts a root next to a branch
    end.  The scalar reference, with its endpoint guard and polynomial
    re-check there, is 5.6e-9 and 1.6e-9 of scale off LAPACK on these
    two sets; the closed-form signs of G at the branch ends are not."""
    a, c, d, e, n = args
    p = make_params(a, c, a + c, d, e, n)
    got = compute_spectrum(p, "reduced").eigenvalues()
    want = np.linalg.eigvals(_tau_balance(p, build_reduced_matrix(p)))
    assert len(got) == n
    assert pairing_distance(got, want) <= 1e-12 * 2 * math.sqrt(a * c)


@settings(max_examples=30, deadline=None)
@given(a=st.floats(0.2, 5), c=st.floats(0.2, 5), d=st.floats(-5, 5),
       e_frac=st.floats(0.001, 1), n=st.integers(2, 2000))
@example(a=5.0, c=5.0, d=5.0, e_frac=1.0, n=2)
def test_reduced_spectrum_matches_lapack(a, c, d, e_frac, n):
    """(a+e) c > 0: the reduced matrix is similar to a symmetric
    tridiagonal one, whose eigenvalues LAPACK computes independently."""
    from scipy.linalg import eigh_tridiagonal
    e = -a + e_frac * (a + 5)          # e in (-a, 5]
    p = make_params(a, c, a + c, d, e, n)
    theory = np.array(compute_spectrum(p, "reduced").eigenvalues())
    sub, diag, sup = tridiagonal(p, "reduced")
    off = np.sqrt(sub * sup)
    lapack = eigh_tridiagonal(diag, off, eigvals_only=True)
    # LAPACK is accurate to a few ulps of the norm here, and so is the bulk
    # scan; a special root that merges with the trivial root y = 1 at the
    # band edge is a triple root of f, which Newton only resolves to
    # ~eps^(1/3) in y (a = c = d = e = 5, n = 2: 6.4e-11 off).  The bound
    # is the benchmark's 1e-9 of scale.
    tol = 1e-9 * (np.abs(diag).max() + 2 * off.max())
    assert np.abs(theory.imag).max() <= tol
    assert np.abs(np.sort(theory.real) - lapack).max() <= tol


class TestRefineSpecialRoot:
    def test_near_seed(self):
        p = make_params(1, 1, 2, 1, 1, 40)
        seed = quadratic_roots(p).y_plus
        y = refine_special_root(p, seed)
        assert abs(y - seed) < 1e-8
        assert abs(eval_polynomial(p, y)) / abs(y) ** (2 * p.n) < 1e-10

    def test_complex_pair_modulus(self):
        p = make_params(1, 1, 2, 0, -2.25, 100)
        y = refine_special_root(p, 1.5j)
        assert abs(abs(y) - 1.5) < 1e-2

    def test_no_root_regime_fails(self):
        p = make_params(1, 1, 2, 0, 0, 20)
        with pytest.raises((NoConvergence, UnitCircleCollapse, DomainError)):
            refine_special_root(p, 1.2)

    def test_seed_on_circle_rejected(self):
        with pytest.raises(DomainError):
            refine_special_root(make_params(1, 1, 2, 1, 1, 10), 0.5)

    @pytest.mark.parametrize("ulps", [0, 1])
    def test_root_next_to_a_finite_n_threshold_converges(self, ulps):
        # the root of f 4.2e-6 above y = 1, seeded by y_minus = 1.0026:
        # with f formed about the seed rather than on y itself, the seed
        # one ulp above converges too (it used to end in NoConvergence)
        p = make_params(1.728286955147171, 3.0279828569667298, None,
                        8.037441855678733, -4.350696361929139, 389)
        seed = 1.0025817259781125
        for _ in range(ulps):
            seed = np.nextafter(seed, 2.0)
        y = refine_special_root(p, seed)
        assert abs(y - 1.0000042448274622) <= 1e-10
        assert abs(eigenvalue_from_root(p, y) - eigenvalue_from_root(
            p, 1.0000042448274622)) <= 1e-15 * 2 * math.sqrt(p.a * p.c)

    def test_underflowed_double_root_is_a_zero_step(self):
        # the twin of c + e = 0: a y^2 - d tau y - e = (y - 4)^2 exactly,
        # and 4^(-2n) underflows, so f = f' = 0 at delta = 0 in floats
        p = make_params(1, 16, 17, 32, -16, 280)
        assert 4.0 ** (-2 * p.n) == 0
        delta = _off_circle_newton(p, p.n, 4 + 0j, 0j)
        assert delta == 0
        assert refine_special_root(p, 4 + 0j) == 4

    def test_no_nonzero_quadratic_root_is_a_domain_error(self):
        # d = e = 0: both roots of a y^2 - d tau y - e are 0, and every
        # root of f lies on the unit circle
        with pytest.raises(DomainError, match="no nonzero root"):
            refine_special_root(make_params(1, 1, 2, 0, 0, 20), 1.2)


@pytest.mark.parametrize("r", [3.0, -3.0, 2.0, -2.0, 1.2, -1.2, 0.0,
                               2 + 1j, -0.5 - 3j])
def test_root_of_eigenvalue_inverts_eigenvalue_from_root(r):
    # 2 sqrt(ac) = 1.908: the real r inside it have both roots on the
    # circle, and the one with Im y >= 0 is returned
    p = make_params(1.3, 0.7, None, 0.9, 0.4, 12)
    y = _root_of_eigenvalue(p, r)
    assert abs(y) >= 1 - 1e-15
    assert abs(eigenvalue_from_root(p, y) - r) <= 1e-14
    if abs(r.imag) == 0 and abs(r) < 2 * math.sqrt(1.3 * 0.7):
        assert y.imag > 0


@settings(max_examples=30, deadline=None)
@given(a=st.floats(0.2, 5), c=st.floats(0.2, 5),
       d=st.floats(-5, 5), e=st.floats(-5, 5), n=st.integers(8, 40))
def test_root_symmetry(a, c, d, e, n):
    """Roots of the polynomial come in (y, 1/y) and conjugate pairs."""
    p = make_params(a, c, a + c, d, e, n)
    try:
        roots = find_branch_roots(p)
    except ZeroDenominator:
        return
    scale = max(a, abs(d * p.tau), abs(e)) * 4
    for r in roots[:5]:
        y = cmath.exp(1j * r.phi)
        assert abs(eval_polynomial(p, 1 / y)) < 1e-8 * scale
        assert abs(eval_polynomial(p, y.conjugate())) < 1e-8 * scale


@pytest.mark.parametrize("y", [1e-320, -1e-320j, 1e308])
def test_eigenvalue_past_the_float_range_is_a_domain_error(y):
    # 1/y overflows at a subnormal y, and sqrt(ac) y past 1e308
    with pytest.raises(DomainError, match="leaves the float range"):
        eigenvalue_from_root(make_params(2, 2, 4, 1, 1, 10), y)
