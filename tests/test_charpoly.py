import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flockspectra import (BranchPole, BranchRoot, DomainError,
                          NoConvergence, UnitCircleCollapse, ZeroDenominator,
                          compute_spectrum, eigenvalue_from_root,
                          eval_cotangent_residual, eval_polynomial,
                          find_branch_roots, make_params, quadratic_roots,
                          refine_special_root, special_eigen_estimates)
from flockspectra.charpoly import ENDPOINT_DELTA, POLE_TOL
from flockspectra.model import tridiagonal


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
        # The scan works on fixed-size branch blocks, so its transient
        # memory stays small next to the list of roots it returns.
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
    delta = ENDPOINT_DELTA / n
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


@pytest.mark.parametrize("args", [
    (0.49228133741805474, 4.671881441301845, 1.6662859958789524,
     1.1179206292266861, 19),
    (1.077669135907969, 3.104486285234755, -2.1755890245931067,
     -0.15276011907845433, 18)], ids=["rejected", "kept"])
def test_near_endpoint_roots_match_scalar_reference(monkeypatch, args):
    """d within 1e-6 of a finite-n threshold puts a root within 10 delta
    of a branch end, where the polynomial re-check decides."""
    import flockspectra.charpoly as charpoly
    checks = []

    def counted(p, y):
        checks.append(y)
        return eval_polynomial(p, y)

    a, c, d, e, n = args
    p = make_params(a, c, a + c, d, e, n)
    want = _scalar_branch_roots(p)
    monkeypatch.setattr(charpoly, "eval_polynomial", counted)
    got = find_branch_roots(p)
    assert len(checks) == 1
    assert [r.ell for r in got] == [r.ell for r in want]
    for r, w in zip(got, want):
        assert abs(r.eigenvalue - w.eigenvalue) <= 1e-14 * 2 * math.sqrt(a * c)


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
