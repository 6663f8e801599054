import math
import sys

import numpy as np
import pytest

from flockspectra import (DimensionTooSmall, DomainError, FlockSpectraError,
                          NoConvergence, NotApplicable, UnitCircleCollapse,
                          branch_function, make_params, perturbation_sign,
                          track_root_convergence,
                          verify_branch_monotonicity)
from flockspectra.charpoly import CIRCLE_EPS, NEWTON_MAX_ITER
from flockspectra.perturb import _deviation, _off_circle_seed


class TestTrackRootConvergence:
    def test_geometric_decay_decentralized(self):
        p = make_params(1, 2, 3, 1, 1, 20)
        rep = track_root_convergence(p, [20, 40, 80, 160],
                                     deviation_floor=1e-250)
        devs = rep.deviations
        assert all(devs[i + 1] < devs[i] for i in range(len(devs) - 1))
        # kappa-hat in [1.1, 1.1*|y_+|^2] with |y_+| = sqrt(2)
        assert 1.1 <= rep.fitted_rate <= 1.1 * 2.0
        assert rep.r_squared > 0.99
        assert rep.r_expected == pytest.approx(math.sqrt(2))

    def test_sign_pattern_matches_theory(self):
        p = make_params(1, 2, 3, 1, 1, 20)
        rep = track_root_convergence(p, [20, 40, 80],
                                     deviation_floor=1e-250)
        assert rep.sign_pattern == [-1, -1, -1]   # -sgn(a+e)

    def test_no_root_regime_all_nan(self):
        p = make_params(1, 1, 2, 0, 0.5, 20)   # T1 case 2
        rep = track_root_convergence(p, [20, 40])
        assert all(math.isnan(d) for d in rep.deviations)
        assert rep.sign_pattern == [0, 0]

    def test_double_precision_floor_trims_fit(self):
        p = make_params(1, 2, 3, 1, 1, 20)
        rep = track_root_convergence(p, [20, 40, 80, 160])
        # deviations at n >= 80 are below 1e-14 and excluded; the fit
        # still reflects the geometric rate from the usable prefix
        assert rep.fitted_rate == pytest.approx(2.0, rel=0.1)

    def test_one_distinct_usable_n_fits_nothing(self):
        # n = 20 lies under the fit floor, so both usable points sit at
        # n = 10: no rate can be fitted, as for a single point
        p = make_params(1, 1, None, 2.2, 0.5, 10)
        rep = track_root_convergence(p, [10, 10, 20])
        assert rep.deviations[0] == rep.deviations[1] > 1e-14
        assert math.isnan(rep.fitted_rate) and math.isnan(rep.r_squared)
        rep = track_root_convergence(p, [10, 12, 20])
        assert rep.fitted_rate == pytest.approx(abs(rep.r_expected) ** 2,
                                                rel=1e-3)


class TestPerturbationSign:
    def test_positive_a_plus_e(self):
        assert perturbation_sign(make_params(1, 2, 3, 1, 1, 20), 100) == -1

    def test_negative_a_plus_e(self):
        assert perturbation_sign(make_params(1, 3, 4, 5, -2, 20), 100) == 1

    def test_complex_pair_not_applicable(self):
        with pytest.raises(NotApplicable):
            perturbation_sign(make_params(1, 1, 2, 2.95, -2.25, 20), 100)

    def test_no_root_not_applicable(self):
        with pytest.raises(NotApplicable):
            perturbation_sign(make_params(1, 1, 2, 0, 0.5, 20), 100)

    def test_a_plus_e_zero_not_applicable(self):
        with pytest.raises(NotApplicable):
            perturbation_sign(make_params(1, 1, 2, 3, -1, 20), 100)

    def test_near_line_not_applicable_as_on_line(self):
        # inside the dispatch band the line's special root y = (3+sqrt 5)/2
        # lies off the circle; the sign is undefined as on the line
        p = make_params(1, 1, 2, 3, -1 + 1e-14, 20)
        with pytest.raises(NotApplicable, match="a\\+e=0"):
            perturbation_sign(p, 100)

    def test_dimension_below_two_rejected(self):
        p = make_params(1, 2, 3, 1, 1, 20)
        with pytest.raises(DimensionTooSmall):
            perturbation_sign(p, 1)
        with pytest.raises(DimensionTooSmall):
            track_root_convergence(p, [1, 20])

    def test_eigenvalue_sign_equals_root_sign(self):
        # monotonicity of sqrt(ac)(y + 1/y) in y for y > 1 lifts the
        # root-level sign to the eigenvalue level
        p = make_params(1, 2, 3, 1, 1, 20)
        rep = track_root_convergence(p, [30, 60], deviation_floor=1e-250)
        assert all(s == -1 for s in rep.sign_pattern)


def test_deviation_below_the_float_range_keeps_its_sign():
    # |y+|^(-2n) = 2^(-1100) underflows, and so does the deviation: the
    # sign comes from the first-order term, -sgn(a+e) as the theory says
    p = make_params(1, 2, 3, 1, 1, 20)
    assert perturbation_sign(p, 1100) == -1
    rep = track_root_convergence(p, [1100])
    assert rep.deviations == [0.0] and rep.sign_pattern == [-1]


def test_underflowed_double_root_reports_the_straddling_pair():
    # the twin of c + e = 0: a y^2 - d tau y - e = (y - 4)^2 exactly.  At
    # n = 20 Newton reaches one root of the pair about y0 = 4 (to 2.4%:
    # its stop is absolute, TOL_ROOT |y|); once 4^(-2n) underflows it
    # stops at delta = 0, where the pair delta = +-sqrt(-tail(4)/a) 4^(-n)
    # = +-15 4^(-n) straddles y0: its size, and sign 0
    p = make_params(1, 16, 17, 32, -16, 280)
    rep = track_root_convergence(p, [20, 280, 400])
    assert rep.deviations[0] == pytest.approx(15 * 4.0 ** -20, rel=0.03)
    assert rep.deviations[1:] == pytest.approx(
        [15 * 4.0 ** -280, 15 * 4.0 ** -400], rel=1e-12, abs=0)
    assert rep.sign_pattern == [1, 0, 0]
    assert perturbation_sign(p, 280) == 0


def _mp_monic_roots(b, c):
    """charpoly._monic_roots in mpmath."""
    import mpmath as mp
    m = 2.0 ** math.frexp(max(abs(float(b)), abs(float(c)) ** 0.5))[1]
    s = m * mp.sqrt((b / m) ** 2 - c / m / m)
    x_plus, x_minus = -b + s, -b - s
    dot = mp.re(mp.conj(b) * s)
    if dot > 0:
        x_plus = c / x_minus
    elif dot < 0:
        x_minus = c / x_plus
    return x_plus, x_minus


def _mp_newton(a, d, e, tau, n, y, tol):
    """Newton's method on f(y)/y^(2n) in y, in mpmath, to a step of tol
    max(1, |y|), with charpoly's collapse rule and budget."""
    for _ in range(NEWTON_MAX_ITER):
        head = a * y * y - d * tau * y - e
        tail = e * y * y + d * tau * y - a
        w = y ** (-2 * n)
        df = (2 * a * y - d * tau) + ((2 * e * y + d * tau)
                                      - 2 * n * tail / y) * w
        if df == 0:
            raise NoConvergence("Newton derivative vanished")
        step = (head + tail * w) / df
        y = y - step
        if abs(y) < 1.0 + CIRCLE_EPS:
            raise UnitCircleCollapse("iterate collapsed to the unit circle")
        if abs(step) <= tol * max(1.0, abs(y)):
            return y
    raise NoConvergence("budget exhausted")


def _mp_reference(p, n, seed):
    """(|y(n) - y0|, sgn(r(n) - r0)) in mpmath at 2 n log10|y0| + 40
    digits, at least 50, with y0 the exact root nearest the seed;
    (NaN, 0) where Newton fails.  The deviation is formed after the
    root, so the digits must cover |y0|^(2n)."""
    import mpmath as mp
    dps = max(50, int(2 * n * math.log10(max(abs(seed), 1.0 + 1e-9))) + 40)
    with mp.workdps(dps):
        a, d, e = mp.mpf(p.a), mp.mpf(p.d), mp.mpf(p.e)
        tau = mp.sqrt(a / mp.mpf(p.c))
        y0 = min((x / (2 * a) for x in _mp_monic_roots(-d * tau, -4 * a * e)),
                 key=lambda y: abs(y - mp.mpc(seed)))
        try:
            y1 = _mp_newton(a, d, e, tau, n, y0, mp.mpf(10) ** (8 - dps))
        except (NoConvergence, UnitCircleCollapse):
            return math.nan, 0
        diff = (y1 + 1 / y1) - (y0 + 1 / y0)
        sign = (0 if abs(mp.im(diff)) > abs(mp.re(diff))
                else int(mp.sign(mp.re(diff))))
        return float(abs(y1 - y0)), sign


def _draw_sets(rng, kind, count):
    """(params, off-circle seed) pairs: "general" boundaries, "complex"
    off-circle pairs, "near-circle" seeds 1e-6..1e-1 above the case
    threshold |d tau| = |a - e|, and "double" roots of the quadratic at
    d = +-2 sqrt(c|e|) (1 + 1e-12 .. 1e-3)."""
    out = []
    while len(out) < count:
        a, c = rng.uniform(0.2, 5, 2)
        tau = math.sqrt(a / c)
        if kind == "general":
            d, e = rng.uniform(-6, 6), rng.uniform(-5, 5)
        elif kind == "complex":
            e = -a * rng.uniform(1.05, 3)
            d = rng.uniform(-1, 1) * 2 * math.sqrt(a * abs(e)) / tau
        elif kind == "near-circle":
            e = a * rng.uniform(-0.9, 3)
            d = (rng.choice([-1, 1]) * (a - e) / tau
                 * (1 + 10 ** rng.uniform(-6, -1)))
        else:
            e = -a * rng.uniform(1.05, 3)
            d = (rng.choice([-1, 1]) * 2 * math.sqrt(a * abs(e)) / tau
                 * (1 + rng.choice([1e-12, 1e-9, -1e-9, 1e-6, 1e-3])))
        try:
            p = make_params(a, c, None, d, e, 10)
        except FlockSpectraError:
            continue
        seed = _off_circle_seed(p)
        if seed is not None:
            out.append((p, seed))
    return out


def _float_deviation(p, n, seed):
    try:
        return _deviation(p, n, seed)
    except (NoConvergence, UnitCircleCollapse):
        return math.nan, 0


@pytest.mark.parametrize("kind", ["general", "complex", "near-circle"])
def test_float_deviation_matches_the_mpmath_reference(kind):
    """The float loop on delta = y(n) - y0 against Newton in y at the
    digits |y0|^(2n) needs: the same failures and signs, and |delta|
    within 1e-8 wherever it is a normal float (1.4e-12 at worst on
    these draws)."""
    rng = np.random.default_rng(["general", "complex",
                                 "near-circle"].index(kind))
    for p, seed in _draw_sets(rng, kind, 80):
        for n in (10, 20, 40, 80, 160):
            got, sign = _float_deviation(p, n, seed)
            want, want_sign = _mp_reference(p, n, seed)
            assert math.isnan(got) == math.isnan(want), (p, n)
            assert sign == want_sign, (p, n)
            if want >= sys.float_info.min:
                assert abs(got - want) <= 1e-8 * want, (p, n)


def test_float_deviation_near_a_double_root_follows_its_conditioning():
    """Next to a double root of the quadratic, delta ~ tail(y0) y0^(-2n)
    / h1 with h1 = 2 a y0 - d tau near 0.  Rounding the parameters and
    y0 moves the quadratic's constant by eps (a|y0|^2 + |d tau y0| +
    |e|), so h1, and delta with it, by 2a/h1^2 times that, relative:
    the float loop, exact for the rounded problem, differs from the
    mpmath one by up to that much (8.5e-5 at worst on these draws, 0.38
    of the bound), and keeps its failures and signs."""
    eps = np.finfo(float).eps
    for p, seed in _draw_sets(np.random.default_rng(3), "double", 40):
        a, dt = p.a, p.d * p.tau
        h1 = abs(2 * a * seed - dt)
        cond = (2 * a * eps * (a * abs(seed) ** 2 + abs(dt * seed) + abs(p.e))
                / h1 ** 2)
        for n in (10, 20, 40, 80, 160):
            got, sign = _float_deviation(p, n, seed)
            want, want_sign = _mp_reference(p, n, seed)
            assert math.isnan(got) == math.isnan(want), (p, n)
            assert sign == want_sign, (p, n)
            if want >= sys.float_info.min:
                assert abs(got - want) <= (1e-8 + 8 * cond) * want, (p, n)


def test_underflowed_deviation_takes_the_reference_sign():
    # n where |y0|^(-2n) is 1e-330..1e-400, below the float range: the
    # deviation is 0.0 and the first-order term gives the sign
    rng = np.random.default_rng(4)
    for p, seed in _draw_sets(rng, "general", 20) + _draw_sets(
            rng, "complex", 20):
        if abs(seed) < 1.05:
            continue
        n = math.ceil(rng.uniform(330, 400) / (2 * math.log10(abs(seed))))
        got, sign = _float_deviation(p, n, seed)
        assert got == 0.0
        assert sign == _mp_reference(p, n, seed)[1], (p, n)


def test_collapse_onto_the_circle_is_nan_or_typed():
    # d = 0.52 lies above the case threshold (a-e)/tau = 0.5, so y+ =
    # 1.0134 seeds the root, but below the finite-n threshold
    # ((a-e) + (a+e)/n)/tau = 0.5 + 1.5/n for n < 75: there the root of f
    # lies on the circle and the mpmath Newton iterate falls onto it
    p = make_params(1, 1, 2, 0.52, 0.5, 20)
    rep = track_root_convergence(p, [20, 40, 400])
    assert [math.isnan(x) for x in rep.deviations] == [True, True, False]
    assert rep.sign_pattern == [0, 0, -1]
    with pytest.raises(UnitCircleCollapse):
        perturbation_sign(p, 20)
    assert perturbation_sign(p, 400) == -1


class TestBranchMonotonicity:
    def test_no_violations_b_minus_one(self):
        reports = verify_branch_monotonicity(
            make_params(1, 1, 2, 0.3, 0, 10), 10, 200)
        assert reports[0].B == pytest.approx(-1)
        assert sum(len(r.violations) for r in reports) == 0

    def test_no_violations_b_zero(self):
        reports = verify_branch_monotonicity(
            make_params(1, 1, 2, 0, 1, 10), 10, 200)
        assert reports[0].B == pytest.approx(0)
        assert sum(len(r.violations) for r in reports) == 0

    def test_large_b_has_second_branch_violations(self):
        reports = verify_branch_monotonicity(
            make_params(1, 1, 2, -1.9, -1.05, 12), 12, 400)
        assert reports[0].B == pytest.approx(41)
        by_branch = {r.branch: len(r.violations) for r in reports}
        assert by_branch[2] > 0

    def test_no_violations_b_below_one_sweep(self):
        for e in (-0.5, 0.0, 0.9, 5.0):
            p = make_params(1, 1, 2, 0.7, e, 50)
            reports = verify_branch_monotonicity(p, 50, 100)
            assert reports[0].B <= 1
            assert sum(len(r.violations) for r in reports) == 0

    def test_e_plus_a_zero_rejected(self):
        with pytest.raises(NotApplicable):
            verify_branch_monotonicity(make_params(1, 1, 2, 1, -1, 10), 10)


def _old_monotonicity(p, n, samples):
    """The per-point loop the array version replaced: (phi, slope, bound)
    for every increase, where bound is the rounding a slope can carry:
    a few ulps of the terms of its two sampled values, and of the
    constant by which the cotangent residual differs from g."""
    B = (p.e - p.a) / (p.e + p.a)
    k = abs(p.d * p.tau / (p.e + p.a))
    width = math.pi / n
    out = []
    for ell in range(1, n + 1):
        phis = np.linspace((ell - 1) * width + 1e-6 * width,
                           ell * width - 1e-6 * width, samples)
        terms = [((math.cos(n * x) / math.sin(n * x)) * math.sin(x),
                  B * math.cos(x)) for x in phis]
        g = [t - u for t, u in terms]
        size = [abs(t) + abs(u) + k for t, u in terms]
        rows = []
        for i in range(samples - 1):
            if g[i + 1] > g[i]:
                dphi = phis[i + 1] - phis[i]
                rows.append((float(phis[i]), (g[i + 1] - g[i]) / dphi,
                             4 * np.finfo(float).eps
                             * (size[i] + size[i + 1]) / dphi))
        out.append(rows)
    return out


@pytest.mark.parametrize("seed", range(51))
def test_monotonicity_matches_per_point_loop(seed):
    rng = np.random.default_rng(seed)
    a, c = rng.uniform(0.5, 2, 2)
    e = -a * rng.uniform(1.02, 3) if seed % 3 else a * rng.uniform(-0.9, 3)
    p = make_params(a, c, None, rng.uniform(-3, 3), e, 10)
    n, samples = int(rng.integers(2, 40)), int(rng.integers(2, 400))
    reports = verify_branch_monotonicity(p, n, samples)
    assert [r.branch for r in reports] == list(range(1, n + 1))
    for rep, want in zip(reports, _old_monotonicity(p, n, samples)):
        assert [phi for phi, _ in rep.violations] == [w[0] for w in want]
        for (_, slope), (_, old, bound) in zip(rep.violations, want):
            assert abs(slope - old) <= 1e-8 * abs(old) + bound


def test_monotonicity_near_zero_e_plus_a_not_applicable():
    with pytest.raises(NotApplicable):
        verify_branch_monotonicity(make_params(1, 1, 2, 1, -1 + 1e-14, 10),
                                   10)


# One integer rule for every count the library takes: integral floats such
# as 5.0 pass, and nothing is truncated.  These ran with n = 2, ran with
# n = 10, or raised a bare TypeError.
@pytest.mark.parametrize("call", [
    lambda p: make_params(1, 1, 2, 2.95, -2.25, 2.9),
    lambda p: track_root_convergence(p, [10.5, 20]),
    lambda p: verify_branch_monotonicity(p, 12, 2.5),
    lambda p: verify_branch_monotonicity(p, 12, "a"),
    lambda p: verify_branch_monotonicity(p, 12.5),
    lambda p: perturbation_sign(p, 20.5),
    lambda p: branch_function(p, 12.5, 0.1)],
    ids=["make_params-n-2.9", "n_values-10.5", "samples-2.5", "samples-a",
         "monotonicity-n-12.5", "perturbation_sign-n-20.5",
         "branch_function-n-12.5"])
def test_non_integer_count_raises_domain_error(call):
    p = make_params(1, 1, 2, 2.95, -2.25, 12)
    with pytest.raises(DomainError, match="must be an integer"):
        call(p)


def test_integral_float_counts_pass():
    p = make_params(1, 1, 2, 2.95, -2.25, 12.0)
    assert p.n == 12 and type(p.n) is int
    assert make_params(1, 1, 2, 2.95, -2.25, "12") == p
    assert track_root_convergence(p, [20.0, 10]).n_values == [10, 20]
    assert (verify_branch_monotonicity(p, 12.0, 20.0)
            == verify_branch_monotonicity(p, 12, 20))
    q = make_params(1, 2, 3, 1, 1, 20)
    assert perturbation_sign(q, 100.0) == perturbation_sign(q, 100) == -1
    assert branch_function(p, 12.0, 0.1) == branch_function(p, 12, 0.1)
