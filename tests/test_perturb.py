import math

import numpy as np
import pytest

from flockspectra import (DimensionTooSmall, NotApplicable,
                          UnitCircleCollapse, make_params, perturbation_sign,
                          track_root_convergence,
                          verify_branch_monotonicity)


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
