import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flockspectra import (DomainError, NotDecentralized, SecondOrderParams,
                          build_laplacian, compute_spectrum,
                          first_order_verdict,
                          laplacian_spectrum, make_params,
                          second_order_eigenvalues, second_order_verdict)


class TestLaplacianSpectrum:
    def test_stable_decentralized_layout(self):
        lam = laplacian_spectrum(make_params(1, 1, 2, 0.5, 0.5, 40))
        zeros = [z for z in lam if abs(z) < 1e-8 * 2]
        assert len(zeros) == 1
        assert all(z.real < 0 for z in lam if abs(z) > 1e-8 * 2)

    def test_unstable_marginal_mode_value(self):
        # -(a+e)(c+e)/e = -0.5 for (a,c,e)=(1,3,-2)
        lam = laplacian_spectrum(make_params(1, 3, 4, 5, -2, 80))
        assert min(abs(z + 0.5) for z in lam) < 1e-6

    def test_shifted_closed_form(self):
        lam = laplacian_spectrum(make_params(1, 1, 2, 0, 1, 30))
        got = sorted(z.real for z in lam)
        want = sorted([0.0] + [2 * math.cos((2 * k - 1) * math.pi / 60) - 2
                               for k in range(1, 31)])
        assert np.allclose(got, want, atol=1e-9)


class TestFirstOrderVerdict:
    def test_stable(self):
        v = first_order_verdict(make_params(1, 1, 2, 0.5, 0.5, 40))
        assert v.stable == "stable"
        assert v.zero_multiplicity == 1
        assert v.spectral_abscissa < 0

    def test_unstable_with_marginal_witness(self):
        v = first_order_verdict(make_params(1, 3, 4, 5, -2, 80))
        assert v.stable == "unstable"
        assert v.predicted_marginal == pytest.approx(-0.5)
        assert abs(v.witness - (-0.5)) < 1e-6

    def test_unstable_visible_growth_case(self):
        # c+e < 0: the marginal mode itself is positive
        v = first_order_verdict(make_params(3, 1, 4, 5, -4, 40))
        assert v.stable == "unstable"
        assert v.spectral_abscissa > 0
        assert v.predicted_marginal == pytest.approx(0.75)
        assert abs(v.witness - 0.75) < 1e-6

    def test_inconclusive_c_plus_e_zero(self):
        v = first_order_verdict(make_params(1, 2, 3, 4, -2, 40))
        assert v.stable == "inconclusive"

    def test_inconclusive_a_plus_e_zero(self):
        v = first_order_verdict(make_params(1, 2, 3, 3, -1, 40))
        assert v.stable == "inconclusive"

    def test_rejects_non_decentralized(self):
        with pytest.raises(NotDecentralized):
            first_order_verdict(make_params(1, 1, 2, 0, 0, 20))

    def test_marginal_mode_at_1e160_is_finite(self):
        # (a+e)(c+e) = 2.25e320 leaves the float range; the mode does not
        v = first_order_verdict(make_params(1e160, 1e160, None, 0.5e160,
                                            0.5e160, 20))
        assert v.predicted_marginal == -4.5e160


class TestSecondOrderEigenvalues:
    def test_unit_damped_mode(self):
        nus = second_order_eigenvalues([-1.0], SecondOrderParams(1, 1))
        got = sorted(nus, key=lambda z: z.imag)
        assert got[0] == pytest.approx(-0.5 - 1j * math.sqrt(3) / 2)
        assert got[1] == pytest.approx(-0.5 + 1j * math.sqrt(3) / 2)

    def test_zero_mode_doubles(self):
        nus = second_order_eigenvalues([0.0], SecondOrderParams(2, 3))
        assert nus.tolist() == [0, 0]

    def test_overdamped_mode(self):
        nus = second_order_eigenvalues([-2.0], SecondOrderParams(1, 2))
        got = sorted(z.real for z in nus)
        assert got == pytest.approx([-2 - math.sqrt(2), -2 + math.sqrt(2)])

    def test_quadratic_map_consistency(self):
        lambdas = [-1.3, -0.2 + 0.1j, 0.0, -4.0]
        so = SecondOrderParams(0.7, 1.9)
        nus = second_order_eigenvalues(lambdas, so)
        for lam, (nu1, nu2) in zip(lambdas, zip(nus[::2], nus[1::2])):
            for nu in (nu1, nu2):
                res = nu * nu - so.beta * lam * nu - so.alpha * lam
                assert abs(res) < 1e-12 * max(1.0, abs(lam) ** 2)


U = 2.0 ** -53  # unit roundoff


def _mp_second_order(lam, so):
    """(nu+, nu-, b, c) for one lambda in 50-digit mpmath: nu+- = -b +-
    sqrt(b^2 - c), b = -beta lambda / 2 and c = -alpha lambda, on the
    floats given."""
    with mp.workdps(50):
        b = -mp.mpf(so.beta) / 2 * mp.mpc(lam)
        c = -mp.mpf(so.alpha) * mp.mpc(lam)
        s = mp.sqrt(b * b - c)
        return -b + s, -b - s, b, c


def _second_order_tol(nu, big, sep):
    """Bound on |nu~ - nu| for either root nu of nu^2 + 2b nu + c, big the
    larger modulus of the two and sep = |nu+ - nu-| = 2|s|, to first
    order in u; complex products and quotients are taken to round within
    4u and the complex sqrt within 2u (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed. 2002, sec. 3.6).

    The float b and c are off by at most u|b| and u|c|, and their scaling
    by a power of two is exact.  Forming d = b^2 - c adds 2u|b|^2 from b,
    4u|b|^2 from the square, u|c| from c and u|d| from the difference:
    |delta d| <= 6u (|b|^2 + |c|).  Away from the branch cut, where the
    two principal square roots lie within a right angle of each other,
    |delta s| <= |delta d| / |s| + 2u |s|.  The root formed as -b +- s
    without cancellation is the larger, x with |x|^2 >= |b|^2 + |s|^2,
    and |c| = |nu+ nu-| <= |x|^2; so x is off by at most u|b| + |delta s|
    + u|x| <= 4u|x| + 24u|x|^2 / sep.  The other root c / x adds u from c
    and 4u from the quotient to that relative error.  Both roots thus lie
    within u (9 + 24 big / sep) |nu|: the bound widens only where nu+
    and nu- nearly coincide, sep << big, next to a double root."""
    return U * (9 + 24 * big / sep) * abs(nu) if sep else mp.inf


@st.composite
def _lambda_and_gains(draw):
    """(lambda, SecondOrderParams) with |lambda| in 1e-300..1e300 and
    alpha / beta^2 from 1e-9 |lambda| (an overdamped mode, whose slow root
    ~ -alpha/beta is the one -b +- s forms by cancellation) to 1e9 |lambda|, or
    within a factor 1 +- 1e-16..0.3 of |lambda| / 4 (a near-double root
    at negative real lambda); b, c, alpha and beta stay normal floats."""
    unit = draw(st.sampled_from([-1.0, 1.0, 1j, -1j])
                | st.floats(-math.pi, math.pi).map(lambda t: cmath.rect(1, t)))
    if draw(st.booleans()):
        k = draw(st.floats(-9, 9))  # log10 of alpha / (beta^2 |lambda|)
    else:
        k = math.log10(0.25 + 0.25 * draw(st.sampled_from([-1, 1]))
                       * 10 ** -draw(st.floats(0.5, 16)))
    lg = draw(st.floats(-300, 300))  # log10 |lambda|
    # log10 |beta lambda|: beta, alpha and c = alpha lambda normal
    lo = max(-140, lg - 290, (lg - 290 - k) / 2)
    hi = min(140, lg + 290, (lg + 290 - k) / 2)
    lq = draw(st.floats(lo, hi))
    signs = draw(st.tuples(st.sampled_from([-1, 1]), st.sampled_from([-1, 1])))
    return (10 ** lg * unit, SecondOrderParams(
        signs[0] * 10 ** (k + 2 * lq - lg), signs[1] * 10 ** (lq - lg)))


@settings(max_examples=300, deadline=None)
@given(_lambda_and_gains())
def test_second_order_eigenvalues_match_mpmath(args):
    lam, so = args
    got = second_order_eigenvalues([lam], so)
    assert got.dtype == complex and got.shape == (2,)
    nu_plus, nu_minus, b, c = _mp_second_order(lam, so)
    big, sep = max(abs(nu_plus), abs(nu_minus)), abs(nu_plus - nu_minus)
    with mp.workdps(50):
        d = b * b - c
        # within |delta d| of the cut of sqrt, for complex lambda only, the
        # rounded d may lie across it and swap nu+ and nu-
        orders = ([(nu_plus, nu_minus), (nu_minus, nu_plus)]
                  if lam.imag and mp.re(d) < 0
                  and abs(mp.im(d)) <= 6 * U * (abs(b) ** 2 + abs(c))
                  else [(nu_plus, nu_minus)])
        assert any(all(abs(mp.mpc(g) - w) <= _second_order_tol(w, big, sep)
                       for g, w in zip(got, want)) for want in orders)


def test_slow_mode_keeps_its_digits():
    # nu^2 + 4 nu + 4e-8: nu+ = -2 + 2 sqrt(1 - 1e-8) ~ -1.0000000025e-8,
    # which -b + s forms by cancellation (1.4e-8 relative off)
    so = SecondOrderParams(1e-8, 1)
    got = second_order_eigenvalues([-4.0], so)
    want = [float(mp.re(w)) for w in _mp_second_order(-4.0, so)[:2]]
    assert want[0] == pytest.approx(-1.0000000025e-8, rel=1e-15)
    assert got.imag.tolist() == [0.0, 0.0]
    for g, w in zip(got.real, want):
        assert abs(g - w) <= 4 * math.ulp(w)


@pytest.mark.parametrize("lambdas", [[math.inf], [complex(0, math.nan)],
                                     ["a"], [None], [-1e308]],
                         ids=["inf", "nan", "str", "None", "overflow"])
def test_second_order_eigenvalues_reject(lambdas):
    # the last: nu+ ~ beta lambda = -1e310 leaves the float range
    with pytest.raises(DomainError):
        second_order_eigenvalues(lambdas, SecondOrderParams(1, 10))


class TestSecondOrderVerdict:
    def test_stable_double_zero(self):
        v = second_order_verdict(make_params(1, 1, 2, 0.5, 0.5, 40),
                                 SecondOrderParams(1, 1))
        assert v.stable == "stable"
        assert v.zero_multiplicity == 2

    def test_negative_alpha_unstable(self):
        v = second_order_verdict(make_params(1, 1, 2, 0.5, 0.5, 40),
                                 SecondOrderParams(-1, 1))
        assert v.stable == "unstable"

    def test_negative_beta_unstable(self):
        v = second_order_verdict(make_params(1, 1, 2, 0.5, 0.5, 40),
                                 SecondOrderParams(1, -1))
        assert v.stable == "unstable"

    def test_mirrors_first_order_unstable(self):
        v = second_order_verdict(make_params(1, 3, 4, 5, -2, 40),
                                 SecondOrderParams(1, 1))
        assert v.stable == "unstable"

    def test_quiet_and_finite_at_1e160(self):
        # b^2 = (beta lambda / 2)^2 ~ 4e320 leaves the float range; the
        # modes do not
        s = 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = second_order_verdict(make_params(s, s, None, 0.5 * s, 0.5 * s,
                                                 20), SecondOrderParams(1, 1))
        assert math.isfinite(v.spectral_abscissa)

    @pytest.mark.parametrize("scale", [1.0, 1e150])
    def test_zero_modes_do_not_grow_with_scale(self, scale):
        # the slow modes nu ~ -alpha/beta = -1 keep their size while
        # 1e-8 (a+c) grows with the scale: only the two nu of -L's zero
        # mode are zero modes
        p = make_params(scale, scale, None, 0.5 * scale, 0.5 * scale, 20)
        v = second_order_verdict(p, SecondOrderParams(1, 1))
        assert (v.stable, v.zero_multiplicity) == ("stable", 2)
        assert v.spectral_abscissa < 0

    def test_rejects_non_decentralized(self):
        with pytest.raises(NotDecentralized):
            second_order_verdict(make_params(1, 1, 2, 0, 0, 20),
                                 SecondOrderParams(1, 1))

    @pytest.mark.parametrize("args", [(1, 3, 4, 5, -2, 40),
                                      (1, 1, 2, 0.5, 0.5, 40)])
    def test_computes_the_spectrum_once(self, monkeypatch, args):
        import flockspectra.stability as stability
        calls = []

        def counted(*a):
            calls.append(a)
            return compute_spectrum(*a)

        p = make_params(*args)
        first = first_order_verdict(p)
        monkeypatch.setattr(stability, "compute_spectrum", counted)
        v = second_order_verdict(p, SecondOrderParams(1, 1))
        assert len(calls) == 1
        assert v.rule == "second-order (alpha,beta>0): " + first.rule
        assert v.stable == first.stable
        assert v.predicted_marginal == first.predicted_marginal


def test_perturbed_zero_mode_sign_at_large_n():
    """Stable decentralized parameters where a+c is an asymptotic
    eigenvalue: the finite-n eigenvalue sits strictly below a+c, so the
    corresponding system mode is strictly negative."""
    from flockspectra import perturbation_sign
    p = make_params(1, 2, 3, 1, 1, 50)
    for n in (50, 100, 200):
        assert perturbation_sign(p, n) == -1


@pytest.mark.parametrize("alpha,beta", [(math.nan, 1), (1, math.nan),
                                        (math.inf, 1), (1, -math.inf)])
def test_non_finite_gains_rejected(alpha, beta):
    with pytest.raises(DomainError):
        SecondOrderParams(alpha, beta)


@pytest.mark.parametrize("alpha,beta", [("1", 1), (None, 1), (1, [1])])
def test_non_numeric_gains_rejected(alpha, beta):
    with pytest.raises(DomainError):
        SecondOrderParams(alpha, beta)


# Both verdicts, field by field, as recorded when spectra were Python
# lists, for one decentralized set per cell of the special-eigenvalue
# table (and one set whose unstable second-order witness is the nu
# nearest the first-order one), at n = 24, 96 and 480.  Each row holds
# (a, c, e, n), then the first-order verdict and the second-order one at
# (alpha, beta) = (1, 0.5), each as (stable, rule index into RULES,
# witness, zero_multiplicity, spectral_abscissa, predicted_marginal).
RULES = (
    'first-order: a+e<0, c+e!=0 => unstable',
    'second-order (alpha,beta>0): first-order: a+e<0, c+e!=0 => unstable',
    'first-order: a+e>0 => stable',
    'second-order (alpha,beta>0): first-order: a+e>0 => stable',
    'first-order: a+e>0 => stable (finite-n spectrum disagrees)',
    'second-order (alpha,beta>0): first-order: a+e>0 => stable '
    '(finite-n spectrum disagrees)',
)
VERDICTS = [
    ((0.8525390625, 0.34375, -1.623046875, 24),
     ('unstable', 0, complex(0.607319635604693, 0.0),
      1, 0.607319635604693, 0.6073196356046932),
     ('unstable', 1, complex(0.9457895784320831, 0.0),
      2, 0.9457895784320831, 0.6073196356046932)),
    ((0.8525390625, 0.34375, -1.623046875, 96),
     ('unstable', 0, complex(0.607319635604693, 0.0),
      1, 0.607319635604693, 0.6073196356046932),
     ('unstable', 1, complex(0.9457895784320831, 0.0),
      2, 0.9457895784320831, 0.6073196356046932)),
    ((0.8525390625, 0.34375, -1.623046875, 480),
     ('unstable', 0, complex(0.607319635604693, 0.0),
      1, 0.607319635604693, 0.6073196356046932),
     ('unstable', 1, complex(0.9457895784320831, 0.0),
      2, 0.9457895784320831, 0.6073196356046932)),
    ((1.1435546875, 1.1435546875, -3.4033203125, 24),
     ('unstable', 0, complex(1.50045843794835, 0.0),
      1, 1.50045843794835, 1.50045843794835),
     ('unstable', 1, complex(1.656195952805692, 0.0),
      2, 1.656195952805692, 1.50045843794835)),
    ((1.1435546875, 1.1435546875, -3.4033203125, 96),
     ('unstable', 0, complex(1.50045843794835, 0.0),
      1, 1.50045843794835, 1.50045843794835),
     ('unstable', 1, complex(1.656195952805692, 0.0),
      2, 1.656195952805692, 1.50045843794835)),
    ((1.1435546875, 1.1435546875, -3.4033203125, 480),
     ('unstable', 0, complex(1.50045843794835, 0.0),
      1, 1.50045843794835, 1.50045843794835),
     ('unstable', 1, complex(1.656195952805692, 0.0),
      2, 1.656195952805692, 1.50045843794835)),
    ((0.9072265625, 1.4541015625, -2.5458984375, 24),
     ('unstable', 0, complex(0.7027369222286155, 0.0),
      1, 0.7027369222286155, 0.7027369222286153),
     ('unstable', 1, complex(1.0321898470565873, 0.0),
      2, 1.0321898470565873, 0.7027369222286153)),
    ((0.9072265625, 1.4541015625, -2.5458984375, 96),
     ('unstable', 0, complex(0.7027369222286155, 0.0),
      2, 0.7027369222286155, 0.7027369222286153),
     ('unstable', 1, complex(1.0321898470565873, 0.0),
      4, 1.0321898470565873, 0.7027369222286153)),
    ((0.9072265625, 1.4541015625, -2.5458984375, 480),
     ('unstable', 0, complex(0.7027369222286155, 0.0),
      2, 0.7027369222286155, 0.7027369222286153),
     ('unstable', 1, complex(1.0321898470565873, 0.0),
      4, 1.0321898470565873, 0.7027369222286153)),
    ((0.953125, 0.68359375, -0.2314453125, 24),
     ('stable', 2, complex(-0.03101871668507905, 0.0),
      1, -0.03101871668507905, 1.4098636933016877),
     ('stable', 3, complex(-0.007754679171269763, 0.1759505090530565),
      2, -0.007754679171269763, 1.4098636933016877)),
    ((0.953125, 0.68359375, -0.2314453125, 96),
     ('stable', 2, complex(-0.02309826596301212, 0.0),
      1, -0.02309826596301212, 1.4098636933016877),
     ('stable', 3, complex(-0.00577456649075303, 0.15187139409663689),
      2, -0.00577456649075303, 1.4098636933016877)),
    ((0.953125, 0.68359375, -0.2314453125, 480),
     ('stable', 2, complex(-0.022379043760508477, 0.0),
      1, -0.022379043760508477, 1.4098636933016877),
     ('stable', 3, complex(-0.005594760940127119, 0.1494916131779014),
      2, -0.005594760940127119, 1.4098636933016877)),
    ((1.662109375, 1.662109375, -0.689453125, 24),
     ('stable', 2, complex(-0.0064523565315322, 0.0),
      1, -0.0064523565315322, 1.3721892705382437),
     ('stable', 3, complex(-0.00161308913288305, 0.08031036343450063),
      2, -0.00161308913288305, 1.3721892705382437)),
    ((1.662109375, 1.662109375, -0.689453125, 96),
     ('stable', 2, complex(-0.00043398983939502145, 0.0),
      1, -0.00043398983939502145, 1.3721892705382437),
     ('stable', 3, complex(-0.00010849745984875536, 0.020832140257213798),
      2, -0.00010849745984875536, 1.3721892705382437)),
    ((1.662109375, 1.662109375, -0.689453125, 480),
     ('stable', 2, complex(-1.7710539524706803e-05, 0.0),
      1, -1.7710539524706803e-05, 1.3721892705382437),
     ('stable', 3, complex(-4.427634881176701e-06, 0.0042083868549310155),
      2, -4.427634881176701e-06, 1.3721892705382437)),
    ((1.091796875, 2.1953125, 0.744140625, 24),
     ('stable', 2, complex(-3.651733315734873e-08, 0.0),
      1, -3.651733315734873e-08, -7.25219406167979),
     ('stable', 3, complex(-9.129333289337183e-09, 0.00019109508908918618),
      2, -9.129333289337183e-09, -7.25219406167979)),
    ((1.091796875, 2.1953125, 0.744140625, 96),
     ('inconclusive', 4, complex(-0.19252161578884452, 0.0),
      2, -0.19252161578884452, -7.25219406167979),
     ('inconclusive', 5, complex(-0.04813040394721113, 0.43612507380879034),
      4, -0.04813040394721113, -7.25219406167979)),
    ((1.091796875, 2.1953125, 0.744140625, 480),
     ('inconclusive', 4, complex(-0.19083323504271466, 0.0),
      2, -0.19083323504271466, -7.25219406167979),
     ('inconclusive', 5, complex(-0.047708308760678664, 0.43423168046321814),
      4, -0.047708308760678664, -7.25219406167979)),
    ((0.81640625, 0.640625, 1.1025390625, 24),
     ('stable', 2, complex(-0.018178953954687493, 0.0),
      1, -0.018178953954687493, -3.033939223040301),
     ('stable', 3, complex(-0.004544738488671873, 0.13475273394910056),
      2, -0.004544738488671873, -3.033939223040301)),
    ((0.81640625, 0.640625, 1.1025390625, 96),
     ('stable', 2, complex(-0.011302283740442176, 0.0),
      1, -0.011302283740442176, -3.033939223040301),
     ('stable', 3, complex(-0.002825570935110544, 0.10627464368010289),
      2, -0.002825570935110544, -3.033939223040301)),
    ((0.81640625, 0.640625, 1.1025390625, 480),
     ('stable', 2, complex(-0.010672246573004696, 0.0),
      1, -0.010672246573004696, -3.033939223040301),
     ('stable', 3, complex(-0.002668061643251174, 0.10327210668942756),
      2, -0.002668061643251174, -3.033939223040301)),
    ((1.4794921875, 1.4794921875, 2.1923828125, 24),
     ('stable', 2, complex(-0.006386975290203267, 0.0),
      1, -0.006386975290203267, -6.1497772828507795),
     ('stable', 3, complex(-0.0015967438225508168, 0.07990260133042236),
      2, -0.0015967438225508168, -6.1497772828507795)),
    ((1.4794921875, 1.4794921875, 2.1923828125, 96),
     ('stable', 2, complex(-0.000396898108212973, 0.0),
      1, -0.000396898108212973, -6.1497772828507795),
     ('stable', 3, complex(-9.922452705324325e-05, 0.01992205468083561),
      2, -9.922452705324325e-05, -6.1497772828507795)),
    ((1.4794921875, 1.4794921875, 2.1923828125, 480),
     ('stable', 2, complex(-1.585058326192268e-05, 0.0),
      1, -1.585058326192268e-05, -6.1497772828507795),
     ('stable', 3, complex(-3.96264581548067e-06, 0.003981277126671895),
      2, -3.96264581548067e-06, -6.1497772828507795)),
    ((1.5673828125, 2.744140625, 2.4384765625, 24),
     ('stable', 2, complex(-9.926841491036953e-07, 0.0),
      1, -9.926841491036953e-07, -8.513854907138565),
     ('stable', 3, complex(-2.481710372759238e-07, 0.0009963353288500972),
      2, -2.481710372759238e-07, -8.513854907138565)),
    ((1.5673828125, 2.744140625, 2.4384765625, 96),
     ('inconclusive', 4, complex(-0.16609374673464838, 0.0),
      2, -0.16609374673464838, -8.513854907138565),
     ('inconclusive', 5, complex(-0.041523436683662096, 0.4054251483820735),
      4, -0.041523436683662096, -8.513854907138565)),
    ((1.5673828125, 2.744140625, 2.4384765625, 480),
     ('inconclusive', 4, complex(-0.16378584441099875, 0.0),
      2, -0.16378584441099875, -8.513854907138565),
     ('inconclusive', 5, complex(-0.04094646110274969, 0.4026279072967493),
      4, -0.04094646110274969, -8.513854907138565)),
    # -L's mode at 1.4e-11 counts as a zero mode, so its two nu = +-3.8e-6
    # do too, and the witness is the nu nearest the first-order one
    ((1.0, 3.0, -2.0, 24),
     ('unstable', 0, complex(-0.5002556465038634, 0.0),
      2, -0.5002556465038634, -0.5),
     ('unstable', 1, complex(-3.763476399079666e-06, 0.0),
      4, -0.12506391162596586, -0.5)),
    ((1.0, 3.0, -2.0, 96),
     ('unstable', 0, complex(-0.500000000000254, 0.0),
      2, -0.500000000000254, -0.5),
     ('unstable', 1, complex(-2.9802322165650708e-08, 0.0),
      4, -0.1250000000000635, -0.5)),
    ((1.0, 3.0, -2.0, 480),
     ('unstable', 0, complex(-0.5000000000000009, 0.0),
      2, -0.5000000000000009, -0.5),
     ('unstable', 1, complex(-2.9802322165650708e-08, 0.0),
      4, -0.12500000000000022, -0.5)),
]


@pytest.mark.parametrize("row", VERDICTS, ids=lambda row: str(row[0]))
def test_verdict_fields_pinned(row):
    (a, c, e, n), first, second = row
    p = make_params(a, c, None, c - e, e, n)
    got = [first_order_verdict(p),
           second_order_verdict(p, SecondOrderParams(1.0, 0.5))]
    for v, want in zip(got, (first, second)):
        fields = (v.stable, RULES.index(v.rule), v.witness,
                  v.zero_multiplicity, v.spectral_abscissa,
                  v.predicted_marginal)
        # repr pins the bits and the Python type of every field
        assert repr(fields) == repr(want)
