import cmath
import math

import numpy as np
import pytest

from flockspectra import (NotDecentralized, SecondOrderParams,
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


class TestSecondOrderEigenvalues:
    def test_unit_damped_mode(self):
        nus = second_order_eigenvalues([-1.0], SecondOrderParams(1, 1))
        got = sorted(nus, key=lambda z: z.imag)
        assert got[0] == pytest.approx(-0.5 - 1j * math.sqrt(3) / 2)
        assert got[1] == pytest.approx(-0.5 + 1j * math.sqrt(3) / 2)

    def test_zero_mode_doubles(self):
        nus = second_order_eigenvalues([0.0], SecondOrderParams(2, 3))
        assert nus == [0, 0]

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
