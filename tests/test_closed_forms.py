import math

import numpy as np
import pytest
import scipy.special

from splitgrow import (InvalidParameterError, SplittingWeights, bessel_i,
                       closed_form_for, constant_weight_density,
                       fixed_point_densities, grafting_asymptote,
                       grafting_density, make_grafting, make_preferential,
                       make_uniform, pref_attachment_asymptote,
                       pref_attachment_density, pref_attachment_gamma_form,
                       rna_closed_form, uniform_density, uniform_norm_constant)

E2 = math.e ** 2


class TestBessel:
    def test_half_integer_identities(self):
        # I_{1/2}(z) = sqrt(2/(pi z)) sinh z ; I_{3/2}(z) = sqrt(2/(pi z)) (cosh z - sinh z / z)
        assert bessel_i(0.5, 1.0) == pytest.approx(math.sqrt(2 / math.pi) * math.sinh(1.0),
                                                   abs=1e-14)
        i32 = math.sqrt(2 / math.pi) * (math.cosh(1.0) - math.sinh(1.0))
        assert bessel_i(1.5, 1.0) == pytest.approx(i32, abs=1e-14)

    def test_frozen_decimals(self):
        assert bessel_i(0.5, 1.0) == pytest.approx(0.9376748, abs=1e-7)
        assert bessel_i(1.5, 1.0) == pytest.approx(0.2935253, abs=5e-8)

    @pytest.mark.parametrize("nu", [-0.75, -0.25, 0.0, 0.25, 0.5, 1.0, 1.5, 2.5])
    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 4.0])
    def test_against_scipy(self, nu, z):
        assert bessel_i(nu, z) == pytest.approx(scipy.special.iv(nu, z), rel=1e-13)

    def test_positive(self):
        for nu in (0.0, 0.7, 3.0):
            for z in (0.1, 1.0, 4.0):
                assert bessel_i(nu, z) > 0

    def test_domain(self):
        # the series needs Gamma(nu + 1) finite: every nu > -1
        with pytest.raises(InvalidParameterError):
            bessel_i(-1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            bessel_i(0.5, 0.0)


class TestPreferential:
    def test_plane_recursive_values(self):
        # w_i = i gives a_k = 4/(k(k+1)(k+2)): 2/3, 1/6, 1/15
        sw = SplittingWeights(1.0, 0.0)
        assert pref_attachment_density(sw, 1) == pytest.approx(2 / 3, abs=1e-15)
        assert pref_attachment_density(sw, 2) == pytest.approx(1 / 6, abs=1e-15)
        assert pref_attachment_density(sw, 3) == pytest.approx(1 / 15, abs=1e-15)

    def test_recursive_tree_values(self):
        sw = SplittingWeights(0.0, 1.0)
        for k in (1, 5, 20, 40):
            assert pref_attachment_density(sw, k) == pytest.approx(2.0 ** -k, rel=1e-13)

    @pytest.mark.parametrize("x", [0.0, 0.5, -0.3, 2.0])
    def test_product_equals_gamma_form(self, x):
        sw = SplittingWeights(1.0, x)
        for k in (1, 2, 5, 30, 120, 250):
            assert pref_attachment_density(sw, k) == pytest.approx(
                pref_attachment_gamma_form(sw, k), rel=1e-12)

    def test_asymptote(self):
        sw = SplittingWeights(1.0, 0.0)
        # constant (2+x)*Gamma(2x+3)/Gamma(x+1) = 2*Gamma(3) = 4 at x = 0
        assert pref_attachment_asymptote(sw, 1) == pytest.approx(4.0)
        k = 1000
        ratio = pref_attachment_density(sw, k) / pref_attachment_asymptote(sw, k)
        assert abs(ratio - 1.0) < 0.01

    def test_gamma_form_x0_reduces_to_rational(self):
        # (2*Gamma(3)*Gamma(k+1)) / (k*Gamma(1)*Gamma(k+3)) = 4/(k(k+1)(k+2))
        sw = SplittingWeights(1.0, 0.0)
        for k in (1, 4, 9):
            assert pref_attachment_gamma_form(sw, k) == pytest.approx(
                4.0 / (k * (k + 1) * (k + 2)), rel=1e-14)


class TestUniform:
    def test_norm_constant_x0(self):
        # I_{1/2}(1) = sqrt(2/pi) sinh 1 collapses C(0) to (e^2-1)/8
        assert uniform_norm_constant(0.0) == pytest.approx((E2 - 1) / 8, abs=1e-12)
        assert uniform_norm_constant(0.0) == pytest.approx(0.7986320, abs=5e-8)

    def test_x0_density(self):
        # a_k = 2^{k+2}(k+1)/((e^2-1)(k+2)!)
        assert uniform_density(0.0, 1) == pytest.approx(8 / (3 * (E2 - 1)), abs=1e-14)
        # 8/(3(e^2-1)) = 0.41738038...; quoted 7-digit values carry a
        # last-digit slip, so compare loosely
        assert uniform_density(0.0, 1) == pytest.approx(0.4173812, abs=1e-6)
        for k in (2, 5, 12):
            expect = 2.0 ** (k + 2) * (k + 1) / ((E2 - 1) * math.factorial(k + 2))
            assert uniform_density(0.0, k) == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("x", [-0.5, 0.0, 1.0])
    def test_sums_to_one(self, x):
        total = closed_form_for(make_uniform(x)).densities(60).sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_positive_and_monotone_partial_sums(self):
        d = closed_form_for(make_uniform(0.7)).densities(50)
        assert (d > 0).all()
        sums = np.cumsum(d)
        assert (np.diff(sums) >= 0).all() and sums[-1] <= 1 + 1e-12

    @pytest.mark.parametrize("x", [100.0, 200.0, 500.0])
    def test_large_x_matches_solver(self, x):
        # C(x) underflows from about x = 150; its logarithm does not
        exact = closed_form_for(make_uniform(x)).densities(16)
        solved = fixed_point_densities(make_uniform(x), K=256).densities[:16]
        assert np.max(np.abs(exact / solved - 1.0)) <= 1e-10
        assert np.array_equal(exact, [uniform_density(x, k) for k in range(1, 17)])

    @pytest.mark.parametrize("x", [-0.9, -0.7])
    def test_negative_order_matches_solver(self, x):
        # x < -0.5 takes the Bessel order 1/2 + x below 0
        exact = closed_form_for(make_uniform(x)).densities(30)
        solved = fixed_point_densities(make_uniform(x), K=1024).densities[:30]
        assert np.max(np.abs(exact - solved)) <= 1e-12

    def test_x_beyond_accuracy_bound(self):
        with pytest.raises(InvalidParameterError, match="underflows"):
            uniform_norm_constant(200.0)
        with pytest.raises(InvalidParameterError, match="closed form"):
            uniform_density(2e5, 1)
        # compare then falls back to the solver
        assert closed_form_for(make_uniform(2e5)) is None


class TestGrafting:
    def test_alpha0_gamma1(self):
        assert grafting_density(0.0, 1.0, 1) == pytest.approx(0.5)
        for k in (2, 6, 25):
            assert grafting_density(0.0, 1.0, k) == pytest.approx(2.0 ** -k, rel=1e-14)

    def test_half_gamma1(self):
        # a_1 = 1/3 and a_k = (4/9)(1/3)^{k-2}: the total telescopes to 1
        assert grafting_density(0.5, 1.0, 1) == pytest.approx(1 / 3)
        for k in (2, 3, 10):
            assert grafting_density(0.5, 1.0, k) == pytest.approx(
                (4 / 9) * (1 / 3) ** (k - 2), rel=1e-14)
        total = closed_form_for(make_grafting(0.5, 1.0)).densities(80).sum()
        assert total == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.8])
    def test_alpha0_matches_preferential_form(self, gamma):
        # with alpha = 0 the family is attachment-only with x = (2g-1)/(1-g)
        sw = SplittingWeights(1.0 - gamma, 2.0 * gamma - 1.0)
        for k in (1, 2, 7, 30):
            assert grafting_density(0.0, gamma, k) == pytest.approx(
                pref_attachment_density(sw, k), rel=1e-12)

    @pytest.mark.parametrize("alpha,gamma", [(0.0, 0.5), (0.5, 0.5)])
    def test_power_law_tail(self, alpha, gamma):
        k = 1000
        ratio = grafting_density(alpha, gamma, k) / grafting_asymptote(alpha, gamma, k)
        assert abs(ratio - 1.0) < 0.01

    def test_asymptote_descriptors(self):
        # exponent -(2-gamma)/(1-gamma) = -3 at gamma = 1/2: doubling k
        # divides the tail by 2^3
        ratio = grafting_asymptote(0.5, 0.5, 40) / grafting_asymptote(0.5, 0.5, 20)
        assert ratio == pytest.approx(2.0 ** -3.0)
        # gamma = 1: geometric rate (1-alpha)/(2-alpha)
        for alpha, rate in ((0.0, 0.5), (0.5, 1 / 3)):
            ratio = grafting_asymptote(alpha, 1.0, 11) / grafting_asymptote(alpha, 1.0, 10)
            assert ratio == pytest.approx(rate)

    def test_sum_to_one_power_law(self):
        # partial sum + integral tail bound of C k^-3
        d = closed_form_for(make_grafting(0.5, 0.5)).densities(4000)
        tail = grafting_asymptote(0.5, 0.5, 1) * 0.5 * 4000.0 ** -2
        assert d.sum() + tail == pytest.approx(1.0, abs=1e-4)
        assert d.sum() < 1.0

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            grafting_density(0.5, 0.0, 1)
        with pytest.raises(InvalidParameterError):
            grafting_density(1.0, 0.5, 1)


@pytest.mark.parametrize("density", [
    lambda k: pref_attachment_density(SplittingWeights(1.0, 0.0), k),
    lambda k: uniform_density(0.0, k), lambda k: grafting_density(0.5, 0.5, k),
    constant_weight_density, rna_closed_form,
], ids=["preferential", "uniform", "grafting", "constant", "rna"])
@pytest.mark.parametrize("k", [0, -3])
def test_degree_below_one_refused(density, k):
    with pytest.raises(InvalidParameterError, match="k must be >= 1"):
        density(k)


def test_constant_weight_solution():
    # e^{-1} sum 1/(k-1)! telescopes to 1; no census-limit claim attaches
    assert constant_weight_density(1) == pytest.approx(1 / math.e, rel=1e-14)
    total = sum(constant_weight_density(k) for k in range(1, 40))
    assert total == pytest.approx(1.0, abs=1e-14)


class TestClosedFormDispatch:
    def test_families(self):
        assert closed_form_for(make_uniform(0.0))(1) == pytest.approx(uniform_density(0, 1))
        m = make_preferential(SplittingWeights(1.0, 0.0))
        sw = m.splitting
        assert closed_form_for(m)(3) == pref_attachment_density(sw, 3)
        # tail 4 * k^-3 for w = i
        assert pref_attachment_asymptote(sw, 1) == pytest.approx(4.0)
        assert pref_attachment_asymptote(sw, 20) / pref_attachment_asymptote(sw, 10) \
            == pytest.approx(2.0 ** -3.0)
        assert closed_form_for(make_grafting(0.3, 0.5))(4) == pytest.approx(
            grafting_density(0.3, 0.5, 4), rel=1e-14)

    def test_custom_has_none(self, dmax3):
        assert closed_form_for(dmax3) is None


ORACLE_CASES = [
    ("pref w=i", make_preferential(SplittingWeights(1.0, 0.0)),
     lambda k: pref_attachment_density(SplittingWeights(1.0, 0.0), k)),
    ("pref x=0.5", make_preferential(SplittingWeights(1.0, 0.5)),
     lambda k: pref_attachment_density(SplittingWeights(1.0, 0.5), k)),
    ("uniform -0.5", make_uniform(-0.5), lambda k: uniform_density(-0.5, k)),
    ("uniform 0", make_uniform(0.0), lambda k: uniform_density(0.0, k)),
    ("uniform 1", make_uniform(1.0), lambda k: uniform_density(1.0, k)),
    ("grafting 0,0.5", make_grafting(0.0, 0.5), lambda k: grafting_density(0.0, 0.5, k)),
    ("grafting .5,.5", make_grafting(0.5, 0.5), lambda k: grafting_density(0.5, 0.5, k)),
    ("grafting .5,1", make_grafting(0.5, 1.0), lambda k: grafting_density(0.5, 1.0, k)),
    ("grafting 0,1", make_grafting(0.0, 1.0), lambda k: grafting_density(0.0, 1.0, k)),
]


@pytest.mark.parametrize("name,model,oracle", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_solver_matches_closed_form(name, model, oracle):
    sol = fixed_point_densities(model, K=400)
    exact = np.array([oracle(k) for k in range(1, 51)])
    assert np.max(np.abs(sol.densities[:50] - exact)) <= 1e-8
