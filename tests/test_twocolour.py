import math

import numpy as np
import pytest

from splitgrow import (InvalidParameterError, TwoColourState, densities_from_e,
                       fixed_point_densities, make_rna, make_two_colour_grafting,
                       make_two_colour_uniform, make_uniform, reduce_to_one_colour,
                       rna_closed_form, solve_two_colour, uniform_density)

E2 = math.e ** 2


class TestModel:
    def test_rna_weights(self):
        m = make_rna()
        assert [m.w_white(k) for k in (1, 2, 5)] == pytest.approx([2, 3, 6])
        assert [m.w_black(k) for k in (1, 2, 5)] == pytest.approx([1, 2, 5])

    @pytest.mark.parametrize("a,b", [(1.0, 0.0), (2.0, 0.5), (1.0, 0.5)])
    def test_growth_rate_identity(self, a, b):
        # a - b = w_black(2)/2 = w_white(2)/3 holds exactly by construction
        m = make_two_colour_uniform(a, b)
        assert m.weight_growth_rate == pytest.approx(a - b)
        assert m.w_black(2) / 2 == pytest.approx(a - b)
        assert m.w_white(2) / 3 == pytest.approx(a - b)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            make_two_colour_uniform(1.0, 1.0)       # needs a - b > 0
        with pytest.raises(InvalidParameterError):
            make_two_colour_grafting(1.0, 0.5, 0.9) # alpha0 kills leaf mass


class TestState:
    def test_initial_edge(self):
        m = make_rna()
        st = TwoColourState.single_edge(m)
        snap = st.census()
        assert snap.t == 2 and snap.counts.tolist() == [2]
        assert snap.white.tolist() == [0] and snap.black.tolist() == [2]
        assert st.total_weight == pytest.approx(2.0)   # 2 * w_black(1) = (a-b)t + b
        assert st.colour_identity_deviation() == 0     # 2*2 = 2 + 2

    def test_first_step_forced_recolour(self):
        # only blacks exist, so the first event recolours one of them
        m = make_rna()
        st = TwoColourState.single_edge(m)
        ev = st.step(np.random.default_rng(0))
        assert ev.kind == "recolour"
        snap = st.census()
        assert snap.t == 3 and snap.counts.tolist() == [2]
        assert snap.white.tolist() == [1] and snap.black.tolist() == [1]

    @pytest.mark.parametrize("model", [make_rna(),
                                       make_two_colour_grafting(1.0, 0.5, 0.5)],
                             ids=["rna", "grafting-white"])
    def test_invariants_every_step(self, model):
        st = TwoColourState.single_edge(model)
        rng = np.random.default_rng(21)
        for _ in range(3000):
            st.step(rng)
            assert st.colour_identity_deviation() == 0
            drift, closed = st.weight_deviation()
            assert drift <= 1e-9 and closed <= 1e-9
        snap = st.census()
        assert snap.identity_deviations() == (0, 0)
        assert (snap.counts == snap.white + snap.black).all()


class TestClosedForms:
    def test_first_values(self):
        # e_white_1 = 2/(e^2 * 3!) = 1/(3 e^2); e_black_1 = 2/(e^2 * 2!) = 1/e^2
        ew, eb = rna_closed_form(1)
        assert ew == pytest.approx(1 / (3 * E2), rel=1e-14)
        assert eb == pytest.approx(1 / E2, rel=1e-14)
        assert eb == pytest.approx(0.1353353, abs=1e-7)
        assert ew == pytest.approx(0.0451118, abs=1e-7)

    def test_second_values(self):
        # k = 2: (4*2/(e^2 4!), 4/(e^2 3!)) = (1/(3e^2), 2/(3e^2))
        ew, eb = rna_closed_form(2)
        assert ew == pytest.approx(1 / (3 * E2), rel=1e-14)
        assert eb == pytest.approx(2 / (3 * E2), rel=1e-14)

    def test_positive(self):
        for k in range(1, 40):
            ew, eb = rna_closed_form(k)
            assert ew > 0 and eb > 0

    def test_selection_equation_at_k1(self):
        # (w_black_1 + w_black_2/2) e_black_1 = 2/e^2 must equal
        # 2 sum_i e_white_i, i.e. sum_i i 2^i/(i+2)! = 1
        total = sum(i * 2.0 ** i / math.factorial(i + 2) for i in range(1, 60))
        assert total == pytest.approx(1.0, abs=1e-14)


class TestReduction:
    def test_rna_reduces_to_uniform_x0(self):
        red = reduce_to_one_colour(make_rna())
        uni = make_uniform(0.0)
        for k in range(1, 25):
            assert red.w(k) == pytest.approx(float(k), abs=1e-12)
            for i in range(1, k + 2):
                assert red.partition(i, k + 2 - i) == pytest.approx(
                    uni.partition(i, k + 2 - i), rel=1e-14)

    def test_zero_white_weight_raises(self):
        class _Stub:
            pass

        import splitgrow.twocolour as tc
        stub = _Stub()
        stub.white = tc.WeightModel(
            tc.PartitionWeights.from_table(2, [(1, 2, 1.0)]),
            tc.SplittingWeights(0.0, 1.0))
        stub.w_white = lambda d: d - 1.0          # vanishes at the degree-1 class
        stub.w_black = lambda d: d * 1.0
        stub.black = tc.SplittingWeights(1.0, 0.0)
        stub.a, stub.b, stub.family = 1.0, 0.0, "stub"
        with pytest.raises(ZeroDivisionError):
            reduce_to_one_colour(stub)


class TestSolve:
    def test_rna_against_closed_forms(self):
        sol = solve_two_colour(make_rna(), K=256)
        for k in range(1, 21):
            ew, eb = rna_closed_form(k)
            assert sol.e_white[k - 1] == pytest.approx(ew, abs=1e-10)
            assert sol.e_black[k - 1] == pytest.approx(eb, abs=1e-10)

    def test_rna_colour_ratio(self):
        # e_white/e_black = w_black/(w_white + w_white(2)/3) = k/(k+2)
        sol = solve_two_colour(make_rna(), K=128)
        for k in range(1, 30):
            assert sol.e_white[k - 1] / sol.e_black[k - 1] == pytest.approx(
                k / (k + 2), rel=1e-12)

    def test_rna_total_vertex_density(self):
        sol = solve_two_colour(make_rna(), K=128)
        total = (sol.e_white + sol.e_black).sum()
        assert total == pytest.approx((E2 - 1) / (2 * E2), abs=1e-12)

    def test_rna_vertex_densities(self):
        sol = solve_two_colour(make_rna(), K=128)
        rho_w, rho_b = densities_from_e(sol)
        assert rho_b[0] == pytest.approx(2 / (E2 - 1), abs=1e-12)
        assert rho_b[0] == pytest.approx(0.3130353, abs=1e-7)
        assert rho_w[0] == pytest.approx(4 / (6 * (E2 - 1)), abs=1e-12)
        assert rho_w[0] == pytest.approx(0.1043451, abs=1e-7)
        assert (rho_w + rho_b).sum() == pytest.approx(1.0, abs=1e-12)

    def test_colour_sum_matches_one_colour_densities(self):
        # rho_white + rho_black reproduces the uniform x=0 one-colour limit:
        # 2^{k+2}(k+1) = 2^{k+1}k + 2^{k+1}(k+2) over (e^2-1)(k+2)!
        sol = solve_two_colour(make_rna(), K=256)
        rho_w, rho_b = densities_from_e(sol)
        for k in range(1, 31):
            assert rho_w[k - 1] + rho_b[k - 1] == pytest.approx(
                uniform_density(0.0, k), abs=1e-10)
        assert rho_w[0] + rho_b[0] == pytest.approx(0.4173804, abs=1e-7)

    def test_normalisation_identities(self):
        sol = solve_two_colour(make_rna(), K=256)
        assert sol.colour_sum_dev <= 1e-12
        assert sol.weight_sum_dev <= 1e-10

    @pytest.mark.parametrize("model", [make_rna(),
                                       make_two_colour_grafting(1.0, 0.5, 0.5)],
                             ids=["rna", "grafting-white"])
    def test_residuals_small(self, model):
        sol = solve_two_colour(model, K=512)
        assert sol.max_residual <= 1e-8

    @pytest.mark.parametrize("model", [
        make_rna(), make_two_colour_grafting(1.0, 0.0, 0.5),
        make_two_colour_grafting(1.0, 0.5, 0.5), make_two_colour_uniform(2.0, 0.5),
    ], ids=["rna", "grafting-1-0-0.5", "grafting-1-0.5-0.5", "uniform-2-0.5"])
    def test_reduction_solves_both_families(self, model):
        # the reduction solves the truncated two-colour system itself: both
        # equation families hold to rounding, except the degree-1 selection
        # row, which carries the truncation defect (the reduced model drops
        # the white LinearTail of two-colour grafting)
        sol = solve_two_colour(model, K=64)
        assert np.max(np.abs(sol.residual_colour)) <= 1e-13
        assert np.max(np.abs(sol.residual_selection[1:])) <= 1e-13
