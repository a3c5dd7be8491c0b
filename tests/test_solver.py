import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import splitgrow.solver
from splitgrow import (NoConvergenceError, NonPositiveError, PartitionWeights,
                       RankDeficientError, Regime, RegimeError, SingularSystemError,
                       SplittingWeights, WeightModel, constant_weight_density,
                       fixed_point_densities, iterate_from_below, make_alpha_class,
                       make_grafting,
                       make_preferential, make_table, make_uniform,
                       pref_attachment_density, residuals, validate_model)
from splitgrow.solver import TailClosure, _hessenberg_solve, _update_matrix
from splitgrow.twocolour import (make_rna, make_two_colour_grafting, make_two_colour_uniform,
                                 reduce_to_one_colour, solve_two_colour)
from splitgrow.weights import MAX_DEGREE, LinearTail
from conftest import (DMAX3_ENTRIES, constant_uniform_partition, dense_band_sums, dense_view,
                      random_case3_model, random_linear_table, singular_at)


def band_sums_reference(model, K):
    """The update matrix summed pair by pair with scalar weight calls."""
    pw = model.partition
    B = np.zeros((K, K))
    for i in range(1, K + 1):
        for k in range(1, min(i + 1, K) + 1):
            B[k - 1, i - 1] = i * pw(k, i - k + 2)
    return B


def pref_i():
    return make_preferential(SplittingWeights(1.0, 0.0))


def constant_uniform():
    return WeightModel(constant_uniform_partition(), SplittingWeights(0.0, 1.0),
                       leaf_mass_limit=0.0)


class TestFixedPoint:
    def test_hand_iterates(self):
        # first sweep: a_1 = s/(w_2+s) = 1/3, everything else 0;
        # second sweep: a_2 = (1/(w_2+w_2)) * 1 * w[2,1] * a_1 = 1/12
        hist = iterate_from_below(pref_i(), K=16, tol=1e-13)
        assert hist[0] == pytest.approx(np.zeros(16))
        assert hist[1][0] == pytest.approx(1 / 3, abs=1e-15)
        assert hist[1][1:] == pytest.approx(np.zeros(15))
        assert hist[2][1] == pytest.approx(1 / 12, abs=1e-15)

    def test_plane_recursive_densities(self):
        sol = fixed_point_densities(pref_i(), K=400)
        assert sol.regime is Regime.CASE_III and sol.s == pytest.approx(1.0)
        for k, expect in ((1, 2 / 3), (2, 1 / 6), (3, 1 / 15)):
            assert sol[k] == pytest.approx(expect, abs=1e-10)

    def test_recursive_tree_densities(self):
        sol = fixed_point_densities(make_grafting(0.0, 1.0), K=128)
        expect = 2.0 ** -np.arange(1, 41)
        assert np.max(np.abs(sol.densities[:40] - expect)) <= 1e-10

    def test_monotone_for_unbounded_families(self):
        for m in (pref_i(), make_uniform(0.0), make_grafting(0.5, 0.5)):
            hist = iterate_from_below(m, K=128, tol=1e-12)
            assert len(hist) > 1
            assert np.diff(hist, axis=0).min() >= -1e-15, m.family

    def test_bounded_table_overshoots_then_settles(self, dmax3):
        # the shifted first row carries coefficient -s at the top degree, so
        # a_1 starts at s/(w_2+s) = 1/3 above its limit 1/4: convergence is
        # correct but not monotone
        hist = iterate_from_below(dmax3, K=3, tol=1e-14)
        assert hist[-1] == pytest.approx([0.25, 0.5, 0.25], abs=1e-11)
        assert hist[1][0] == pytest.approx(1 / 3)
        assert -np.diff(hist, axis=0).min() > 1e-6

    def test_bounded_truncation_is_forced(self, dmax3):
        # K is the bound whatever K is asked for; it is the model's own
        # truncation, so no warning is written
        sol = fixed_point_densities(dmax3, K=50)
        assert sol.K == 3 and sol.method == "linear" and sol.warnings == []
        assert sol.densities.tobytes() == fixed_point_densities(dmax3, K=3).densities.tobytes()

    def test_iterate_sums_bounded(self):
        for m in (pref_i(), make_uniform(0.0), make_grafting(0.5, 0.5)):
            hist = iterate_from_below(m, K=64, tol=1e-10)
            sums = hist.sum(axis=1)
            moments = (hist * np.arange(1, 65)).sum(axis=1)
            assert (sums <= 1 + 1e-12).all()
            assert (moments <= 2 + 1e-12).all()

    def test_truncation_stability(self):
        a = fixed_point_densities(pref_i(), K=256).densities
        b = fixed_point_densities(pref_i(), K=512).densities
        assert np.max(np.abs(a[:128] - b[:128])) <= 1e-9
        u = fixed_point_densities(make_uniform(0.0), K=64).densities
        v = fixed_point_densities(make_uniform(0.0), K=128).densities
        assert np.max(np.abs(u[:32] - v[:32])) <= 1e-12

    def test_case2_raises_without_override(self):
        with pytest.raises(RegimeError):
            fixed_point_densities(constant_uniform(), K=64)

    def test_case2_forced_matches_known_solution(self):
        # informational only: the truncated linear solve reproduces
        # a_k = e^{-1}/(k-1)! even though no census limit is guaranteed
        sol = fixed_point_densities(constant_uniform(), K=64, force_unsupported=True)
        assert sol.unsupported and sol.method == "linear-truncated"
        expect = np.array([constant_weight_density(k) for k in range(1, 21)])
        assert np.max(np.abs(sol.densities[:20] - expect)) <= 1e-10

    def test_forced_singular_system_raises(self, monkeypatch):
        # lstsq used to return a minimum-norm vector for a singular system
        monkeypatch.setattr(splitgrow.solver, "_update_matrix", singular_at(16))
        with pytest.raises(SingularSystemError):
            fixed_point_densities(constant_uniform(), K=16, force_unsupported=True)

    def test_no_convergence_raises(self):
        with pytest.raises(NoConvergenceError):
            iterate_from_below(pref_i(), K=64, tol=1e-15, max_iter=3)

    def test_non_finite_iterate_stops_the_iteration(self):
        # the table with weights 1, 2, 9 (which the solve refuses unless
        # forced) overflows within a few thousand steps: the iteration stops
        # at the first non-finite iterate, without warnings, instead of
        # running every step on NaN
        m = make_table(3, [(1, 2, 1.0), (1, 3, 1.0), (2, 3, 3.0)])
        assert [m.w(d) for d in (1, 2, 3)] == [1.0, 2.0, 9.0]
        with pytest.raises(NoConvergenceError, match="not finite") as err:
            iterate_from_below(m, max_iter=100_000)
        assert int(str(err.value).split()[1]) < 10_000

    def test_nonlinear_table_warns(self):
        # derived weights 1, 2.2, 3.9 are not linear in the degree: refused
        # unless forced, and a forced solve is watermarked
        m = make_table(3, [(1, 2, 1.0), (1, 3, 0.5), (2, 2, 1.0), (2, 3, 1.3)])
        with pytest.raises(RegimeError, match=r"linearity \(max \|w_i - \(1\*i\+0\)\| = 0\.9 "):
            fixed_point_densities(m)
        sol = fixed_point_densities(m, force_unsupported=True)
        assert sol.unsupported and sol.method == "linear"
        assert any("forced solve" in w for w in sol.warnings)
        assert any("sum k*rho deviates" in w for w in sol.warnings)
        # without linear weights the shifted fixed point is not normalised
        fp = iterate_from_below(m, max_iter=200_000)[-1]
        assert abs(fp.sum() - 1.0) > 0.1


class TestSolveFinite:
    """The direct solve of a bounded model: the stationary system with row 1
    replaced by ``sum a = 1``."""

    def test_hand_solved_table(self, dmax3):
        # 3 rho_1 = rho_1 + rho_2 and 8 rho_1 = rho_1 + 2 rho_2 + 3 rho_3
        # give rho = (1/4, 1/2, 1/4); the degree sum is then exactly 2
        sol = fixed_point_densities(dmax3)
        assert sol.densities == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)
        assert sol.sum_ka == pytest.approx(2.0, abs=1e-12)
        assert sol.method == "linear"

    def test_cross_method_agreement(self, dmax3):
        lin = fixed_point_densities(dmax3).densities
        fp = iterate_from_below(dmax3, K=3, tol=1e-14)[-1]
        assert np.max(np.abs(lin - fp)) <= 1e-12

    def test_degenerate_dmax2_absorbing(self):
        # degree-2 vertices never split, so all mass drifts into degree 2;
        # the verdict fails top_splittable, so only a forced solve gets there
        m = make_table(2, [(1, 2, 1.0)])
        with pytest.raises(RegimeError, match="top_splittable"):
            fixed_point_densities(m)
        sol = fixed_point_densities(m, force_unsupported=True)
        assert sol.densities == pytest.approx([0.0, 1.0], abs=1e-12)
        assert any("zero" in w for w in sol.warnings)

    def test_rank_deficient_raises(self):
        # derived weights 1, 0, 0 are not linear, so only a forced solve
        # reaches the rank-deficient system
        m = make_table(3, [(1, 2, 1.0)])
        with pytest.raises(RegimeError, match=r"linearity \(max \|w_i - \(-1\*i\+2\)\| = 1 "):
            fixed_point_densities(m)
        with pytest.raises(RankDeficientError):
            fixed_point_densities(m, force_unsupported=True)

    def test_degree_one_never_splitting_raises(self):
        # the stationary matrix has rank d_max - 1 = 1, and replacing its last
        # row by the normalisation gave the vacuous (0, 1); with the
        # normalisation in row 0 the remaining row is zero.  Degree 2 is
        # not leaf-reachable, so only a forced solve gets there
        m = make_table(2, [(2, 2, 1.0)])
        with pytest.raises(RegimeError, match="leaf_reachability"):
            fixed_point_densities(m)
        with pytest.raises(RankDeficientError, match="never split"):
            fixed_point_densities(m, force_unsupported=True)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d_max=st.integers(2, 8),
           leaf_drop=st.sampled_from([0.0, 0.5, 1.0]), stuck=st.booleans())
    def test_refusal_matches_rank_oracle(self, seed, d_max, leaf_drop, stuck):
        # oracle: the rank of the stationary matrix, and the former solve
        # with the last row replaced by the normalisation; tables whose
        # degree-1 vertices never split (b = -a) are refused at any rank.
        # A table the verdict fails is refused unless forced, so the rank
        # oracle is checked on forced solves
        rng = np.random.default_rng(seed)
        a = float(rng.uniform(0.1, 2.0))
        m = random_linear_table(rng, d_max, a=a, b=-a if stuck else None,
                                leaf_drop=leaf_drop)
        if not validate_model(m).ok:
            with pytest.raises(RegimeError):
                fixed_point_densities(m)
        A = dense_band_sums(m, d_max) - np.diag(m.w2 + m.splitting_weights(d_max))
        if stuck or np.linalg.matrix_rank(A) < d_max - 1:
            with pytest.raises(RankDeficientError):
                fixed_point_densities(m, force_unsupported=True)
            return
        A[-1, :] = 1.0
        former = np.linalg.solve(A, np.eye(d_max)[-1])
        got = fixed_point_densities(m, force_unsupported=True).densities
        assert np.max(np.abs(got - former)) <= 1e-12

    def test_random_linear_tables_cross_method(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            m = random_linear_table(rng, int(rng.integers(2, 8)))
            # a 2-degree table fails top_splittable, so it is forced
            force = m.d_max == 2
            lin = fixed_point_densities(m, force_unsupported=force)
            fp = iterate_from_below(m, tol=1e-14, max_iter=300_000)[-1]
            assert np.max(np.abs(lin.densities - fp)) <= 1e-10
            assert lin.sum_ka == pytest.approx(2.0, abs=1e-8)


class TestResiduals:
    def test_exact_solution_small_residual(self):
        sw = SplittingWeights(1.0, 0.0)
        exact = np.array([pref_attachment_density(sw, k) for k in range(1, 401)])
        rep = residuals(pref_i(), exact)
        assert rep.max_abs <= 1e-10
        assert rep.sum_dev <= 1e-10 and rep.moment_dev <= 1e-9

    def test_zero_vector_flags_trivial_solution(self):
        rep = residuals(pref_i(), np.zeros(64))
        assert rep.max_abs == 0.0
        assert rep.sum_dev == pytest.approx(1.0)

    def test_hand_table_solution_exact(self, dmax3):
        rep = residuals(dmax3, np.array([0.25, 0.5, 0.25]))
        assert rep.max_abs <= 1e-15
        assert rep.sum_dev <= 1e-15 and rep.moment_dev <= 1e-15

    def test_solution_reports_attached(self):
        sol = fixed_point_densities(make_uniform(0.0), K=128)
        assert sol.residuals.max_abs <= 1e-11
        assert sol.residuals.tail_mass >= 0.0

    def test_converged_residual_tracks_tolerance(self):
        tol = 1e-13
        for m in (pref_i(), make_uniform(0.0), make_grafting(0.5, 1.0)):
            sol = fixed_point_densities(m, K=256)
            assert sol.residuals.max_abs <= 10 * tol + sol.residuals.tail_mass + 1e-10

    def test_solution_bounds(self):
        for m in (pref_i(), make_uniform(-0.5), make_grafting(0.5, 0.5)):
            sol = fixed_point_densities(m, K=256)
            d = sol.densities
            assert (d >= 0).all() and (d <= 1).all()
            assert sol.sum_a <= 1 + 1e-9
            assert sol.sum_ka <= 2 + 1e-9


class TestMonotoneConstruction:
    """The from-below iteration has nonnegative coefficients exactly when no
    band mass sits below s, which holds for the unbounded two-banded class;
    randomised instances of it must produce nondecreasing iterates."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_case3_models_monotone(self, seed):
        rng = np.random.default_rng(seed)
        m = random_case3_model(rng)
        hist = iterate_from_below(m, K=48, tol=1e-11, max_iter=200_000)
        assert np.diff(hist, axis=0).min() >= -1e-15


class TestDirectSolve:
    """The solve takes the normalised stationary system in one call; the
    from-below iteration of the fixed-point system (iterate_from_below) is
    its oracle."""

    def test_normalised_row_meets_the_closed_form(self):
        # w = i - 0.9 puts most of the tail's leaf mass i*w[1,i+1] - s far
        # beyond the head: the s-shifted fixed-point row 1 missed the closed
        # form by 1.5e-13 at K = 1024, the normalised row with the closed
        # tail mass misses it by rounding only
        sw = SplittingWeights(1.0, -0.9)
        sol = fixed_point_densities(make_preferential(sw), K=1024)
        exact = np.array([pref_attachment_density(sw, k) for k in range(1, 31)])
        assert np.max(np.abs(sol.densities[:30] - exact)) <= 1e-15
        assert sol.residuals.sum_dev <= 1e-15

    @pytest.mark.parametrize("model", [
        pref_i(), make_uniform(0.0), make_grafting(0.5, 0.5),
        make_table(3, DMAX3_ENTRIES)], ids=["pref", "uniform", "grafting", "dmax3"])
    def test_direct_matches_iteration(self, model):
        direct = fixed_point_densities(model, K=256)
        iterated = iterate_from_below(model, K=256, tol=1e-14, max_iter=300_000)
        assert len(iterated) > 1
        assert np.max(np.abs(direct.densities - iterated[-1])) <= 1e-10
        assert direct.residuals.max_abs <= 1e-13
        assert direct.monotone_ok

    @pytest.mark.parametrize("model", [
        make_preferential(SplittingWeights(1.0, 0.0)),
        make_preferential(SplittingWeights(1.0, 0.5)),
        make_grafting(0.0, 0.5), make_grafting(0.5, 0.5), make_grafting(0.5, 1.0),
        make_grafting(1.0, 1.0), make_grafting(0.3, 0.7),
        make_alpha_class(SplittingWeights(1.0, 1.0), [0.8, 0.6, 0.5], M=3,
                         head=PartitionWeights.from_table(
                             3, [(1, 2, 2.0), (1, 3, 1.0), (2, 2, 1.0)])),
    ], ids=["pref-b0", "pref-b0.5", "graft-0-0.5", "graft-0.5-0.5", "graft-0.5-1",
            "graft-1-1", "graft-0.3-0.7", "alpha-head"])
    def test_banded_tail_matches_scalar_loop(self, model):
        # the same weights without tail metadata fill every column densely
        plain = WeightModel(PartitionWeights(model.partition), model.splitting)
        assert model.partition.tail is not None and plain.partition.tail is None
        for K in (2, 3, 7, 128):
            banded = dense_view(_update_matrix(model, K))
            scalar = dense_view(_update_matrix(plain, K))
            scale = np.max(np.abs(scalar))
            assert np.max(np.abs(banded - scalar)) <= 1e-14 * scale, K
            assert np.array_equal(banded != 0, scalar != 0), K

    @pytest.mark.parametrize("K", [64, 257])
    @pytest.mark.parametrize("model", [
        make_uniform(0.0), make_uniform(-0.5), reduce_to_one_colour(make_rna()),
        make_two_colour_uniform(1.0, 0.3).white, make_table(3, DMAX3_ENTRIES),
    ], ids=["uniform-0", "uniform-0.5", "rna-reduced", "two-colour-uniform-white",
            "dmax3"])
    def test_columns_match_pair_loop(self, model, K):
        B = dense_view(_update_matrix(model, K))
        assert B.tobytes() == band_sums_reference(model, K).tobytes()

    def test_band_matrix_memory_is_the_matrix(self):
        # in blocks of columns: the peak stays near the 8 MB dense head,
        # where one K x K index grid would need several such temporaries
        model = random_linear_table(np.random.default_rng(5), 1024)
        tracemalloc.start()
        try:
            B = _update_matrix(model, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert B.head.shape == (1024, 1024)
        assert peak <= 2 * B.head.nbytes

    def test_band_matrix_built_once(self, monkeypatch):
        calls = []
        real = splitgrow.solver._update_matrix

        def counting(model, K):
            calls.append(K)
            return real(model, K)

        monkeypatch.setattr(splitgrow.solver, "_update_matrix", counting)
        for m in (pref_i(), make_uniform(0.0), make_grafting(0.5, 0.5)):
            calls.clear()
            fixed_point_densities(m, K=64)
            # the verdict's matrix at 201 (degrees 1..200), then the solve's
            assert calls == [201, 64], m.family

    def test_singular_system_raises(self, monkeypatch):
        monkeypatch.setattr(splitgrow.solver, "_update_matrix", singular_at(16))
        with pytest.raises(SingularSystemError, match="singular"):
            fixed_point_densities(pref_i(), K=16)

    def test_non_finite_solution_raises(self):
        with pytest.raises(SingularSystemError, match="non-finite"):
            # H = 2^-52, so x = 1e300 * 2^52 overflows
            _hessenberg_solve(np.array([[2.0 ** -52]]), np.array([1e300]), "H")

    @pytest.mark.parametrize("K", [1, 2, 5, 40])
    def test_hessenberg_solve_matches_lapack(self, K):
        # random Hessenberg matrices with tiny diagonals: without the row
        # swaps the multipliers reach 1e10 and the error about 1e-6 here; a
        # general LU solve is the reference
        rng = np.random.default_rng(K)
        H = np.triu(rng.normal(size=(K, K)), -1)
        H[np.diag_indices(K)] *= 1e-10
        rhs = rng.normal(size=K)
        expect = np.linalg.solve(H, rhs)
        x = _hessenberg_solve(H.copy(), rhs.copy(), "H")
        assert np.max(np.abs(x - expect)) <= 1e-10 * max(1.0, np.max(np.abs(expect)))

    def test_negative_density_fails_monotone_check(self):
        # weights 1, 2, 9 are not linear in the degree: refused unless
        # forced, and the forced solve is not a density either
        m = make_table(3, [(1, 2, 1.0), (1, 3, 1.0), (2, 3, 3.0)])
        with pytest.raises(RegimeError, match=r"linearity \(max \|w_i - \(1\*i\+0\)\| = 6 "):
            fixed_point_densities(m)
        with pytest.raises(NonPositiveError, match="min rho = -3.333e-01"):
            fixed_point_densities(m, force_unsupported=True)


def update_matrix_models():
    """(id, model) pairs for the structured update matrix checks: the tail
    families and the partitions declared ``by_split_degree``."""
    tc_grafting = make_two_colour_grafting(1.0, 0.0, 0.5).white
    return [
        ("pref-b0", pref_i()),
        ("pref-b-0.5", make_preferential(SplittingWeights(1.0, -0.5))),
        ("pref-b2", make_preferential(SplittingWeights(1.0, 2.0))),
        ("grafting", make_grafting(0.5, 0.5)),
        ("two-colour-grafting-white", tc_grafting),
        ("alpha-head", make_alpha_class(
            SplittingWeights(1.0, 1.0), [0.8, 0.6, 0.5], M=3,
            head=PartitionWeights.from_table(3, [(1, 2, 2.0), (1, 3, 1.0), (2, 2, 1.0)]))),
        ("uniform", make_uniform(0.0)),
        ("rna-reduced", reduce_to_one_colour(make_rna())),
        ("two-colour-uniform-reduced",
         reduce_to_one_colour(make_two_colour_uniform(1.0, 0.3))),
    ]


def split_degree_models():
    """(id, model) pairs of the partitions declared ``by_split_degree``."""
    return [
        ("uniform-0", make_uniform(0.0)), ("uniform-1.5", make_uniform(1.5)),
        ("uniform-0.5", make_uniform(-0.5)), ("uniform-200", make_uniform(200.0)),
        ("rna-reduced", reduce_to_one_colour(make_rna())),
        ("two-colour-uniform-reduced",
         reduce_to_one_colour(make_two_colour_uniform(1.0, 0.3))),
    ]


def dense_stationary_system(model, K, clo):
    """The solve's system at K from the dense oracle matrix: rows 2..K of
    ``(B - diag(w_2 + w_k)) a = 0`` and row 1 ``sum a = 1``, with the
    closure ``clo`` in the last column of rows 1 (``Q0``) and 2 (``Qh``)."""
    A = dense_band_sums(model, K) - np.diag(model.w2 + model.splitting_weights(K))
    A[0, :] = 1.0
    A[0, K - 1] += clo.Q0
    A[1, K - 1] += clo.Qh
    return A, np.eye(K)[0]


class TestUpdateMatrix:
    """The structured update matrix against the dense column-by-column
    oracle, and the O(K) tail elimination against dense solves."""

    @pytest.mark.parametrize("K", [16, 128, 1024])
    @pytest.mark.parametrize("name,model", update_matrix_models(),
                             ids=[n for n, _ in update_matrix_models()])
    def test_matches_dense_oracle(self, name, model, K):
        B = _update_matrix(model, K)
        dense = dense_band_sums(model, K)
        assert B.K == K
        assert dense_view(B).tobytes() == dense.tobytes()
        x = np.random.default_rng(K).uniform(size=K)
        if model.partition.by_split_degree:
            assert B.head_size == 0 and B.head.size + len(B.g) + len(B.h) == 0
            assert len(B.beta) == K
        else:
            assert B.head_size == max(model.partition.tail.start, 2)
            assert B.head.size + len(B.g) + len(B.h) <= 4 * K + 16
        scale = np.abs(dense) @ x
        assert np.all(np.abs(B @ x - dense @ x) <= 1e-15 * scale)

    @pytest.mark.parametrize("K", [16, 128, 1024])
    def test_random_tables_match_dense_oracle(self, K):
        rng = np.random.default_rng(K)
        for _ in range(3 if K < 1024 else 1):
            m = random_linear_table(rng, K)
            B = _update_matrix(m, K)
            dense = dense_band_sums(m, K)
            assert B.head_size == K
            assert dense_view(B).tobytes() == dense.tobytes()
            x = rng.uniform(size=K)
            assert (B @ x).tobytes() == (dense @ x).tobytes()

    @pytest.mark.parametrize("name,model", update_matrix_models(),
                             ids=[n for n, _ in update_matrix_models()])
    def test_column_sums_match_dense_oracle(self, name, model):
        # the verdict's derived weights: every layout, with the last column
        # (no subdiagonal) in a tail, a head and the beta layout
        tail = model.partition.tail
        for K in sorted({2, 3, tail.start if tail else 2, 201}):
            sums = _update_matrix(model, K).column_sums()
            dense = dense_band_sums(model, K).sum(axis=0)
            assert np.all(np.abs(sums - dense) <= 1e-12 * np.abs(dense)), K

    @pytest.mark.parametrize("K", [16, 128, 1024])
    @pytest.mark.parametrize("name,model", update_matrix_models(),
                             ids=[n for n, _ in update_matrix_models()])
    def test_fixed_point_matches_dense_solve(self, name, model, K):
        A, c = dense_stationary_system(model, K, splitgrow.solver._closure_for(model, K))
        expect = np.linalg.solve(A, c)
        sol = fixed_point_densities(model, K=K)
        assert np.max(np.abs(sol.densities - expect)) <= 1e-14
        if sol.closure.kind != "none":       # zero-tail truncation at K = 16
            res = sol.residuals
            assert max(res.max_abs, res.sum_dev, res.moment_dev) <= 1e-14
        assert sol.head_size == _update_matrix(model, K).head_size

    @pytest.mark.parametrize("name,model", update_matrix_models(),
                             ids=[n for n, _ in update_matrix_models()])
    def test_fixed_point_matches_iteration(self, name, model):
        direct = fixed_point_densities(model, K=64)
        iterated = iterate_from_below(model, K=64, tol=1e-15, max_iter=300_000)
        assert np.max(np.abs(direct.densities - iterated[-1])) <= 1e-12
        assert np.diff(iterated, axis=0).min() >= -1e-15

    @pytest.mark.parametrize("model", [pref_i(), make_grafting(0.5, 0.5),
                                       make_grafting(0.0, 1.0)],
                             ids=["pref", "grafting", "recursive-tree"])
    def test_normalised_solve_matches_dense_solve(self, model):
        # the system of the forced solve, on tail families with s > 0 so
        # that the tail rows carry mass: row 1 sums the tail products and
        # row 2 folds the h band
        K = 200
        expect = np.linalg.solve(*dense_stationary_system(model, K, TailClosure("none")))
        B = _update_matrix(model, K)
        B.closure = TailClosure("none")
        got = splitgrow.solver._solve_stationary(
            B, model.w2 + model.splitting_weights(K), "H")
        assert np.max(np.abs(got - expect)) <= 1e-14

    def test_forced_solve_with_tail(self):
        # alpha = 1, gamma = 3/4: degree-2 splits shed no leaf (g(2) = 0), so
        # s = 0; the forced solve folds the tail columns, which carry no mass
        model = make_grafting(1.0, 0.75)
        K = 64
        expect = np.linalg.solve(*dense_stationary_system(model, K, TailClosure("none")))
        sol = fixed_point_densities(model, K=K, force_unsupported=True)
        assert sol.unsupported and sol.method == "linear-truncated"
        assert np.max(np.abs(sol.densities - expect)) <= 1e-14
        assert (sol.closure.kind, sol.head_size, sol.closure.reason) == (
            "none", 2, "forced solve truncates with a zero tail")

    def test_forced_solve_on_split_degree_partition(self):
        # w_black = 1 is constant, so the leaf mass 2/(i+1) tends to s = 0;
        # the forced solve runs the backward recurrence, normalised
        model = reduce_to_one_colour(make_two_colour_uniform(1.5, 1.0))
        K = 64
        expect = np.linalg.solve(*dense_stationary_system(model, K, TailClosure("none")))
        sol = fixed_point_densities(model, K=K, force_unsupported=True)
        assert sol.unsupported and sol.method == "linear-truncated"
        assert np.max(np.abs(sol.densities - expect)) <= 1e-14
        assert (sol.closure.kind, sol.head_size, sol.closure.reason) == (
            "none", 0, "forced solve truncates with a zero tail")

    def test_forced_split_degree_solve_memory_is_linear(self):
        # the whole matrix made dense would be 32 MiB at K = 2048; the
        # recurrence allocates only O(K) vectors
        model = reduce_to_one_colour(make_two_colour_uniform(1.5, 1.0))
        tracemalloc.start()
        try:
            sol = fixed_point_densities(model, K=2048, force_unsupported=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 20
        assert sol.unsupported and sol.head_size == 0
        assert abs(sol.sum_a - 1.0) <= 1e-15

    def test_tail_family_solve_memory_is_linear(self):
        # one dense K x K matrix at MAX_DEGREE is 512 MiB; the tail family
        # allocates only O(K) vectors
        tracemalloc.start()
        try:
            sol = fixed_point_densities(pref_i(), K=MAX_DEGREE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20
        assert sol.closure.kind == "gamma" and sol.head_size == 2
        assert sol.residuals.max_abs <= 1e-14

    @pytest.mark.parametrize("model,kind", [
        (pref_i(), "gamma"), (make_grafting(0.0, 1.0), "geometric"),
        (make_uniform(0.0), "none"),
    ], ids=["gamma", "geometric", "uniform"])
    def test_closure_kind(self, model, kind):
        sol = fixed_point_densities(model, K=32)
        assert sol.closure.kind == kind
        assert bool(sol.closure.reason) == (kind == "none")

    @pytest.mark.parametrize("name,model", split_degree_models(),
                             ids=[n for n, _ in split_degree_models()])
    def test_split_degree_tail_is_super_exponential(self, name, model):
        # the reason every declared partition reports: a_k/a_{k-1} < 2/k,
        # and doubling K leaves the degrees k <= 60 unchanged
        sol = fixed_point_densities(model, K=128)
        wide = fixed_point_densities(model, K=256).densities
        a = sol.densities
        assert (sol.closure.kind, sol.head_size, sol.closure.reason) == (
            "none", 0, "super-exponential tail; zero-tail truncation used")
        assert sol.warnings == [sol.closure.reason]
        k = np.arange(2, 101)
        assert np.all(k * a[k - 1] / a[k - 2] < 2.0)
        assert np.max(np.abs(a[:60] - wide[:60]) / wide[:60]) <= 1e-14

    def test_undeclared_partition_keeps_its_reason(self):
        # the same uniform weights, undeclared, take the dense head
        model = WeightModel(PartitionWeights(make_uniform(0.0).partition),
                            SplittingWeights(1.0, 0.0), leaf_mass_limit=2.0)
        sol = fixed_point_densities(model, K=32)
        assert (sol.closure.kind, sol.head_size, sol.closure.reason) == (
            "none", 32, "no tail metadata")
        expect = fixed_point_densities(make_uniform(0.0), K=32).densities
        assert np.max(np.abs(sol.densities - expect)) <= 1e-15

    def test_split_degree_solve_at_4096(self):
        # a_1/a_K is about 10^13000 at K = 4096, far beyond a double; the
        # backward recurrence carries ratios only
        wide = fixed_point_densities(make_uniform(0.0), K=4096)
        a = fixed_point_densities(make_uniform(0.0), K=1024).densities
        assert np.max(np.abs(wide.densities[:60] - a[:60]) / a[:60]) <= 1e-14
        assert wide.monotone_ok and wide.residuals.max_abs <= 1e-15

    def test_split_degree_solve_makes_no_hessenberg_call(self, monkeypatch):
        calls = []
        real = splitgrow.solver._hessenberg_solve

        def counting(H, rhs, what):
            calls.append(len(rhs))
            return real(H, rhs, what)

        monkeypatch.setattr(splitgrow.solver, "_hessenberg_solve", counting)
        fixed_point_densities(make_uniform(0.0), K=256)
        solve_two_colour(make_rna(), K=256)
        assert calls == []
        fixed_point_densities(make_table(3, DMAX3_ENTRIES))      # the counter counts
        assert calls == [3]

    def test_split_degree_solve_memory_is_linear(self):
        # one K x K array is 8 MB at K = 1024
        model, rna = make_uniform(0.0), make_rna()
        tracemalloc.start()
        try:
            sol = fixed_point_densities(model, K=1024)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            two = solve_two_colour(rna, K=1024)
            peak2 = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(peak, peak2) <= 2 ** 20
        assert sol.head_size == two.one_colour.head_size == 0

    @pytest.mark.parametrize("split,mass,K,match", [
        (5000, 0.0, 5001, "degree-5000 vertices never split"),
        (10, 1.2, 10, "divides by zero at degree 10"),
    ], ids=["zero-leaf-mass", "zero-divisor"])
    def test_split_degree_recurrence_refusals(self, split, mass, K, match):
        # negative controls: uniform weights for w_i = i, but with weight
        # ``mass`` on every pair of one split degree.  An empty degree-5000
        # class is past the regime scan (degree 4096), so only the solve
        # sees it.  At degree 10, beta_10 = 10*1.2 = w_2 + w_10, so the ratio
        # a_10/a_9 that row K = 10 gives has a zero divisor; that mass makes
        # the weights non-linear, so the model is solved forced, which runs
        # the same recurrence
        def fn(i, j):
            d = np.maximum(i + j - 2, 1)
            return np.where(i + j - 2 < 1, 0.0, np.where(d == split, mass, 2.0 / (d + 1)))

        model = WeightModel(PartitionWeights(fn, by_split_degree=True),
                            SplittingWeights(1.0, 0.0), leaf_mass_limit=2.0)
        assert fixed_point_densities(model, K=split - 1, force_unsupported=True).monotone_ok
        with pytest.raises(SingularSystemError, match=match):
            fixed_point_densities(model, K=K, force_unsupported=True)

    def test_zero_closure(self):
        # g = 0 past the tail start: the degrees beyond K carry no mass
        tail = LinearTail(start=2, pg=0.0, qg=0.0)
        clo = splitgrow.solver._tail_closure(tail, 2.0, 16)
        assert clo.kind == "zero" and clo.Q0 == clo.Qg == clo.Qh == 0.0

    def test_divergent_moment_has_no_closure(self):
        # w = i - 1: pg = 1 and w_2 = 1, so the tail ratio a_i/a_{i-1} =
        # (i-2)/i makes a_i fall like i^-2 and sum k*a_k diverge
        clo = _update_matrix(make_preferential(SplittingWeights(1.0, -1.0)), 64).closure
        assert (clo.kind, clo.reason) == ("none", "sum k*a_k diverges")
        assert clo.warnings == ("tail closure unavailable; zero-tail truncation used",)

    @pytest.mark.parametrize("pg,qg", [(-0.5, 40.0), (0.0, -1.0)],
                             ids=["pg-negative", "g-negative-past-K"])
    def test_negative_leaf_mass_has_no_closure(self, pg, qg):
        clo = splitgrow.solver._tail_closure(LinearTail(start=2, pg=pg, qg=qg), 2.0, 16)
        assert (clo.kind, clo.reason) == ("none", "negative leaf mass beyond K")

    def test_tail_solve_raises_on_non_finite_products(self):
        # a tail row whose diagonal vanishes gives an infinite ratio
        B = _update_matrix(pref_i(), 8)
        diag = np.concatenate([np.ones(2), B.h[1:]])
        P = B.tail_products(diag)
        assert not np.all(np.isfinite(P))
        with pytest.raises(SingularSystemError, match="non-finite"):
            splitgrow.solver._solve_stationary(B, diag, "H")
