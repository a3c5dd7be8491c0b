import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitgrow import (InvalidParameterError, PartitionWeights, Regime,
                       SplittingWeights, UnknownTailError, WeightModel,
                       classify_regime, derive_splitting_weights, make_alpha_class,
                       make_grafting, make_preferential, make_table, make_uniform,
                       validate_model)
from splitgrow.twocolour import (make_rna, make_two_colour_grafting,
                                 make_two_colour_uniform, reduce_to_one_colour)
from splitgrow.weights import _uniform_partition
from conftest import (DMAX3_ENTRIES, constant_uniform_partition, derived_weights_by_degree,
                      doubled_split_entries, random_linear_table)


def constant_uniform_model(b=1.0):
    """Constant splitting weights w_i = b under uniform partitioning; the
    leaf mass 2b/(i+1) decays to zero."""
    return WeightModel(constant_uniform_partition(b), SplittingWeights(0.0, b),
                       family="custom", leaf_mass_limit=0.0)


class TestDeriveSplittingWeights:
    def test_uniform_identity(self):
        # the family is built so the pair sums reproduce w_i = i exactly
        m = make_uniform(0.0)
        w = derive_splitting_weights(m.partition, 50)
        assert np.allclose(w, np.arange(1, 51), atol=1e-12)

    def test_preferential_identity(self):
        m = make_preferential(SplittingWeights(1.0, 0.5))
        w = derive_splitting_weights(m.partition, 50)
        assert np.allclose(w, np.arange(1, 51) + 0.5, atol=1e-12)

    def test_bounded_table_by_hand(self):
        # w_1 = (1/2)(1+1) = 1; w_2 = (1/2 + 1 + 1/2) = 2; w_3 = (3/2)(1+1) = 3
        pw = PartitionWeights.from_table(3, DMAX3_ENTRIES)
        w = derive_splitting_weights(pw, 3)
        assert np.allclose(w, [1.0, 2.0, 3.0], atol=1e-15)


    @pytest.mark.parametrize("i_max", [1, 2, 31, 32, 33, 64, 65, 200])
    def test_blocks_match_per_degree_oracle(self, i_max):
        # the blocked reader sums the same column entries with fsum, so the
        # weights are those of one call per degree to the bit, across block
        # edges and past a table's bound
        rng = np.random.default_rng(i_max)
        pws = [m.partition for m in contract_models().values()]
        pws += [random_linear_table(rng, 40).partition, constant_uniform_partition(0.7)]
        for pw in pws:
            got = derive_splitting_weights(pw, i_max)
            assert got.tobytes() == derived_weights_by_degree(pw, i_max).tobytes()


class TestValidateModel:
    def test_bounded_table_passes(self, dmax3):
        rep = validate_model(dmax3)
        assert rep.linearity.ok and rep.leaf_reachability.ok and rep.top_splittable.ok
        assert (dmax3.splitting.a, dmax3.splitting.b) == pytest.approx((1.0, 0.0))

    def test_degenerate_dmax2_top_unsplittable(self):
        m = make_table(2, [(1, 2, 1.0)])
        rep = validate_model(m)
        assert rep.top_splittable.ok is False     # index range 2..1 is empty
        assert not rep.ok

    def test_constant_weights_are_linear(self):
        m = constant_uniform_model()
        assert validate_model(m).linearity.ok
        assert (m.splitting.a, m.splitting.b) == pytest.approx((0.0, 1.0))

    def test_table_nonlinear_past_degree_200_fails(self):
        # the linearity row reads the model's own fit, which covers the
        # table to its bound, not only to degree 200
        m = make_table(300, doubled_split_entries())
        assert m.linear_fit_residual == pytest.approx(250.0)
        lin = validate_model(m).linearity
        assert lin.ok is False and lin.detail.endswith("= 250 over i <= 300")

    def test_nonlinear_table_reported(self):
        m = make_table(3, [(1, 2, 1.0), (1, 3, 1.0), (2, 2, 1.0), (2, 3, 5.0)])
        assert not validate_model(m).linearity.ok


class TestClassifyRegime:
    def test_preferential_is_case3(self):
        # i * w[1,i+1] = w_i = i, minimal at i = 1
        regime, s = classify_regime(make_preferential(SplittingWeights(1.0, 0.0)))
        assert regime is Regime.CASE_III and s == pytest.approx(1.0)

    def test_constant_uniform_is_case2(self):
        regime, s = classify_regime(constant_uniform_model())
        assert regime is Regime.CASE_II and s == 0.0

    def test_bounded_table_is_case1(self, dmax3):
        # s = min(1*1, 2*(1/2)) = 1 over i < d_max
        regime, s = classify_regime(dmax3)
        assert regime is Regime.CASE_I and s == pytest.approx(1.0)

    @pytest.mark.parametrize("x", [-0.5, 0.0, 0.5, 1.0])
    def test_uniform_s_is_one_plus_x(self, x):
        # 2(i+x)/(i+1) increases towards 2 whenever x <= 1
        regime, s = classify_regime(make_uniform(x))
        assert regime is Regime.CASE_III and s == pytest.approx(1.0 + x)

    def test_uniform_large_offset_limit(self):
        _, s = classify_regime(make_uniform(2.0))
        assert s == pytest.approx(2.0)

    def test_unknown_tail_raises(self):
        pw = PartitionWeights(lambda i, j: 1.0 / (i + j) ** 3)
        m = WeightModel(pw, SplittingWeights(0.0, 1.0))
        with pytest.raises(UnknownTailError):
            classify_regime(m)

    def test_unknown_tail_names_the_model_fact(self):
        m = WeightModel(constant_uniform_partition(), SplittingWeights(0.0, 1.0))
        with pytest.raises(UnknownTailError, match="leaf_mass_limit"):
            classify_regime(m)

    def test_explicit_limit_hint(self):
        m = WeightModel(constant_uniform_partition(), SplittingWeights(0.0, 1.0),
                        leaf_mass_limit=0.0)
        regime, s = classify_regime(m)
        assert regime is Regime.CASE_II and s == 0.0


# (case, s) and leaf_mass_limit of models whose limit the partition's
# by_split_degree declaration or tail decides, to the bit
LIMIT_CASES = [
    ("uniform -0.9", lambda: make_uniform(-0.9), Regime.CASE_III, 0.09999999999999998, 2.0),
    ("uniform 0", lambda: make_uniform(0.0), Regime.CASE_III, 1.0, 2.0),
    ("uniform 3", lambda: make_uniform(3.0), Regime.CASE_III, 2.0, 2.0),
    ("rna", lambda: reduce_to_one_colour(make_rna()), Regime.CASE_III, 1.0, 2.0),
    ("2c-uniform 1,0.3", lambda: reduce_to_one_colour(make_two_colour_uniform(1.0, 0.3)),
     Regime.CASE_III, 0.8500000000000001, 1.1),
    ("2c-uniform c=0", lambda: reduce_to_one_colour(make_two_colour_uniform(1.5, 1.0)),
     Regime.CASE_II, 0.0, 0.0),
    ("2c-grafting 1,0,0.5",
     lambda: reduce_to_one_colour(make_two_colour_grafting(1.0, 0.0, 0.5)),
     Regime.CASE_III, 1.0, math.inf),
    ("2c-grafting 2,1,0", lambda: reduce_to_one_colour(make_two_colour_grafting(2.0, 1.0, 0.0)),
     Regime.CASE_III, 1.5, math.inf),
    ("2c-grafting c=0", lambda: reduce_to_one_colour(make_two_colour_grafting(1.5, 1.0, 0.0)),
     Regime.CASE_III, 0.9999999999999998, 1.0),
]


class TestLeafMassLimit:
    @pytest.mark.parametrize("name,build,case,s,limit", LIMIT_CASES,
                             ids=[c[0] for c in LIMIT_CASES])
    def test_regime_parity(self, name, build, case, s, limit):
        m = build()
        assert classify_regime(m) == (case, s)
        assert m.leaf_mass_limit == limit

    def test_by_split_degree_declaration_gives_2a(self):
        # w_i = 2i + 3: i*w[1,i+1] = 2(2i+3)/(i+1) falls towards its limit 4;
        # an undeclared partition raises (test_unknown_tail_names_the_model_fact)
        sw = SplittingWeights(2.0, 3.0)
        m = WeightModel(_uniform_partition(sw), sw)
        assert m.leaf_mass_limit == 4.0
        assert classify_regime(m) == (Regime.CASE_III, 4.0)


class TestConstructors:
    def test_grafting_zero_alpha_gamma_one_is_recursive(self):
        m = make_grafting(0.0, 1.0)
        assert [m.w(i) for i in (1, 2, 5, 10)] == pytest.approx([1.0] * 4)
        for i in range(1, 30):
            assert m.partition(1, i + 1) == pytest.approx(1.0 / i)

    def test_uniform_zero_partition_values(self):
        m = make_uniform(0.0)
        for k in range(1, 20):
            for i in range(1, k + 2):
                assert m.partition(i, k + 2 - i) == pytest.approx(2.0 / (k + 1))

    def test_table_constructor(self, dmax3):
        assert dmax3.d_max == 3
        assert classify_regime(dmax3)[0] is Regime.CASE_I
        assert dmax3.w(2) == pytest.approx(2.0)

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 1.0])
    def test_grafting_alpha0_matches_preferential(self, gamma):
        # alpha = 0 shuts off the (2, i) band; leaf weights must agree with
        # the attachment-only model built from the same splitting weights
        g = make_grafting(0.0, gamma)
        p = make_preferential(SplittingWeights(1.0 - gamma, 2.0 * gamma - 1.0))
        for i in range(1, 40):
            assert g.partition(1, i + 1) == pytest.approx(p.partition(1, i + 1), abs=1e-15)

    def test_alpha_class_with_sequence(self):
        m = make_alpha_class(SplittingWeights(1.0, 0.0), [0.6, 0.8, 1.0], M=2)
        assert m.leaf_mass(2) == pytest.approx(0.6 * 2.0)
        assert m.leaf_mass(3) == pytest.approx(0.8 * 3.0)
        assert m.leaf_mass(10) == pytest.approx(10.0)       # final value extends
        regime, s = classify_regime(m)
        assert regime is Regime.CASE_III and s == pytest.approx(1.0)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            make_uniform(-1.0)
        with pytest.raises(InvalidParameterError):
            make_grafting(-0.1, 0.5)
        with pytest.raises(InvalidParameterError):
            make_grafting(1.0, 0.2)          # w_1 = gamma - alpha/2 < 0
        with pytest.raises(InvalidParameterError):
            make_table(3, [(1, 2, -1.0)])
        with pytest.raises(InvalidParameterError):
            make_table(3, [(1, 4, 1.0)])
        with pytest.raises(InvalidParameterError):
            make_alpha_class(SplittingWeights(1.0, 0.0), [1.5], M=2)

    @pytest.mark.parametrize("alpha,M,match", [
        ([0.5], 1, "M must be >= 2"), ([0.5], 3, "head table required when M > 2"),
        ([], 2, "alpha sequence must be nonempty"),
    ], ids=["M-1", "M-3-no-head", "empty-alpha"])
    def test_alpha_class_refusals(self, alpha, M, match):
        with pytest.raises(InvalidParameterError, match=match):
            make_alpha_class(SplittingWeights(1.0, 0.0), alpha, M=M)


class TestInvariants:
    @pytest.mark.parametrize("model", [
        make_preferential(SplittingWeights(1.0, 0.0)),
        make_preferential(SplittingWeights(1.0, 0.5)),
        make_preferential(SplittingWeights(0.0, 1.0)),
        make_uniform(0.0),
        make_uniform(-0.5),
        make_uniform(1.0),
        make_grafting(0.0, 1.0),
        make_grafting(0.5, 0.5),
        make_grafting(0.5, 1.0),
        make_alpha_class(SplittingWeights(1.0, 0.5), [0.7, 0.9], M=2),
    ], ids=lambda m: f"{m.family}{m.params}")
    def test_derived_weights_linear_to_200(self, model):
        w = derive_splitting_weights(model.partition, 200)
        expect = model.splitting.a * np.arange(1, 201) + model.splitting.b
        assert np.max(np.abs(w - expect)) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(i=st.integers(1, 120), j=st.integers(1, 120),
           pick=st.integers(0, 3))
    def test_symmetry_probes(self, i, j, pick):
        models = [make_uniform(0.3), make_grafting(0.4, 0.7),
                  make_preferential(SplittingWeights(1.0, 1.0)),
                  make_table(3, DMAX3_ENTRIES)]
        m = models[pick]
        assert m.partition(i, j) == m.partition(j, i)

    def test_split_probabilities_normalised(self):
        rng = np.random.default_rng(0)
        for m in (make_uniform(0.5), make_grafting(0.3, 0.6),
                  make_preferential(SplittingWeights(1.0, 0.0))):
            for i in (1, 2, 3, 7, 20):
                p = m.split_probabilities(i)
                assert p.sum() == pytest.approx(1.0, abs=1e-12)
                assert (p >= 0).all()

    def test_random_linear_tables_pass_linearity(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            m = random_linear_table(rng, int(rng.integers(2, 8)))
            assert validate_model(m).linearity.ok


def contract_models():
    """Every built-in partition family, one instance each."""
    head = PartitionWeights.from_table(3, [(1, 2, 2.0), (1, 3, 1.0), (2, 2, 1.0)])
    return {
        "preferential": make_preferential(SplittingWeights(1.0, -0.9)),
        "uniform": make_uniform(0.0),
        "grafting": make_grafting(0.5, 0.5),
        "alpha-head": make_alpha_class(SplittingWeights(1.0, 1.0), [0.8, 0.6, 0.5],
                                       M=3, head=head),
        "table": make_table(3, DMAX3_ENTRIES),
        "two-colour-uniform-white": make_two_colour_uniform(1.0, 0.3).white,
        "two-colour-grafting-white": make_two_colour_grafting(1.0, 0.5, 0.5).white,
        "rna-reduced": reduce_to_one_colour(make_rna()),
    }


class TestArrayContract:
    @pytest.mark.parametrize("name", list(contract_models()))
    def test_array_call_equals_scalar_calls(self, name):
        pw = contract_models()[name].partition
        i, j = np.meshgrid(np.arange(0, 67), np.arange(0, 67), indexing="ij")
        keep = i + j <= 66
        i, j = i[keep], j[keep]
        scalar = np.array([pw(int(a), int(b)) for a, b in zip(i, j)])
        arr = pw(i, j)
        assert arr.dtype == np.float64 and arr.shape == i.shape
        assert arr.tobytes() == scalar.tobytes()
        assert isinstance(pw(2, 3), float)

    @pytest.mark.parametrize("family,params", [
        *[("uniform", (x,)) for x in (0.0, 1.5, -0.5, 200.0, 0.3)],
        *[("two-colour-uniform", ab) for ab in ((1.0, 0.0), (1.5, 1.0), (2.0, 0.3),
                                                (1.0, 0.6))],
        *[("two-colour-grafting", p) for p in ((1.0, 0.0, 0.5), (1.0, 0.5, 0.5),
                                               (2.0, 0.3, 0.1), (1.7, 0.2, 0.0))],
    ])
    def test_shared_partitions_keep_their_bytes(self, family, params):
        # each family once wrote its own partition; the expressions it used
        # are the reference for the shared ones that replace them
        def uniform(x):
            def fn(i, j):
                d = i + j - 2
                dd = np.maximum(d, 1)
                return np.where(d >= 1, 2.0 * (dd + x) / (dd * (dd + 1)), 0.0)
            return make_uniform(x).partition, fn

        def two_colour_uniform(a, b):
            c = a - 1.5 * b

            def fn(i, j):
                d = i + j - 2
                dd = np.maximum(d, 1)
                return np.where(d >= 1, 2.0 * (c * dd + a) / (dd * (dd + 1)), 0.0)
            return make_two_colour_uniform(a, b).white.partition, fn

        def two_colour_grafting(a, b, alpha0):
            c = a - 1.5 * b
            pg, ww = c - alpha0 / 2.0, SplittingWeights(c, a)

            def fn(i, j):
                d = i + j - 2
                dd = np.maximum(d, 1)
                h = alpha0 * dd / 2.0
                w = np.where(i == 1, (pg * dd + a) / dd,
                             np.where(i == 2, np.where(d == 2, h, h / dd), 0.0))
                return np.where(d < 1, 0.0, np.where(d == 1, ww(1), w))
            return make_two_colour_grafting(a, b, alpha0).white.partition, fn

        pw, reference = {"uniform": uniform, "two-colour-uniform": two_colour_uniform,
                         "two-colour-grafting": two_colour_grafting}[family](*params)
        i, j = np.meshgrid(np.arange(1, 301), np.arange(1, 301), indexing="ij")
        keep = (i <= j) & (i + j - 2 <= 299)
        i, j = i[keep], j[keep]
        assert pw(i, j).tobytes() == reference(i, j).tobytes()

    @pytest.mark.parametrize("fn", [
        lambda i, j: 1.0 if i == 1 else 0.0,                   # scalar branch
        lambda i, j: {(1, 2): 1.0}.get((i, j), 0.0),            # dict lookup
        lambda i, j: 1.0,                                      # wrong shape
    ], ids=["branch", "dict", "shape"])
    def test_scalar_only_fn_refused(self, fn):
        with pytest.raises(InvalidParameterError, match="array"):
            PartitionWeights(fn)

    def test_out_of_range_masked(self):
        pw = make_table(3, DMAX3_ENTRIES).partition
        got = pw(np.array([0, 1, 1, 3, 4, -1]), np.array([2, 3, 4, 2, 1, 5]))
        assert got.tolist() == [0.0, 0.5, 0.0, 1.0, 0.0, 0.0]

    def test_split_cache_holds_support_only(self):
        m = make_preferential(SplittingWeights(1.0, -0.9))
        k = m.sample_split(2000, np.random.default_rng(0))
        ks, cum, total = m._split_cache[2000]
        assert ks == [1, 2001] and len(cum) == 2 and k in ks
        assert total == pytest.approx(m.w(2000))

    @pytest.mark.parametrize("name", ["grafting", "alpha-head", "table", "uniform"])
    def test_support_draw_matches_full_cumulative(self, name):
        # bisecting the full running sums (zero-weight pairs repeat the
        # previous value) picks the same child degree as the support alone
        m = contract_models()[name]
        rng = np.random.default_rng(5)
        for i in range(1, (m.d_max or 12) + 1):
            full, total = [], 0.0
            for k in range(1, i + 2):
                total += (i / 2.0) * m.partition(k, i + 2 - k)
                full.append(total)
            ks, cum, got_total = m.split_distribution(i)
            assert got_total == total
            assert len(ks) == np.count_nonzero(m.split_probabilities(i))
            for u in rng.random(50):
                assert ks[bisect.bisect_right(cum, u * total)] == \
                    bisect.bisect_right(full, u * total) + 1


def full_column_split_distribution(m, i):
    """The split law read from the whole column k = 1..i+1."""
    k = np.arange(1, i + 2)
    col = (i / 2.0) * m.partition(k, i + 2 - k)
    cum = np.cumsum(col)
    return (k[col > 0].tolist(), cum[col > 0].tolist(), float(cum[-1]))


def law_bits(law):
    """A split law with its floats as hex strings, so -0.0 and 0.0 differ."""
    ks, cum, total = law
    return ks, [c.hex() for c in cum], total.hex()


def tail_split_models():
    sw = SplittingWeights(1.0, 0.5)
    models = {
        "pref-b0": make_preferential(SplittingWeights(1.0, 0.0)),
        "pref-b0.5": make_preferential(SplittingWeights(1.0, 0.5)),
        "pref-b-0.5": make_preferential(SplittingWeights(1.0, -0.5)),
        "pref-b-0.9": make_preferential(SplittingWeights(1.0, -0.9)),
        "pref-b2": make_preferential(SplittingWeights(1.0, 2.0)),
        "grafting": make_grafting(0.5, 0.5),
        "grafting-1-1": make_grafting(1.0, 1.0),
        "two-colour-grafting-white": make_two_colour_grafting(1.0, 0.2, 0.5).white,
        "two-colour-uniform-white": make_two_colour_uniform(1.0, 0.3).white,
    }
    # tail starts 2..5: the alpha sequence's last value extends to the tail
    for length in range(1, 5):
        models[f"alpha-start-{length + 1}"] = make_alpha_class(
            sw, [0.9, 0.7, 0.6, 0.5][:length], M=2)
    return models


@pytest.mark.parametrize("name", list(tail_split_models()))
def test_tail_split_law_matches_full_column(name):
    # past the tail start the law is computed from g(i)/i and h(i)/i in
    # scalar arithmetic; the families' partitions read the same bands from
    # their tails, and the zeros between the four pairs add exactly, so the
    # law has the bits of the whole column's running sums
    m = tail_split_models()[name]
    for i in range(1, 2001):
        assert law_bits(m.split_distribution(i)) == \
            law_bits(full_column_split_distribution(m, i)), i
