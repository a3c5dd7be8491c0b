import hashlib
import io
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

import splitgrow.growth as growth
from splitgrow.experiment import _check_holds
from splitgrow import (CensusSnapshot, DegeneracyError, InvalidDegreeError,
                       InvalidParameterError, LinearTail, OrderedTree, PartitionWeights,
                       SplittingWeights, UrnState, WeightModel, make_grafting,
                       make_preferential, make_table, make_uniform, run, run_batch,
                       write_census_csv)
from splitgrow.growth import TwoColourSnapshot, TwoColourState
from splitgrow.twocolour import make_rna, make_two_colour_grafting
from conftest import DMAX3_ENTRIES, random_linear_table


def pref_i():
    return make_preferential(SplittingWeights(1.0, 0.0))


def chi_square_ok(observed, probs, alpha=1e-3):
    n = observed.sum()
    expected = probs * n
    keep = expected > 5
    stat, p = scipy.stats.chisquare(observed[keep], expected[keep] * n / expected[keep].sum()
                                    if not keep.all() else expected[keep])
    return p > alpha


class Scripted:
    """A generator that returns the given uniforms in turn."""

    def __init__(self, *us):
        self.us = list(us)

    def random(self):
        return self.us.pop(0)


class Classes(growth._CensusUrn):
    """A census urn with given class weights and, optionally, a running
    total that differs from the exact sum."""

    def __init__(self, weights, counts, total=None):
        self._weights = weights
        super().__init__(counts)
        if total is not None:
            self.total_weight = total

    def _class_weight(self, c):
        return self._weights[c]


# sample_class: the class draw of the census urn both census engines share
class TestClassSampler:
    def test_weights_grow_with_counts(self):
        # the class weights stay aligned with the census as it grows, and the
        # running total matches the exact sum of the class masses
        model = make_grafting(0.3, 0.7)
        urn = UrnState.single_edge(model)
        rng = np.random.default_rng(4)
        for _ in range(300):
            urn.step(rng)
        weights = urn.weights
        assert len(weights) == len(urn.counts) > 2
        assert weights == [model.w(d) for d in range(1, len(urn.counts) + 1)]
        exact = sum(n * w for n, w in zip(urn.counts, weights))
        assert urn.total_weight == pytest.approx(exact, rel=1e-12)

    def test_zero_total_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DegeneracyError, match="not positive"):
            Classes([1.0, 2.0], [0, 0]).sample_class(rng)
        # a total left over by rounding while no class has weight
        with pytest.raises(DegeneracyError, match="no class"):
            Classes([1.0, 0.0], [0, 3], total=1e-16).sample_class(rng)

    def test_frequencies_match_weights(self):
        # class 0 has members but zero weight, so it is never drawn, and
        # empty classes lie between occupied ones
        weights = [0.0, 1.0, 4.0, 2.0, 1.0] + [0.5] * 20
        counts = [3, 2, 1, 1, 2] + [0] * 19 + [4]
        mass = np.array(counts) * np.array(weights)
        urn = Classes(weights, counts)
        assert urn.total_weight == mass.sum()
        rng = np.random.default_rng(123)
        hits = np.zeros(len(counts))
        n = 200_000
        for _ in range(n):
            hits[urn.sample_class(rng)] += 1
        assert not hits[mass == 0].any()
        keep = mass > 0
        assert chi_square_ok(hits[keep], mass[keep] / mass.sum())

    def test_dynamic_update_frequencies(self):
        # census (n_1, n_2) = (2, 1) with w_i = i; splitting a leaf into
        # degrees (2, 1) gives (n_1, n_2) = (2, 2), so P(degree 2) moves
        # from 2/4 to 4/6 between the draws (degree d is class d-1)
        urn = UrnState(pref_i(), [2, 1])
        rng = np.random.default_rng(7)
        n = 100_000
        before = sum(urn.sample_class(rng) == 1 for _ in range(n))
        # the class uniform 0 draws a leaf, whose every split is (1, 2) or (2, 1)
        assert urn.step(Scripted(0.0, 0.7)).parent_degree == 1
        assert urn.counts[:2] == [2, 2]
        after = sum(urn.sample_class(rng) == 1 for _ in range(n))
        assert chi_square_ok(np.array([n - before, before]), np.array([0.5, 0.5]))
        assert chi_square_ok(np.array([n - after, after]), np.array([1 / 3, 2 / 3]))

    def test_end_of_draw_guard(self):
        # a running total a few ulps above the exact sum lets the draw pass
        # every class; the guard returns the last class with positive
        # weight, never a trailing empty or zero-weight one
        class Top:
            def random(self):
                return 1.0 - 2.0 ** -53

        weights = [1.0, 1.0, 1.0, 3.0, 0.0, 7.0]
        counts = [0, 2, 0, 1, 5, 0]
        assert Classes(weights, counts).sample_class(Top()) == 3
        assert Classes(weights, counts, total=5.0 * (1 + 4e-16)).sample_class(Top()) == 3
        # a zero-weight class before the only positive one is passed over
        assert Classes([0.0, 2.0], [4, 1], total=2.0 * (1 + 4e-16)).sample_class(Top()) == 1

    def test_draw_boundaries(self):
        # a draw x = u * W goes to the class c with sum_{b<c} m_b <= x <
        # sum_{b<=c} m_b, exact at the edges of the masses 2, 0, 2, 4
        class Fixed:
            def __init__(self, u):
                self.u = u

            def random(self):
                return self.u

        urn = Classes([2.0, 1.0, 1.0, 1.0], [1, 0, 2, 4])
        got = [urn.sample_class(Fixed(x / 8.0)) for x in (0.0, 1.0, 2.0, 3.5, 4.0, 7.5)]
        assert got == [0, 0, 2, 2, 3, 3]


class TestSampleVertex:
    def test_single_edge_symmetric(self):
        # two degree-1 vertices: each drawn with probability 1/2
        tree = OrderedTree.single_edge(pref_i())
        rng = np.random.default_rng(11)
        n = 1_000_000
        hits = sum(tree.sample_vertex(rng) for _ in range(n))
        se = math.sqrt(n * 0.25)
        assert abs(hits - n / 2) <= 4 * se

    def test_urn_degree_probability(self):
        # census (n_1, n_2) = (2, 1) with w_i = i: the total weight is
        # w_2*t - 2a = 2*3 - 2 = 4 and P(degree 2) = 2*1/4 = 1/2; degree 2
        # is class 1
        urn = UrnState(pref_i(), [2, 1])
        assert urn.total_weight == pytest.approx(4.0)
        assert urn.checks()["weight_closed_form_rel_dev"] == 0
        rng = np.random.default_rng(5)
        n = 200_000
        hits = sum(urn.sample_class(rng) == 1 for _ in range(n))
        assert abs(hits - n / 2) <= 4 * math.sqrt(n * 0.25)

    def test_tree_degree_weighted(self):
        # path on 4 vertices: degrees (1, 2, 2, 1), w_i = i; each inner
        # vertex is twice as likely as each leaf
        tree = OrderedTree.from_edges(pref_i(), [(0, 1), (1, 2), (2, 3)])
        rng = np.random.default_rng(17)
        counts = np.zeros(4)
        n = 120_000
        for _ in range(n):
            counts[tree.sample_vertex(rng)] += 1
        assert chi_square_ok(counts, np.array([1, 2, 2, 1]) / 6.0)

    @pytest.mark.parametrize("model,weights", [
        (make_preferential(SplittingWeights(1.0, -0.9)), [0.1, 2.1, 0.1, 1.1, 0.1]),
        (make_table(3, DMAX3_ENTRIES), [1.0, 3.0, 1.0, 2.0, 1.0]),
    ], ids=["rejection-pref-i-0.9", "bounded-dmax3"])
    def test_tree_envelope_paths(self, model, weights):
        # degrees (1, 3, 1, 2, 1).  w_i = i - 0.9 proposes a vertex by its
        # degree and keeps it with probability w_d / d; the dmax3 table
        # (w_d = 1, 2, 3) proposes uniformly and keeps with probability w_d / 3
        tree = OrderedTree.from_edges(model, [(0, 1), (1, 2), (1, 3), (3, 4)])
        assert [model.w(tree.degree(v)) for v in range(tree.t)] == pytest.approx(weights)
        rng = np.random.default_rng(19)
        counts = np.zeros(5)
        n = 120_000
        for _ in range(n):
            counts[tree.sample_vertex(rng)] += 1
        assert chi_square_ok(counts, np.array(weights) / sum(weights))

    def test_zero_total_raises(self):
        # w_i = i - 1 gives both ends of a single edge weight 0: no vertex can
        # be drawn, so step and run refuse rather than reject forever
        model = make_preferential(SplittingWeights(1.0, -1.0))
        with pytest.raises(DegeneracyError):
            OrderedTree.single_edge(model).step(np.random.default_rng(0))
        with pytest.raises(DegeneracyError):
            run(OrderedTree.single_edge(model), 10, np.random.default_rng(0))


class TestSampleSplitSizes:
    def test_uniform_degree5_all_pairs_equal(self):
        # w_5 = 5 and each pair weight 1/3: all six ordered pairs have
        # probability (5/2)(1/3)/5 = 1/6; this covers the (3, 4) outcome
        m = make_uniform(0.0)
        assert m.split_probabilities(5) == pytest.approx(np.full(6, 1 / 6))
        rng = np.random.default_rng(3)
        counts = np.zeros(6)
        n = 120_000
        for _ in range(n):
            counts[m.sample_split(5, rng) - 1] += 1
        assert chi_square_ok(counts, np.full(6, 1 / 6))

    def test_preferential_only_leaf_pairs(self):
        m = pref_i()
        for i in (1, 2, 5, 12):
            p = m.split_probabilities(i)
            assert p[0] == pytest.approx(0.5)
            assert p[-1] == pytest.approx(0.5)
            assert p[1:-1] == pytest.approx(np.zeros(max(i - 1, 0)))

    def test_uniform_degree4_middle_pair(self):
        # w[3,3] = 2/5, so the (3,3) outcome has probability (4/2)(2/5)/4 = 1/5
        m = make_uniform(0.0)
        assert m.partition(3, 3) == pytest.approx(2 / 5)
        assert m.split_probabilities(4)[2] == pytest.approx(1 / 5)


class TestTreeSplits:
    def test_leaf_split_census(self):
        # splitting a degree-1 vertex with k = 1 keeps n_1 and adds one
        # degree-2 vertex
        tree = OrderedTree.single_edge(pref_i())
        ev = tree.split_vertex(0, 1, np.random.default_rng(0))
        assert ev.child_degrees == (1, 2)
        assert tree.counts[:2] == [2, 1]
        assert tree.t == 3 and tree.is_tree()

    def test_star_split_degrees(self):
        # centre of a 5-star split with k = 3 yields children of degrees 3, 4
        m = make_uniform(0.0)
        tree = OrderedTree.from_edges(m, [(0, i) for i in range(1, 6)])
        assert tree.degree(0) == 5
        ev = tree.split_vertex(0, 3, np.random.default_rng(1))
        assert ev.parent_degree == 5 and ev.child_degrees == (3, 4)
        assert sorted(len(tree.neighbours(v)) for v in range(tree.t)
                      if len(tree.neighbours(v)) > 1) == [3, 4]
        assert tree.is_tree()

    def test_cyclic_arc_is_contiguous(self):
        # neighbours 1..5 in cyclic order; with arrangement p the first
        # child's neighbour arc must be contiguous modulo 5
        m = make_uniform(0.0)
        for seed in range(8):
            tree = OrderedTree.from_edges(m, [(0, i) for i in range(1, 6)])
            ev = tree.split_vertex(0, 3, np.random.default_rng(seed))
            child = next(v for v in range(tree.t)
                         if len(tree.neighbours(v)) == 3)
            arc = [u for u in tree.neighbours(child) if 1 <= u <= 5]
            start = (ev.arrangement + 1)
            expect = [(ev.arrangement + m_) % 5 + 1 for m_ in range(2)]
            assert arc == expect

    @pytest.mark.parametrize("model", [pref_i(), make_uniform(0.0),
                                       make_grafting(0.5, 0.5)],
                             ids=["pref", "uniform", "grafting"])
    def test_census_identities_every_step(self, model):
        tree = OrderedTree.single_edge(model)
        rng = np.random.default_rng(42)
        a = model.splitting.a
        for _ in range(500):
            tree.step(rng)
            checks = tree.checks()
            assert checks["census_sum_dev"] == 0 and checks["census_moment_dev"] == 0
            assert checks["weight_rel_drift"] <= 1e-9
            assert checks["weight_closed_form_rel_dev"] <= 1e-9
        assert tree.is_tree()

    def test_degree_bound_respected(self):
        m = make_table(3, DMAX3_ENTRIES)
        tree = OrderedTree.single_edge(m)
        rng = np.random.default_rng(9)
        for _ in range(2000):
            tree.step(rng)
        assert max(len(tree.neighbours(v)) for v in range(tree.t)) <= 3

    def test_adjacency_mutual(self):
        tree = OrderedTree.single_edge(make_uniform(0.0))
        rng = np.random.default_rng(13)
        for _ in range(300):
            tree.step(rng)
        for v in range(tree.t):
            for u in tree.neighbours(v):
                assert tree.neighbours(u).count(v) == 1

    def test_sampler_total_stays_consistent(self):
        # the running total the sampler scales its draw by must track the
        # exact weight sum through thousands of updates
        tree = OrderedTree.single_edge(make_grafting(0.3, 0.7))
        rng = np.random.default_rng(29)
        for _ in range(5000):
            tree.step(rng)
        assert tree.checks()["weight_rel_drift"] <= 1e-9

    @pytest.mark.parametrize("model", [make_uniform(0.0), pref_i(), make_grafting(0.3, 0.7)],
                             ids=["uniform", "pref-i", "grafting"])
    def test_tree_kept_across_run_step_and_replay(self, model):
        # run (the leaf-block kernel for pref-i, whose insertions wait in
        # the log), step and apply_to_degree interleaved leave a tree whose
        # census is its degree histogram and passes every replica check
        tree = OrderedTree.single_edge(model)
        rng = np.random.default_rng(17)
        for stop in (300, 700):
            run(tree, stop, rng)
            for _ in range(200):
                i = tree.degree(int(rng.integers(tree.t)))
                tree.apply_to_degree(i, int(model.sample_split(i, rng)), rng)
                tree.step(rng)
            degrees = np.bincount([tree.degree(v) for v in range(tree.t)],
                                  minlength=len(tree.counts) + 1)
            assert tree.counts == degrees[1:].tolist()
            checks = tree.checks()
            assert checks["census_sum_dev"] == checks["census_moment_dev"] == 0
            assert checks["weight_rel_drift"] <= 1e-9 and tree.is_tree()
        assert tree.t == 1100

    def test_replay_picks_a_uniform_vertex_of_the_degree(self):
        # leaves 0, 2, 4, 5 own 4 of the 10 half-edges, next to two
        # degree-3 vertices; a leaf split into degrees (1, 2) keeps its id
        # and owns the even half of the new edge, tree._ends[-2]
        model, edges = pref_i(), [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)]
        rng = np.random.default_rng(23)
        counts = np.zeros(6)
        for _ in range(20_000):
            tree = OrderedTree.from_edges(model, edges)
            tree.apply_to_degree(1, 1, rng)
            counts[tree._ends[-2]] += 1
        assert counts[[1, 3]].sum() == 0
        assert chi_square_ok(counts[[0, 2, 4, 5]], np.full(4, 0.25))

    @pytest.mark.parametrize("i", [0, 4, 2], ids=["zero", "past-census", "empty-class"])
    def test_replay_of_a_missing_degree_refused(self, i):
        # census [3, 0, 1]: the refusal comes before any draw, so the
        # rejection loop never spins on a degree no vertex has
        tree = OrderedTree.from_edges(pref_i(), [(0, 1), (1, 2), (1, 3)])
        rng = np.random.default_rng(31)
        state = rng.bit_generator.state
        with pytest.raises(InvalidParameterError, match=f"no vertex of degree {i}"):
            tree.apply_to_degree(i, 1, rng)
        assert rng.bit_generator.state == state
        assert tree.t == 4 and tree.counts == [3, 0, 1]


    @pytest.mark.parametrize("model,k,match", [
        (pref_i(), 0, "child degree 0 out of range for degree 3"),
        (pref_i(), 5, "child degree 5 out of range for degree 3"),
        (make_table(3, DMAX3_ENTRIES), 1, "split into degrees 1, 4 exceeds d_max = 3"),
    ], ids=["k-0", "k-5", "beyond-d_max"])
    def test_bad_split_refused(self, model, k, match):
        # refused before the arc is drawn, and the tree is left as it was
        tree = OrderedTree.from_edges(model, [(0, 1), (0, 2), (0, 3)])
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(InvalidParameterError, match=match):
            tree.split_vertex(0, k, rng)
        assert rng.bit_generator.state == state
        assert tree.t == 4 and tree.counts == [3, 0, 1] and tree.is_tree()


class TestTreeConstruction:
    def test_half_edges(self):
        # compact ids; each half-edge's twin is owned by the neighbour
        tree = OrderedTree.from_edges(pref_i(), [(0, 1), (1, 2), (1, 3)])
        assert tree.t == 4
        assert tree.neighbours(1) == [0, 2, 3]
        assert tree.counts == [3, 0, 1] and tree.is_tree()

    @pytest.mark.parametrize("edges", [
        [(0, 2)], [(0, 1), (1, 2), (2, 0)], [(0, 1), (2, 3)],
        [(0, 1), (1, 2), (2, 0), (3, 4)], [(0, 1), (0, 1)], [(0, 0)], [],
    ], ids=["gapped-ids", "cycle", "disconnected", "cycle-and-edge", "double-edge",
            "loop", "empty"])
    def test_bad_edge_list_refused(self, edges):
        with pytest.raises(InvalidParameterError):
            OrderedTree.from_edges(pref_i(), edges)

    @pytest.mark.parametrize("adjacency", [
        [[1], [0], None], [[1], [0, 2], [0]], [[1], [0], [5]], [[1], [0, 0]],
    ], ids=["tombstone", "one-sided", "out-of-range", "repeated-neighbour"])
    def test_bad_adjacency_refused(self, adjacency):
        with pytest.raises(InvalidParameterError):
            OrderedTree(pref_i(), adjacency)

    def test_degree_above_bound_refused(self):
        star = [(0, 1), (0, 2), (0, 3), (0, 4)]
        with pytest.raises(InvalidParameterError, match="initial tree has degree 4 > d_max = 3"):
            OrderedTree.from_edges(make_table(3, DMAX3_ENTRIES), star)

    @pytest.mark.parametrize("v", [-1, 2])
    def test_degree_of_a_missing_vertex_refused(self, v):
        with pytest.raises(InvalidParameterError, match=f"no vertex {v}"):
            OrderedTree.single_edge(pref_i()).degree(v)

    def test_unbounded_nonlinear_weights_refused(self):
        # w[i, j] = 1 gives w_i = i(i+1)/2: no envelope A + B*i bounds it
        pw = PartitionWeights(lambda i, j: np.ones(np.broadcast(i, j).shape))
        with pytest.raises(InvalidParameterError, match="linear"):
            OrderedTree.single_edge(WeightModel(pw))


class TestUrnSplits:
    @pytest.mark.parametrize("model,counts,match", [
        (pref_i(), [], "initial census is empty"), (pref_i(), [0, 0], "initial census is empty"),
        (make_table(3, DMAX3_ENTRIES), [1, 0, 0, 1], "initial census exceeds d_max"),
    ], ids=["no-classes", "zero-counts", "beyond-d_max"])
    def test_bad_census_refused(self, model, counts, match):
        with pytest.raises(InvalidParameterError, match=match):
            UrnState(model, counts)

    def test_hand_updates(self):
        # 4-star census: 4 leaves and one degree-4 hub, under uniform
        # partitioning with w_i = i.  Each step takes the class uniform,
        # then the split uniform: the class masses are 4 and 4, then 4, 2
        # and 4, and a split uniform of 1/4 or 1/2 draws the first child
        # degree 1 of a leaf or 3 of the hub
        urn = UrnState(make_uniform(0.0), [4, 0, 0, 1])
        ev = urn.step(Scripted(0.25, 0.25))
        assert (ev.t, ev.parent_degree, ev.child_degrees) == (6, 1, (1, 2))
        assert urn.counts[:2] == [4, 1]          # n_1 unchanged net, n_2 + 1
        ev = urn.step(Scripted(0.75, 0.5))
        assert ev.parent_degree == 4 and ev.child_degrees == (3, 3)
        assert urn.counts[2] == 2 and urn.counts[3] == 0   # n_4 - 1, n_3 + 2
        checks = urn.checks()
        assert checks["census_sum_dev"] == checks["census_moment_dev"] == 0

    def test_coupled_engines_identical_census(self):
        # identical (degree, child-degree) decision streams must yield
        # identical censuses at every step, whatever the arrangement choices
        for seed in range(5):
            m = make_uniform(0.0)
            urn = UrnState.single_edge(m)
            tree = OrderedTree.single_edge(m)
            rng = np.random.default_rng(seed)
            replay = np.random.default_rng(seed + 1000)
            for _ in range(2000):
                ev = urn.step(rng)
                tree.apply_to_degree(ev.parent_degree, ev.child_degrees[0], replay)
                assert tree.counts == urn.counts
        assert tree.t == urn.t == 2002


class TestStepPinned:
    """The census ``step`` of urn and two-colour states, and the tree's
    ``step``, against digests of ``(t, counts, total_weight.hex())`` after
    every one of 3000 steps from ``default_rng(0)``."""

    @pytest.mark.parametrize("make,digest", [
        (lambda: UrnState.single_edge(make_uniform(0.0)),
         "7fe06caf7a751439fa4ef23818bbc7c5a3ad33657ab077adf2a87f8775d67613"),
        (lambda: UrnState.single_edge(make_grafting(0.3, 0.7)),
         "2911e5d4e6e7e22d7ef5c1255d423ef3f71184e5a5c37d8e1386c7cee6c206c1"),
        (lambda: UrnState.single_edge(make_preferential(SplittingWeights(2.0, -0.7))),
         "26160ea50086d97288db2d8094b860ef6810fb1b30e8ae733a23b350d18cdc02"),
        (lambda: TwoColourState.single_edge(make_rna()),
         "fcdfe9ed307fbf3fd19c097c14b0d8b559e033d54dea5936a16552c0a60a4beb"),
        (lambda: TwoColourState.single_edge(make_two_colour_grafting(1.0, 0.5, 0.5)),
         "1d9476ec79eefb03a4b6e109ed6a1c68200d6a872207ec994322ee1772726563"),
        (lambda: OrderedTree.single_edge(make_preferential(SplittingWeights(2.0, -0.7))),
         "546240c2f7b8c4825d7d7e70737baf670f9ec056ac7d480dfe4dda2850ec6d35"),
        (lambda: OrderedTree.single_edge(make_grafting(0.3, 0.7)),
         "780a3fec6bf29cf49770b7ca877a4c1e9e3feec741273837b88a0c33155754c6"),
    ], ids=["urn-uniform", "urn-grafting", "urn-2i-0.7", "rna", "two-colour-grafting",
            "tree-2i-0.7", "tree-grafting"])
    def test_step_digest(self, make, digest):
        state, rng, h = make(), np.random.default_rng(0), hashlib.sha256()
        for _ in range(3000):
            state.step(rng)
            h.update(repr((state.t, list(state.counts),
                           float(state.total_weight).hex())).encode())
        assert h.hexdigest() == digest


class TestRun:
    def test_first_step_forced(self):
        # from a single edge only degree-1 vertices exist, and any split of
        # degree 1 yields the census (2, 1)
        snaps = run(OrderedTree.single_edge(pref_i()), 3, np.random.default_rng(0))
        assert snaps[-1].counts.tolist() == [2, 1]
        assert snaps[-1].identity_deviations() == (0, 0)

    def test_deterministic_given_seed(self):
        a = run(UrnState.single_edge(pref_i()), 3000, np.random.default_rng(77), thin=500)
        b = run(UrnState.single_edge(pref_i()), 3000, np.random.default_rng(77), thin=500)
        assert len(a) == len(b)
        for s, t in zip(a, b):
            assert s.t == t.t and (s.counts == t.counts).all()

    def test_thinning_and_weight_column(self):
        snaps = run(UrnState.single_edge(pref_i()), 1002, np.random.default_rng(1),
                    thin=200)
        assert [s.t for s in snaps][:2] == [2, 202]
        for s in snaps:
            assert s.total_weight == pytest.approx(2.0 * s.t - 2.0)

    def test_backwards_horizon_rejected(self):
        state = UrnState(pref_i(), [2, 1])
        with pytest.raises(InvalidParameterError):
            run(state, 2, np.random.default_rng(0))


# one model per family, shared by every state built from it, so that each
# split-size law is computed once
_PREF_I = pref_i()
_PREF_09 = make_preferential(SplittingWeights(1.0, -0.9))
_UNIFORM = make_uniform(0.0)
_DMAX3 = make_table(3, DMAX3_ENTRIES)
_RNA = make_rna()
_TC_GRAFTING = make_two_colour_grafting(1.0, 0.5, 0.5)
_GRAFTING = make_grafting(0.5, 0.5)
_PREF_I05 = make_preferential(SplittingWeights(1.0, 0.5))
_PREF_2I = make_preferential(SplittingWeights(2.0, 0.0))
_PREF_I_SLOW = make_preferential(SplittingWeights(1.0 / 64, 0.0))

KERNEL_ENGINES = {
    "pref-i": lambda: UrnState.single_edge(_PREF_I),
    "pref-i-0.9": lambda: UrnState.single_edge(_PREF_09),
    # w = i's urn on a clock 64 times slower: a horizon move spans many
    # lifetimes, so a release that ignored the move's length would show
    "pref-i-slow": lambda: UrnState.single_edge(_PREF_I_SLOW),
    "uniform": lambda: UrnState.single_edge(_UNIFORM),
    "dmax3": lambda: UrnState.single_edge(_DMAX3),
    "rna": lambda: TwoColourState.single_edge(_RNA),
    "two-colour-grafting": lambda: TwoColourState.single_edge(_TC_GRAFTING),
    "tree-pref-i": lambda: OrderedTree.single_edge(_PREF_I),
    "tree-pref-i-0.9": lambda: OrderedTree.single_edge(_PREF_09),
    "tree-pref-i+0.5": lambda: OrderedTree.single_edge(_PREF_I05),
    "tree-pref-2i": lambda: OrderedTree.single_edge(_PREF_2I),
    "tree-uniform": lambda: OrderedTree.single_edge(_UNIFORM),
    "tree-grafting": lambda: OrderedTree.single_edge(_GRAFTING),
    "tree-dmax3": lambda: OrderedTree.single_edge(_DMAX3),
}


def stepped(state, t_final, rng, thin=None):
    """The reference for ``run``: one ``state.step`` per event, a snapshot
    before every ``thin``-th step and one at ``t_final``, so one per clock."""
    snaps = []
    steps = 0
    while state.t < t_final:
        if thin and steps % thin == 0:
            snaps.append(state.census())
        state.step(rng)
        steps += 1
    snaps.append(state.census())
    return snaps


def same_tree(a, b):
    """Same half-edge structure; true for census engines."""
    if not isinstance(a, OrderedTree):
        return True
    return a._adj == b._adj and a._ends == b._ends and a.is_tree()


def same_snapshots(a, b):
    return len(a) == len(b) and all(
        s.t == r.t and s.counts.tolist() == r.counts.tolist()
        and s.total_weight.hex() == r.total_weight.hex() for s, r in zip(a, b))


LAW_T = 1500
LAW_SEEDS = range(32)
LAW_REF_SEEDS = range(1000, 1032)
_STEPPED_LAWS: dict = {}


def final_densities(snaps):
    """``n_k / t`` for k <= 8, one row per final snapshot; white then black
    for two-colour snapshots."""
    rows = []
    for snap in snaps:
        parts = (snap.white, snap.black) if isinstance(snap, TwoColourSnapshot) \
            else (snap.counts,)
        row = np.zeros(8 * len(parts))
        for j, part in enumerate(parts):
            n = min(8, len(part))
            row[8 * j:8 * j + n] = part[:n]
        rows.append(row / snap.t)
    return np.array(rows)


def law_z(a, b):
    """Two-sample z-scores of the column means of two replica sets; a
    column equal and constant in both scores 0."""
    se = np.sqrt(a.var(axis=0, ddof=1) / len(a) + b.var(axis=0, ddof=1) / len(b))
    diff = a.mean(axis=0) - b.mean(axis=0)
    return np.where(se > 0, diff / np.where(se > 0, se, 1.0),
                    np.where(diff == 0, 0.0, np.inf))


def stepped_law(name):
    """``final_densities`` of stepped references of a census engine at
    ``LAW_T``, one per seed of ``LAW_REF_SEEDS``, computed once."""
    if name not in _STEPPED_LAWS:
        refs = []
        for seed in LAW_REF_SEEDS:
            ref = KERNEL_ENGINES[name]()
            stepped(ref, LAW_T, np.random.default_rng(seed))
            refs.append(ref.census())
        _STEPPED_LAWS[name] = final_densities(refs)
    return _STEPPED_LAWS[name]


# every engine at thin None and 37, and the census engines once more with an
# event budget small enough that their replicas grow in legs
LAW_CASES = [(name, thin, None) for name in sorted(KERNEL_ENGINES) for thin in (None, 37)] \
    + [(name, 37, 64) for name in sorted(KERNEL_ENGINES) if not name.startswith("tree-")]


INDEPENDENCE_CASES = [(name, budget) for budget in (1200, 300) for name in (
    "pref-i", "pref-i-0.9", "uniform", "rna", "two-colour-grafting")]
# (engine, replicas, budget); None keeps the default budget
SHARED_ROUNDS_CASES = [(name, replicas, budget) for replicas, budget in ((8, None), (32, 8192))
                       for name in ("pref-i", "rna")]
# (engine, replicas, t_final, budget)
HELD_CASES = [("rna", 32, 10_000, None), ("pref-i", 8, 6000, 2048)]


class TestCensusKernel:
    """``run`` hands trees to ``_leaf_kernel`` or ``_tree_kernel``, which
    must leave the tree, the running total's bits, the snapshots and the
    generator exactly where ``tree.step`` leaves them.  Urn and two-colour
    states go to ``run_batch``, which draws differently from ``state.step``
    but must have its law and keep the census identities exactly."""

    @pytest.mark.parametrize("name,thin,budget", LAW_CASES,
                             ids=[f"{n}-{t}" + (f"-budget{b}" if b else "")
                                  for n, t, b in LAW_CASES])
    def test_matches_step_reference(self, name, thin, budget, monkeypatch):
        make = KERNEL_ENGINES[name]
        if budget:
            # each replica grows alone in legs of `budget` events: every leg
            # starts from its census and moves its horizon many times
            monkeypatch.setattr(growth, "_EVENT_BUDGET", budget)
        if not name.startswith("tree-"):
            # census engines: the same law as the stepped references, and
            # snapshots at the same clocks with exact identities
            states = [make() for _ in LAW_SEEDS]
            trajectories, _ = run_batch(states, LAW_T, [np.random.default_rng(s)
                                                        for s in LAW_SEEDS], thin=thin)
            ref = stepped(make(), LAW_T, np.random.default_rng(5), thin=thin)
            for snaps in trajectories:
                assert [s.t for s in snaps] == [r.t for r in ref]
                assert all(s.identity_deviations() == (0, 0) for s in snaps)
            z = law_z(final_densities([s.census() for s in states]), stepped_law(name))
            assert np.max(np.abs(z)) <= 5.0, z
            return
        kernel, ref = make(), make()
        rng_k, rng_r = np.random.default_rng(5), np.random.default_rng(5)
        snaps_k = run(kernel, 3000, rng_k, thin=thin)
        snaps_r = stepped(ref, 3000, rng_r, thin=thin)
        assert kernel.counts == ref.counts
        assert kernel.total_weight.hex() == ref.total_weight.hex()
        assert rng_k.bit_generator.state == rng_r.bit_generator.state
        assert same_snapshots(snaps_k, snaps_r)
        assert same_tree(kernel, ref)

    @pytest.mark.parametrize("name", ["tree-pref-i", "tree-pref-i-0.9", "pref-i", "rna"])
    def test_one_snapshot_when_already_at_t_final(self, name):
        # the start clock is also the final one: one snapshot, no draw
        state, ref = KERNEL_ENGINES[name](), KERNEL_ENGINES[name]()
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        snaps = run(state, state.t, rng, thin=5)
        assert same_snapshots(snaps, [ref.census()])
        assert same_snapshots(stepped(ref, ref.t, rng, thin=5), snaps)
        assert rng.bit_generator.state == before

    def test_shifted_reference_fails(self):
        # negative control: the engine's w = i against stepped references of
        # w = i + 0.3 at the same sizes must fail the agreement test
        states = [KERNEL_ENGINES["pref-i"]() for _ in LAW_SEEDS]
        run_batch(states, LAW_T, [np.random.default_rng(s) for s in LAW_SEEDS])
        shifted = make_preferential(SplittingWeights(1.0, 0.3))
        refs = []
        for seed in LAW_REF_SEEDS:
            ref = UrnState.single_edge(shifted)
            stepped(ref, LAW_T, np.random.default_rng(seed))
            refs.append(ref.census())
        z = law_z(final_densities([s.census() for s in states]), final_densities(refs))
        assert np.max(np.abs(z)) > 5.0, z

    @pytest.mark.parametrize("name", ["pref-i", "rna"])
    def test_step_after_run_keeps_identities(self, name):
        # run leaves the counts, the class weights, the clock and the
        # running total consistent, so step continues from them
        state = KERNEL_ENGINES[name]()
        run(state, 600, np.random.default_rng(9), thin=50)
        rng = np.random.default_rng(10)
        for _ in range(300):
            state.step(rng)
            snap = state.census()
            assert snap.identity_deviations() == (0, 0)
            exact = float(np.dot(state.counts, state.weights))
            assert state.total_weight == pytest.approx(exact, rel=1e-12)
        assert state.t == 900

    def test_zero_weight_class_never_splits(self):
        # w_i = i - 1: a leaf has weight 0, so every event splits a vertex of
        # degree >= 2 into a leaf and a vertex one degree up, and the leaf
        # count grows by exactly one per event
        state = UrnState(make_preferential(SplittingWeights(1.0, -1.0)), [2, 1])
        snaps = run(state, 400, np.random.default_rng(2), thin=1)
        assert [s.counts[0] for s in snaps] == list(range(2, 400))

    def test_only_zero_weight_classes_raise(self):
        # no vertex with positive weight: at the start (a single edge with
        # w_1 = 0), or after one event (a table whose degree-2 vertices
        # split into a leaf and a degree-3 vertex, both of weight 0)
        with pytest.raises(DegeneracyError, match="not positive"):
            run(UrnState.single_edge(make_preferential(SplittingWeights(1.0, -1.0))),
                100, np.random.default_rng(0))
        table = make_table(3, [(1, 3, 0.5)])
        assert [table.w(d) for d in (1, 2, 3)] == [0.0, 1.0, 0.0]
        with pytest.raises(DegeneracyError, match="after 1 of 7 events"):
            run(UrnState(table, [2, 1]), 10, np.random.default_rng(0))

    def test_degree_without_split_raises(self):
        # w_3 = 3 > 0, but the table has no pair for a degree-3 split
        pw = PartitionWeights.from_table(3, [(1, 2, 1.0), (1, 3, 0.5), (2, 2, 1.0)])
        model = WeightModel(pw, SplittingWeights(1.0, 0.0))
        with pytest.raises(InvalidDegreeError, match="degree 3"):
            run(UrnState.single_edge(model), 200, np.random.default_rng(0))

    @pytest.mark.parametrize("grow", ["run", "step"])
    def test_tree_degree_without_split_raises(self, grow):
        # w_2 = 2 > 0, but the table has no pair for a degree-2 split: the
        # scalar kernel and step both refuse the first degree-2 pick
        pw = PartitionWeights.from_table(3, [(1, 2, 1.0)])
        tree = OrderedTree.single_edge(WeightModel(pw, SplittingWeights(1.0, 0.0)))
        assert tree.kernel == "scalar"
        with pytest.raises(InvalidDegreeError, match="degree 2 has no admissible split"):
            (run if grow == "run" else stepped)(tree, 200, np.random.default_rng(0))

    @pytest.mark.parametrize("name,budget", INDEPENDENCE_CASES,
                             ids=[n + (f"-budget{b}" if b != 1200 else "")
                                  for n, b in INDEPENDENCE_CASES])
    def test_batch_independence(self, name, budget, monkeypatch):
        # a replica's census, running total and generator depend on its
        # generator alone, not on the release sets its windows share.  The
        # batch of 8 needs 50 to 1498 events each: replica 3 starts from a
        # single edge and grows in legs, and a set may take a chain of 400
        # rows beside a wide one of 1450.  At a budget of 1200 events the
        # sets take up to five replicas; at 300 replicas 1, 3 and 6 grow in
        # legs too, and their windows meet others' in sets of two or three
        monkeypatch.setattr(growth, "_EVENT_BUDGET", budget)
        sets = []

        def release(self, ready, horizons, real=growth._Growth._release):
            sets.append(list(ready))
            return real(self, ready, horizons)

        monkeypatch.setattr(growth._Growth, "_release", release)
        starts = [1200, 400, 1450, 2, 1250, 1400, 900, 1350]

        def start(r):
            state = KERNEL_ENGINES[name]()
            run(state, starts[r], np.random.default_rng(100 + r))
            return state, np.random.default_rng(r)

        batch = [start(r) for r in range(8)]
        together, _ = run_batch([s for s, _ in batch], 1500, [g for _, g in batch], thin=100)
        # windows split over several sets, some shared by several replicas
        assert any(1 < len(s) < 8 for s in sets), sets
        for r, (state, rng) in enumerate(batch):
            ref, ref_rng = start(r)
            alone = run(ref, 1500, ref_rng, thin=100)
            assert same_snapshots(alone, together[r])
            assert all(s.identity_deviations() == (0, 0) for s in together[r])
            assert ref.total_weight.hex() == state.total_weight.hex()
            assert ref_rng.bit_generator.state == rng.bit_generator.state

    def test_leg_start_expands_only_what_rings(self, monkeypatch):
        # a census of 10**6 vertices grown by 2000 events: the members that
        # ring and their descendants reach the expansions, O(events) rows,
        # and the members that do not stay class counts
        rows = []
        for name in ("_chains", "_expand"):
            def spy(self, birth, c, rep, real=getattr(growth._Growth, name)):
                rows.append(len(c))
                return real(self, birth, c, rep)
            monkeypatch.setattr(growth._Growth, name, spy)
        state = UrnState(pref_i(), [2, 10**6 - 2])
        run(state, 10**6 + 2000, np.random.default_rng(0))
        assert state.census().identity_deviations() == (0, 0)
        assert 0 < sum(rows) < 20000, sum(rows)

    @pytest.mark.parametrize("name,replicas,budget", SHARED_ROUNDS_CASES,
                             ids=[n + (f"-{r}-budget{b}" if b else "")
                                  for n, r, b in SHARED_ROUNDS_CASES])
    def test_batch_shares_rounds(self, name, replicas, budget, monkeypatch):
        # replicas grown in one batch expand their generations together:
        # fewer than half the rounds of the same replicas grown in groups of
        # consecutive replicas whose events sum to at most the budget, each
        # group a batch of its own.  8 replicas of 1498 events at the default
        # budget against the 8 grown one by one; 32 at a budget of 8192
        # against 7 groups of at most 5, whose small early windows do not
        # share rounds across groups
        if budget:
            monkeypatch.setattr(growth, "_EVENT_BUDGET", budget)
        make = KERNEL_ENGINES[name]
        size = growth._EVENT_BUDGET // (1500 - make().t) if budget else 1
        groups = [range(g, min(g + size, replicas)) for g in range(0, replicas, size)]
        assert len(groups) >= 5
        _, together = run_batch([make() for _ in range(replicas)], 1500,
                                [np.random.default_rng(s) for s in range(replicas)])
        apart = sum(run_batch([make() for _ in g], 1500,
                              [np.random.default_rng(s) for s in g])[1]["rounds"]
                    for g in groups)
        assert together["rounds"] < apart / 2, (together["rounds"], apart)

    @pytest.mark.parametrize("name,replicas,t_final,budget", HELD_CASES,
                             ids=[f"{n}-{r}" + (f"-budget{b}" if b else "")
                                  for n, r, _, b in HELD_CASES])
    def test_events_held_within_budget(self, name, replicas, t_final, budget, monkeypatch):
        # the events one growth holds at once, drawn but not yet applied,
        # stay within the budget plus one replica's largest window, though
        # the batch draws many times the budget: 32 rna replicas of 10**4
        # events, and 8 w = i replicas of 6000 events in legs of 2048
        if budget:
            monkeypatch.setattr(growth, "_EVENT_BUDGET", budget)
        window = {}                 # events drawn in each replica's open window
        seen = {"held": 0, "largest": 0, "drawn": 0}

        def release(self, ready, horizons, real=growth._Growth._release):
            window.update(dict.fromkeys(ready, 0))
            return real(self, ready, horizons)

        def log(self, t, c, e, rep, *rest, real=growth._Growth._log):
            real(self, t, c, e, rep, *rest)
            for r, n in zip(*np.unique(rep, return_counts=True)):
                window[r] += int(n)
                seen["largest"] = max(seen["largest"], window[r])
            seen["drawn"] += len(rep)
            held = sum(len(x[0]) for events in self.open + self.closed for x in events)
            seen["held"] = max(seen["held"], held)

        monkeypatch.setattr(growth._Growth, "_release", release)
        monkeypatch.setattr(growth._Growth, "_log", log)
        make = KERNEL_ENGINES[name]
        states = [make() for _ in range(replicas)]
        run_batch(states, t_final, [np.random.default_rng(s) for s in range(replicas)])
        assert all(s.t == t_final for s in states)
        assert seen["drawn"] > 4 * (growth._EVENT_BUDGET + seen["largest"]), seen
        assert 0 < seen["held"] <= growth._EVENT_BUDGET + seen["largest"], seen

    def test_batch_needs_a_generator_per_state(self):
        # a short list of generators is refused before any state grows
        states = [KERNEL_ENGINES["pref-i"]() for _ in range(3)]
        with pytest.raises(InvalidParameterError, match="3 states need as many generators"):
            run_batch(states, 100, [np.random.default_rng(0)])
        assert [s.t for s in states] == [2, 2, 2]

    def test_batch_horizon_behind_a_clock_refused(self):
        # a t_final behind any state's clock is refused before any state grows
        states = [UrnState.single_edge(pref_i()), UrnState(pref_i(), [2, 1])]
        with pytest.raises(InvalidParameterError, match="t_final = 2 < current t = 3"):
            run_batch(states, 2, [np.random.default_rng(s) for s in range(2)])
        assert [s.t for s in states] == [2, 3]

    @pytest.mark.parametrize("name", ["tree-pref-i", "tree-pref-i-0.9", "tree-pref-i+0.5",
                                      "tree-pref-2i", "tree-grafting", "tree-dmax3"])
    def test_blocks_longer_than_a_call(self, name):
        # run(T1) then run(T2) draws exactly what one run(T2) draws, so no
        # uniform is drawn ahead across calls or block boundaries
        make = KERNEL_ENGINES[name]
        split, whole = make(), make()
        rng_s, rng_w = np.random.default_rng(9), np.random.default_rng(9)
        run(split, 4100, rng_s)
        run(split, 9000, rng_s)
        run(whole, 9000, rng_w)
        assert split.counts == whole.counts
        assert split.total_weight.hex() == whole.total_weight.hex()
        assert rng_s.bit_generator.state == rng_w.bit_generator.state
        assert same_tree(split, whole)

    @pytest.mark.parametrize("name", ["tree-pref-i", "tree-pref-i+0.5", "tree-pref-2i"])
    def test_step_after_run_matches_step(self, name):
        # step continues a run tree, whose insertions the first read of the
        # lists makes, exactly as it continues a stepped one
        make = KERNEL_ENGINES[name]
        grown, ref = make(), make()
        rng_g, rng_r = np.random.default_rng(4), np.random.default_rng(4)
        run(grown, 5000, rng_g)
        for _ in range(500):
            grown.step(rng_g)
        stepped(ref, 5500, rng_r)
        assert grown.counts == ref.counts
        assert grown.total_weight.hex() == ref.total_weight.hex()
        assert rng_g.bit_generator.state == rng_r.bit_generator.state
        assert same_tree(grown, ref)

    def test_leaf_blocks_defer_insertions(self):
        # run only logs the insertions, over two legs, and builds no list;
        # the first read makes them in step order
        tree, ref = KERNEL_ENGINES["tree-pref-i"](), KERNEL_ENGINES["tree-pref-i"]()
        rng = np.random.default_rng(6)
        run(tree, 4100, rng)
        run(tree, 9000, rng)
        assert len(tree._log) == 4 and len(tree._lists) == 2
        stepped(ref, 9000, np.random.default_rng(6))
        assert tree._adj == ref._adj
        assert not tree._log and tree._deg is None
        assert same_tree(tree, ref)

    @pytest.mark.parametrize("name,kernel", [
        ("tree-pref-i", "leaf-block"), ("tree-pref-i+0.5", "leaf-block"),
        ("tree-pref-2i", "leaf-block"), ("tree-pref-i-0.9", "scalar"),
        ("tree-uniform", "scalar"), ("tree-grafting", "scalar"), ("tree-dmax3", "scalar"),
        ("tree-pref-i-untailed", "scalar")])
    def test_kernel_selection(self, name, kernel, monkeypatch):
        # only a model whose every split sheds a leaf (a LinearTail from
        # degree 1 with no second band, no degree bound) under an exact
        # envelope (b >= 0) grows by blocks; the same law without the tail
        # declaration, inexact envelopes and arc-moving splits stay scalar
        if name == "tree-pref-i-untailed":
            tree = OrderedTree.single_edge(
                WeightModel(PartitionWeights(_PREF_I.partition._fn), SplittingWeights(1.0, 0.0)))
        else:
            tree = KERNEL_ENGINES[name]()
        assert tree.kernel == kernel

        def refused(*args):
            raise AssertionError("wrong kernel")

        monkeypatch.setattr(growth, "_tree_kernel" if kernel == "leaf-block" else "_leaf_kernel",
                            refused)
        snaps = run(tree, 500, np.random.default_rng(1), thin=100)
        assert [s.t for s in snaps] == [2, 102, 202, 302, 402, 500]

    @pytest.mark.parametrize("name,kernel", [
        ("pref-i", "chains"), ("pref-i-0.9", "chains"), ("pref-i-untailed", "generations"),
        ("uniform", "generations"), ("grafting", "generations"), ("dmax3", "generations"),
        ("rna", "generations")])
    def test_census_kernel_selection(self, name, kernel, monkeypatch):
        # run_batch grows a one-colour census whose every split sheds a leaf
        # (the tree's condition, whatever the envelope) by whole chains; the
        # same law without the tail declaration, arc-moving splits, tables
        # and two-colour models grow by generations
        if name == "pref-i-untailed":
            state = UrnState.single_edge(
                WeightModel(PartitionWeights(_PREF_I.partition._fn), SplittingWeights(1.0, 0.0)))
        elif name == "grafting":
            state = UrnState.single_edge(_GRAFTING)
        else:
            state = KERNEL_ENGINES[name]()
        assert state.kernel == kernel

        def refused(*args):
            raise AssertionError("wrong kernel")

        monkeypatch.setattr(growth._Growth, "_expand" if kernel == "chains" else "_chains",
                            refused)
        snaps = run(state, 500, np.random.default_rng(1), thin=100)
        assert [s.t for s in snaps] == [2, 102, 202, 302, 402, 500]
        assert all(s.identity_deviations() == (0, 0) for s in snaps)

    @pytest.mark.parametrize("b", [0.0, -0.9])
    def test_leaf_shedding_growth_reads_no_split_law(self, b, monkeypatch):
        # a leaf split's children are a leaf and the vertex one degree up,
        # whichever order its split law draws: the chains and the leaf
        # blocks (w = i only; the envelope of w = i - 0.9 is inexact) grow
        # the same snapshots with the law made to raise
        def grow(model):
            urns = [UrnState.single_edge(model) for _ in range(4)]
            assert urns[0].kernel == "chains"
            grown, _ = run_batch(urns, 3000, [np.random.default_rng(s) for s in range(4)],
                                 thin=500)
            if b == 0.0:
                tree = OrderedTree.single_edge(model)
                assert tree.kernel == "leaf-block"
                grown.append(run(tree, 9000, np.random.default_rng(7), thin=500))
            return grown

        want = grow(make_preferential(SplittingWeights(1.0, b)))
        model = make_preferential(SplittingWeights(1.0, b))

        def refused(i):
            raise AssertionError(f"split law of degree {i} read")

        monkeypatch.setattr(model, "split_distribution", refused)
        got = grow(model)
        assert len(got) == len(want)
        assert all(same_snapshots(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("pg,qg,a,error,match", [
        (-1.0, 3.0, 1.0, InvalidDegreeError, "degree 3 has no admissible split"),
        (0.0, 0.0, 0.0, DegeneracyError, "not positive"),
    ], ids=["no-split-at-degree-3", "zero-weights"])
    def test_chains_refuse_like_step(self, pg, qg, a, error, match):
        # the models of test_leaf_kernel_refuses_like_step on the urn: the
        # chains draw no split law, yet raise step's error, and leave the
        # census where it was
        fn = _PREF_I.partition._fn
        model = WeightModel(PartitionWeights(fn, tail=LinearTail(1, pg, qg)),
                            SplittingWeights(a, 0.0))
        ref, state = UrnState.single_edge(model), UrnState.single_edge(model)
        assert state.kernel == "chains"
        with pytest.raises(error, match=match):
            stepped(ref, 500, np.random.default_rng(3))
        with pytest.raises(error, match=match):
            run(state, 500, np.random.default_rng(3), thin=50)
        assert state.t == 2 and state.counts == [2]

    @pytest.mark.parametrize("pg,qg,a,error,match", [
        (-1.0, 3.0, 1.0, InvalidDegreeError, "degree 3 has no admissible split"),
        (0.0, 0.0, 0.0, DegeneracyError, "not positive"),
    ], ids=["no-split-at-degree-3", "zero-weights"])
    def test_leaf_kernel_refuses_like_step(self, pg, qg, a, error, match):
        # a leaf law g(i) = 3 - i with w_i = i has no split at degree 3, and
        # zero weights have no vertex to split: step and run raise the same
        # error, and the block raises before it changes the tree
        fn = _PREF_I.partition._fn
        model = WeightModel(PartitionWeights(fn, tail=LinearTail(1, pg, qg)),
                            SplittingWeights(a, 0.0))
        ref, tree = OrderedTree.single_edge(model), OrderedTree.single_edge(model)
        assert tree.kernel == "leaf-block"
        with pytest.raises(error, match=match):
            stepped(ref, 500, np.random.default_rng(3))
        with pytest.raises(error, match=match):
            run(tree, 500, np.random.default_rng(3), thin=50)
        assert tree.t == 2 and tree.counts == [2] and tree.is_tree()

    def test_radix_ranking_matches_stable_argsort(self):
        # _leaf_kernel ranks a block's picks with _stable_order: ids that
        # repeat, straddle 2**16 and reach 2**31 - 1, the last two sets
        # alike in one 16-bit half and unlike in the other
        rng = np.random.default_rng(8)
        edges = np.array([0, 1, 2**16 - 1, 2**16, 2**16 + 1, 2**31 - 2, 2**31 - 1])
        for ids in (rng.integers(0, 2**31, 4096), rng.choice(edges, 4096),
                    rng.integers(2**16 - 40, 2**16 + 40, 4096),
                    rng.integers(0, 2**15, 4096) * 2**16 + 7, rng.integers(0, 9, 4096) + 2**30):
            np.testing.assert_array_equal(growth._stable_order(ids),
                                          np.argsort(ids, kind="stable"))

    @pytest.mark.parametrize("name", ["tree-pref-i", "pref-i", "rna"])
    def test_snapshots_own_their_counts(self, name):
        # each snapshot of a thinned run over several census windows owns
        # its count arrays: growing the same states further, then editing
        # one snapshot in place, changes no other
        states = [KERNEL_ENGINES[name]() for _ in range(2)]
        rngs = [np.random.default_rng(s) for s in range(2)]

        def grow(t_final):
            if name.startswith("tree-"):
                return [s for st, r in zip(states, rngs) for s in run(st, t_final, r, thin=700)]
            return [s for traj in run_batch(states, t_final, rngs, thin=700)[0] for s in traj]

        def arrays(snap):
            return [getattr(snap, f) for f in dict.fromkeys(("counts", *snap.CSV_FIELDS))]

        snaps = grow(3 * growth._BLOCK)
        kept = [[a.copy() for a in arrays(s)] for s in snaps]
        later = grow(5 * growth._BLOCK)
        for a in arrays(snaps[4]):
            a += 1
        for j, snap in enumerate(snaps + later):
            assert snap.identity_deviations() == (0, 0) or j == 4
        for j, (snap, want) in enumerate(zip(snaps, kept)):
            for a, b in zip(arrays(snap), want):
                np.testing.assert_array_equal(a, b + (j == 4))

    def test_leaf_kernel_uniform_vertex_clamp(self):
        # w_i = i + 0.7 at t = 5 takes A = 0.7, B = 1: the proposal x = u *
        # span just below A*t divides to vertex index t, which must go to
        # vertex t - 1 in the block kernel as in step.  Later draws are 0.
        class Scripted:
            def random(self, size=None):
                out = np.zeros(size or 1)
                out[0] = float.fromhex("0x1.37a6f4de9bd37p-2")
                return out if size else out[0]

        model, t = make_preferential(SplittingWeights(1.0, 0.7)), 5
        kernel, ref = (OrderedTree.from_edges(model, [(v, v + 1) for v in range(t - 1)])
                       for _ in range(2))
        A, B, _ = kernel._envelope
        x = Scripted().random() * (A * t + B * (2 * t - 2))
        assert kernel.kernel == "leaf-block" and x < A * t and int(x / A) == t
        ev = ref.step(Scripted())
        run(kernel, t + 1, Scripted())
        assert ev.parent_degree == 1 and ref.degree(t - 1) == 2
        assert same_tree(kernel, ref) and kernel.counts == ref.counts

    def test_tree_end_of_draw_clamp(self):
        # the top draw u = 1 - 2**-53 times the envelope total rounds to
        # vertex index t for a table with A = 0.3 at t = 11 (uniform branch)
        # and to half-edge 2t - 2 for w_i = 1.1*i at t = 8 (half-edge
        # branch); both must go to the last index, vertex t - 1 of a path,
        # in step and in run alike.  Later draws are 0, which accepts.
        class Scripted:
            def __init__(self, u):
                self.us = [u]

            def random(self, size=None):
                out = self.us + [0.0] * ((size or 1) - len(self.us))
                self.us = []
                return out[0] if size is None else np.array(out[:size])

        top = 1.0 - 2.0 ** -53
        table = make_table(3, [(i, j, 0.1 * w) for i, j, w in DMAX3_ENTRIES])
        for model, t in ((table, 11), (make_preferential(SplittingWeights(1.1, 0.0)), 8)):
            kernel, ref = (OrderedTree.from_edges(model, [(v, v + 1) for v in range(t - 1)])
                           for _ in range(2))
            A, B, _ = kernel._envelope
            at = A * t
            x = top * (at + B * (2 * t - 2))
            assert (int(x / A) == t) if x < at else (int((x - at) / B) == 2 * t - 2)
            ev = ref.step(Scripted(top))
            run(kernel, t + 1, Scripted(top))
            assert ev.parent_degree == 1 and ref.degree(t - 1) == 2
            assert same_tree(kernel, ref) and kernel.counts == ref.counts


class TestClassLaws:
    """``_ClassLaws`` decides the children of every event: its kid columns
    against the split rule, entry by entry."""

    @pytest.mark.parametrize("name", ["rna", "two-colour-grafting", "uniform", "table",
                                      "pref-i", "pref-i-0.9"])
    def test_kids_follow_the_split_rule(self, name):
        # a split entry of first child degree k has kids s*k - 1 and
        # s*(d+2-k) - 1, a recolour (c - 1, -1), and a leaf split under
        # chains (0, c + 1); a class of weight 0 or without a split has none
        state = (UrnState.single_edge(random_linear_table(np.random.default_rng(4), 7))
                 if name == "table" else KERNEL_ENGINES[name]())
        laws = growth._ClassLaws(state)
        laws.cover_laws(40)
        w, lo, hi, keys, kid1, kid2 = laws.w, laws.lo, laws.hi, laws.keys, laws.kid1, laws.kid2
        s, model = laws.stride, laws.split_model
        assert laws.chains == name.startswith("pref-")
        assert np.all(np.diff(keys) >= 0)
        entries = 0
        for c in range(40):
            d = c // s + 1
            got = list(zip(kid1[lo[c]:hi[c]].tolist(), kid2[lo[c]:hi[c]].tolist()))
            if not w[c] > 0:
                want = []
            elif c % s:
                want = [(c - 1, -1)]
            elif laws.chains:
                want = [(0, c + 1)]
            else:
                ks, _, wsum = model.split_distribution(d)
                want = [(s * k - 1, s * (d + 2 - k) - 1) for k in ks] if wsum > 0 else []
            assert got == want, c
            assert all(c < x <= c + 1 for x in keys[lo[c]:hi[c]])
            entries += len(want)
        assert entries == len(keys) and kid1[-1] == kid2[-1] == -1


def census_one_event_at_a_time(counts, t0, clocks, totals, removed, added):
    """The reference for ``_advance_census``: the snapshots ``(t, counts,
    total)`` at the clocks reached, the counts after and the clocks left."""
    counts, snaps, left = list(counts), [], list(clocks)
    for j in range(len(removed) + 1):
        while left and left[0] == t0 + j:
            snaps.append((left.pop(0), list(counts), totals[j]))
        if j == len(removed):
            break
        counts[removed[j]] -= 1
        for a in added:
            if a[j] >= 0:
                counts += [0] * (a[j] + 1 - len(counts))
                counts[a[j]] += 1
    return snaps, counts, left


class TestAdvanceCensus:
    """``_advance_census``, the one path from events to snapshots of both
    batched engines, against the events applied one at a time."""

    @staticmethod
    def stream(seed, n):
        # removed classes stay among the first six; added classes reach
        # further as the stream goes on, and a third of the second ones are
        # -1, a recolour that adds one member only
        rng = np.random.default_rng(seed)
        reach = 6 + np.arange(n) // 400
        removed = rng.integers(0, 6, n)
        first = (rng.random(n) * reach).astype(np.int64)
        second = np.where(rng.random(n) < 1 / 3, -1, (rng.random(n) * reach).astype(np.int64))
        return rng.integers(0, 9, 6).tolist(), rng.random(n + 1), removed, (first, second)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("legs", [1, 2])
    def test_matches_per_event_reference(self, seed, legs):
        b = growth._BLOCK
        n, t0 = 2 * b + 37, 10
        counts, totals, removed, added = self.stream(seed, n)
        # a clock at 0, on and next to the window edges, a run of
        # consecutive clocks across an edge, the final clock and one
        # beyond the events
        rel = {0, 1, 17, b - 1, b, b + 1, 2 * b, 2 * b + 1, n, n + 5}
        rel |= set(range(b - 3, b + 4)) | set(range(2 * b - 2, 2 * b + 3))
        clocks = sorted(t0 + r for r in rel)
        want, after, left = census_one_event_at_a_time(counts, t0, clocks, totals,
                                                       removed, added)
        # the census with pref-i's class weights, at the stream's clock and total
        state = UrnState(_PREF_I, counts)
        state.t, state.total_weight = t0, totals[0]
        weights = _PREF_I.splitting_weights(len(after))
        snaps = []
        # two legs meet at a clock on a window edge, as run_batch's legs and
        # _leaf_kernel's blocks do
        for lo, hi in ((0, n),) if legs == 1 else ((0, b), (b, n)):
            assert state.t == t0 + lo and state.total_weight == totals[lo]
            snaps += growth._advance_census(state, clocks, totals[lo:hi + 1], removed[lo:hi],
                                            tuple(a[lo:hi] for a in added), weights)
        assert [(s.t, s.counts.tolist(), s.total_weight) for s in snaps] == want
        assert state.counts == after and state.t == t0 + n
        assert state.total_weight == totals[-1]
        assert state.weights == [_PREF_I.w(d) for d in range(1, len(after) + 1)]
        assert clocks == left == [t0 + n + 5]


CHECK_STATES = {
    "leaf-block-tree": lambda: OrderedTree.single_edge(_PREF_I),
    "scalar-tree": lambda: OrderedTree.single_edge(_PREF_09),
    "urn": lambda: UrnState.single_edge(_GRAFTING),
    "two-colour": lambda: TwoColourState.single_edge(_RNA),
}


class TestChecks:
    """``checks()`` holds on a grown state of every engine, and each move of
    a count, the clock or the running total fails the checks it touches."""

    @staticmethod
    def failed(name, move):
        """The checks that fail once ``move`` has moved a grown state."""
        state = CHECK_STATES[name]()
        if isinstance(state, OrderedTree):
            assert state.kernel == name.removesuffix("-tree")
        run(state, 3000, np.random.default_rng(8))
        assert all(_check_holds(n, v) for n, v in state.checks().items())
        move(state)
        return state, {n for n, v in state.checks().items() if not _check_holds(n, v)}

    @pytest.mark.parametrize("name", sorted(CHECK_STATES))
    def test_moved_count_fails(self, name):
        # one more member of class 0 breaks the identities and the exact sum
        def move(state):
            state.counts[0] += 1
        state, failed = self.failed(name, move)
        assert failed == {*state.IDENTITIES, "weight_rel_drift"}

    @pytest.mark.parametrize("name", sorted(CHECK_STATES))
    def test_moved_clock_fails(self, name):
        def move(state):
            state.t += 1
        state, failed = self.failed(name, move)
        assert failed == {*state.IDENTITIES, "weight_closed_form_rel_dev"}

    @pytest.mark.parametrize("name", sorted(CHECK_STATES))
    def test_moved_total_fails(self, name):
        def move(state):
            state.total_weight *= 1.0 + 1e-6
        _, failed = self.failed(name, move)
        assert failed == {"weight_rel_drift", "weight_closed_form_rel_dev"}


def naive_census_csv(trajectories) -> str:
    """``census.csv`` written one row at a time by an f-string."""
    snaps = [snap for traj in trajectories for snap in traj]
    two = bool(snaps) and isinstance(snaps[0], TwoColourSnapshot)
    lines = ["replica,t,k,n_white,n_black" if two else "replica,t,k,n"]
    for rep, traj in enumerate(trajectories):
        for snap in traj:
            for d in range(len(snap.counts)):
                if snap.counts[d]:
                    cols = (f"{snap.white[d]},{snap.black[d]}" if two else f"{snap.counts[d]}")
                    lines.append(f"{rep},{snap.t},{d + 1},{cols}")
    return "".join(line + "\n" for line in lines)


def census_csv(trajectories) -> str:
    buf = io.BytesIO()
    write_census_csv(buf, trajectories)
    return buf.getvalue().decode("ascii")


def two_colour(t, white, black):
    white, black = np.array(white, np.int64), np.array(black, np.int64)
    return TwoColourSnapshot(t, white + black, float("nan"), white, black)


# every digit boundary 9/10 ... 999999999/1000000000 (ten digits, past the
# formatter's uint32 division) and a count past 2**32
BOUNDARIES = [v for e in range(1, 10) for v in (10 ** e - 1, 10 ** e)] + [2 ** 33 + 7]


def random_trajectories(rng, replicas, colours):
    trajectories = []
    for _ in range(replicas):
        traj = []
        for _ in range(int(rng.integers(0, 12))):
            width = int(rng.integers(0, 60))
            cells = [rng.integers(0, 10 ** int(rng.integers(1, 8)), width)
                     * (rng.random(width) < 0.4) for _ in range(colours)]
            t = int(rng.choice(BOUNDARIES)) if rng.random() < 0.3 else int(rng.integers(2, 10**6))
            traj.append(two_colour(t, *cells) if colours == 2
                        else CensusSnapshot(t, cells[0].astype(np.int64), 0.0))
        trajectories.append(traj)
    return trajectories


class TestSerialisation:
    def test_census_csv_rows(self):
        snaps = run(UrnState.single_edge(pref_i()), 50, np.random.default_rng(3), thin=25)
        lines = census_csv([snaps[:1], snaps]).splitlines()
        assert lines[:3] == ["replica,t,k,n", "0,2,1,2", "1,2,1,2"]
        assert lines[-1].startswith("1,50,")

    def test_two_colour_census_csv_rows(self):
        # the header follows the snapshots: two-colour ones carry both colours
        assert census_csv([[two_colour(9, [1, 0, 0], [2, 0, 3])]]).splitlines() == [
            "replica,t,k,n_white,n_black", "0,9,1,1,2", "0,9,3,0,3"]

    def test_mixed_kinds_refused(self):
        # one header cannot name the columns of both kinds of snapshot
        one = CensusSnapshot(2, np.array([2]), 1.0)
        with pytest.raises(InvalidParameterError, match="one kind"):
            census_csv([[one], [two_colour(9, [1, 0, 0], [2, 0, 3])]])

    @pytest.mark.parametrize("trajectories", [[], [[]], [[], []]], ids=["none", "empty", "two-empty"])
    def test_header_only(self, trajectories):
        assert census_csv(trajectories) == "replica,t,k,n\n"

    @pytest.mark.parametrize("cells", [1, None, 10 ** 12], ids=["one", "default", "huge"])
    class TestAgainstNaiveWriter:
        @pytest.fixture(autouse=True)
        def chunk(self, monkeypatch, cells):
            # None keeps the default chunk of count cells
            if cells is not None:
                monkeypatch.setattr(growth, "_CSV_CELLS", cells)

        @pytest.mark.parametrize("seed", range(4))
        @pytest.mark.parametrize("colours", [1, 2])
        def test_random(self, seed, colours):
            # 12 replicas, so that the replica index reaches two digits
            trajectories = random_trajectories(np.random.default_rng(seed), 12, colours)
            assert census_csv(trajectories) == naive_census_csv(trajectories)

        def test_digit_boundaries(self):
            # counts and clocks at every digit boundary, in one snapshot and
            # one snapshot each; the zero-count degrees are left out
            counts = np.array([0, *BOUNDARIES, 0, 1], np.int64)
            one = [CensusSnapshot(t, counts[i:], 0.0) for i, t in enumerate(BOUNDARIES)]
            trajectories = [[CensusSnapshot(2, counts, 0.0)], one]
            assert census_csv(trajectories) == naive_census_csv(trajectories)

        def test_two_colour_boundaries_and_zero_colours(self):
            white = np.array([0, *BOUNDARIES, 0, 3])
            black = np.array([*BOUNDARIES[::-1], 0, 0, 0])
            trajectories = [[two_colour(9, [0, 0, 0], [0, 5, 3])],
                            [two_colour(t, white, black) for t in BOUNDARIES]]
            text = census_csv(trajectories)
            assert text == naive_census_csv(trajectories)
            assert "0,9,2,0,5\n0,9,3,0,3\n" in text

        def test_single_snapshot(self):
            snap = CensusSnapshot(2, np.array([2]), 2.0)
            assert census_csv([[snap]]) == "replica,t,k,n\n0,2,1,2\n"

    def test_chunks_bounded(self, monkeypatch):
        # each chunk takes as many snapshots as fit in _CSV_CELLS count
        # cells, and a wider snapshot alone
        chunks, chunk = [], growth._csv_chunk

        def spy(rep, snaps, bounds):
            chunks.append((len(snaps), int(bounds[-1])))
            return chunk(rep, snaps, bounds)

        monkeypatch.setattr(growth, "_csv_chunk", spy)
        monkeypatch.setattr(growth, "_CSV_CELLS", 100)
        widths = [30, 40, 30, 150, 10, 90, 1]
        census_csv([[CensusSnapshot(2, np.ones(w, np.int64), 0.0) for w in widths]])
        assert chunks == [(3, 100), (1, 150), (2, 100), (1, 1)]

    def test_write_memory_bounded(self):
        # 20000 snapshots with 24 occupied degrees each: 480000 rows and
        # 8.4 MB of text.  The writer formats a chunk of snapshots at a time,
        # so its peak traced allocation, numpy buffers included, stays near
        # one chunk's (3.1 MB); formatted whole, the rows took 44 MB.
        counts = np.arange(1, 25, dtype=np.int64) * 4099
        trajectory = [CensusSnapshot(t, counts, 0.0) for t in range(100_000, 120_000)]

        class Sink:
            size = 0

            def write(self, data):
                self.size += len(data)

        sink = Sink()
        tracemalloc.start()
        try:
            write_census_csv(sink, [trajectory])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.size == len("replica,t,k,n\n") + 20_000 * len(
            "".join(f"0,100000,{k},{n}\n" for k, n in enumerate(counts, 1)))
        assert peak < 6_000_000

    def test_two_colour_write_memory_bounded(self):
        # test_write_memory_bounded for two-colour snapshots, whose two
        # count columns are each concatenated once per chunk: 480000 rows
        # and the same bound; the peak reads 4.0 MB
        white = np.arange(1, 25, dtype=np.int64) * 4099
        black = white[::-1] + 1
        trajectory = [two_colour(t, white, black) for t in range(100_000, 120_000)]

        class Sink:
            size = 0

            def write(self, data):
                self.size += len(data)

        sink = Sink()
        tracemalloc.start()
        try:
            write_census_csv(sink, [trajectory])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.size == len("replica,t,k,n_white,n_black\n") + 20_000 * len(
            "".join(f"0,100000,{k},{w},{b}\n" for k, (w, b) in enumerate(zip(white, black), 1)))
        assert peak < 6_000_000
