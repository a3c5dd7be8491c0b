import io
import math

import numpy as np
import pytest
import scipy.stats

from splitgrow import (CensusSnapshot, ClassSampler, DegeneracyError,
                       InvalidParameterError, OrderedTree, PartitionWeights,
                       SplittingWeights, UrnState, WeightModel, make_grafting,
                       make_preferential, make_table, make_uniform,
                       read_census_binary, run, write_census_binary,
                       write_census_csv)
from splitgrow.twocolour import (TwoColourSnapshot, TwoColourState, make_rna,
                                 make_two_colour_grafting)
from conftest import DMAX3_ENTRIES


def pref_i():
    return make_preferential(SplittingWeights(1.0, 0.0))


def chi_square_ok(observed, probs, alpha=1e-3):
    n = observed.sum()
    expected = probs * n
    keep = expected > 5
    stat, p = scipy.stats.chisquare(observed[keep], expected[keep] * n / expected[keep].sum()
                                    if not keep.all() else expected[keep])
    return p > alpha


class TestClassSampler:
    def test_weights_grow_with_counts(self):
        # the class weights stay aligned with the census as it grows, and the
        # running total matches the exact sum of the class masses
        model = make_grafting(0.3, 0.7)
        urn = UrnState.single_edge(model)
        rng = np.random.default_rng(4)
        for _ in range(300):
            urn.step(rng)
        weights = urn._classes.weights
        assert len(weights) == len(urn.counts) > 2
        assert weights == [model.w(d) for d in range(1, len(urn.counts) + 1)]
        exact = sum(n * w for n, w in zip(urn.counts, weights))
        assert urn.total_weight == pytest.approx(exact, rel=1e-12)

    def test_zero_total_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DegeneracyError):
            ClassSampler([1.0, 2.0].__getitem__, [0, 0]).sample(rng, 0.0)
        # a total left over by rounding while no class has weight
        with pytest.raises(DegeneracyError):
            ClassSampler([1.0, 0.0].__getitem__, [0, 3]).sample(rng, 1e-16)

    def test_frequencies_match_weights(self):
        # class 0 has members but zero weight, so it is never drawn; classes
        # past the first sixteen make the tree grow while it is filled
        weights = [0.0, 1.0, 4.0, 2.0, 1.0] + [0.5] * 20
        counts = [3, 2, 1, 1, 2] + [0] * 19 + [4]
        mass = np.array(counts) * np.array(weights)
        sampler = ClassSampler(weights.__getitem__, counts)
        rng = np.random.default_rng(123)
        hits = np.zeros(len(counts))
        n = 200_000
        for _ in range(n):
            c, x = sampler.sample(rng, float(mass.sum()))
            assert 0.0 <= x < mass[c]
            hits[c] += 1
        assert not hits[mass == 0].any()
        keep = mass > 0
        assert chi_square_ok(hits[keep], mass[keep] / mass.sum())

    def test_dynamic_update_frequencies(self):
        # census (n_1, n_2) = (2, 1) with w_i = i; splitting a leaf into
        # degrees (2, 1) gives (n_1, n_2) = (2, 2), so P(degree 2) moves
        # from 2/4 to 4/6 between the draws
        urn = UrnState(pref_i(), [2, 1])
        rng = np.random.default_rng(7)
        n = 100_000
        before = sum(urn.sample_degree(rng) == 2 for _ in range(n))
        urn.apply_split(1, 2)
        assert urn.counts[:2] == [2, 2]
        after = sum(urn.sample_degree(rng) == 2 for _ in range(n))
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
        sampler = ClassSampler(weights.__getitem__, [0, 2, 0, 1, 5, 0])
        exact = 5.0
        assert sampler.sample(Top(), exact)[0] == 3
        assert sampler.sample(Top(), exact * (1 + 4e-16)) == (3, 0.0)


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
        # w_2*t - 2a = 2*3 - 2 = 4 and P(degree 2) = 2*1/4 = 1/2
        urn = UrnState(pref_i(), [2, 1])
        assert urn.total_weight == pytest.approx(4.0)
        assert urn.total_weight == pytest.approx(urn.expected_weight())
        rng = np.random.default_rng(5)
        n = 200_000
        hits = sum(urn.sample_degree(rng) == 2 for _ in range(n))
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
        assert [model.w(tree.degree(v)) for v in tree.vertices()] == pytest.approx(weights)
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
        assert sorted(len(tree.neighbours(v)) for v in tree.vertices()
                      if len(tree.neighbours(v)) > 1) == [3, 4]
        assert tree.is_tree()

    def test_cyclic_arc_is_contiguous(self):
        # neighbours 1..5 in cyclic order; with arrangement p the first
        # child's neighbour arc must be contiguous modulo 5
        m = make_uniform(0.0)
        for seed in range(8):
            tree = OrderedTree.from_edges(m, [(0, i) for i in range(1, 6)])
            ev = tree.split_vertex(0, 3, np.random.default_rng(seed))
            child = next(v for v in tree.vertices()
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
            sum_dev, moment_dev, drift = tree.census_deviations()
            assert sum_dev == 0 and moment_dev == 0
            assert drift <= 1e-9
            assert abs(tree.total_weight - tree.expected_weight()) \
                <= 1e-9 * max(tree.total_weight, 1.0)
        assert tree.is_tree()

    def test_degree_bound_respected(self):
        m = make_table(3, DMAX3_ENTRIES)
        tree = OrderedTree.single_edge(m)
        rng = np.random.default_rng(9)
        for _ in range(2000):
            tree.step(rng)
        assert max(len(tree.neighbours(v)) for v in tree.vertices()) <= 3

    def test_adjacency_mutual(self):
        tree = OrderedTree.single_edge(make_uniform(0.0))
        rng = np.random.default_rng(13)
        for _ in range(300):
            tree.step(rng)
        for v in tree.vertices():
            for u in tree.neighbours(v):
                assert tree.neighbours(u).count(v) == 1

    def test_sampler_total_stays_consistent(self):
        # the running total the sampler scales its draw by must track the
        # exact weight sum through thousands of updates
        tree = OrderedTree.single_edge(make_grafting(0.3, 0.7))
        rng = np.random.default_rng(29)
        for _ in range(5000):
            tree.step(rng)
        assert tree.census_deviations()[2] <= 1e-9
        assert sum(len(b) for b in tree._members) == tree.t


class TestTreeConstruction:
    def test_half_edges(self):
        # compact ids; each half-edge's twin is owned by the neighbour
        tree = OrderedTree.from_edges(pref_i(), [(0, 1), (1, 2), (1, 3)])
        assert list(tree.vertices()) == [0, 1, 2, 3]
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

    def test_unbounded_nonlinear_weights_refused(self):
        # w[i, j] = 1 gives w_i = i(i+1)/2: no envelope A + B*i bounds it
        pw = PartitionWeights(lambda i, j: np.ones(np.broadcast(i, j).shape))
        with pytest.raises(InvalidParameterError, match="linear"):
            OrderedTree.single_edge(WeightModel(pw))


class TestUrnSplits:
    def test_hand_updates(self):
        # 4-star census: 4 leaves and one degree-4 hub
        urn = UrnState(pref_i(), [4, 0, 0, 1])
        urn.apply_split(1, 1)
        assert urn.counts[:2] == [4, 1]          # n_1 unchanged net, n_2 + 1
        urn.apply_split(4, 3)
        assert urn.counts[2] == 2 and urn.counts[3] == 0   # n_4 - 1, n_3 + 2
        assert urn.census_deviations()[:2] == (0, 0)

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


KERNEL_ENGINES = {
    "pref-i": lambda: UrnState.single_edge(pref_i()),
    "pref-i-0.9": lambda: UrnState.single_edge(
        make_preferential(SplittingWeights(1.0, -0.9))),
    "uniform": lambda: UrnState.single_edge(make_uniform(0.0)),
    "dmax3": lambda: UrnState.single_edge(make_table(3, DMAX3_ENTRIES)),
    "rna": lambda: TwoColourState.single_edge(make_rna()),
    "two-colour-grafting": lambda: TwoColourState.single_edge(
        make_two_colour_grafting(1.0, 0.5, 0.5)),
    "tree-pref-i": lambda: OrderedTree.single_edge(pref_i()),
    "tree-pref-i-0.9": lambda: OrderedTree.single_edge(
        make_preferential(SplittingWeights(1.0, -0.9))),
    "tree-uniform": lambda: OrderedTree.single_edge(make_uniform(0.0)),
    "tree-grafting": lambda: OrderedTree.single_edge(make_grafting(0.5, 0.5)),
    "tree-dmax3": lambda: OrderedTree.single_edge(make_table(3, DMAX3_ENTRIES)),
}


def stepped(state, t_final, rng, thin=None):
    """The reference for ``run``: one ``state.step`` per event."""
    snaps = [state.census()] if thin else []
    steps = 0
    while state.t < t_final:
        state.step(rng)
        steps += 1
        if thin and steps % thin == 0 and state.t < t_final:
            snaps.append(state.census())
    snaps.append(state.census())
    return snaps


def same_tree(a, b):
    """Same half-edge structure and degree buckets; true for census engines."""
    if not isinstance(a, OrderedTree):
        return True
    return (a._adj == b._adj and a._ends == b._ends and a._members == b._members
            and a._pos == b._pos and a.is_tree())


def same_snapshots(a, b):
    return len(a) == len(b) and all(
        s.t == r.t and s.counts.tolist() == r.counts.tolist()
        and s.total_weight.hex() == r.total_weight.hex() for s, r in zip(a, b))


class TestCensusKernel:
    """``run`` hands trees to ``_tree_kernel`` and urn and two-colour states
    to ``_census_kernel``; both must leave the state, the running total's
    bits and the generator exactly where ``state.step`` leaves them."""

    @pytest.mark.parametrize("thin", [None, 37])
    @pytest.mark.parametrize("name", sorted(KERNEL_ENGINES))
    def test_matches_step_reference(self, name, thin):
        make = KERNEL_ENGINES[name]
        kernel, ref = make(), make()
        rng_k, rng_r = np.random.default_rng(5), np.random.default_rng(5)
        snaps_k = run(kernel, 3000, rng_k, thin=thin)
        snaps_r = stepped(ref, 3000, rng_r, thin=thin)
        assert kernel.counts == ref.counts
        assert kernel.total_weight.hex() == ref.total_weight.hex()
        assert rng_k.bit_generator.state == rng_r.bit_generator.state
        assert same_snapshots(snaps_k, snaps_r)
        assert same_tree(kernel, ref)
        if name == "pref-i-0.9":
            assert len(kernel.counts) > 16        # the tree grew inside the kernel

    @pytest.mark.parametrize("name", ["pref-i", "rna", "tree-pref-i", "tree-pref-i-0.9",
                                      "tree-grafting", "tree-dmax3"])
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

    def test_end_of_draw_guard(self):
        # w_1 = 0 makes the leaves a zero-weight class; degrees 5 and 6 are
        # empty.  A total a few ulps high sends a draw of u ~ 1 past every
        # class, and a draw of u = 0 passes the zero-weight and empty classes
        # below degree 3; both must end on a class with positive weight (the
        # hub of degree 4 and of degree 3), as in state.step.
        class Fixed:
            def __init__(self, u):
                self.u = u

            def random(self, size=None):
                return self.u if size is None else np.full(size, self.u)

        model = make_preferential(SplittingWeights(1.0, -1.0))
        for u, chosen in ((1.0 - 2.0 ** -53, 4), (0.0, 3)):
            kernel, ref = UrnState(model, [3, 0, 1, 1, 0, 0]), \
                UrnState(model, [3, 0, 1, 1, 0, 0])
            exact = kernel.total_weight
            kernel.total_weight = ref.total_weight = exact * (1 + 4e-16)
            run(kernel, kernel.t + 1, Fixed(u))
            ev = ref.step(Fixed(u))
            assert ev.parent_degree == chosen
            assert kernel.counts == ref.counts and min(kernel.counts) >= 0
            assert kernel.counts[chosen - 1] == 0


class TestSerialisation:
    def test_csv_rows(self):
        snaps = run(UrnState.single_edge(pref_i()), 50, np.random.default_rng(3), thin=25)
        buf = io.StringIO()
        write_census_csv(buf, [snaps[:1], snaps])
        lines = buf.getvalue().splitlines()
        assert lines[:3] == ["replica,t,k,n", "0,2,1,2", "1,2,1,2"]
        assert lines[-1].startswith("1,50,")

    def test_two_colour_csv_rows(self):
        # the header follows the snapshots: two-colour ones carry both colours
        white, black = np.array([1, 0, 0]), np.array([2, 0, 3])
        snap = TwoColourSnapshot(9, white + black, float("nan"), white, black)
        buf = io.StringIO()
        write_census_csv(buf, [[snap]])
        assert buf.getvalue().splitlines() == [
            "replica,t,k,n_white,n_black", "0,9,1,1,2", "0,9,3,0,3"]

    def test_binary_roundtrip(self, tmp_path):
        snaps = run(UrnState.single_edge(pref_i()), 500, np.random.default_rng(8), thin=100)
        path = tmp_path / "census.bin"
        write_census_binary(path, snaps)
        back = read_census_binary(path)
        assert len(back) == len(snaps)
        for s, t in zip(snaps, back):
            assert s.t == t.t and (s.counts == t.counts).all()

    @pytest.mark.parametrize("cut,match", [
        (8, "record at byte 44 holds 4 counts up to byte 88"),
        (3, "record at byte 44 holds 4 counts up to byte 88"),
        (40, "truncated record header at byte 44"),
    ], ids=["short-by-a-count", "short-inside-a-count", "inside-a-header"])
    def test_binary_truncation_refused(self, tmp_path, cut, match):
        # two 4-degree snapshots, 44 bytes each; a short file must not read
        # as a shorter last snapshot or fail with a bare numpy/struct error
        snap = CensusSnapshot(5, np.array([6, 4, 1, 1]), float("nan"))
        path = tmp_path / "two.bin"
        write_census_binary(path, [snap, snap])
        raw = path.read_bytes()
        assert len(raw) == 88
        path.write_bytes(raw[:-cut])
        with pytest.raises(InvalidParameterError, match=match):
            read_census_binary(path)

    def test_binary_layout(self, tmp_path):
        # u64 t, u32 K, then K u64 counts, all little endian
        path = tmp_path / "one.bin"
        write_census_binary(path, [type("S", (), {"t": 2, "counts": np.array([2])})()])
        raw = path.read_bytes()
        assert raw == (2).to_bytes(8, "little") + (1).to_bytes(4, "little") \
            + (2).to_bytes(8, "little")
