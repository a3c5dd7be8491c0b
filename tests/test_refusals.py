"""Refusals: each bad input names itself in its error, with its error type,
and a model outside the paper's hypotheses is refused by ``experiment``
itself, for library callers as for the command line."""

import numpy as np
import pytest

import splitgrow.experiment
from splitgrow import (ExperimentConfig, InvalidDegreeError, InvalidParameterError,
                       OrderedTree, PartitionWeights, RegimeError, SplittingWeights,
                       TwoColourModel, compare, derive_splitting_weights,
                       fixed_point_densities, grafting_density, make_alpha_class,
                       make_preferential, make_table, pref_attachment_density,
                       run_batch, run_replicated)
from splitgrow.experiment import _check_holds
from conftest import DMAX3_ENTRIES, doubled_split_entries

DMAX3 = PartitionWeights.from_table(3, DMAX3_ENTRIES)


def all_ones(i, j):
    """w[i, j] = 1 for every pair: w_i = i (i + 1) / 2, not linear."""
    return np.ones(np.broadcast(i, j).shape)


@pytest.mark.parametrize("make,error,match", [
    (lambda: TwoColourModel(-1.0, -1.5, DMAX3), InvalidParameterError,
     "degree-1 weights must be nonnegative"),
    (lambda: TwoColourModel(1.0, 0.0, PartitionWeights(all_ones)), InvalidParameterError,
     "white partitioning weights are inconsistent with w_white"),
    (lambda: make_alpha_class(SplittingWeights(1.0, 0.0), [0.5], M=3,
                              head=PartitionWeights(all_ones)),
     InvalidParameterError, "head table is inconsistent with the splitting weights"),
    (lambda: pref_attachment_density(SplittingWeights(2.0, -2.0), 3), InvalidParameterError,
     "w_1 = 0 must be positive"),
    (lambda: grafting_density(1.5, 0.5, 3), InvalidParameterError,
     r"alpha must lie in \[0, 1\], got 1.5"),
    (lambda: SplittingWeights(0.0, 1.0).offset, InvalidParameterError,
     r"offset undefined for constant weights \(a = 0\)"),
    (lambda: derive_splitting_weights(DMAX3, 0), InvalidParameterError, "i_max must be >= 1"),
    (lambda: make_table(2, [(1, 2, 1.0)]).split_probabilities(2), InvalidDegreeError,
     "degree 2 has no admissible split"),
    (lambda: fixed_point_densities(make_preferential(SplittingWeights(1.0, 0.0)), K=1),
     InvalidParameterError, "K must be >= 2"),
    (lambda: PartitionWeights.from_table(-5, []), InvalidParameterError,
     "d_max must be at least 2"),
], ids=["two-colour-degree-1", "two-colour-white", "alpha-class-head", "pref-density",
        "grafting-density", "constant-offset", "derive-i_max-0", "no-admissible-split",
        "solve-K-1", "table-d_max-negative"])
def test_library_refusal_names_the_input(make, error, match):
    with pytest.raises(error, match=match):
        make()


def test_check_without_a_tolerance_fails():
    assert not _check_holds("no_such_check", 0.0)


def test_run_batch_refuses_a_tree():
    # the batch advances census and clock but no half-edge: the tree would
    # reach t = 200 with is_tree() False
    tree = OrderedTree.single_edge(make_preferential(SplittingWeights(1.0, 0.0)))
    with pytest.raises(InvalidParameterError, match="grow a tree with run"):
        run_batch([tree], 200, [np.random.default_rng(0)])
    assert tree.t == 2 and tree.is_tree()


NONLINEAR = {"family": "table", "d_max": 300, "entries": doubled_split_entries()}
LINEARITY = "linearity (max |w_i - (1*i+0)| = 250 over i <= 300)"


@pytest.fixture
def one_worker(monkeypatch):
    monkeypatch.setenv("SPLITGROW_THREADS", "1")


@pytest.mark.parametrize("run", [run_replicated, compare], ids=["run_replicated", "compare"])
def test_unsupported_model_refused_for_library_callers(one_worker, monkeypatch, run):
    # compare refuses before its solve: the message is validate_model's
    monkeypatch.setattr(splitgrow.experiment, "solve_model", None)
    cfg = ExperimentConfig.from_dict({"model": NONLINEAR, "replicas": 2, "t_final": 300})
    with pytest.raises(RegimeError, match="force_unsupported") as exc:
        run(cfg)
    assert LINEARITY in str(exc.value)


@pytest.mark.parametrize("model,refused", [
    ({"family": "table", "d_max": 2, "entries": [[1, 2, 1.0]]},
     "top_splittable (no i in 2..d_max-1 with w[i, d_max+2-i] > 0)"),
    (NONLINEAR, LINEARITY),
], ids=["degenerate", "nonlinear"])
def test_forced_model_runs(one_worker, model, refused):
    cfg = {"model": model, "replicas": 2, "t_final": 300}
    with pytest.raises(RegimeError) as exc:
        run_replicated(ExperimentConfig.from_dict(cfg))
    assert refused in str(exc.value)
    results = run_replicated(ExperimentConfig.from_dict({**cfg, "force_unsupported": True}))
    assert [res["t"] for res in results] == [300, 300]


def test_compare_validates_once(one_worker, monkeypatch):
    # the refusal before the solve is the only validation; the replicas
    # do not repeat it, and a two-colour model is not validated at all
    calls = []
    real = splitgrow.experiment.validate_model
    monkeypatch.setattr(splitgrow.experiment, "validate_model",
                        lambda model: calls.append(model) or real(model))
    for family in ("preferential", "rna"):
        compare(ExperimentConfig.from_dict({"model": {"family": family}, "replicas": 2,
                                            "t_final": 200}))
    assert [m.family for m in calls] == ["preferential"]
