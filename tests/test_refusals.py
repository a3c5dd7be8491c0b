"""Refusals: each bad input names itself in its error, with its error type,
and a model outside the paper's hypotheses is refused by its one verdict,
``validate_model``, for library callers as for every command."""

import json
from pathlib import Path

import numpy as np
import pytest

import splitgrow.experiment
import splitgrow.solver
from splitgrow import (ExperimentConfig, InvalidDegreeError, InvalidParameterError,
                       OrderedTree, PartitionWeights, RegimeError, SplittingWeights,
                       TwoColourModel, WeightModel, compare, derive_splitting_weights,
                       fixed_point_densities, grafting_density, make_alpha_class,
                       make_preferential, make_table, make_two_colour_uniform,
                       pref_attachment_density, run_batch, run_replicated, solve_two_colour)
from splitgrow.cli import main
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
    # run_replicated refuses before it grows, compare in its solve: no
    # replica grows either way
    monkeypatch.setattr(splitgrow.experiment, "_simulate_block", None)
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
    # one verdict per command: compare's solve judges the model and its
    # replicas do not judge it again, run_replicated judges it once, and a
    # two-colour model is judged by its reduction
    calls = []
    real = splitgrow.solver.validate_model
    monkeypatch.setattr(splitgrow.solver, "validate_model",
                        lambda model: calls.append(model.family) or real(model))
    for family in ("preferential", "rna"):
        cfg = ExperimentConfig.from_dict({"model": {"family": family}, "replicas": 2,
                                          "t_final": 200})
        compare(cfg)
        run_replicated(cfg)
    assert calls == ["preferential", "preferential", "reduced", "reduced"]


def bent_at_100():
    """``w_i = i`` under uniform partitioning with twice the mass at split
    degree 100, so ``w_100 = 200``: linear over the degrees 1..16 of the
    model's own fit, not over the verdict's 1..200."""
    def fn(i, j):
        d = i + j - 2
        return np.where(d >= 1, np.where(d == 100, 4.0, 2.0) / (np.maximum(d, 1) + 1), 0.0)

    return WeightModel(PartitionWeights(fn, by_split_degree=True), family="bent-at-100",
                       leaf_mass_limit=2.0)


# flags of each command besides the model's; compare's z gate is off, since
# only the verdict is under test
GROWS = ["--seed", "3", "--replicas", "2", "--t-final", "300"]
COMMANDS = {"solve": ["--K", "64"], "simulate": GROWS,
            "compare": [*GROWS, "--z-crit", "1e9"]}

UNSUPPORTED = {
    "grafting-s0": (["--family", "grafting", "--alpha", "1", "--gamma", "1"],
                    "regime", "regime I with s = 0"),
    "two-colour-uniform-s0": (["--family", "two-colour-uniform", "--a", "1.5", "--b", "1"],
                              "regime", "regime II with s = 0"),
    "table-300": (["--table", "t300.json"],
                  "linearity", "max |w_i - (1*i+0)| = 250 over i <= 300"),
    "bent-at-100": (["--family", "bent-at-100"],
                    "linearity", "max |w_i - (1*i+0)| = 100 over i <= 200"),
}

SUPPORTED = {
    "preferential": ["--family", "preferential"],
    "uniform": ["--family", "uniform"],
    "grafting": ["--family", "grafting", "--alpha", "0.5", "--gamma", "0.5"],
    "table": ["--table", "dmax3.json"],
    "rna": ["--family", "rna"],
    "two-colour-uniform": ["--family", "two-colour-uniform", "--a", "1", "--b", "0.3"],
    "two-colour-grafting": ["--family", "two-colour-grafting", "--a", "1", "--b", "0"],
}


@pytest.fixture
def cli_models(one_worker, monkeypatch, tmp_path):
    """The table files in the working directory, and ``bent_at_100`` as a
    family the CLI can name."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(splitgrow.experiment.FAMILIES, "bent-at-100", ({}, bent_at_100))
    for name, d_max, entries in (("t300", 300, doubled_split_entries()),
                                 ("dmax3", 3, DMAX3_ENTRIES)):
        Path(f"{name}.json").write_text(json.dumps({"d_max": d_max, "entries": entries}))


@pytest.mark.parametrize("flags,name,detail", UNSUPPORTED.values(), ids=UNSUPPORTED)
def test_commands_agree_on_unsupported_models(cli_models, capsys, flags, name, detail):
    # validate fails the condition, and solve, simulate and compare each
    # refuse the model with one error: line naming it, before --out exists
    assert main(["validate", *flags]) == 2
    assert f"  {name:<20} FAIL  {detail}\n" in capsys.readouterr().out
    for command, extra in COMMANDS.items():
        argv = [command, *flags, *extra, "--out", command]
        assert main(argv) == 2, command
        err = capsys.readouterr().err
        assert err.startswith(f"error: model fails {name} ({detail})") and err.count("\n") == 1
        assert not Path(command).exists()
        assert main([*argv, "--force-unsupported"]) == 0, command
        capsys.readouterr()


def test_supported_points_cover_every_family():
    assert set(SUPPORTED) == set(splitgrow.experiment.FAMILIES)


@pytest.mark.parametrize("flags", SUPPORTED.values(), ids=SUPPORTED)
def test_commands_agree_on_supported_models(cli_models, flags):
    assert main(["validate", *flags]) == 0
    for command, extra in COMMANDS.items():
        assert main([command, *flags, *extra, "--out", command]) == 0, command


def kinked_at_50():
    """Two-colour uniform (1, 0) with the white pairs doubled at split degree
    50: its white fit over degrees 1..16 holds, and so does its reduction's,
    so only the verdict's degrees 1..200 see the kink."""
    uniform = make_two_colour_uniform(1.0, 0.0).white.partition

    def fn(i, j):
        return np.where(i + j - 2 == 50, 2.0, 1.0) * uniform(i, j)

    return TwoColourModel(1.0, 0.0, PartitionWeights(fn, by_split_degree=True),
                          family="kinked-at-50")


def test_two_colour_reduction_is_judged_by_the_verdict(one_worker, monkeypatch, capsys):
    detail = "max |w_i - (1*i+0)| = 50 over i <= 200"
    with pytest.raises(RegimeError, match="force_unsupported") as exc:
        solve_two_colour(kinked_at_50(), K=64)
    assert f"linearity ({detail})" in str(exc.value)
    monkeypatch.setitem(splitgrow.experiment.FAMILIES, "kinked-at-50", ({}, kinked_at_50))
    assert main(["validate", "--family", "kinked-at-50"]) == 2
    assert f"  {'linearity':<20} FAIL  {detail}\n" in capsys.readouterr().out
    assert solve_two_colour(kinked_at_50(), K=64, force_unsupported=True).unsupported
