import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import splitgrow
import splitgrow.cli
import splitgrow.experiment
import splitgrow.growth
import splitgrow.solver
import splitgrow.twocolour
from splitgrow import InvalidParameterError
from splitgrow.cli import main, parse_weight_expr
from splitgrow.experiment import FAMILIES, ExperimentConfig, ExperimentReport, worker_count
from splitgrow.weights import MAX_DEGREE
from conftest import DMAX3_ENTRIES, doubled_split_entries, singular_at

E2 = math.e ** 2
SUPER_EXP = "super-exponential tail; zero-tail truncation used"


class TestParseWeightExpr:
    @pytest.mark.parametrize("expr,a,b", [
        ("i", 1.0, 0.0), ("2*i+1", 2.0, 1.0), ("i-0.5", 1.0, -0.5),
        ("1", 0.0, 1.0), ("0.5*i", 0.5, 0.0), ("i + 1", 1.0, 1.0),
        ("-i+3", -1.0, 3.0),
    ])
    def test_forms(self, expr, a, b):
        sw = parse_weight_expr(expr)
        assert (sw.a, sw.b) == (a, b)

    @pytest.mark.parametrize("expr", ["i*2", "", "2*i+", "x", "i2", "i 2", "i1e3"])
    def test_unparsable_raises(self, expr):
        with pytest.raises(InvalidParameterError, match="weight expression"):
            parse_weight_expr(expr)


def dmax3_table_file(tmp_path):
    path = tmp_path / "dmax3.json"
    path.write_text(json.dumps({"d_max": 3, "entries": [list(e) for e in DMAX3_ENTRIES]}))
    return path


def doubled_split_table_file(tmp_path):
    """A d_max = 300 table that is linear up to degree 249 only."""
    path = tmp_path / "t300.json"
    path.write_text(json.dumps({"d_max": 300, "entries": doubled_split_entries()}))
    return path


class TestSolve:
    def test_preferential(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["solve", "--family", "preferential", "--w", "i",
                   "--K", "400", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "solution.json").read_text())
        assert doc["method"] == "fixed-point"
        assert doc["densities"][0] == pytest.approx(2 / 3, abs=1e-9)
        man = json.loads((out / "manifest.json").read_text())
        assert "config_digest" in man and "versions" in man

    def test_table(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["solve", "--table", str(dmax3_table_file(tmp_path)),
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "solution.json").read_text())
        assert doc["method"] == "linear"
        assert doc["densities"] == pytest.approx([0.25, 0.5, 0.25], abs=1e-10)

    def test_uniform(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["solve", "--family", "uniform", "--x", "0", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "solution.json").read_text())
        assert doc["densities"][0] == pytest.approx(8 / (3 * (E2 - 1)), abs=1e-10)
        assert doc["densities"][0] == pytest.approx(0.4173812, abs=1e-6)

    def test_two_colour(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["solve", "--family", "rna", "--K", "128", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "solution.json").read_text())
        assert doc["kind"] == "two-colour"
        assert doc["e_black"][0] == pytest.approx(1 / E2, abs=1e-10)
        assert doc["rho_white"][0] + doc["rho_black"][0] == pytest.approx(
            0.4173804, abs=1e-7)

    def test_two_colour_grafting_from_flags(self, tmp_path, capsys):
        # the family's spec builds a model that solves and grows; its
        # compare is not pinned here (the reduction has no tail closure)
        model = ["--family", "two-colour-grafting", "--a", "1", "--b", "0.5",
                 "--alpha0", "0.5"]
        assert main(["solve", *model, "--out", str(tmp_path / "s")]) == 0
        doc = json.loads((tmp_path / "s/solution.json").read_text())
        assert doc["kind"] == "two-colour"
        assert main(["simulate", *model, "--t-final", "500", "--replicas", "2",
                     "--out", str(tmp_path / "g")]) == 0
        summary = capsys.readouterr().err.splitlines()[-1]
        assert summary.startswith("2 replicas to t=500 (urn); colour_identity_dev=0,")
        manifest = json.loads((tmp_path / "g/manifest.json").read_text())
        assert manifest["config"]["model"] == {"family": "two-colour-grafting",
                                               "a": 1.0, "b": 0.5, "alpha0": 0.5}

    @pytest.mark.parametrize("flags,facts", [
        (["--family", "preferential", "--w", "i", "--K", "400"],
         {"K": 400, "method": "fixed-point", "closure": "gamma",
          "closure_reason": None, "head_size": 2}),
        (["--family", "grafting", "--alpha", "0", "--gamma", "1", "--K", "64"],
         {"K": 64, "method": "fixed-point", "closure": "geometric",
          "closure_reason": None, "head_size": 2}),
        (["--family", "uniform", "--x", "0", "--K", "64"],
         {"K": 64, "method": "fixed-point", "closure": "none",
          "closure_reason": SUPER_EXP, "head_size": 0}),
        (["--table"],
         {"K": 3, "method": "linear", "closure": "none",
          "closure_reason": "bounded model", "head_size": 3}),
        (["--family", "rna", "--K", "32"],
         {"K": 32, "method": "reduction", "closure": "none",
          "closure_reason": SUPER_EXP, "head_size": 0}),
    ], ids=["preferential", "grafting", "uniform", "table", "rna"])
    def test_manifest_solver_facts(self, tmp_path, flags, facts):
        if flags == ["--table"]:
            flags = ["--table", str(dmax3_table_file(tmp_path))]
        out = tmp_path / "out"
        assert main(["solve", *flags, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert 0 <= manifest["write_s"] <= manifest["runtime_s"]   # the solution.json write
        solver = manifest["solver"]
        doc = json.loads((out / "solution.json").read_text())
        assert solver.pop("max_residual") == doc["max_residual"]
        assert solver == facts
        assert "closure" not in doc and "head_size" not in doc

    def test_compare_manifest_solver_facts(self, tmp_path):
        # the rna reduction is solved by the recurrence: no dense head
        assert main(["compare", "--family", "rna", "--replicas", "2", "--t-final", "300",
                     "--z-crit", "1e9", "--K", "64", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        # the report.csv and solution.json writes
        assert 0 <= manifest["write_s"] <= manifest["runtime_s"]
        solver = manifest["solver"]
        del solver["max_residual"]
        assert solver == {"K": 64, "method": "reduction", "closure": "none",
                          "closure_reason": SUPER_EXP, "head_size": 0}

    @pytest.mark.parametrize("flags,digest", [
        (["--family", "preferential", "--w", "i", "--K", "512"],
         "6785b8a1c22f9217ad5f0eb63c695bf22cf580140e89b175262dceb9867ebe4a"),
        (["--family", "uniform", "--x", "0", "--K", "1024"],
         "e9c7d29a0b50144ceff475cd246325935d38c66b9f2b8a215a78c646b1d6f6f4"),
        (["--family", "grafting", "--alpha", "0.5", "--gamma", "0.5", "--K", "1024"],
         "5b00254facdc45317af3238c4c3375d5bdde8dbe1a23f365d08567c086b9ea8c"),
        (["--table"],
         "1e8e05e762d3f296ab9325bea36fc53e4b5dd8009277e3d2f64652ad92032857"),
        (["--family", "grafting", "--alpha", "1", "--gamma", "1", "--K", "64",
          "--force-unsupported"],
         "29039d848d17b8e81439813bbb2c6545b72d001b84e9bf5eb0f074b93f9f3298"),
        (["--family", "rna", "--K", "256"],
         "e7924088761dfa6176df7d712a88c69bfccebb233ebfb1463bec9aabcaf32481"),
    ], ids=["preferential", "uniform", "grafting", "table", "grafting-forced", "rna"])
    def test_solution_bytes_pinned(self, tmp_path, flags, digest):
        # any change to these bytes must be explained in CHANGES.md
        if flags == ["--table"]:
            flags = ["--table", str(dmax3_table_file(tmp_path))]
        assert main(["solve", *flags, "--out", str(tmp_path / "o")]) == 0
        got = hashlib.sha256((tmp_path / "o/solution.json").read_bytes()).hexdigest()
        assert got == digest

    def test_nonlinear_table_refused(self, tmp_path, capsys):
        # linear up to degree 249 only: the solve refuses it unless forced
        rc = main(["solve", "--table", str(doubled_split_table_file(tmp_path)),
                   "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2 and "error:" in err and "Traceback" not in err
        assert "linearity (max |w_i - (1*i+0)| = 250 over i <= 300)" in err
        assert "--force-unsupported" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags", [
        ["--table"], ["--family", "two-colour-uniform", "--a", "1.5", "--b", "1", "--K", "64"],
    ], ids=["nonlinear-table", "two-colour-s0"])
    def test_forced_solution_watermarked(self, tmp_path, flags):
        # w_black = 1 is constant, so the reduced model has s = 0
        if flags == ["--table"]:
            flags = ["--table", str(doubled_split_table_file(tmp_path))]
        assert main(["solve", *flags, "--out", str(tmp_path / "o")]) == 2
        assert main(["solve", *flags, "--force-unsupported", "--out", str(tmp_path / "o")]) == 0
        doc = json.loads((tmp_path / "o/solution.json").read_text())
        assert doc["unsupported"] is True
        assert any("forced solve" in w for w in doc["warnings"])

    def test_case2_needs_force(self, tmp_path, capsys):
        rc = main(["solve", "--family", "preferential", "--w", "i", "--K", "64"])
        assert rc == 0
        # grafting alpha=1 yields zero leaf mass at degree 2: refused politely
        rc = main(["solve", "--family", "grafting", "--alpha", "1.0",
                   "--gamma", "1.0", "--K", "32"])
        assert rc == 2


class TestSimulate:
    def test_deterministic_outputs(self, tmp_path):
        args = ["simulate", "--family", "preferential", "--w", "i",
                "--seed", "4242", "--replicas", "2", "--t-final", "2000",
                "--thin", "500"]
        rc = main(args + ["--out", str(tmp_path / "a")])
        assert rc == 0
        rc = main(args + ["--out", str(tmp_path / "b")])
        assert rc == 0
        assert (tmp_path / "a/census.csv").read_bytes() \
            == (tmp_path / "b/census.csv").read_bytes()
        da = json.loads((tmp_path / "a/manifest.json").read_text())
        db = json.loads((tmp_path / "b/manifest.json").read_text())
        assert da["config_digest"] == db["config_digest"]

    def test_census_identities_in_csv(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--family", "uniform", "--x", "0",
                   "--seed", "7", "--replicas", "2", "--t-final", "1500",
                   "--out", str(out)])
        assert rc == 0
        per_rep = {}
        for line in (out / "census.csv").read_text().splitlines()[1:]:
            rep, t, k, n = map(int, line.split(","))
            key = (rep, t)
            s, ks = per_rep.get(key, (0, 0))
            per_rep[key] = (s + n, ks + k * n)
        for (rep, t), (s, ks) in per_rep.items():
            assert s == t and ks == 2 * t - 2

    def test_invalid_model_aborts_with_report(self, tmp_path, capsys):
        table = tmp_path / "bad.json"
        table.write_text(json.dumps({"d_max": 2, "entries": [[1, 2, 1.0]]}))
        rc = main(["simulate", "--table", str(table), "--t-final", "100",
                   "--replicas", "1", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "top_splittable (no i in 2..d_max-1 with w[i, d_max+2-i] > 0)" in err

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_nonlinear_table_needs_force(self, tmp_path, capsys, monkeypatch, command):
        # linear up to degree 249 only: refused unless forced
        monkeypatch.setenv("SPLITGROW_THREADS", "1")
        argv = [command, "--table", str(doubled_split_table_file(tmp_path)),
                "--replicas", "2", "--t-final", "300", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "linearity (max |w_i - (1*i+0)| = 250 over i <= 300)" in err
        assert not (tmp_path / "o").exists()
        assert main(argv + ["--force-unsupported"]) != 2
        assert (tmp_path / "o/manifest.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_unsupported_refusal_is_one_error_line(self, tmp_path, capsys, monkeypatch,
                                                   command):
        # a non-linear 4-degree table once printed three condition rows on
        # stdout and exited 2 with no error: line; a config's
        # force_unsupported is not undone by the absent flag
        monkeypatch.setenv("SPLITGROW_THREADS", "1")
        monkeypatch.chdir(tmp_path)
        table = {"d_max": 4, "entries": [[1, 2, 1.0], [1, 3, 1.0], [2, 2, 3.0],
                                         [1, 4, 0.5], [2, 3, 2.0]]}
        Path("t.json").write_text(json.dumps(table))
        argv = [command, "--table", "t.json", "--replicas", "2", "--t-final", "200"]
        assert main([*argv, "--out", "o"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: model fails linearity (max |w_i - (4*i-3)| = 13 "
                              "over i <= 4); top_splittable (no i in 2..d_max-1 ")
        assert not Path("o").exists()
        Path("cfg.json").write_text(json.dumps({"model": {"family": "uniform"},
                                                "force_unsupported": True}))
        assert main([*argv, "--config", "cfg.json", "--out", "forced"]) != 2
        assert json.loads(Path("forced/manifest.json").read_text())["config"][
            "force_unsupported"] is True

    def test_failed_invariant_check_exits_1(self, tmp_path, monkeypatch, capsys):
        # the rule compare applies: a broken census identity fails the run
        monkeypatch.setenv("SPLITGROW_THREADS", "1")
        real = splitgrow.growth.UrnState.checks

        def broken(state):
            return {**real(state), "census_sum_dev": 1}

        monkeypatch.setattr(splitgrow.growth.UrnState, "checks", broken)
        rc = main(["simulate", "--family", "preferential", "--w", "i", "--seed", "3",
                   "--replicas", "2", "--t-final", "300", "--out", str(tmp_path)])
        assert rc == 1
        assert "census_sum_dev=1," in capsys.readouterr().err

    def test_two_colour_csv(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--family", "rna", "--seed", "11",
                   "--replicas", "1", "--t-final", "800", "--out", str(out)])
        assert rc == 0
        lines = (out / "census.csv").read_text().splitlines()
        assert lines[0] == "replica,t,k,n_white,n_black"
        tot = 0
        t_seen = 0
        for line in lines[1:]:
            rep, t, k, nw, nb = map(int, line.split(","))
            tot += 3 * nw + 2 * nb
            t_seen = t
        assert tot == t_seen + 2

    def test_two_colour_thinned_snapshots(self, tmp_path):
        # one snapshot per t, the initial state included, as for one colour
        out = tmp_path / "out"
        rc = main(["simulate", "--family", "rna", "--seed", "11", "--replicas", "2",
                   "--t-final", "302", "--thin", "100", "--out", str(out)])
        assert rc == 0
        keys = [tuple(map(int, line.split(",")[:3]))
                for line in (out / "census.csv").read_text().splitlines()[1:]]
        assert len(keys) == len(set(keys))
        for rep in (0, 1):
            assert sorted({t for r, t, _ in keys if r == rep}) == [2, 102, 202, 302]

    @pytest.mark.parametrize("engine,w,kernel", [
        ("urn", "i", "chains"), ("tree", "i", "leaf-block"), ("tree", "i-0.9", "scalar"),
    ], ids=["urn", "tree", "tree-scalar"])
    def test_manifest_growth_counters(self, tmp_path, monkeypatch, engine, w, kernel):
        # per replica the events kept, the events drawn (the branching
        # engine draws past the last kept one) and the largest degree; per
        # batch the rounds (none for trees), the growth time and the kernel:
        # chains for the urn, whose every split sheds a leaf, and for trees
        # blocks of leaf splits for w = i, whose envelope is exact, the
        # scalar kernel for w = i - 0.9, whose is not
        monkeypatch.setenv("SPLITGROW_THREADS", "2")
        rc = main(["simulate", "--family", "preferential", "--w", w, "--engine", engine,
                   "--seed", "3", "--replicas", "3", "--t-final", "800",
                   "--out", str(tmp_path)])
        assert rc == 0
        growth = json.loads((tmp_path / "manifest.json").read_text())["growth"]
        assert len(growth["replicas"]) == 3
        for rep in growth["replicas"]:
            assert rep["events"] == 800 - 2
            assert rep["events_drawn"] >= rep["events"]
            assert 2 <= rep["max_degree"] < 800
        assert [b["first"] for b in growth["batches"]] == [0, 1]
        assert sum(b["replicas"] for b in growth["batches"]) == 3
        for batch in growth["batches"]:
            assert batch["growth_s"] >= 0
            assert (batch["rounds"] > 0) if engine == "urn" else batch["rounds"] is None
            assert batch.get("kernel") == kernel
        if engine == "urn":
            assert any(r["events_drawn"] > r["events"] for r in growth["replicas"])

    def test_manifest_write_time(self, tmp_path):
        # write_s, the census.csv write, is one part of runtime_s
        rc = main(["simulate", "--family", "preferential", "--w", "i", "--engine", "tree",
                   "--seed", "3", "--replicas", "2", "--t-final", "800",
                   "--out", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert 0 <= manifest["write_s"] <= manifest["runtime_s"]

    def test_manifest_census_size(self, tmp_path):
        # snapshots counts the (replica, t) pairs census.csv holds, every
        # snapshot having a nonzero count, and census_bytes is its size
        rc = main(["simulate", "--family", "rna", "--seed", "11", "--replicas", "2",
                   "--t-final", "302", "--thin", "100", "--out", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        census = tmp_path / "census.csv"
        keys = {tuple(line.split(",")[:2]) for line in census.read_text().splitlines()[1:]}
        assert manifest["snapshots"] == len(keys) == 8
        assert manifest["census_bytes"] == census.stat().st_size

    @pytest.mark.parametrize("flags,digest", [
        (["--family", "preferential", "--w", "i", "--engine", "tree", "--seed", "5",
          "--t-final", "2000", "--thin", "500"],
         "befa8cf68fca3aadb5c222307bbffcc5ffff10e61c363b77328dcc461033ce1d"),
        (["--family", "rna", "--seed", "11", "--t-final", "302", "--thin", "100"],
         "3b780a67cd6d1959ec2d4b6aac248533e8704148acb4d02dac34736ed9dfe74b"),
        # two legs of the event budget, and clocks on window edges
        (["--family", "preferential", "--w", "i", "--seed", "5", "--t-final", "70000",
          "--thin", "1024"],
         "f955fe2091708919519c4da3c1bcacbf4b93afec493fe720599ee397a82d00ee"),
        # trees past 2**16 vertices, whose ids fill both 16-bit halves
        (["--family", "preferential", "--w", "i", "--engine", "tree", "--seed", "5",
          "--t-final", "70000", "--thin", "7000"],
         "415cb5f3ceef845e40003f91df627c697ba2ce3d867dc1079cad3afe79e8752f"),
    ], ids=["tree", "two-colour", "urn", "tree-70000"])
    def test_census_bytes_pinned(self, tmp_path, flags, digest):
        # any change to these bytes must be explained in CHANGES.md
        rc = main(["simulate", *flags, "--replicas", "2", "--out", str(tmp_path)])
        assert rc == 0
        assert hashlib.sha256((tmp_path / "census.csv").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("flags,summary", [
        (["--family", "rna", "--seed", "11", "--t-final", "302", "--thin", "100"],
         "colour_identity_dev=0, weight_closed_form_rel_dev=0, weight_rel_drift=0"),
        (["--family", "preferential", "--w", "2*i-0.7", "--seed", "3", "--t-final", "3000"],
         "census_moment_dev=0, census_sum_dev=0, weight_closed_form_rel_dev=5.7e-15, "
         "weight_rel_drift=4.78e-15"),
        (["--force-unsupported", "--seed", "3", "--t-final", "3000"],
         "census_moment_dev=0, census_sum_dev=0, weight_rel_drift=0"),
        (["--family", "preferential", "--w", "i+0.3", "--engine", "tree", "--seed", "3",
          "--t-final", "3000"],
         "census_moment_dev=0, census_sum_dev=0, weight_closed_form_rel_dev=5.16e-14, "
         "weight_rel_drift=5.12e-14"),
        (["--family", "preferential", "--w", "2*i-0.7", "--engine", "tree", "--seed", "3",
          "--t-final", "3000"],
         "census_moment_dev=0, census_sum_dev=0, weight_closed_form_rel_dev=5.7e-15, "
         "weight_rel_drift=5.15e-15"),
    ], ids=["two-colour", "urn", "urn-nonlinear", "tree-leaf-block", "tree-scalar"])
    def test_summary_line_pinned(self, tmp_path, capsys, flags, summary):
        # each check's worst value over the replicas, in name order; the
        # weight closed form is NaN for a nonlinear table, so it is left out
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {
            "family": "table", "d_max": 3,
            "entries": [[1, 2, 1.0], [1, 3, 0.5], [2, 2, 3.0], [2, 3, 1.0]]}}))
        rc = main(["simulate", "--config", str(cfg), *flags, "--replicas", "2",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        t_final = flags[flags.index("--t-final") + 1]
        engine = "tree" if "tree" in flags else "urn"
        assert capsys.readouterr().err.splitlines()[-1] \
            == f"2 replicas to t={t_final} ({engine}); {summary}"


class TestCompare:
    def test_preferential_baseline_passes(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["compare", "--family", "preferential", "--w", "i",
                   "--seed", "2025", "--replicas", "8", "--t-final", "20000",
                   "--k-check", "4", "--out", str(out)])
        assert rc == 0
        text = (out / "report.csv").read_text()
        assert "# seed,2025" in text
        assert "closed-form" in text

    def test_report_bytes_reproducible(self, tmp_path):
        args = ["compare", "--family", "grafting", "--alpha", "0.5",
                "--gamma", "1.0", "--seed", "808", "--replicas", "2",
                "--t-final", "3000", "--k-check", "3"]
        rc_a = main(args + ["--out", str(tmp_path / "a")])
        rc_b = main(args + ["--out", str(tmp_path / "b")])
        assert rc_a == rc_b
        assert (tmp_path / "a/report.csv").read_bytes() \
            == (tmp_path / "b/report.csv").read_bytes()
        assert (tmp_path / "a/solution.json").read_bytes() \
            == (tmp_path / "b/solution.json").read_bytes()

    @pytest.mark.parametrize("flags", [["--family", "preferential", "--w", "i-0.9"],
                                       ["--table"]],
                             ids=["rejection-pref-i-0.9", "bounded-dmax3"])
    def test_tree_engine_passes(self, tmp_path, flags):
        # the tree's envelope sampler on its two inexact paths, rejection for
        # b < 0 and the bounded table, against the analytic densities
        if flags == ["--table"]:
            flags = ["--table", str(dmax3_table_file(tmp_path))]
        rc = main(["compare", *flags, "--engine", "tree", "--seed", "61",
                   "--replicas", "32", "--t-final", "5000", "--out", str(tmp_path / "o")])
        assert rc == 0

    def test_mismatched_reference_fails(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "model": {"family": "preferential", "a": 1.0, "b": 0.0},
            "reference_model": {"family": "uniform", "x": 0.0},
            "replicas": 8, "t_final": 20000, "seed": 99, "k_check": 3,
        }))
        rc = main(["compare", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert rc == 1

    @pytest.mark.parametrize("flags", [
        ["--family", "rna"], ["--table"], ["--family", "preferential", "--w", "i"],
    ], ids=["rna", "table", "preferential"])
    def test_compare_solves_once(self, tmp_path, monkeypatch, flags):
        # compare solves the model once, and solution.json holds that solve
        # with the bytes of a plain solve; only outermost calls count, so
        # the reduction's inner fixed point is not a second solve
        if flags == ["--table"]:
            flags = ["--table", str(dmax3_table_file(tmp_path))]
        calls, depth = [], [0]

        def counting(real):
            def wrapper(*args, **kwargs):
                if not depth[0]:
                    calls.append(real.__name__)
                depth[0] += 1
                try:
                    return real(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return wrapper

        solvers = {"fixed_point_densities": splitgrow.solver.fixed_point_densities,
                   "solve_two_colour": splitgrow.twocolour.solve_two_colour}
        for mod in (splitgrow, splitgrow.cli, splitgrow.experiment,
                    splitgrow.solver, splitgrow.twocolour):
            for name, real in solvers.items():
                monkeypatch.setattr(mod, name, counting(real), raising=False)
        monkeypatch.setenv("SPLITGROW_THREADS", "1")
        rc = main(["compare", *flags, "--seed", "5", "--replicas", "2",
                   "--t-final", "300", "--k-check", "1", "--z-crit", "1e9",
                   "--K", "64", "--out", str(tmp_path / "c")])
        assert rc == 0 and len(calls) == 1, calls
        assert main(["solve", *flags, "--K", "64", "--out", str(tmp_path / "s")]) == 0
        assert (tmp_path / "c/solution.json").read_bytes() \
            == (tmp_path / "s/solution.json").read_bytes()

    def test_benchmark_spans_recorded(self, tmp_path, monkeypatch):
        # the benchmark's tracer rebinds the solver, tree-growth and closed-form
        # names that cli and experiment call, growth's and closed_forms's
        # before either module is imported; a call that bypasses those
        # globals loses its span
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from tracing import Tracer
        monkeypatch.setenv("SPLITGROW_THREADS", "1")
        tracer = Tracer()
        with tracer.installed():
            assert main(["solve", "--family", "uniform", "--x", "0", "--K", "64"]) == 0
            assert main(["compare", "--family", "rna", "--replicas", "2",
                         "--t-final", "300", "--z-crit", "1e9",
                         "--out", str(tmp_path)]) == 0
            assert main(["compare", "--family", "preferential", "--w", "i", "--replicas", "2",
                         "--t-final", "300", "--engine", "tree", "--z-crit", "1e9",
                         "--out", str(tmp_path)]) == 0
        names = {span["name"] for span in tracer.spans}
        assert {"solver.fixed_point_densities", "twocolour.solve_two_colour",
                "growth.run", "closed_forms.densities"} <= names

    @pytest.mark.parametrize("flags", [["--family", "preferential", "--w", "i"],
                                       ["--family", "rna"]], ids=["preferential", "rna"])
    def test_report_bytes_independent_of_workers(self, tmp_path, monkeypatch, flags):
        # each worker grows a contiguous block of replicas, each replica
        # from its own child seed, so the worker count cannot change the
        # bytes; the z gate is off because only the bytes are compared
        reports = []
        for threads in ("1", "2"):
            monkeypatch.setenv("SPLITGROW_THREADS", threads)
            out = tmp_path / threads
            assert main(["compare", *flags, "--seed", "17", "--replicas", "5",
                         "--t-final", "2000", "--z-crit", "1e9", "--out", str(out)]) == 0
            reports.append((out / "report.csv").read_bytes())
            manifest = json.loads((out / "manifest.json").read_text())
            assert len(manifest["growth"]["batches"]) == int(threads)
        assert reports[0] == reports[1]

    def test_two_colour_report_bytes_pinned(self, tmp_path, monkeypatch):
        # the analytic column comes from the reduction's recurrence solve;
        # any change to these bytes must be explained in CHANGES.md
        monkeypatch.setenv("SPLITGROW_THREADS", "1")
        rc = main(["compare", "--family", "rna", "--seed", "31", "--replicas", "2",
                   "--t-final", "3000", "--k-check", "3", "--K", "64",
                   "--out", str(tmp_path)])
        assert rc == 0
        digest = hashlib.sha256((tmp_path / "report.csv").read_bytes()).hexdigest()
        assert digest == ("556f63df0239112bc5cf81fce38f8b4f"
                          "15f60dce7c96d95700336727fee4d56d")

    def test_urn_report_bytes_pinned(self, tmp_path):
        # pinned for the branching-process engine; the worker count must not
        # change these bytes, so this runs with the default count
        rc = main(["compare", "--family", "preferential", "--w", "i", "--seed", "2025",
                   "--replicas", "4", "--t-final", "5000", "--k-check", "4",
                   "--out", str(tmp_path)])
        assert rc == 0
        digest = hashlib.sha256((tmp_path / "report.csv").read_bytes()).hexdigest()
        assert digest == ("b373bd00b5b0a74b3738710aca9dbb00"
                          "651425354184dac8bb5242fe43520e11")

    def test_printed_max_z_is_over_checked_degrees(self, tmp_path, capsys, monkeypatch):
        # given z-scores whose largest |z| is at k = 5, beyond k_check = 4:
        # the printed maximum is the largest over k <= 4, and the run passes
        real = splitgrow.cli.compare

        def given_z(cfg):
            report = real(cfg)
            for row, z in zip(report.rows, [1.5, -2.25, 0.5, 1.0, 4.75]):
                row.z = z
            return report

        monkeypatch.setattr(splitgrow.cli, "compare", given_z)
        rc = main(["compare", "--family", "preferential", "--w", "i", "--seed", "2025",
                   "--replicas", "4", "--t-final", "5000", "--k-check", "4",
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = [line.split(",") for line in
                (tmp_path / "report.csv").read_text().splitlines()
                if line and not line.startswith(("#", "colour"))]
        assert [float(r[6]) for r in rows[:5]] == [1.5, -2.25, 0.5, 1.0, 4.75]
        err = capsys.readouterr().err
        assert "compare PASS: max |z| = 2.25 over k <= 4;" in err
        solver = json.loads((tmp_path / "manifest.json").read_text())["solver"]
        assert (solver["closure"], solver["head_size"]) == ("gamma", 2)

    def test_uniform_report_bytes_pinned(self, tmp_path, monkeypatch):
        # the analytic column is the log-space closed form; the empirical
        # columns come from the branching-process engine.  With two replicas
        # each z is Student-t with one degree of freedom, beyond 5 in one
        # row of eight; at this seed no checked row is (max |z| 1.03), so
        # compare exits 0
        monkeypatch.setenv("SPLITGROW_THREADS", "1")
        rc = main(["compare", "--family", "uniform", "--x", "0", "--seed", "7",
                   "--replicas", "2", "--t-final", "2000", "--k-check", "3",
                   "--out", str(tmp_path)])
        assert rc == 0
        digest = hashlib.sha256((tmp_path / "report.csv").read_bytes()).hexdigest()
        assert digest == ("27d3a98edcd77dc213b1905df4424ec6"
                          "ba7ade727cb9ade858757a32c2133dbc")

    def test_zero_se_z_has_the_sign_of_the_difference(self, tmp_path):
        # a row on which every replica has the same count has SE 0; a mean
        # off the analytic density then has the z of the difference's sign,
        # and a mean on it z 0: on given rows, and on the rows of a run
        # whose two replicas both leave the high degrees empty
        z = splitgrow.experiment._z_scores(np.array([0.0, 0.5, 0.25, 0.25]), np.zeros(4),
                                           np.array([0.125, 0.25, 0.25, 0.5]))
        assert z.tolist() == [-math.inf, math.inf, 0.0, -math.inf]
        rc = main(["compare", "--family", "uniform", "--x", "0", "--seed", "7",
                   "--replicas", "2", "--t-final", "2000", "--k-check", "3",
                   "--out", str(tmp_path)])
        assert rc in (0, 1)
        rows = [list(map(float, line.split(",")[3:])) for line in
                (tmp_path / "report.csv").read_text().splitlines()
                if line and not line.startswith(("#", "colour"))]
        zero_se = [(ana, mean, z) for ana, mean, se, z in rows if se == 0 and mean != ana]
        assert zero_se
        for ana, mean, z in zero_se:
            assert z == (math.inf if mean > ana else -math.inf)

    def test_uniform_large_x_compares(self, tmp_path):
        # the normalisation constant underflows at x = 200; its log does not
        rc = main(["compare", "--family", "uniform", "--x", "200", "--seed", "3",
                   "--replicas", "2", "--t-final", "300", "--k-check", "1",
                   "--z-crit", "1e9", "--out", str(tmp_path)])
        assert rc == 0
        assert ",1,closed-form,0.3683350198" in (tmp_path / "report.csv").read_text()

    def test_uniform_negative_x_compares(self, tmp_path, monkeypatch, capsys):
        # x = -0.7 puts the Bessel order 1/2 + x of the closed form below 0
        monkeypatch.setenv("SPLITGROW_THREADS", "1")
        rc = main(["compare", "--family", "uniform", "--x", "-0.7", "--replicas", "16",
                   "--t-final", "5000", "--out", str(tmp_path)])
        assert rc == 0
        assert "compare PASS: max |z| = " in capsys.readouterr().err
        assert ",1,closed-form," in (tmp_path / "report.csv").read_text()

    def test_forced_nonlinear_table_watermarked(self, tmp_path, monkeypatch):
        # the report's forced row and solution.json carry the solve's verdict
        monkeypatch.setenv("SPLITGROW_THREADS", "1")
        rc = main(["compare", "--table", str(doubled_split_table_file(tmp_path)),
                   "--replicas", "2", "--t-final", "300", "--z-crit", "1e9",
                   "--force-unsupported", "--out", str(tmp_path / "o")])
        assert rc == 0
        doc = json.loads((tmp_path / "o/solution.json").read_text())
        assert doc["unsupported"] is True
        assert any("forced solve" in w for w in doc["warnings"])
        assert "# check_forced_unsupported,true\n" in (tmp_path / "o/report.csv").read_text()

    def test_forcing_a_supported_model_writes_no_forced_row(self, tmp_path, monkeypatch):
        # the flag alone does not make a run unsupported
        monkeypatch.setenv("SPLITGROW_THREADS", "1")
        rc = main(["compare", "--family", "preferential", "--w", "i", "--seed", "3",
                   "--replicas", "2", "--t-final", "300", "--z-crit", "1e9",
                   "--force-unsupported", "--out", str(tmp_path)])
        assert rc == 0
        assert "forced_unsupported" not in (tmp_path / "report.csv").read_text()
        assert json.loads((tmp_path / "solution.json").read_text())["unsupported"] is False

    def test_zero_se_rows_counted_in_summary(self, tmp_path, capsys, monkeypatch):
        # the highest checked degrees have mean 0 and SE 0 in every replica:
        # their z is -inf, which the printed maximum skips, so the line
        # counts them; both figures are read back from report.csv
        monkeypatch.setenv("SPLITGROW_THREADS", "2")
        rc = main(["compare", "--family", "uniform", "--x", "0", "--replicas", "32",
                   "--t-final", "5000", "--k-check", "16", "--seed", "3",
                   "--out", str(tmp_path)])
        assert rc == 0
        checked = [(float(r[5]), float(r[6])) for r in
                   (line.split(",") for line in
                    (tmp_path / "report.csv").read_text().splitlines()
                    if line and not line.startswith(("#", "colour")))
                   if int(r[1]) <= 16]
        zero_se = sum(se == 0 for se, _ in checked)
        worst = max(abs(z) for _, z in checked if math.isfinite(z))
        assert len(checked) == 16 and -math.inf in [z for _, z in checked]
        err = capsys.readouterr().err
        assert (f"compare PASS: max |z| = {worst:.2f} over k <= 16; "
                f"{zero_se} of 16 checked rows have SE 0;") in err

    def test_forced_rows_name_the_solve(self, tmp_path):
        # grafting (1, 1) has no closed form and needs the forced solve
        out = tmp_path / "out"
        rc = main(["compare", "--family", "grafting", "--alpha", "1", "--gamma", "1",
                   "--force-unsupported", "--replicas", "3", "--t-final", "300",
                   "--K", "64", "--z-crit", "1e9", "--out", str(out)])
        assert rc == 0
        method = json.loads((out / "solution.json").read_text())["method"]
        rows = (out / "report.csv").read_text().splitlines()[-16:]
        assert method == "linear-truncated"
        assert {row.split(",")[2] for row in rows} == {method}

    def test_failed_invariant_check_fails(self, tmp_path, monkeypatch, capsys):
        # a broken census identity fails compare even when every z passes
        monkeypatch.setenv("SPLITGROW_THREADS", "1")
        real = splitgrow.experiment._simulate_replica

        def broken(*args):
            res = real(*args)
            res["checks"]["census_sum_dev"] = 1
            return res

        monkeypatch.setattr(splitgrow.experiment, "_simulate_replica", broken)
        rc = main(["compare", "--family", "preferential", "--w", "i", "--seed", "3",
                   "--replicas", "2", "--t-final", "300", "--z-crit", "1e9",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "failed checks: census_sum_dev" in capsys.readouterr().err

    @pytest.mark.parametrize("name,bad,good", [
        ("census_sum_dev", "1", "0"), ("census_moment_dev", "2", "0"),
        ("colour_identity_dev", "1", "0"), ("weight_rel_drift", "1e-6", "1e-12"),
        ("weight_closed_form_rel_dev", "nan", "0"),
        ("colour_sum_vs_one_colour_max_dev", "1e-7", "1e-12"),
    ])
    def test_report_ok_honours_checks(self, name, bad, good):
        def report(val):
            return ExperimentReport(rows=[], checks=[(name, val)],
                                    config=ExperimentConfig(model={}, k_check=1))
        assert report(good).ok
        assert not report(bad).ok and report(bad).failed_checks() == [name]

    def test_two_colour_report_includes_cross_check(self, tmp_path):
        # 32 replicas, as in the acceptance criteria: with 6 each z is
        # Student-t with 5 degrees of freedom and one of the six rows passes
        # |z| = 5 in about one seed in forty
        out = tmp_path / "out"
        rc = main(["compare", "--family", "rna", "--seed", "31",
                   "--replicas", "32", "--t-final", "15000", "--k-check", "3",
                   "--out", str(out)])
        assert rc == 0
        text = (out / "report.csv").read_text()
        assert "# check_colour_sum_vs_one_colour_max_dev" in text
        assert "white" in text and "black" in text


class TestBadInput:
    """Bad flags, config and environment end in an ``error:`` line and exit
    code 2, never a traceback or a vacuous PASS."""

    def run(self, argv, capsys):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2, err
        assert "error:" in err and "Traceback" not in err
        return err

    def test_compare_single_replica_refused(self, tmp_path, capsys):
        # one replica has zero standard errors: every z would be inf
        err = self.run(["compare", "--family", "preferential", "--w", "i",
                        "--replicas", "1", "--t-final", "200",
                        "--out", str(tmp_path / "o")], capsys)
        assert "2 replicas" in err
        assert not (tmp_path / "o/report.csv").exists()

    @pytest.mark.parametrize("model", [["--family", "preferential", "--w", "i"],
                                       ["--family", "rna"]], ids=["one-colour", "two-colour"])
    def test_compare_without_variation_refused(self, model, tmp_path, capsys, monkeypatch):
        # every replica starts from one edge, and up to t = 3 every model
        # grows the same census: every SE is 0 and nothing is tested.  At 16
        # replicas std's rounding residue (~1e-17) once passed for an SE and
        # FAILed these runs with |z| ~ 1e16
        monkeypatch.setenv("SPLITGROW_THREADS", "1")
        err = self.run(["compare", *model, "--replicas", "16", "--t-final", "3",
                        "--out", str(tmp_path / "o")], capsys)
        assert "nothing to test" in err
        assert not (tmp_path / "o/report.csv").exists()
        # at t = 4 some degrees vary; those on which all replicas agree have
        # SE exactly 0
        assert main(["compare", *model, "--replicas", "4", "--t-final", "4", "--seed", "1",
                     "--out", str(tmp_path / "four")]) == 0
        err = capsys.readouterr().err
        assert "compare PASS" in err
        assert float(err.split("max |z| = ")[1].split()[0]) < 3
        rows = (tmp_path / "four/report.csv").read_text().splitlines()
        stderrs = [float(r.split(",")[5]) for r in rows if not r.startswith(("#", "colour"))]
        assert 0 in stderrs and min(x for x in stderrs if x > 0) > 1e-3

    def test_k_check_beyond_report_refused(self, tmp_path, capsys):
        # the report holds degrees 1..16, so k_check = 40 would gate only 16
        # of them and print a PASS over k <= 40
        err = self.run(["compare", "--family", "preferential", "--w", "i",
                        "--replicas", "8", "--t-final", "2000", "--seed", "3",
                        "--k-check", "40", "--out", str(tmp_path / "o")], capsys)
        assert "k_check must be at most 16" in err
        assert not (tmp_path / "o").exists()
        assert ExperimentConfig.from_dict({"model": {"family": "rna"},
                                           "k_check": 16}).k_check == 16

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("a,match", [
        ("inf", "must be finite"), ("1e308", "overflow"),
    ])
    def test_two_colour_weights_not_finite_refused(self, tmp_path, capsys, command, a,
                                                   match):
        # a = inf gives infinite weights and a = 1e308 weights past the
        # largest float: neither may grow or validate (with NaN residuals)
        flags = ["--replicas", "1", "--t-final", "50", "--out", str(tmp_path / "o")] \
            if command == "simulate" else []
        err = self.run([command, "--family", "two-colour-uniform", "--a", a, "--b", "0",
                        *flags], capsys)
        assert match in err
        assert not (tmp_path / "o").exists()

    def test_zero_replicas_refused(self, tmp_path, capsys):
        err = self.run(["simulate", "--family", "preferential", "--w", "i",
                        "--replicas", "0", "--t-final", "200",
                        "--out", str(tmp_path / "o")], capsys)
        assert "replicas" in err

    def test_bad_thread_env_refused(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPLITGROW_THREADS", "abc")
        err = self.run(["simulate", "--family", "preferential", "--w", "i",
                        "--replicas", "2", "--t-final", "200",
                        "--out", str(tmp_path / "o")], capsys)
        assert "SPLITGROW_THREADS" in err

    def test_unparsable_weight_refused(self, capsys):
        err = self.run(["solve", "--family", "preferential", "--w", "i*2",
                        "--K", "16"], capsys)
        assert "i*2" in err

    @pytest.mark.parametrize("config,flags", [
        ("{not json", []),
        (None, ["--config", "missing.json"]),
        (None, ["--family", "grafting", "--gamma", "0.5"]),
        ('{"model": {"family": "grafting", "alpha": "x", "gamma": 1}}', []),
    ], ids=["bad-json", "missing-file", "missing-parameter", "bad-parameter"])
    def test_bad_config_refused(self, tmp_path, capsys, monkeypatch, config, flags):
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "cfg.json").write_text(config)
            flags = ["--config", "cfg.json"]
        self.run(["solve", *flags, "--K", "16"], capsys)

    @pytest.mark.parametrize("model", [
        {"family": "preferential", "a": 1.0, "b": -0.9, "w": "i-0.9"},
        {"family": "uniform", "x": 0.0, "a": 1.0},
        {"family": "grafting", "alpha": 0.5, "gamma": 0.5, "beta": 1},
        {"family": "table", "d_max": 3, "entries": DMAX3_ENTRIES, "x": 0},
        {"family": "rna", "a": 1.0},
        {"family": "two-colour-uniform", "a": 1.0, "b": 0.0, "alpha0": 0.5},
        {"family": "two-colour-grafting", "a": 1.0, "b": 0.5, "alpha0": 0.5, "x": 1},
    ], ids=lambda m: m["family"])
    def test_unknown_model_key_refused(self, tmp_path, capsys, model):
        # a key the family does not take would otherwise be ignored, and the
        # run would report another model's densities with exit 0
        cfg = tmp_path / "cfg.json"
        for doc in ({"model": model}, {"model": {"family": "preferential"},
                                       "reference_model": model, "replicas": 2,
                                       "t_final": 100}):
            cfg.write_text(json.dumps(doc))
            command = "compare" if "reference_model" in doc else "solve"
            err = self.run([command, "--config", str(cfg), "--K", "16",
                            "--out", str(tmp_path / "o")], capsys)
            assert "takes no parameter" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("model,match", [
        ({"family": "preferential", "a": True, "b": False}, "'a' of family 'preferential'"),
        ({"family": "uniform", "x": "0"}, "'x' of family 'uniform' must be a number"),
        ({"family": "table", "d_max": 3.9, "entries": DMAX3_ENTRIES},
         "d_max must be an integer, got 3.9"),
        ({"family": "table", "d_max": "3", "entries": DMAX3_ENTRIES},
         "d_max must be an integer, got '3'"),
        ({"family": "table", "d_max": 3,
          "entries": [[1.9, 3, 0.5] if e[:2] == (1, 3) else e for e in DMAX3_ENTRIES]},
         r"indices must be integers, got \(1.9, 3\)"),
        ({"family": "table", "d_max": 3,
          "entries": [[2.7, 3, 1.0] if e[:2] == (2, 3) else e for e in DMAX3_ENTRIES]},
         r"indices must be integers, got \(2.7, 3\)"),
        ({"family": "table", "d_max": 3,
          "entries": [[i, j, True if w == 1.0 else w] for i, j, w in DMAX3_ENTRIES]},
         r"weight for \(1, 2\) must be a number, got True"),
    ], ids=["bool-parameters", "string-parameter", "float-d_max", "string-d_max",
            "index-1.9", "index-2.7", "bool-weights"])
    def test_parameter_not_a_json_number_refused(self, tmp_path, capsys, model, match):
        # each of these once solved silently: as w_i = 1*i + 0, as x = 0, or
        # as the integer d_max = 3 table the value truncates to
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model}))
        err = self.run(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
        assert re.search(match, err), err
        assert not (tmp_path / "o").exists()

    def test_weight_flag_for_uniform_refused(self, capsys):
        # --w sets a and b, which the uniform family (w_i = i + x) does not take
        err = self.run(["solve", "--family", "uniform", "--w", "i-0.5", "--K", "16"], capsys)
        assert "'a', 'b'" in err

    def test_weight_flag_for_two_colour_refused(self, capsys):
        # a two-colour family's a and b fix w_white and w_black; --w would
        # have run a = 2, b = 1 under the name w_i = 2i + 1
        err = self.run(["solve", "--family", "two-colour-uniform", "--w", "2*i+1",
                        "--K", "32"], capsys)
        assert "--w" in err

    def test_method_flag_removed(self, capsys):
        # every model has one solve, so solve takes no --method
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--family", "rna", "--method", "direct"])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_duplicate_config_key_refused(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"model": {"family": "preferential", "b": 0.0, "b": -0.9}}')
        err = self.run(["solve", "--config", str(cfg), "--K", "16"], capsys)
        assert "duplicate key 'b'" in err

    def test_degenerate_tree_refused(self, tmp_path, capsys):
        # w_i = i - 1 gives a single edge total weight 0: the tree's
        # rejection sampler must refuse, not loop.  With w_1 = 0 the model
        # has s = 0, so only a forced run reaches the sampler
        argv = ["simulate", "--family", "preferential", "--w", "i-1", "--engine", "tree",
                "--replicas", "1", "--t-final", "100", "--out", str(tmp_path / "o")]
        assert "regime (regime I with s = 0)" in self.run(argv, capsys)
        assert "not positive" in self.run([*argv, "--force-unsupported"], capsys)

    @pytest.mark.parametrize("key,value", [
        ("engine", "foo"), ("engine", "tree"), ("t_final", "abc"), ("t_final", 1),
        ("K", "x"), ("K", 1), ("thin", -1), ("thin", 2.5), ("k_check", "q"),
        ("seed", "s"), ("tol", "abc"), ("z_crit", 0),
        ("tol", math.inf), ("z_crit", math.inf), ("z_crit", math.nan),
    ])
    def test_bad_config_value_refused(self, tmp_path, capsys, key, value):
        # "engine": "tree" with a two-colour family; the rest with any model.
        # No |z| exceeds z_crit = inf, so it would PASS any reference
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"family": "rna"}, "replicas": 2,
                                   "t_final": 100, key: value}))
        err = self.run(["compare", "--config", str(cfg),
                        "--out", str(tmp_path / "o")], capsys)
        assert key in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("model,reference", [
        ("rna", "preferential"), ("preferential", "rna")],
        ids=["two-colour-model", "two-colour-reference"])
    def test_mismatched_colourings_refused(self, tmp_path, capsys, model, reference):
        # a one-colour reference has no white and black densities for a
        # two-colour simulation, and a two-colour one no one-colour column
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"family": model},
                                   "reference_model": {"family": reference},
                                   "replicas": 2, "t_final": 200}))
        err = self.run(["compare", "--config", str(cfg),
                        "--out", str(tmp_path / "o")], capsys)
        assert "both be one-colour or both two-colour" in err
        assert not (tmp_path / "o").exists()

    def test_oversized_K_refused(self, capsys):
        # a dense K x K solve at K = 1e6 would ask for terabytes
        err = self.run(["solve", "--family", "preferential", "--w", "i",
                        "--K", "1000000"], capsys)
        assert "K must be at most 8192" in err
        assert ExperimentConfig.from_dict({"model": {"family": "rna"},
                                           "K": MAX_DEGREE}).K == MAX_DEGREE

    def test_oversized_table_refused(self, tmp_path, capsys):
        # the dense (d_max+1)^2 table is refused before it is allocated
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"d_max": MAX_DEGREE + 1,
                                    "entries": [list(e) for e in DMAX3_ENTRIES]}))
        err = self.run(["solve", "--table", str(path)], capsys)
        assert "d_max must be at most 8192" in err

    @pytest.mark.parametrize("flags", [
        ["--a", "1"], ["--family", "uniform", "--x", "0", "--w", "2*i"],
    ], ids=["a", "family-x-w"])
    def test_table_with_family_flags_refused(self, tmp_path, capsys, flags):
        # the table is the whole model: the family and its parameters would
        # otherwise be dropped without a word
        err = self.run(["solve", "--table", str(dmax3_table_file(tmp_path)), *flags],
                       capsys)
        assert "--table" in err and all(f in err for f in flags if f.startswith("--"))

    def test_parameter_flags_next_to_config_refused(self, tmp_path, capsys):
        # the config's model would be used and the flags dropped without a word
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"family": "uniform", "x": 0.0}}))
        err = self.run(["solve", "--config", str(cfg), "--x", "5", "--alpha", "0.3",
                        "--K", "16"], capsys)
        assert "--x, --alpha need --family" in err

    @pytest.mark.parametrize("argv", [
        ["validate", "--K", "5"], ["validate", "--tol", "3"],
        ["validate", "--out", "DIR"], ["validate", "--force-unsupported"],
        ["simulate", "--K", "5"], ["simulate", "--tol", "3"], ["simulate", "--binary"],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_flag_the_command_does_not_read_refused(self, tmp_path, capsys, monkeypatch,
                                                     argv):
        # validate neither solves nor writes files, simulate never solves,
        # and the binary census dump is gone: argparse refuses each flag
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--family", "rna", *argv[1:]])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and argv[1] in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("files,flags,match", [
        ({"cfg.json": [1, 2]}, ["--config", "cfg.json"], "cfg.json must hold a JSON object"),
        ({"cfg.json": {"K": 16}}, ["--config", "cfg.json"],
         r"no model given \(use --config or --family/--table\)"),
        ({}, ["--family", "preferential", "--w=-i"],
         r"unbounded model needs a >= 0 \(weights turn negative\)"),
        ({}, ["--family", "preferential", "--w=nan"],
         "splitting weight coefficients must be finite"),
        ({}, ["--family", "preferential", "--w=0*i+0"], "constant weights must be positive"),
        ({}, ["--family", "two-colour-uniform", "--a", "1", "--b", "0.9"],
         "unbounded model needs slope a - 3b/2 >= 0"),
        ({}, ["--family", "two-colour-grafting", "--a", "1", "--b", "0", "--alpha0", "1"],
         r"alpha0 must lie in \[0, 1\)"),
        ({"t.json": {"d_max": 3, "entries": [[0, 2, 1.0]]}}, ["--table", "t.json"],
         r"table indices must be >= 1, got \(0, 2\)"),
        ({"t.json": {"d_max": 3, "entries": [[1, 2, 1.0], [2, 1, 0.5]]}}, ["--table", "t.json"],
         r"conflicting entries for pair \(1, 2\)"),
        ({"t.json": {"d_max": 1, "entries": [[1, 1, 1.0]]}}, ["--table", "t.json"],
         "d_max must be at least 2"),
    ], ids=["config-list", "config-without-model", "w-negative-slope", "w-nan",
            "w-zero", "two-colour-negative-slope", "alpha0-1", "table-index-0",
            "table-conflict", "table-d_max-1"])
    def test_refusal_names_the_input(self, tmp_path, capsys, monkeypatch, files, flags,
                                     match):
        monkeypatch.chdir(tmp_path)
        for name, doc in files.items():
            (tmp_path / name).write_text(json.dumps(doc))
        err = self.run(["solve", *flags, "--K", "16"], capsys)
        assert re.search(match, err), err

    @pytest.mark.parametrize("command,extra", [
        ("solve", ["--K", "16"]), ("simulate", ["--replicas", "2", "--t-final", "50"]),
        ("compare", ["--replicas", "2", "--t-final", "50"])])
    def test_out_naming_a_file_refused_before_the_work(self, tmp_path, capsys, monkeypatch,
                                                       command, extra):
        # --out is judged before any solve or growth: a file there used to
        # end in a traceback, and simulate's only after every replica grew
        def work(*args):
            raise AssertionError(f"{command} solved or grew before judging --out")

        for name in ("solve_model", "run_replicated", "compare"):
            monkeypatch.setattr(splitgrow.cli, name, work)
        taken = tmp_path / "taken"
        taken.write_text("kept")
        err = self.run([command, "--family", "preferential", "--w", "i", *extra,
                        "--out", str(taken)], capsys)
        assert err == f"error: --out {taken}: {taken} is not a writable directory\n"
        assert taken.read_text() == "kept"

    def test_singular_solve_refused(self, capsys, monkeypatch):
        monkeypatch.setattr(splitgrow.solver, "_update_matrix", singular_at(16))
        err = self.run(["solve", "--family", "preferential", "--w", "i",
                        "--K", "16"], capsys)
        assert "singular" in err

    @pytest.mark.parametrize("doc,match", [
        ({"d_max": 3}, "family 'table' needs parameter 'entries'"),
        ({"entries": DMAX3_ENTRIES}, "family 'table' needs parameter 'd_max'"),
        ({"d_max": 3, "entries": DMAX3_ENTRIES, "junk": 1},
         "family 'table' takes no parameter 'junk'"),
        ({"family": "preferential", "a": 1.0, "b": 0.0},
         "t.json is a table: it takes 'd_max' and 'entries', not a family"),
        ({"d_max": -5, "entries": []}, "d_max must be at least 2"),
    ], ids=["no-entries", "no-d_max", "stray-key", "family-key", "d_max-negative"])
    def test_table_file_judged_like_a_config_model(self, tmp_path, capsys, monkeypatch,
                                                    doc, match):
        # a missing key once ended in "'NoneType' object is not iterable", a
        # stray key was ignored, and a negative d_max reached numpy's
        # "negative dimensions are not allowed"
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.json").write_text(json.dumps(doc))
        for command in ("solve", "simulate", "compare"):
            err = self.run([command, "--table", "t.json", "--out", "o"], capsys)
            assert match in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags", [["--a", "2"], ["--b", "1"], ["--b", "1", "--a", "2"]],
                             ids=["a", "b", "a-b"])
    def test_weight_flag_with_a_or_b_refused(self, capsys, flags):
        # --w and --a/--b both set w_i = a*i + b: --w i-0.5 --a 2 once solved
        # a = 2, b = -0.5 without a word
        err = self.run(["solve", "--family", "preferential", "--w", "i-0.5", *flags,
                        "--K", "16"], capsys)
        drop = ", ".join(f for f in ("--a", "--b") if f in flags)
        assert f"--w sets both a and b of w_i = a*i + b; drop {drop}" in err

    @pytest.mark.parametrize("flags,match", [
        (["--family", "preferential", "--w", "i-2"], "w_1 = -1 < 0"),
        (["--config", "cfg.json"], "force_unsupported must be true or false, got 'yes'"),
    ], ids=["negative-leaf-weight", "force-not-a-bool"])
    def test_refusal_of_model_and_force(self, tmp_path, capsys, monkeypatch, flags, match):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"model": {"family": "preferential"}, "force_unsupported": "yes"}))
        err = self.run(["solve", *flags, "--K", "16"], capsys)
        assert match in err


class TestValidate:
    def test_table_passes(self, tmp_path, capsys):
        rc = main(["validate", "--table", str(dmax3_table_file(tmp_path))])
        assert rc == 0
        out = capsys.readouterr().out
        assert "linearity" in out and "regime I" in out

    def test_table_nonlinear_past_degree_200_fails(self, tmp_path, capsys):
        assert main(["validate", "--table", str(doubled_split_table_file(tmp_path))]) == 2
        assert "= 250 over i <= 300" in capsys.readouterr().out

    def test_long_index_lists_cut(self, tmp_path, capsys):
        # 298 indices of the 300-degree table can split at the bound: the
        # first few and a count say as much as all of them
        assert main(["validate", "--table", str(doubled_split_table_file(tmp_path))]) == 2
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if "top_splittable" in line)
        assert line.endswith("for i in [2, 3, 4, 5, 6, ...] (298 in all)")
        assert len(line) < 100

    def test_degenerate_fails(self, tmp_path, capsys):
        table = tmp_path / "bad.json"
        table.write_text(json.dumps({"d_max": 2, "entries": [[1, 2, 1.0]]}))
        assert main(["validate", "--table", str(table)]) == 2

    def test_two_colour(self, capsys):
        # the rows are those of the reduced one-colour model, which the
        # solve judges
        assert main(["validate", "--family", "rna"]) == 0
        out = capsys.readouterr().out
        assert "  regime               pass  regime III with s = 1\n" in out


class TestConfigPlumbing:
    def test_digest_stable(self):
        c1 = ExperimentConfig(model={"family": "uniform", "x": 0.0}, seed=1)
        c2 = ExperimentConfig(model={"family": "uniform", "x": 0.0}, seed=1)
        assert c1.digest == c2.digest
        c3 = ExperimentConfig(model={"family": "uniform", "x": 0.0}, seed=2)
        assert c1.digest != c3.digest

    def test_unknown_key_rejected(self):
        with pytest.raises(Exception):
            ExperimentConfig.from_dict({"model": {}, "bogus": 1})

    def test_worker_env_cap(self, monkeypatch):
        monkeypatch.setenv("SPLITGROW_THREADS", "1")
        assert worker_count(32) == 1
        monkeypatch.setenv("SPLITGROW_THREADS", "4")
        assert worker_count(2) == 2
        for bad in ("abc", "0", "-1", "2.5"):
            monkeypatch.setenv("SPLITGROW_THREADS", bad)
            with pytest.raises(InvalidParameterError):
                worker_count(2)
            with pytest.raises(InvalidParameterError, match="SPLITGROW_THREADS"):
                ExperimentConfig.from_dict({"model": {"family": "rna"}})

    def test_replicas_validated_at_load(self):
        for bad in (0, -3, 2.5, "4", True):
            with pytest.raises(InvalidParameterError):
                ExperimentConfig.from_dict({"model": {"family": "rna"}, "replicas": bad})


README = Path(__file__).resolve().parent.parent / "README.md"


def schema_mismatches(readme: str) -> list[str]:
    """Where the model objects of the README's config-schema block and
    ``experiment.FAMILIES`` disagree: an object whose family is not in the
    table or whose keys are not that family's parameters, and a family
    that no object shows."""
    block = readme.split("### Config schema", 1)[1].split("```jsonc", 1)[1].split("```", 1)[0]
    shown = [json.loads(obj) for obj in re.findall(r'\{"family":[^{}]*\}', block)]
    bad = [f"{m['family']} with {sorted(set(m) - {'family'})}" for m in shown
           if m["family"] not in FAMILIES
           or set(m) - {"family"} != set(FAMILIES[m["family"]][0])]
    return bad + [f"{fam} not shown" for fam in FAMILIES
                  if fam not in {m["family"] for m in shown}]


def test_readme_schema_shows_every_family_with_its_parameters():
    assert schema_mismatches(README.read_text()) == []


def test_schema_scan_finds_a_drifted_family():
    # negative control: a parameter dropped, a family left out and one that
    # the table does not hold
    text = README.read_text()
    for old, new in (('"preferential", "a": 1.0, "b": 0.0}', '"preferential", "a": 1.0}'),
                     ('{"family": "rna"}', '{"family": "rnaa"}')):
        assert text.count(old) == 1
        text = text.replace(old, new)
    assert schema_mismatches(text) == ["preferential with ['a']", "rnaa with []",
                                       "rna not shown"]


def test_parameter_flags_come_from_families(capsys):
    # one float flag per parameter some family takes; a table comes whole
    # from --table
    keys = {key for fam, (params, _) in FAMILIES.items() if fam != "table" for key in params}
    assert keys == {"a", "b", "x", "alpha", "gamma", "alpha0"}
    with pytest.raises(SystemExit):
        main(["solve", "--help"])
    out = capsys.readouterr().out
    assert all(f"--{key} {key.upper()}" in out for key in keys)
    assert "--d_max" not in out and "--entries" not in out


def test_import_leaves_scipy_linalg_unloaded():
    # the package needs nothing from scipy: importing scipy.linalg alone
    # takes about 0.3 s, more than a command's whole start-up, and even the
    # bare scipy package costs 15-24 ms after numpy
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    code = ("import sys, splitgrow, splitgrow.cli; "
            "sys.exit(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy') or None)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_process_pool_unloaded():
    # concurrent.futures.process (with multiprocessing) costs 16-19 ms of
    # the package import; only runs with more than one worker need it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    code = ("import sys, splitgrow, splitgrow.cli; "
            "sys.exit('concurrent.futures.process' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr or "concurrent.futures.process was imported"


# -- the front door: one parser for the command that runs, and the JSON writer


MODEL_FLAGS = ["--config", "--family", "--w", "--a", "--b", "--x", "--alpha", "--gamma",
               "--alpha0", "--table"]
SOLVE_FLAGS = ["--K", "--tol"]
WRITE_FLAGS = ["--force-unsupported", "--out"]
GROW_FLAGS = ["--seed", "--replicas", "--t-final", "--thin", "--engine"]
COMMAND_FLAGS = {
    "solve": [*MODEL_FLAGS, *SOLVE_FLAGS, *WRITE_FLAGS],
    "simulate": [*MODEL_FLAGS, *WRITE_FLAGS, *GROW_FLAGS],
    "compare": [*MODEL_FLAGS, *SOLVE_FLAGS, *WRITE_FLAGS, *GROW_FLAGS, "--k-check", "--z-crit"],
    "validate": MODEL_FLAGS,
}
HELP_LINES = {
    "solve": "analytic degree densities",
    "simulate": "replicated growth trajectories",
    "compare": "simulation vs analytic, with z-scores",
    "validate": "model condition checks and regime",
}


@pytest.mark.parametrize("command", COMMAND_FLAGS)
def test_command_flags(capsys, command):
    # each command's parser takes exactly its own flags, in this order
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.partition("\n\n")[0]
    assert usage.startswith(f"usage: splitgrow {command} [-h] ")
    assert re.findall(r"\[(--[\w-]+)", usage) == COMMAND_FLAGS[command]


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: splitgrow [-h] {solve,simulate,compare,validate} ...")
    for command, line in HELP_LINES.items():
        assert re.search(rf"^ +{command} +{re.escape(line)}$", out, re.M), command


@pytest.mark.parametrize("argv", [[], ["bogus"], ["solve", "--bogus"], ["--bogus", "solve"]],
                         ids=["none", "unknown", "unknown-flag", "flag-first"])
def test_no_or_unknown_command_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: splitgrow") and "error:" in err


def test_shell_invocation_without_command_refused():
    # main() reads sys.argv, as the console script calls it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "splitgrow.cli"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: splitgrow")
    assert "the following arguments are required: command" in proc.stderr


def test_solve_prints_the_solution_file_bytes(tmp_path, capsys):
    flags = ["solve", "--family", "grafting", "--alpha", "0.5", "--gamma", "0.5", "--K", "64"]
    assert main(flags) == 0
    printed = capsys.readouterr().out
    assert main([*flags, "--out", str(tmp_path)]) == 0
    assert printed.encode() == (tmp_path / "solution.json").read_bytes()


NUMBERS = st.one_of(st.floats(), st.integers(-2 ** 70, 2 ** 70))
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), NUMBERS, st.text(),
              st.lists(NUMBERS), st.lists(st.one_of(NUMBERS, st.booleans()))),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
@example({"densities": [0.5, -0.0, math.nan, math.inf, -math.inf, 2 ** 53 + 1, 7],
          "flags": [1, True, 2.0, False], "empty": [], "none": {}, "warnings": ["ü ☃"],
          "rows": [{"e": [1.0, 2e-300]}, []], "nested": {"x": [[0.25], [1, 2]]}})
@example([[]])
@example({"a": 1.0})
def test_json_text_is_json_dumps(doc):
    # the writer of solution.json and manifest.json, byte for byte
    assert splitgrow.cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)
