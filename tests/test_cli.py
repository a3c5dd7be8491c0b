import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import splitgrow
import splitgrow.cli
import splitgrow.experiment
import splitgrow.solver
import splitgrow.twocolour
from splitgrow import InvalidParameterError
from splitgrow.cli import main, parse_weight_expr
from splitgrow.experiment import ExperimentConfig, ExperimentReport, worker_count
from splitgrow.weights import MAX_DEGREE
from conftest import DMAX3_ENTRIES, singular_update_matrix

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

    @pytest.mark.parametrize("expr", ["i*2", "", "2*i+", "x"])
    def test_unparsable_raises(self, expr):
        with pytest.raises(InvalidParameterError, match="weight expression"):
            parse_weight_expr(expr)


def dmax3_table_file(tmp_path):
    path = tmp_path / "dmax3.json"
    path.write_text(json.dumps({"d_max": 3, "entries": [list(e) for e in DMAX3_ENTRIES]}))
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
        solver = json.loads((out / "manifest.json").read_text())["solver"]
        doc = json.loads((out / "solution.json").read_text())
        assert solver.pop("max_residual") == doc["max_residual"]
        assert solver == facts
        assert "closure" not in doc and "head_size" not in doc

    def test_compare_manifest_solver_facts(self, tmp_path):
        # the rna reduction is solved by the recurrence: no dense head
        assert main(["compare", "--family", "rna", "--replicas", "2", "--t-final", "300",
                     "--z-crit", "1e9", "--K", "64", "--out", str(tmp_path)]) == 0
        solver = json.loads((tmp_path / "manifest.json").read_text())["solver"]
        del solver["max_residual"]
        assert solver == {"K": 64, "method": "reduction", "closure": "none",
                          "closure_reason": SUPER_EXP, "head_size": 0}

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

    def test_binary_dump(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--family", "preferential", "--w", "i",
                   "--seed", "3", "--replicas", "1", "--t-final", "500",
                   "--binary", "--out", str(out)])
        assert rc == 0
        assert (out / "census_0.bin").exists()

    def test_invalid_model_aborts_with_report(self, tmp_path, capsys):
        table = tmp_path / "bad.json"
        table.write_text(json.dumps({"d_max": 2, "entries": [[1, 2, 1.0]]}))
        rc = main(["simulate", "--table", str(table), "--t-final", "100",
                   "--replicas", "1", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "top_splittable" in capsys.readouterr().out

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
        ("urn", "i", None), ("tree", "i", "leaf-block"), ("tree", "i-0.9", "scalar"),
    ], ids=["urn", "tree", "tree-scalar"])
    def test_manifest_growth_counters(self, tmp_path, monkeypatch, engine, w, kernel):
        # per replica the events kept, the events drawn (the branching
        # engine draws past the last kept one) and the largest degree; per
        # batch the rounds (none for trees), the growth time and, for trees,
        # the kernel: blocks of leaf splits for w = i, whose envelope is
        # exact, the scalar kernel for w = i - 0.9, whose is not
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

    @pytest.mark.parametrize("flags,digest", [
        (["--family", "preferential", "--w", "i", "--engine", "tree", "--seed", "5",
          "--t-final", "2000", "--thin", "500"],
         "befa8cf68fca3aadb5c222307bbffcc5ffff10e61c363b77328dcc461033ce1d"),
        (["--family", "rna", "--seed", "11", "--t-final", "302", "--thin", "100"],
         "09d8e011377d35e05543c081e2b47113cf94612a2eb967c70f2d67a274c5f850"),
    ], ids=["tree", "two-colour"])
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
         "weight_rel_drift=4.96e-15"),
        (["--force-unsupported", "--seed", "3", "--t-final", "3000"],
         "census_moment_dev=0, census_sum_dev=0, weight_rel_drift=0"),
    ], ids=["two-colour", "urn", "urn-nonlinear"])
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
        assert capsys.readouterr().err.splitlines()[-1] \
            == f"2 replicas to t={t_final} (urn); {summary}"


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

        solvers = {"solve_finite": splitgrow.solver.solve_finite,
                   "fixed_point_densities": splitgrow.solver.fixed_point_densities,
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
        # the benchmark's tracer rebinds the solver names that cli and
        # experiment call; a solve that bypasses those globals loses its span
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from tracing import Tracer
        monkeypatch.setenv("SPLITGROW_THREADS", "1")
        tracer = Tracer()
        with tracer.installed():
            assert main(["solve", "--family", "uniform", "--x", "0", "--K", "64"]) == 0
            assert main(["compare", "--family", "rna", "--replicas", "2",
                         "--t-final", "300", "--z-crit", "1e9",
                         "--out", str(tmp_path)]) == 0
        names = {span["name"] for span in tracer.spans}
        assert {"solver.fixed_point_densities", "twocolour.solve_two_colour"} <= names

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
        assert digest == ("2b8d7efb363771beda35e9bb3f896c2c"
                          "94039757effb05a9a1219c601a1c9a02")

    def test_urn_report_bytes_pinned(self, tmp_path):
        # pinned for the branching-process engine; the worker count must not
        # change these bytes, so this runs with the default count
        rc = main(["compare", "--family", "preferential", "--w", "i", "--seed", "2025",
                   "--replicas", "4", "--t-final", "5000", "--k-check", "4",
                   "--out", str(tmp_path)])
        assert rc == 0
        digest = hashlib.sha256((tmp_path / "report.csv").read_bytes()).hexdigest()
        assert digest == ("85dc24e9685be337927060af47e995bf"
                          "b2f0c00c2a1dacfb829becca702c8e30")

    def test_printed_max_z_is_over_checked_degrees(self, tmp_path, capsys):
        # the run of test_urn_report_bytes_pinned: its largest |z| is at
        # k = 7, beyond k_check = 4, so the printed maximum is smaller
        rc = main(["compare", "--family", "preferential", "--w", "i", "--seed", "2025",
                   "--replicas", "4", "--t-final", "5000", "--k-check", "4",
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = [line.split(",") for line in
                (tmp_path / "report.csv").read_text().splitlines()
                if line and not line.startswith(("#", "colour"))]
        z = {int(r[1]): abs(float(r[6])) for r in rows}
        checked = max(v for k, v in z.items() if k <= 4)
        assert max(z.values()) > checked + 0.01
        err = capsys.readouterr().err
        assert f"max |z| = {checked:.2f} over k <= 4;" in err
        solver = json.loads((tmp_path / "manifest.json").read_text())["solver"]
        assert (solver["closure"], solver["head_size"]) == ("gamma", 2)

    def test_uniform_report_bytes_pinned(self, tmp_path, monkeypatch):
        # the analytic column is the log-space closed form; the empirical
        # columns come from the branching-process engine.  With two replicas
        # each z is Student-t with one degree of freedom, beyond 5 in one
        # row of eight; at this seed k = 2 is (its two replicas nearly
        # agree), so compare writes the report and exits 1
        monkeypatch.setenv("SPLITGROW_THREADS", "1")
        rc = main(["compare", "--family", "uniform", "--x", "0", "--seed", "7",
                   "--replicas", "2", "--t-final", "2000", "--k-check", "3",
                   "--out", str(tmp_path)])
        assert rc == 1
        digest = hashlib.sha256((tmp_path / "report.csv").read_bytes()).hexdigest()
        assert digest == ("da423d4a16088a52d31468f13a8881e6"
                          "e86b65d039d5ae17509e592ef04be305")

    def test_zero_se_z_has_the_sign_of_the_difference(self, tmp_path):
        # the run of test_uniform_report_bytes_pinned: both replicas leave
        # k = 10..16 empty, so those rows have zero SE and a mean below the
        # analytic density; their z is -inf, never +inf
        rc = main(["compare", "--family", "uniform", "--x", "0", "--seed", "7",
                   "--replicas", "2", "--t-final", "2000", "--k-check", "3",
                   "--out", str(tmp_path)])
        assert rc == 1
        rows = [list(map(float, line.split(",")[3:])) for line in
                (tmp_path / "report.csv").read_text().splitlines()
                if line and not line.startswith(("#", "colour"))]
        zero_se = [(ana, mean, z) for ana, mean, se, z in rows if se == 0 and mean != ana]
        assert len(zero_se) == 7
        for ana, mean, z in zero_se:
            assert z == (math.inf if mean > ana else -math.inf)

    def test_uniform_large_x_compares(self, tmp_path):
        # the normalisation constant underflows at x = 200; its log does not
        rc = main(["compare", "--family", "uniform", "--x", "200", "--seed", "3",
                   "--replicas", "2", "--t-final", "300", "--k-check", "1",
                   "--z-crit", "1e9", "--out", str(tmp_path)])
        assert rc == 0
        assert ",1,closed-form,0.3683350198" in (tmp_path / "report.csv").read_text()

    def test_failed_invariant_check_fails(self, tmp_path, monkeypatch, capsys):
        # a broken census identity fails compare even when every z passes
        monkeypatch.setenv("SPLITGROW_THREADS", "1")
        real = splitgrow.experiment._simulate_replica

        def broken(payload):
            res = real(payload)
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
        # rejection sampler must refuse, not loop
        err = self.run(["simulate", "--family", "preferential", "--w", "i-1",
                        "--engine", "tree", "--replicas", "1", "--t-final", "100",
                        "--out", str(tmp_path / "o")], capsys)
        assert "not positive" in err

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

    def test_two_colour_binary_refused(self, tmp_path, capsys, monkeypatch):
        # census_<r>.bin has no colour field; refused before any replica runs
        monkeypatch.setattr(splitgrow.cli, "run_replicated", None)
        err = self.run(["simulate", "--family", "rna", "--replicas", "1",
                        "--t-final", "100", "--binary",
                        "--out", str(tmp_path / "o")], capsys)
        assert "--binary" in err
        assert not (tmp_path / "o").exists()

    def test_singular_solve_refused(self, capsys, monkeypatch):
        monkeypatch.setattr(splitgrow.solver, "_update_matrix", singular_update_matrix)
        err = self.run(["solve", "--family", "preferential", "--w", "i",
                        "--K", "16"], capsys)
        assert "singular" in err


class TestValidate:
    def test_table_passes(self, tmp_path, capsys):
        rc = main(["validate", "--table", str(dmax3_table_file(tmp_path))])
        assert rc == 0
        out = capsys.readouterr().out
        assert "linearity" in out and "regime I" in out

    def test_degenerate_fails(self, tmp_path, capsys):
        table = tmp_path / "bad.json"
        table.write_text(json.dumps({"d_max": 2, "entries": [[1, 2, 1.0]]}))
        assert main(["validate", "--table", str(table)]) == 2

    def test_two_colour(self, capsys):
        assert main(["validate", "--family", "rna"]) == 0
        out = capsys.readouterr().out
        assert "reduced one-colour" in out and "regime III" in out


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
