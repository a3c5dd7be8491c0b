"""Negative controls: each benchmark check must be able to fail.

    python3 -m pytest -q perfbench/test_controls.py

Small horizons keep these fast; the checks are the ones the benchmark runs.
"""

import json
import os
import sys

import pytest

import run

os.environ.update(run.THREAD_ENV)
sys.path.insert(0, str(run.SRC))

import speed  # noqa: E402
import splitgrow.cli as cli  # noqa: E402
import workloads  # noqa: E402
from workloads import WorkloadError, make_workload  # noqa: E402


def _op(wl, tmp_path, reference=None):
    return run.run_op(cli, wl, tmp_path / "op", reference, probe=speed.SpeedProbe())


def test_small_compare_passes(tmp_path):
    op = _op(make_workload("compare-pref-urn", 1, t_final=2000), tmp_path)
    assert op["errors"] == []
    assert op["max_abs_err"] < workloads.ERR_TOL
    assert 0 < op["ref_wall_s"] < 10 * op["wall_s"]


def test_mismatched_reference_model_fails(tmp_path):
    wl = make_workload("compare-pref-urn", 1, t_final=2000,
                       reference_model={"family": "uniform", "x": 0.0})
    errors = _op(wl, tmp_path)["errors"]
    assert any("did not PASS" in e for e in errors)
    assert any("max_abs_err" in e for e in errors)


@pytest.mark.parametrize("name", ["compare-pref-urn", "compare-rna"])
@pytest.mark.parametrize("replicas", [0, 1])
def test_too_few_replicas_rejected(name, replicas):
    with pytest.raises(WorkloadError, match="replicas >= 2"):
        make_workload(name, 1, replicas=replicas)


def _flip_digit_after(path, marker: bytes):
    """Change one digit of ``path`` after ``marker``, keeping it parseable."""
    data = bytearray(path.read_bytes())
    i = data.index(marker) + len(marker)
    while not chr(data[i]).isdigit():
        i += 1
    data[i] ^= 1                     # '0'<->'1', '2'<->'3', ...
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("name,file,marker", [
    ("compare-pref-urn", "report.csv", b"\n,16,"),
    ("compare-pref-urn", "solution.json", b'"densities": ['),
    ("compare-rna", "solution.json", b'"e_black": ['),
    ("simulate-pref-tree", "census.csv", b"\n0,22,1,"),
])
def test_one_byte_change_fails(tmp_path, monkeypatch, name, file, marker):
    wl = make_workload(name, 1, t_final=3000)
    first = _op(wl, tmp_path)
    assert first["errors"] == []
    real_run_call = run.run_call

    def run_then_corrupt(cli_mod, call, out, tracer=None, probe=None):
        result = real_run_call(cli_mod, call, out, tracer, probe)
        _flip_digit_after(out / file, marker)
        return result

    monkeypatch.setattr(run, "run_call", run_then_corrupt)
    errors = _op(wl, tmp_path, reference=first["digests"])["errors"]
    assert any("differs from the first repetition" in e for e in errors)


@pytest.mark.parametrize("name,key", [
    ("solve-k1024", "max_residual"),
    ("solve-k1024", "moment_dev"),
    ("compare-rna", "weight_sum_dev"),
])
def test_reported_residual_above_tolerance_fails(tmp_path, monkeypatch, name, key):
    wl = make_workload(name, 1, t_final=2000)
    wl.calls = wl.calls[:1]
    if name == "solve-k1024":                # a small K keeps the control fast
        wl.calls[0].argv[wl.calls[0].argv.index("--K") + 1] = "128"
    real_run_call = run.run_call

    def run_then_raise(cli_mod, call, out, tracer=None, probe=None):
        result = real_run_call(cli_mod, call, out, tracer, probe)
        doc = json.loads((out / "solution.json").read_text())
        doc[key] = 1e-6
        (out / "solution.json").write_text(json.dumps(doc))
        return result

    assert _op(wl, tmp_path)["errors"] == []
    monkeypatch.setattr(run, "run_call", run_then_raise)
    errors = _op(wl, tmp_path)["errors"]
    assert any(f"solution.json: {key} = 1e-06" in e for e in errors)


def test_nonzero_check_row_fails(tmp_path):
    report = tmp_path / "report.csv"
    report.write_text("# replicas,2\n# check_census_sum_dev,1\n"
                      "# check_weight_rel_drift,2e-9\n# check_new_gate,0\n"
                      "colour,k,method,analytic,emp_mean,stderr,z\n")
    errors, _ = workloads._check_rows(report)
    assert len(errors) == 3


def test_census_identity_fails(tmp_path):
    census = tmp_path / "census.csv"
    census.write_text("replica,t,k,n\n0,2,1,2\n0,3,1,2\n0,3,2,1\n")
    assert workloads._check_census(census, 1, 3) == []
    assert workloads._check_census(census, 2, 3) == [
        "census.csv: final snapshots for replicas [0]"]
    with open(census, "a") as fh:
        fh.write("0,4,1,3\n0,4,3,2\n")
    assert workloads._check_census(census, 1, 4) == [
        "census.csv: replica 0 t=4: 5 nodes, degree sum 9"]


def test_simulate_check_summary_fails():
    ok = "4 replicas to t=100 (tree); census_sum_dev=0, weight_rel_drift=0"
    assert workloads._check_simulate_summary(ok) == []
    bad = "4 replicas to t=100 (tree); census_sum_dev=1, weight_rel_drift=0"
    assert workloads._check_simulate_summary(bad) == ["simulate check census_sum_dev=1"]
    assert workloads._check_simulate_summary("") == ["simulate printed no check summary"]


def test_bad_exit_code_fails(tmp_path):
    wl = make_workload("compare-pref-urn", 1, t_final=2000)
    wl.calls[0].argv[2] = "no-such-family"
    errors = _op(wl, tmp_path)["errors"]
    assert any("exit code 2" in e for e in errors)
