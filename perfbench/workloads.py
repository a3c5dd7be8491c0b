"""Workload definitions and output checks for the splitgrow benchmark.

A workload is a list of ``splitgrow`` command lines; one operation runs all
of them in turn through ``splitgrow.cli.main``.  Every command line is made
from the benchmark seed alone, so the same seed gives the same inputs and
therefore the same output bytes on every repetition.

Each call's outputs are checked against what the program promises:

- exit code 0, no traceback, and a ``compare PASS`` status for ``compare``;
- every ``# check_*`` row of ``report.csv``, or every check that
  ``simulate`` prints (census identities exact, weight drift at most
  ``WEIGHT_TOL``), read here because the report's own ``ok`` ignores them;
- for ``simulate``, the census identities of every snapshot in
  ``census.csv``, recomputed here: at step t there are t nodes and the
  degrees sum to 2t - 2;
- densities within ``ERR_TOL`` of the family's closed form;
- the stationarity residual and the sum identities that ``solution.json``
  reports, over all K degrees, within ``RESID_TOL``;
- byte-identical ``report.csv``, ``census.csv`` and ``solution.json``
  densities across the repetitions of one run.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from splitgrow.closed_forms import closed_form_for
from splitgrow.experiment import build_model
from splitgrow.twocolour import rna_closed_form

ERR_TOL = 1e-8          # worst |density - closed form| an operation may show
WEIGHT_TOL = 1e-9       # worst relative weight drift an operation may show
# worst residual or sum/moment deviation that solution.json may report; the
# largest on these workloads is 2.4e-10 (moment_dev of grafting at K=1024)
RESID_TOL = 1e-9
PREF_K = 30             # degrees checked against the one-colour closed forms
RNA_K = 20              # degrees checked against the RNA closed forms

# compare runs need enough replicas for the z gate (|z| > 5 at k <= 8) to
# keep its false-alarm rate small: with R replicas z is roughly Student-t
# with R-1 degrees of freedom, so R = 2 fails about two runs in three and
# R = 32 about one in 6000 (one in 3000 for the 16 two-colour rows).
COMPARE_REPLICAS = 32

NAMES = ("compare-pref-urn", "solve-k1024", "compare-rna", "simulate-pref-tree")


class WorkloadError(ValueError):
    """A workload definition the benchmark refuses to run."""


@dataclass
class Call:
    """One ``splitgrow`` command line, without its ``--out`` flag."""

    argv: list[str]
    model: dict                       # model spec, for the closed-form check
    config: Optional[dict] = None     # passed through ``--config``

    @property
    def command(self) -> str:
        return self.argv[0]

    def flag(self, name: str) -> Optional[str]:
        return self.argv[self.argv.index(name) + 1] if name in self.argv else None


@dataclass
class Workload:
    name: str
    calls: list[Call]


def _program_seed(name: str, seed: int) -> int:
    digest = hashlib.sha256(f"{name}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def make_workload(name: str, seed: int, replicas: Optional[int] = None,
                  t_final: Optional[int] = None,
                  reference_model: Optional[dict] = None) -> Workload:
    """The workload's command lines for ``seed``.  The keyword overrides
    exist for the negative controls; the benchmark itself uses none."""
    pseed = str(_program_seed(name, seed))

    def size(value, default):
        return str(default if value is None else value)

    pref = {"family": "preferential", "a": 1.0, "b": 0.0}
    if name == "compare-pref-urn":
        argv = ["compare", "--family", "preferential", "--w", "i", "--engine", "urn",
                "--t-final", size(t_final, 5_000),
                "--replicas", size(replicas, COMPARE_REPLICAS), "--seed", pseed]
        calls = [Call(argv, pref)]
    elif name == "compare-rna":
        argv = ["compare", "--family", "rna", "--t-final", size(t_final, 10_000),
                "--replicas", size(replicas, COMPARE_REPLICAS), "--seed", pseed]
        calls = [Call(argv, {"family": "rna"})]
    elif name == "simulate-pref-tree":
        argv = ["simulate", "--family", "preferential", "--w", "i", "--engine", "tree",
                "--t-final", size(t_final, 25_000), "--replicas", size(replicas, 4),
                "--thin", "20", "--seed", pseed]
        calls = [Call(argv, pref)]
    elif name == "solve-k1024":
        families = [
            (["--family", "preferential", "--w", "i"], pref),
            (["--family", "uniform", "--x", "0"], {"family": "uniform", "x": 0.0}),
            (["--family", "grafting", "--alpha", "0.5", "--gamma", "0.5"],
             {"family": "grafting", "alpha": 0.5, "gamma": 0.5}),
        ]
        # the seed only orders the solves; each solve is deterministic
        random.Random(seed).shuffle(families)
        calls = [Call(["solve", *flags, "--K", "1024", "--tol", "1e-13"], spec)
                 for flags, spec in families]
    else:
        raise WorkloadError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
    if reference_model is not None:
        for c in calls:
            c.config = {"reference_model": reference_model}
    wl = Workload(name, calls)
    validate_workload(wl)
    return wl


def validate_workload(wl: Workload) -> None:
    """Refuse workloads whose checks would be vacuous: a compare with fewer
    than two replicas has zero standard errors and passes any model."""
    for c in wl.calls:
        reps = c.flag("--replicas")
        if c.command == "compare" and (reps is None or int(reps) < 2):
            raise WorkloadError(f"{wl.name}: compare needs --replicas >= 2, got {reps}")


# -- checks --------------------------------------------------------------------


@dataclass
class CallResult:
    """What one call produced, as seen by the checks."""

    errors: list[str] = field(default_factory=list)
    max_abs_err: float = math.nan
    max_residual: float = math.nan
    digests: dict[str, str] = field(default_factory=dict)
    steps: int = 0               # growth steps or two-colour events


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _check_ok(name: str, val: str) -> bool:
    """Whether one invariant check value, as the program wrote it, holds."""
    try:
        v = float(val)
    except ValueError:
        return False
    if name in ("census_sum_dev", "census_moment_dev", "colour_identity_dev"):
        return v == 0
    if name.startswith("weight_"):
        return v <= WEIGHT_TOL
    if name == "colour_sum_vs_one_colour_max_dev":
        return v <= ERR_TOL
    return False                     # an unclassified check is not trusted


def _check_rows(report: Path) -> tuple[list[str], dict[str, str]]:
    """Errors from the ``# check_*`` rows, and the ``#`` header fields."""
    errors, header = [], {}
    with open(report) as fh:
        for line in fh:
            if not line.startswith("# "):
                break
            key, _, val = line[2:].rstrip("\n").partition(",")
            header[key] = val
            if key.startswith("check_") and not _check_ok(key[len("check_"):], val):
                errors.append(f"report.csv: {key} = {val}")
    return errors, header


def _check_simulate_summary(text: str) -> list[str]:
    """Errors from the ``name=value`` checks that ``simulate`` prints,
    e.g. ``4 replicas to t=25000 (tree); census_sum_dev=0, ...``."""
    line = next((ln for ln in text.splitlines() if " replicas to t=" in ln), None)
    if line is None or "; " not in line:
        return ["simulate printed no check summary"]
    errors = []
    for item in line.partition("; ")[2].split(", "):
        name, _, val = item.partition("=")
        if not _check_ok(name, val):
            errors.append(f"simulate check {item}")
    return errors


def _check_census(path: Path, replicas: int, t_final: int) -> list[str]:
    """Recompute the census identities of every snapshot in ``census.csv``:
    at step t a tree has t nodes and its degrees sum to 2t - 2."""
    sums: dict[tuple[int, int], list[int]] = {}
    with open(path) as fh:
        next(fh)
        for line in fh:
            rep, t, k, n = map(int, line.split(","))
            acc = sums.setdefault((rep, t), [0, 0])
            acc[0] += n
            acc[1] += k * n
    errors = [f"census.csv: replica {rep} t={t}: {n} nodes, degree sum {kn}"
              for (rep, t), (n, kn) in sums.items() if n != t or kn != 2 * t - 2]
    finals = {rep for rep, t in sums if t == t_final}
    if finals != set(range(replicas)):
        errors.append(f"census.csv: final snapshots for replicas {sorted(finals)}")
    return errors[:5]


def _report_analytic(report: Path) -> dict[tuple[str, int], float]:
    rows = {}
    with open(report) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("colour,"):
                continue
            colour, k, _method, analytic = line.split(",")[:4]
            rows[(colour, int(k))] = float(analytic)
    return rows


def _closed_form(model: dict, kmax: int) -> dict[tuple[str, int], float]:
    if model["family"] == "rna":
        ref = {}
        for k in range(1, kmax + 1):
            ref[("white", k)], ref[("black", k)] = rna_closed_form(k)
        return ref
    cf = closed_form_for(build_model(model))
    return {("", k): v for k, v in enumerate(cf.densities(kmax), start=1)}


def _solution_values(doc: dict, kmax: int) -> dict[tuple[str, int], float]:
    if doc["kind"] == "two-colour":
        return {(colour, k): doc[f"e_{colour}"][k - 1]
                for colour in ("white", "black") for k in range(1, kmax + 1)}
    return {("", k): doc["densities"][k - 1] for k in range(1, kmax + 1)}


def _max_err(values: dict, ref: dict) -> float:
    return max(abs(v - ref[key]) for key, v in values.items() if key in ref)


def _check_solution(call: Call, out: Path, res: CallResult) -> dict:
    doc = json.loads((out / "solution.json").read_text())
    two_colour = doc["kind"] == "two-colour"
    kmax = RNA_K if two_colour else PREF_K
    ref = _closed_form(call.model, kmax)
    res.max_abs_err = _max_err(_solution_values(doc, kmax), ref)
    for key in (("max_residual", "colour_sum_dev", "weight_sum_dev") if two_colour
                else ("max_residual", "sum_dev", "moment_dev")):
        if doc.get(key) is None or not abs(doc[key]) <= RESID_TOL:
            res.errors.append(f"solution.json: {key} = {doc.get(key)}")
    if doc.get("monotone_ok") is False:
        res.errors.append("solution.json: monotone_ok is false")
    res.max_residual = float(doc["max_residual"])
    dens_keys = (("e_white", "e_black", "rho_white", "rho_black")
                 if two_colour else ("densities",))
    res.digests["solution.json densities"] = hashlib.sha256(
        json.dumps([doc[k] for k in dens_keys]).encode()).hexdigest()
    if doc.get("unsupported"):
        res.errors.append("solution.json: unsupported")
    return ref


def check_call(call: Call, out: Path, rc: int, text: str) -> CallResult:
    """Check one call's exit status, messages and written outputs."""
    res = CallResult()
    if rc != 0:
        res.errors.append(f"exit code {rc}")
    if "Traceback" in text:
        res.errors.append("traceback in output")
    try:
        if call.command == "solve":
            _check_solution(call, out, res)
        elif call.command == "simulate":
            reps, t_final = int(call.flag("--replicas")), int(call.flag("--t-final"))
            res.errors.extend(_check_simulate_summary(text))
            res.errors.extend(_check_census(out / "census.csv", reps, t_final))
            res.digests["census.csv"] = _sha256_file(out / "census.csv")
            res.steps = reps * (t_final - 2)
        elif call.command == "compare":
            if "compare PASS" not in text:
                res.errors.append("compare did not PASS: " + text.strip()[-200:])
            errors, header = _check_rows(out / "report.csv")
            res.errors.extend(errors)
            ref = _check_solution(call, out, res)
            analytic = _report_analytic(out / "report.csv")
            res.max_abs_err = max(res.max_abs_err, _max_err(analytic, ref))
            res.digests["report.csv"] = _sha256_file(out / "report.csv")
            reps, t_final = int(header["replicas"]), int(header["t_final"])
            # events per replica: both engines start from one edge at t = 2
            res.steps = reps * (t_final - 2)
    except Exception as exc:         # a missing or malformed output is a failure
        res.errors.append(f"{type(exc).__name__}: {exc}")
    if not math.isnan(res.max_abs_err) and not res.max_abs_err <= ERR_TOL:
        res.errors.append(f"max_abs_err {res.max_abs_err:.3g} > {ERR_TOL:g}")
    return res


def output_bytes(out: Path) -> int:
    """Bytes of the byte-stable outputs; manifest.json holds wall time."""
    return sum(p.stat().st_size for p in out.iterdir()
               if p.is_file() and p.name != "manifest.json")
