"""Command-line harness: solve, simulate, compare, validate.

Configuration is one JSON document (see README for the schema); individual
flags override config fields, under the names of ``experiment.FAMILIES``
parameters and ``ExperimentConfig`` fields.  Every refusal ends in one
``error:`` line and exit code 2.  Outputs are written to --out as
``solution.json``, ``census.csv``, ``report.csv`` and ``manifest.json``;
all numeric outputs are byte-reproducible given (config, seed), so wall
time lives only in the manifest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidParameterError, SplitgrowError
from .experiment import (FAMILIES, ExperimentConfig, _check_holds, build_model,
                         compare, growth_counters, is_two_colour_spec, judged_model,
                         run_replicated, solve_model, worst_checks)
from .solver import DensitySolution, validate_model
from .twocolour import TwoColourSolution, densities_from_e
from .weights import SplittingWeights

__all__ = ["main", "parse_weight_expr"]


def parse_weight_expr(expr: str) -> SplittingWeights:
    """Linear weight expressions like ``i``, ``2*i+1``, ``i-0.5`` or ``1``."""
    t = expr.replace(" ", "")
    try:
        if "i" not in t:
            return SplittingWeights(0.0, float(t))
        head, _, rest = t.partition("i")
        if head in ("", "+"):
            a = 1.0
        elif head == "-":
            a = -1.0
        else:
            a = float(head[:-1] if head.endswith("*") else head)
        if rest[:1] not in "+-":                # "i2" is not i + 2
            raise ValueError(rest)
        b = float(rest or 0.0)
    except ValueError:
        raise InvalidParameterError(
            f"cannot parse weight expression {expr!r}; expected a*i+b, "
            "e.g. 'i', '2*i+1' or '1'") from None
    return SplittingWeights(a, b)


def _parameter_flags() -> dict[str, list[str]]:
    """Each family parameter that a ``--<name>`` flag sets, with the families
    that take it; a table's parameters come whole from ``--table``."""
    return {key: [fam for fam, (params, _) in FAMILIES.items() if key in params]
            for fam, (params, _) in FAMILIES.items() if fam != "table" for key in params}


def _unique_keys(pairs: list) -> dict:
    """A JSON object, refusing a key given twice (json keeps the last)."""
    doc = {}
    for key, val in pairs:
        if key in doc:
            raise InvalidParameterError(f"duplicate key {key!r}")
        doc[key] = val
    return doc


def _read_json(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:
        raise InvalidParameterError(f"cannot read {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidParameterError(f"{path} must hold a JSON object")
    return doc


def _model_spec_from_flags(args) -> dict | None:
    """The model the flags give, or None when they give none and the model
    is the config's; parameter flags without ``--family`` are refused."""
    params = {key: getattr(args, key) for key in _parameter_flags()
              if getattr(args, key) is not None}
    given = [f"--{key}" for key, val in (("family", args.family), ("w", args.w),
                                         *params.items()) if val is not None]
    if args.table:
        if given:
            raise InvalidParameterError(f"--table gives the whole model; drop {', '.join(given)}")
        spec = {"family": "table", **_read_json(args.table)}
        if spec["family"] != "table":
            raise InvalidParameterError(
                f"{args.table} is a table: it takes 'd_max' and 'entries', not a family")
        return spec
    if not args.family:
        if given:
            raise InvalidParameterError(
                f"{', '.join(given)} need --family; they do not change a --config model")
        return None
    spec: dict = {"family": args.family}
    if args.w is not None:
        if is_two_colour_spec(spec):      # a, b there are not w_i = a*i + b
            raise InvalidParameterError(
                f"--w does not apply to family {args.family!r}; use --a and --b")
        if "a" in params or "b" in params:
            raise InvalidParameterError(
                "--w sets both a and b of w_i = a*i + b; drop "
                + ", ".join(f"--{key}" for key in ("a", "b") if key in params))
        sw = parse_weight_expr(args.w)
        spec.update(a=sw.a, b=sw.b)
    spec.update(params)
    return spec


def _load_config(args) -> ExperimentConfig:
    doc = _read_json(args.config) if args.config else {}
    spec = _model_spec_from_flags(args)
    if spec:
        doc["model"] = spec
    if "model" not in doc:
        raise InvalidParameterError("no model given (use --config or --family/--table)")
    for key in ExperimentConfig.__dataclass_fields__:      # flags carry field names
        val = getattr(args, key, None)
        if val is not None:
            doc[key] = val
    return ExperimentConfig.from_dict(doc)


def _manifest(cfg: ExperimentConfig, runtime_s: float, write_s: float,
              growth: dict | None = None, solution=None) -> dict:
    """Run facts that are not byte-stable: wall time, the part of it spent
    writing the byte-stable outputs and, for runs that grow replicas, the
    growth counters of ``experiment.growth_counters``; for runs that solve,
    the solver facts of ``_solver_facts``."""
    doc = {
        "seed": cfg.seed,
        "config_digest": cfg.digest,
        "config": cfg.to_dict(),
        "versions": {"splitgrow": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
        "runtime_s": runtime_s,
        "write_s": write_s,
    }
    if growth is not None:
        doc["growth"] = growth
    if solution is not None:
        doc["solver"] = _solver_facts(solution)
    return doc


def _solver_facts(sol) -> dict:
    """K, method, largest stationarity residual, tail closure (kind, and
    the reason when there is none) and the order of the dense elimination
    (0 for a recurrence solve); a two-colour solve reports its reduced
    one-colour solve's closure."""
    if isinstance(sol, TwoColourSolution):
        one, max_residual = sol.one_colour, sol.max_residual
    else:
        one, max_residual = sol, sol.residuals.max_abs
    return {"K": sol.K, "method": sol.method, "max_residual": max_residual,
            "closure": one.closure.kind, "closure_reason": one.closure.reason or None,
            "head_size": one.head_size}


def _out_dir(path: str) -> Path:
    """The output directory, judged before any solve or growth; it is made
    only when the outputs are written, so a refused command leaves none."""
    out = Path(path)
    base = next((p for p in (out, *out.parents) if p.exists()), out)
    if not (base.is_dir() and os.access(base, os.W_OK | os.X_OK)):
        raise InvalidParameterError(f"--out {path}: {base} is not a writable directory")
    return out


def _json_text(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, for a
    value whose lines after the first start with ``pad``.  ``indent`` holds
    json to its pure-Python encoder, so a list of plain numbers (no bools)
    goes through the C encoder in one call, its ``", "`` separators
    re-indented, and a str-keyed object that holds a list is walked here.
    json writes every other value whole: a scalar without ``indent``, whose
    text has no line to indent."""
    inner = pad + "  "
    if isinstance(obj, list) and obj and {*map(type, obj)} <= {float, int}:
        return f"[{inner}{json.dumps(obj)[1:-1].replace(', ', ',' + inner)}{pad}]"
    if (isinstance(obj, dict) and all(type(k) is str for k in obj)
            and any(isinstance(v, list) for v in obj.values())):
        items = (f"{inner}{json.dumps(key)}: {_json_text(val, inner)}"
                 for key, val in sorted(obj.items()))
        return f"{{{','.join(items)}{pad}}}"
    if isinstance(obj, (list, tuple, dict)):
        return json.dumps(obj, indent=2, sort_keys=True).replace("\n", pad)
    return json.dumps(obj)


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(_json_text(doc) + "\n")


def _solution_doc(sol) -> dict:
    if isinstance(sol, TwoColourSolution):
        rho_w, rho_b = densities_from_e(sol)
        return {
            "kind": "two-colour",
            "method": sol.method,
            "K": sol.K,
            "e_white": sol.e_white.tolist(),
            "e_black": sol.e_black.tolist(),
            "rho_white": rho_w.tolist(),
            "rho_black": rho_b.tolist(),
            "max_residual": sol.max_residual,
            "colour_sum_dev": sol.colour_sum_dev,
            "weight_sum_dev": sol.weight_sum_dev,
            "unsupported": sol.unsupported,
            "warnings": sol.warnings,
        }
    assert isinstance(sol, DensitySolution)
    return {
        "kind": "one-colour",
        "method": sol.method,
        "K": sol.K,
        "regime": sol.regime.value,
        "s": sol.s,
        "sum_a": sol.sum_a,
        "sum_ka": sol.sum_ka,
        "max_residual": sol.residuals.max_abs,
        "sum_dev": sol.residuals.sum_dev,
        "moment_dev": sol.residuals.moment_dev,
        "tail_mass": sol.residuals.tail_mass,
        "monotone_ok": sol.monotone_ok,
        "unsupported": sol.unsupported,
        "warnings": sol.warnings,
        "densities": sol.densities.tolist(),
    }


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args.out) if args.out else None
    t0 = time.monotonic()
    sol = solve_model(build_model(cfg.model), cfg)
    doc = _solution_doc(sol)
    if out:
        out.mkdir(parents=True, exist_ok=True)
        t_write = time.monotonic()
        _write_json(out / "solution.json", doc)
        write_s = time.monotonic() - t_write
        _write_json(out / "manifest.json",
                    _manifest(cfg, time.monotonic() - t0, write_s, solution=sol))
        print(f"solution.json written to {out}", file=sys.stderr)
    else:
        sys.stdout.write(_json_text(doc) + "\n")
    return 0


def cmd_simulate(args) -> int:
    from .growth import write_census_csv   # solve and validate load no engine
    cfg = _load_config(args)
    out = _out_dir(args.out or ".")
    t0 = time.monotonic()
    results = run_replicated(cfg)
    out.mkdir(parents=True, exist_ok=True)
    trajectories = [res["snapshots"] for res in results]
    t_write = time.monotonic()
    with open(out / "census.csv", "wb") as fh:
        write_census_csv(fh, trajectories)
    write_s = time.monotonic() - t_write
    manifest = _manifest(cfg, time.monotonic() - t0, write_s, growth_counters(results))
    _write_json(out / "manifest.json", {
        **manifest, "snapshots": sum(map(len, trajectories)),
        "census_bytes": (out / "census.csv").stat().st_size})
    worst = worst_checks(results)
    summary = ", ".join(f"{k}={v:.3g}" for k, v in worst.items())
    print(f"{cfg.replicas} replicas to t={cfg.t_final} ({cfg.engine}); {summary}",
          file=sys.stderr)
    return 0 if all(_check_holds(k, v) for k, v in worst.items()) else 1


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args.out or ".")
    t0 = time.monotonic()
    report = compare(cfg)
    out.mkdir(parents=True, exist_ok=True)
    t_write = time.monotonic()
    with open(out / "report.csv", "w") as fh:
        report.write_csv(fh)
    _write_json(out / "solution.json", _solution_doc(report.solution))
    write_s = time.monotonic() - t_write
    _write_json(out / "manifest.json",
                _manifest(cfg, time.monotonic() - t0, write_s, report.growth, report.solution))
    bad, failed = report.violations(), report.failed_checks()
    checked = [r for r in report.rows if r.k <= cfg.k_check]
    worst = max((abs(r.z) for r in checked if np.isfinite(r.z)), default=0.0)
    status = "PASS" if report.ok else (
        f"FAIL ({len(bad)} degrees beyond z={cfg.z_crit}; "
        f"failed checks: {', '.join(failed) or 'none'})")
    # a row with SE 0 has z 0 or infinite, and the maximum skips infinities
    zero_se = sum(r.stderr == 0 for r in checked)
    print(f"compare {status}: max |z| = {worst:.2f} over k <= {cfg.k_check}; "
          f"{zero_se} of {len(checked)} checked rows have SE 0; report in {out}",
          file=sys.stderr)
    return 0 if report.ok else 1


def cmd_validate(args) -> int:
    cfg = _load_config(args)
    model = build_model(cfg.model)
    print(f"model: {model!r}")
    rep = validate_model(judged_model(model))
    for name, cond in rep.conditions.items():
        status = {True: "pass", False: "FAIL", None: "n/a"}[cond.ok]
        print(f"  {name:<20} {status:<5} {cond.detail}")
    return 0 if rep.ok else 2


# each command's help line, handler and the flag groups ``_add_flags`` adds
_COMMANDS = {
    "solve": ("analytic degree densities", cmd_solve, {"solves", "writes"}),
    "simulate": ("replicated growth trajectories", cmd_simulate, {"grows", "writes"}),
    "compare": ("simulation vs analytic, with z-scores", cmd_compare,
                {"solves", "grows", "writes", "judges"}),
    "validate": ("model condition checks and regime", cmd_validate, set()),
}


def _add_flags(p: argparse.ArgumentParser, groups: set[str]) -> None:
    """The model flags, which every command reads, and the solver, growth,
    output and z-gate flags of a command that solves, grows, writes files
    or judges a simulation against the solve."""
    p.add_argument("--config", help="JSON config document")
    p.add_argument("--family", help="model family name")
    p.add_argument("--w", help="splitting weights, e.g. 'i' or '2*i+1'")
    for key, families in _parameter_flags().items():
        p.add_argument(f"--{key}", type=float, help=f"parameter of {', '.join(families)}")
    p.add_argument("--table", help="JSON table file {d_max, entries}")
    if "solves" in groups:
        p.add_argument("--K", type=int, help="solver truncation")
        p.add_argument("--tol", type=float, help="solver tolerance")
    if "writes" in groups:
        p.add_argument("--force-unsupported", action="store_true", default=None,
                       help="run outside the guaranteed regime (results watermarked)")
        p.add_argument("--out", help="output directory")
    if "grows" in groups:
        p.add_argument("--seed", type=int)
        p.add_argument("--replicas", type=int)
        p.add_argument("--t-final", dest="t_final", type=int)
        p.add_argument("--thin", type=int, help="snapshot every N steps")
        p.add_argument("--engine", choices=("urn", "tree"))
    if "judges" in groups:
        p.add_argument("--k-check", dest="k_check", type=int)
        p.add_argument("--z-crit", dest="z_crit", type=float)


def main(argv=None) -> int:
    """Run one command.  Only its parser is built: the flags of all four
    took longer to build than a ``--K 1024`` solve."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in _COMMANDS:    # help, or a usage error: either exits
        ap = argparse.ArgumentParser(
            prog="splitgrow",
            description="Vertex-splitting random trees: solve, simulate, compare, validate")
        sub = ap.add_subparsers(dest="command", required=True)
        for name, (help_line, _, _) in _COMMANDS.items():
            sub.add_parser(name, help=help_line)
        ap.parse_args(argv)
    _, handler, groups = _COMMANDS[argv[0]]
    p = argparse.ArgumentParser(prog=f"splitgrow {argv[0]}")
    _add_flags(p, groups)
    args = p.parse_args(argv[1:])
    try:
        return handler(args)
    except SplitgrowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
