"""Command-line harness: solve, simulate, compare, validate.

Configuration is one JSON document (see README for the schema); individual
flags override config fields.  Outputs are written to --out as
``solution.json``, ``census.csv``, ``report.csv`` and ``manifest.json``;
all numeric outputs are byte-reproducible given (config, seed), so wall
time lives only in the manifest.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidParameterError, SplitgrowError
from .experiment import (ExperimentConfig, build_model, compare, growth_counters,
                         is_two_colour_spec, run_replicated, solve_model, worst_checks)
from .growth import write_census_binary, write_census_csv
from .solver import DensitySolution
from .twocolour import TwoColourModel, TwoColourSolution, densities_from_e, \
    reduce_to_one_colour
from .weights import SplittingWeights, classify_regime, validate_model

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
        b = float(rest) if rest else 0.0
    except ValueError:
        raise InvalidParameterError(
            f"cannot parse weight expression {expr!r}; expected a*i+b, "
            "e.g. 'i', '2*i+1' or '1'") from None
    return SplittingWeights(a, b)


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
    if args.table:
        doc = _read_json(args.table)
        return {"family": "table", "d_max": doc.get("d_max"),
                "entries": doc.get("entries")}
    if not args.family:
        return None
    spec: dict = {"family": args.family}
    if args.w is not None:
        if is_two_colour_spec(spec):      # a, b there are not w_i = a*i + b
            raise InvalidParameterError(
                f"--w does not apply to family {args.family!r}; use --a and --b")
        sw = parse_weight_expr(args.w)
        spec.update(a=sw.a, b=sw.b)
    for key in ("x", "alpha", "gamma", "alpha0", "a", "b"):
        val = getattr(args, key if key not in ("a", "b") else f"coef_{key}")
        if val is not None:
            spec[key] = val
    return spec


def _load_config(args) -> ExperimentConfig:
    doc = _read_json(args.config) if args.config else {}
    spec = _model_spec_from_flags(args)
    if spec:
        doc["model"] = spec
    if "model" not in doc:
        raise InvalidParameterError("no model given (use --config or --family/--table)")
    for flag, key in (("seed", "seed"), ("replicas", "replicas"),
                      ("t_final", "t_final"), ("K", "K"), ("tol", "tol"),
                      ("engine", "engine"), ("thin", "thin"),
                      ("k_check", "k_check"), ("z_crit", "z_crit")):
        val = getattr(args, flag, None)
        if val is not None:
            doc[key] = val
    if getattr(args, "force_unsupported", False):
        doc["force_unsupported"] = True
    return ExperimentConfig.from_dict(doc)


def _manifest(cfg: ExperimentConfig, runtime_s: float,
              growth: dict | None = None, solution=None) -> dict:
    """Run facts that are not byte-stable: wall time and, for runs that
    grow replicas, the growth counters of ``experiment.growth_counters``;
    for runs that solve, the solver facts of ``_solver_facts``."""
    doc = {
        "seed": cfg.seed,
        "config_digest": cfg.digest,
        "config": cfg.to_dict(),
        "versions": {
            "splitgrow": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "runtime_s": runtime_s,
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
        closure, max_residual = sol.one_colour.closure, sol.max_residual
    else:
        closure, max_residual = sol.closure, sol.residuals.max_abs
    return {"K": sol.K, "method": sol.method, "max_residual": max_residual,
            "closure": closure.kind, "closure_reason": closure.reason or None,
            "head_size": closure.head_size}


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _solution_doc(sol) -> dict:
    if isinstance(sol, TwoColourSolution):
        rho_w, rho_b = densities_from_e(sol)
        doc = {
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
            "warnings": sol.warnings,
        }
        return doc
    assert isinstance(sol, DensitySolution)
    return {
        "kind": "one-colour",
        "method": sol.method,
        "K": sol.K,
        "regime": sol.regime.value,
        "s": sol.s,
        "iterations": sol.iterations,
        "last_step": sol.last_step,
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
    t0 = time.monotonic()
    sol = solve_model(build_model(cfg.model), cfg)
    doc = _solution_doc(sol)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "solution.json", doc)
        _write_json(out / "manifest.json",
                    _manifest(cfg, time.monotonic() - t0, solution=sol))
        print(f"solution.json written to {out}", file=sys.stderr)
    else:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def _validate_or_abort(cfg: ExperimentConfig) -> int:
    """0 when the model passes validation (or the config forces on)."""
    model = build_model(cfg.model)
    if isinstance(model, TwoColourModel):
        return 0      # consistency is enforced at construction
    rep = validate_model(model)
    if rep.ok or cfg.force_unsupported:
        return 0
    _print_validation(model, rep)
    return 2


def _print_validation(model, rep) -> None:
    print(f"model: {model!r}")
    for name, cond in (("linearity", rep.linearity),
                       ("leaf_reachability", rep.leaf_reachability),
                       ("top_splittable", rep.top_splittable),
                       ("replacement_matrix", rep.replacement_matrix)):
        status = {True: "pass", False: "FAIL", None: "n/a"}[cond.ok]
        print(f"  {name:<20} {status:<5} {cond.detail}")


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    if args.binary and is_two_colour_spec(cfg.model):
        raise InvalidParameterError(
            "--binary writes one-colour census dumps; the census_<r>.bin format "
            "cannot carry the colours of a two-colour model")
    rc = _validate_or_abort(cfg)
    if rc:
        return rc
    t0 = time.monotonic()
    results = run_replicated(cfg)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    trajectories = [res["snapshots"] for res in results]
    with open(out / "census.csv", "w") as fh:
        write_census_csv(fh, trajectories)
    if args.binary:
        for rep, snaps in enumerate(trajectories):
            write_census_binary(out / f"census_{rep}.bin", snaps)
    _write_json(out / "manifest.json",
                _manifest(cfg, time.monotonic() - t0, growth_counters(results)))
    summary = ", ".join(f"{k}={v:.3g}" for k, v in worst_checks(results).items())
    print(f"{cfg.replicas} replicas to t={cfg.t_final} ({cfg.engine}); {summary}",
          file=sys.stderr)
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    rc = _validate_or_abort(cfg)
    if rc:
        return rc
    t0 = time.monotonic()
    report = compare(cfg)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.csv", "w") as fh:
        report.write_csv(fh)
    _write_json(out / "solution.json", _solution_doc(report.solution))
    _write_json(out / "manifest.json",
                _manifest(cfg, time.monotonic() - t0, report.growth, report.solution))
    bad, failed = report.violations(), report.failed_checks()
    worst = max((abs(r.z) for r in report.rows
                 if r.k <= cfg.k_check and np.isfinite(r.z)), default=0.0)
    status = "PASS" if report.ok else (
        f"FAIL ({len(bad)} degrees beyond z={cfg.z_crit}; "
        f"failed checks: {', '.join(failed) or 'none'})")
    print(f"compare {status}: max |z| = {worst:.2f} over k <= {cfg.k_check}; "
          f"report in {out}", file=sys.stderr)
    return 0 if report.ok else 1


def cmd_validate(args) -> int:
    cfg = _load_config(args)
    model = build_model(cfg.model)
    if isinstance(model, TwoColourModel):
        print(f"model: {model!r}")
        print(f"  white consistency     pass  max residual "
              f"{model.white.linear_fit_residual:.3g}")
        red = reduce_to_one_colour(model)
        regime, s = classify_regime(red)
        print(f"  reduced one-colour    regime {regime.value}, s = {s:g}")
        return 0
    rep = validate_model(model)
    _print_validation(model, rep)
    try:
        regime, s = classify_regime(model)
        print(f"  regime {regime.value}, s = {s:g}")
    except SplitgrowError as exc:
        print(f"  regime unknown: {exc}")
    return 0 if rep.ok else 2


def _add_common(p: argparse.ArgumentParser, sim: bool) -> None:
    p.add_argument("--config", help="JSON config document")
    p.add_argument("--family", help="model family name")
    p.add_argument("--w", help="splitting weights, e.g. 'i' or '2*i+1'")
    p.add_argument("--x", type=float, help="uniform-family offset")
    p.add_argument("--alpha", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--alpha0", type=float, help="two-colour white split parameter")
    p.add_argument("--a", dest="coef_a", type=float, help="two-colour weight parameter a")
    p.add_argument("--b", dest="coef_b", type=float, help="two-colour weight parameter b")
    p.add_argument("--table", help="JSON table file {d_max, entries}")
    p.add_argument("--K", type=int, help="solver truncation")
    p.add_argument("--tol", type=float, help="solver tolerance")
    p.add_argument("--force-unsupported", action="store_true",
                   help="run outside the guaranteed regime (results watermarked)")
    p.add_argument("--out", help="output directory")
    if sim:
        p.add_argument("--seed", type=int)
        p.add_argument("--replicas", type=int)
        p.add_argument("--t-final", dest="t_final", type=int)
        p.add_argument("--thin", type=int, help="snapshot every N steps")
        p.add_argument("--engine", choices=("urn", "tree"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="splitgrow",
        description="Vertex-splitting random trees: solve, simulate, compare, validate")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="analytic degree densities")
    _add_common(p, sim=False)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("simulate", help="replicated growth trajectories")
    _add_common(p, sim=True)
    p.add_argument("--binary", action="store_true",
                   help="also write per-replica binary census dumps "
                        "(one-colour models only)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("compare", help="simulation vs analytic, with z-scores")
    _add_common(p, sim=True)
    p.add_argument("--k-check", dest="k_check", type=int)
    p.add_argument("--z-crit", dest="z_crit", type=float)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("validate", help="model condition checks and regime")
    _add_common(p, sim=False)
    p.set_defaults(fn=cmd_validate)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except SplitgrowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
