"""Replicated simulation experiments with analytic cross-checks.

A config describes one model (one- or two-colour), the horizon, the replica
count and solver parameters.  Replicas run on independent, reproducibly
derived random streams (children of one master seed); empirical per-degree
means and standard errors are joined against the analytic densities and
turned into z-scores, giving a CI-friendly pass/fail summary.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .closed_forms import closed_form_for
from .errors import InvalidParameterError
from .growth import OrderedTree, UrnState, run, run_batch
from .solver import fixed_point_densities, solve_finite
from .twocolour import (TwoColourModel, TwoColourState, densities_from_e,
                        make_rna, make_two_colour_grafting, make_two_colour_uniform,
                        solve_two_colour)
from .weights import MAX_DEGREE, SplittingWeights, make_grafting, \
    make_preferential, make_table, make_uniform

__all__ = [
    "ExperimentConfig",
    "DegreeRow",
    "ExperimentReport",
    "build_model",
    "is_two_colour_spec",
    "worker_count",
    "run_replicated",
    "growth_counters",
    "worst_checks",
    "solve_model",
    "analytic_reference",
    "compare",
]

# a tuple, not a set: membership of an unhashable family value is False
TWO_COLOUR_FAMILIES = ("rna", "two-colour-uniform", "two-colour-grafting")

# degrees 1..REPORT_DEGREES make the rows of compare's report, so k_check
# gates at most that many
REPORT_DEGREES = 16


# the parameters each family takes besides "family"; any other key is refused
FAMILY_PARAMETERS = {
    "preferential": ("a", "b"),
    "uniform": ("x",),
    "grafting": ("alpha", "gamma"),
    "table": ("d_max", "entries"),
    "rna": (),
    "two-colour-uniform": ("a", "b"),
    "two-colour-grafting": ("a", "b", "alpha0"),
}


def build_model(spec: dict):
    """Model from a config mapping: ``{"family": ..., <parameters>}``.

    An unknown family, a key the family does not take, or a missing or
    malformed parameter raises InvalidParameterError."""
    fam = spec.get("family")
    if not isinstance(fam, str) or fam not in FAMILY_PARAMETERS:
        raise InvalidParameterError(f"unknown family {fam!r}")
    params = FAMILY_PARAMETERS[fam]
    unknown = sorted(map(str, set(spec) - {"family", *params}))
    if unknown:
        raise InvalidParameterError(
            f"family {fam!r} takes no parameter {', '.join(map(repr, unknown))}; "
            f"its parameters are {', '.join(map(repr, params)) or 'none'}")
    try:
        if fam == "preferential":
            return make_preferential(SplittingWeights(float(spec.get("a", 1.0)),
                                                      float(spec.get("b", 0.0))))
        if fam == "uniform":
            return make_uniform(float(spec.get("x", 0.0)))
        if fam == "grafting":
            return make_grafting(float(spec["alpha"]), float(spec["gamma"]))
        if fam == "table":
            return make_table(int(spec["d_max"]),
                              [(int(i), int(j), float(w)) for i, j, w in spec["entries"]])
        if fam == "rna":
            return make_rna()
        if fam == "two-colour-uniform":
            return make_two_colour_uniform(float(spec["a"]), float(spec["b"]))
        return make_two_colour_grafting(float(spec["a"]), float(spec["b"]),
                                        float(spec.get("alpha0", 0.5)))
    except InvalidParameterError:
        raise
    except KeyError as exc:
        raise InvalidParameterError(
            f"family {fam!r} needs parameter {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameterError(f"bad parameters for family {fam!r}: {exc}") from None


def is_two_colour_spec(spec: dict) -> bool:
    return spec.get("family") in TWO_COLOUR_FAMILIES


@dataclass
class ExperimentConfig:
    model: dict
    t_final: int = 100_000
    replicas: int = 32
    thin: int = 0                      # 0: final census only
    K: int = 512
    tol: float = 1e-13
    seed: int = 20240901
    engine: str = "urn"                # "urn" | "tree"
    k_check: int = 8
    z_crit: float = 5.0
    force_unsupported: bool = False
    reference_model: Optional[dict] = None   # analytic override (negative controls)

    def to_dict(self) -> dict:
        d = {k: v for k, v in self.__dict__.items() if v is not None}
        return d

    @property
    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()).hexdigest()

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Config from a mapping; also checks ``SPLITGROW_THREADS`` so a bad
        value is refused at load rather than when the replicas start."""
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise InvalidParameterError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**d)
        if not isinstance(cfg.model, dict):
            raise InvalidParameterError(f"model must be a JSON object, got {cfg.model!r}")
        if cfg.reference_model is not None and not isinstance(cfg.reference_model, dict):
            raise InvalidParameterError(
                f"reference_model must be a JSON object, got {cfg.reference_model!r}")
        if not isinstance(cfg.force_unsupported, bool):
            raise InvalidParameterError(
                f"force_unsupported must be true or false, got {cfg.force_unsupported!r}")
        for name, low in (("replicas", 1), ("t_final", 2), ("K", 2), ("thin", 0),
                          ("k_check", 1), ("seed", 0)):
            val = getattr(cfg, name)
            if isinstance(val, bool) or not isinstance(val, int) or val < low:
                raise InvalidParameterError(
                    f"{name} must be an integer >= {low}, got {val!r}")
        if cfg.K > MAX_DEGREE:
            raise InvalidParameterError(f"K must be at most {MAX_DEGREE}, got {cfg.K}")
        if cfg.k_check > REPORT_DEGREES:
            raise InvalidParameterError(
                f"k_check must be at most {REPORT_DEGREES}, the degrees the report "
                f"holds, got {cfg.k_check}")
        for name in ("tol", "z_crit"):
            val = getattr(cfg, name)
            if isinstance(val, bool) or not isinstance(val, (int, float)) \
                    or not 0 < val < float("inf"):
                raise InvalidParameterError(
                    f"{name} must be a finite number > 0, got {val!r}")
        if cfg.engine not in ("urn", "tree"):
            raise InvalidParameterError(
                f"engine must be 'urn' or 'tree', got {cfg.engine!r}")
        if cfg.engine == "tree" and is_two_colour_spec(cfg.model):
            raise InvalidParameterError("two-colour models run on the urn engine only")
        _thread_cap()
        return cfg


def _thread_cap() -> int:
    """SPLITGROW_THREADS if set, else the machine's core count."""
    env = os.environ.get("SPLITGROW_THREADS")
    if not env:
        return os.cpu_count() or 1
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise InvalidParameterError(
            f"SPLITGROW_THREADS must be an integer >= 1, got {env!r}")
    return cap


def worker_count(replicas: int) -> int:
    """Worker cap: SPLITGROW_THREADS if set, else the machine's core count."""
    return max(1, min(_thread_cap(), replicas))


def _simulate_replica(payload):
    """One grown replica's result: its snapshots, its invariant checks and
    its growth counters."""
    model, state, snaps, growth = payload
    if isinstance(state, TwoColourState):
        kind = "two-colour"
        wdrift, wclosed = state.weight_deviation()
        checks = {"colour_identity_dev": abs(state.colour_identity_deviation()),
                  "weight_rel_drift": wdrift,
                  "weight_closed_form_rel_dev": wclosed}
    else:
        kind = "one-colour"
        sum_dev, moment_dev, drift = state.census_deviations()
        wclosed = float("nan")
        if model.is_linear():
            wclosed = (abs(state.total_weight - state.expected_weight())
                       / max(abs(state.total_weight), 1.0))
        checks = {"census_sum_dev": abs(sum_dev),
                  "census_moment_dev": abs(moment_dev),
                  "weight_rel_drift": drift,
                  "weight_closed_form_rel_dev": wclosed}
    occupied = np.flatnonzero(snaps[-1].counts)
    growth["max_degree"] = int(occupied[-1]) + 1 if len(occupied) else 0
    return {"kind": kind, "t": snaps[-1].t, "snapshots": snaps, "checks": checks,
            "growth": growth}


def _simulate_block(payload):
    """Replicas ``first ..`` of one worker, grown from their child seeds:
    census engines in one ``run_batch`` call, trees one ``run`` each (one
    tree alive at a time).  The block's first result also carries the
    batch's ``rounds`` (None for trees) and ``growth_s``, and for trees the
    ``kernel`` that grew them."""
    spec, engine, t_final, thin, first, seeds = payload
    model = build_model(spec)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    start = time.perf_counter()
    events = t_final - 2                    # every replica starts from one edge
    kernel = {}
    if engine == "tree" and not isinstance(model, TwoColourModel):
        results, rounds = [], None
        for rng in rngs:
            tree = OrderedTree.single_edge(model)
            kernel = {"kernel": tree.kernel}
            snaps = run(tree, t_final, rng, thin=thin or None)
            results.append(_simulate_replica(
                (model, tree, snaps, {"events": events, "events_drawn": events})))
    else:
        make = (TwoColourState if isinstance(model, TwoColourModel) else UrnState).single_edge
        states = [make(model) for _ in seeds]
        trajectories, stats = run_batch(states, t_final, rngs, thin=thin or None)
        rounds = stats["rounds"]
        results = [_simulate_replica((model, s, snaps, {"events": events, "events_drawn": d}))
                   for s, snaps, d in zip(states, trajectories, stats["events_drawn"])]
    results[0]["batch"] = {"first": first, "replicas": len(seeds), "rounds": rounds,
                           **kernel, "growth_s": time.perf_counter() - start}
    return results


def run_replicated(cfg: ExperimentConfig) -> list[dict]:
    """All replicas, merged in replica-index order (deterministic given the
    config); each carries its final census, invariant checks and growth
    counters.  Each worker grows one contiguous block of replicas; a
    replica's stream is its own child seed, so the outcome does not depend
    on the number of workers."""
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.replicas)
    w = worker_count(cfg.replicas)
    cuts = [cfg.replicas * i // w for i in range(w + 1)]
    payloads = [(cfg.model, cfg.engine, cfg.t_final, cfg.thin, lo, children[lo:hi])
                for lo, hi in zip(cuts, cuts[1:])]
    if w <= 1:
        blocks = [_simulate_block(p) for p in payloads]
    else:
        # imported here: the module costs a noticeable share of import time
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=w) as pool:
            blocks = list(pool.map(_simulate_block, payloads))
    return [res for block in blocks for res in block]


def growth_counters(results: list[dict]) -> dict:
    """The growth counters of ``run_replicated`` results, for
    ``manifest.json``: per replica ``events`` kept, ``events_drawn`` and
    ``max_degree``; per batch its ``first`` replica, ``replicas``,
    ``rounds`` and ``growth_s``, for trees also the ``kernel``."""
    return {"replicas": [res["growth"] for res in results],
            "batches": [res["batch"] for res in results if "batch" in res]}


# -- analytic side -----------------------------------------------------------


def solve_model(model, cfg: ExperimentConfig):
    """The model's one solve, chosen from the model alone: the reduction for
    two-colour models, the normalised linear solve for bounded one-colour
    models, the fixed point for the others."""
    if isinstance(model, TwoColourModel):
        return solve_two_colour(model, K=cfg.K, force_unsupported=cfg.force_unsupported)
    if model.d_max is not None:
        return solve_finite(model)
    return fixed_point_densities(model, K=cfg.K, tol=cfg.tol,
                                 force_unsupported=cfg.force_unsupported)


def analytic_reference(model, cfg: ExperimentConfig, solution=None):
    """The report's analytic densities and their method label: the family's
    closed form (degrees 1..REPORT_DEGREES) when it has one, else
    ``solution``, the model's own solve (made here when not given).
    Two-colour models return the solution."""
    cf = None if isinstance(model, TwoColourModel) else closed_form_for(model)
    if cf is not None:
        return cf.densities(REPORT_DEGREES), "closed-form"
    sol = solution if solution is not None else solve_model(model, cfg)
    if isinstance(model, TwoColourModel):
        return sol, "reduction"
    return sol.densities, "linear" if model.d_max is not None else "fixed-point"


# -- report -------------------------------------------------------------------


@dataclass
class DegreeRow:
    colour: str           # "" for one-colour, else "white"/"black"
    k: int
    method: str
    analytic: float
    emp_mean: float
    stderr: float
    z: float


@dataclass
class ExperimentReport:
    rows: list[DegreeRow]
    checks: list[tuple[str, str]]
    config: ExperimentConfig
    # the one solve of the config's model (not of reference_model), which
    # the CLI writes to solution.json; never serialised here
    solution: Optional[object] = None
    growth: Optional[dict] = None     # growth_counters, for manifest.json only

    def violations(self) -> list[DegreeRow]:
        return [r for r in self.rows if r.k <= self.config.k_check
                and np.isfinite(r.z) and abs(r.z) > self.config.z_crit]

    def failed_checks(self) -> list[str]:
        """Invariant checks outside their tolerance: the census and colour
        identities are exact, weight drifts stay at rounding level."""
        return [name for name, val in self.checks
                if name != "forced_unsupported" and not _check_holds(name, float(val))]

    @property
    def ok(self) -> bool:
        return not self.violations() and not self.failed_checks()

    def write_csv(self, fh) -> None:
        cfg = self.config
        fh.write(f"# seed,{cfg.seed}\n")
        fh.write(f"# config_digest,{cfg.digest}\n")
        fh.write(f"# replicas,{cfg.replicas}\n")
        fh.write(f"# t_final,{cfg.t_final}\n")
        fh.write(f"# engine,{cfg.engine}\n")
        for name, val in self.checks:
            fh.write(f"# check_{name},{val}\n")
        fh.write("colour,k,method,analytic,emp_mean,stderr,z\n")
        for r in self.rows:
            fh.write(f"{r.colour},{r.k},{r.method},{r.analytic:.17g},"
                     f"{r.emp_mean:.17g},{r.stderr:.17g},{r.z:.17g}\n")


def _check_holds(name: str, value: float) -> bool:
    if name in ("census_sum_dev", "census_moment_dev", "colour_identity_dev"):
        return value == 0
    if name.startswith("weight_"):
        return value <= 1e-9
    if name == "colour_sum_vs_one_colour_max_dev":
        return value <= 1e-8
    return False                       # a check without a tolerance fails


def worst_checks(results: list[dict]) -> dict[str, float]:
    """Each invariant check's largest value over the ``run_replicated``
    results, in name order; NaN values (checks that do not apply to the
    model) are skipped."""
    worst: dict[str, float] = {}
    for res in results:
        for name, val in res["checks"].items():
            if not np.isnan(val):
                worst[name] = max(worst.get(name, 0.0), float(val))
    return dict(sorted(worst.items()))


def _z_scores(mean, se, analytic):
    """``(mean - analytic) / se``; a zero difference gives 0, and a nonzero
    one over a zero SE an infinity of the difference's sign."""
    diff = mean - analytic
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(diff == 0, 0.0, diff / se)


def _stack(columns: list[np.ndarray]) -> np.ndarray:
    """One row per column, cut or zero-padded to degrees 1..REPORT_DEGREES."""
    out = np.zeros((len(columns), REPORT_DEGREES))
    for r, c in enumerate(columns):
        n = min(len(c), REPORT_DEGREES)
        out[r, :n] = c[:n]
    return out


def compare(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the replicated experiment and join it against the analytic
    densities; the report's ``ok`` drives the CLI exit code.  Fewer than two
    replicas give zero standard errors and hence no test, so are refused."""
    if cfg.replicas < 2:
        raise InvalidParameterError(
            f"compare needs at least 2 replicas for standard errors, got {cfg.replicas}")
    model = build_model(cfg.model)
    solution = solve_model(model, cfg)
    ref_model, ref_solution = model, solution
    if cfg.reference_model:
        ref_model, ref_solution = build_model(cfg.reference_model), None
    results = run_replicated(cfg)
    checks = [(name, f"{val:.17g}") for name, val in worst_checks(results).items()]
    if cfg.force_unsupported:
        checks.append(("forced_unsupported", "true"))

    finals = [r["snapshots"][-1] for r in results]
    ref, method = analytic_reference(ref_model, cfg, ref_solution)
    two_colour = results[0]["kind"] == "two-colour"
    if two_colour:
        columns = [("white", [f.white for f in finals], ref.e_white),
                   ("black", [f.black for f in finals], ref.e_black)]
    else:
        columns = [("", [f.counts for f in finals], ref)]
    rows: list[DegreeRow] = []
    for colour, counts, analytic in columns:
        ana = _stack([analytic])[0]
        emp = _stack(counts) / cfg.t_final
        mean, se = emp.mean(axis=0), emp.std(axis=0, ddof=1) / np.sqrt(len(emp))
        z = _z_scores(mean, se, ana)
        rows.extend(DegreeRow(colour, k + 1, method, float(ana[k]),
                              float(mean[k]), float(se[k]), float(z[k]))
                    for k in range(REPORT_DEGREES))
    if two_colour:
        # vertex-normalised colour sum against the reduced one-colour model
        rho_w, rho_b = densities_from_e(ref)
        upto = min(cfg.k_check, len(rho_w))
        cross = np.max(np.abs((rho_w + rho_b)[:upto] - ref.one_colour.densities[:upto]))
        checks.append(("colour_sum_vs_one_colour_max_dev", f"{cross:.17g}"))

    return ExperimentReport(rows=rows, checks=checks, config=cfg, solution=solution,
                            growth=growth_counters(results))
