"""Replicated simulation experiments with analytic cross-checks.

A config describes one model (one- or two-colour), the horizon, the replica
count and solver parameters.  Replicas run on independent, reproducibly
derived random streams (children of one master seed); empirical per-degree
means and standard errors are joined against the analytic densities and
turned into z-scores, giving a CI-friendly pass/fail summary.

``FAMILIES`` and ``ExperimentConfig`` are the input schema the CLI's flags
come from; ``solver.check_support`` refuses an unsupported model.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import InvalidParameterError
from .solver import check_support, fixed_point_densities
from .twocolour import (TwoColourModel, densities_from_e, make_rna, make_two_colour_grafting,
                        make_two_colour_uniform, reduce_to_one_colour, solve_two_colour)
from .weights import MAX_DEGREE, SplittingWeights, make_grafting, \
    make_preferential, make_table, make_uniform

__all__ = [
    "ExperimentConfig",
    "DegreeRow",
    "ExperimentReport",
    "build_model",
    "is_two_colour_spec",
    "judged_model",
    "worker_count",
    "run_replicated",
    "growth_counters",
    "worst_checks",
    "solve_model",
    "analytic_reference",
    "compare",
]

# growth and closed_forms, which solve and validate never reach, are imported
# on the first read of one of their names below (PEP 562); the names then
# become globals, apart from one rebound before, which is kept (perfbench's
# tracer wraps run and closed_form_for)
_DEFERRED = {"OrderedTree": "growth", "TwoColourState": "growth", "UrnState": "growth",
             "run": "growth", "run_batch": "growth", "closed_form_for": "closed_forms"}


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = __import__(f"{__package__}.{_DEFERRED[name]}", fromlist=[name])  # as in __init__
    for other, module in _DEFERRED.items():
        if module == _DEFERRED[name]:
            globals().setdefault(other, getattr(home, other))
    return globals()[name]


# a tuple, not a set: membership of an unhashable family value is False
TWO_COLOUR_FAMILIES = ("rna", "two-colour-uniform", "two-colour-grafting")

# degrees 1..REPORT_DEGREES make the rows of compare's report, so k_check
# gates at most that many
REPORT_DEGREES = 16


# each family's parameters besides "family", in its constructor's order, with
# their defaults (None where one is required), and the constructor; any other
# key is refused
FAMILIES = {
    "preferential": ({"a": 1.0, "b": 0.0},
                     lambda a, b: make_preferential(SplittingWeights(a, b))),
    "uniform": ({"x": 0.0}, make_uniform),
    "grafting": ({"alpha": None, "gamma": None}, make_grafting),
    "table": ({"d_max": None, "entries": None}, make_table),
    "rna": ({}, make_rna),
    "two-colour-uniform": ({"a": None, "b": None}, make_two_colour_uniform),
    "two-colour-grafting": ({"a": None, "b": None, "alpha0": 0.5}, make_two_colour_grafting),
}


def _family(spec: dict) -> str:
    """The family a config mapping names; an unknown family or a key the
    family does not take raises InvalidParameterError."""
    fam = spec.get("family")
    if not isinstance(fam, str) or fam not in FAMILIES:
        raise InvalidParameterError(f"unknown family {fam!r}")
    params = FAMILIES[fam][0]
    unknown = sorted(map(str, set(spec) - {"family", *params}))
    if unknown:
        raise InvalidParameterError(
            f"family {fam!r} takes no parameter {', '.join(map(repr, unknown))}; "
            f"its parameters are {', '.join(map(repr, params)) or 'none'}")
    return fam


def build_model(spec: dict):
    """Model from a config mapping: ``{"family": ..., <parameters>}``.

    An unknown family, a key the family does not take, a missing or
    malformed parameter (a value that is not a JSON number, or a table
    ``d_max`` or index that is not an integer), or weights that overflow a
    float raise InvalidParameterError."""
    fam = _family(spec)
    defaults, make = FAMILIES[fam]

    def value(key: str, default):
        val = spec[key] if default is None else spec.get(key, default)
        if fam == "table":              # make_table checks d_max and the entries
            return val
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise InvalidParameterError(
                f"parameter {key!r} of family {fam!r} must be a number, got {val!r}")
        return float(val)

    try:
        with np.errstate(over="raise"):
            return make(*[value(key, default) for key, default in defaults.items()])
    except InvalidParameterError:
        raise
    except KeyError as exc:
        raise InvalidParameterError(
            f"family {fam!r} needs parameter {exc.args[0]!r}") from None
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise InvalidParameterError(f"bad parameters for family {fam!r}: {exc}") from None


def is_two_colour_spec(spec: dict) -> bool:
    return spec.get("family") in TWO_COLOUR_FAMILIES


def judged_model(model):
    """The model's judged one-colour model: a two-colour model's reduction."""
    return reduce_to_one_colour(model) if isinstance(model, TwoColourModel) else model


@dataclass
class ExperimentConfig:
    model: dict
    t_final: int = 100_000
    replicas: int = 32
    thin: int = 0                      # 0: final census only
    K: int = 512
    tol: float = 1e-13                 # read by no solve; in the digest only
    seed: int = 20240901
    engine: str = "urn"                # "urn" | "tree"
    k_check: int = 8
    z_crit: float = 5.0
    force_unsupported: bool = False
    reference_model: Optional[dict] = None   # analytic override (negative controls)

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}

    @property
    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()).hexdigest()

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Config from a mapping; also checks ``SPLITGROW_THREADS`` so a bad
        value is refused at load rather than when the replicas start."""
        unknown = set(d) - set(cls.__dataclass_fields__)
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
        if cfg.reference_model is not None:
            fam, ref = _family(cfg.model), _family(cfg.reference_model)
            if (fam in TWO_COLOUR_FAMILIES) != (ref in TWO_COLOUR_FAMILIES):
                raise InvalidParameterError(
                    f"reference_model family {ref!r} and model family {fam!r} must "
                    "both be one-colour or both two-colour")
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


def _simulate_replica(state, snaps, events_drawn):
    """One grown replica's record: its snapshots, its invariant checks and
    its growth counters, ``events`` kept (every replica starts from one
    edge, at clock 2), ``events_drawn`` and ``max_degree``."""
    final = snaps[-1]
    occupied = np.flatnonzero(final.counts)
    return {"kind": final.KIND, "t": final.t, "snapshots": snaps, "checks": state.checks(),
            "growth": {"events": final.t - 2, "events_drawn": events_drawn,
                       "max_degree": int(occupied[-1]) + 1 if len(occupied) else 0}}


def _simulate_block(payload):
    """Replicas ``first ..`` of one worker, grown from their child seeds:
    census engines in one ``run_batch`` call, trees one ``run`` each (one
    tree alive at a time, which draws just the events it keeps).  The
    block's first result also carries the batch's ``rounds`` (None for
    trees), ``growth_s`` and the ``kernel`` that grew it."""
    spec, engine, t_final, thin, first, seeds = payload
    __getattr__("run")              # growth's names become globals, a spawned worker's too
    model = build_model(spec)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    start = time.perf_counter()
    if engine == "tree" and not isinstance(model, TwoColourModel):
        results, rounds = [], None
        for rng in rngs:
            tree = OrderedTree.single_edge(model)
            kernel = tree.kernel
            results.append(_simulate_replica(tree, run(tree, t_final, rng, thin), t_final - 2))
    else:
        make = (TwoColourState if isinstance(model, TwoColourModel) else UrnState).single_edge
        states = [make(model) for _ in seeds]
        kernel = states[0].kernel
        trajectories, stats = run_batch(states, t_final, rngs, thin)
        rounds = stats["rounds"]
        results = [_simulate_replica(*replica)
                   for replica in zip(states, trajectories, stats["events_drawn"])]
    results[0]["batch"] = {"first": first, "replicas": len(seeds), "rounds": rounds,
                           "kernel": kernel, "growth_s": time.perf_counter() - start}
    return results


def run_replicated(cfg: ExperimentConfig) -> list[dict]:
    """All replicas, merged in replica-index order (deterministic given the
    config); each carries its final census, invariant checks and growth
    counters.  Each worker grows one contiguous block of replicas; a
    replica's stream is its own child seed, so the outcome does not depend
    on the number of workers.  Unless ``force_unsupported``, an unsupported
    model is refused before any replica grows."""
    if not cfg.force_unsupported:
        check_support(judged_model(build_model(cfg.model)))
    __getattr__("run")              # before the workers fork, which then inherit growth
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
    ``rounds``, ``growth_s`` and ``kernel``."""
    return {"replicas": [res["growth"] for res in results],
            "batches": [res["batch"] for res in results if "batch" in res]}


# -- analytic side -----------------------------------------------------------


def solve_model(model, cfg: ExperimentConfig):
    """The model's one solve: the reduction for two-colour models,
    ``fixed_point_densities`` for one-colour ones."""
    if isinstance(model, TwoColourModel):
        return solve_two_colour(model, K=cfg.K, force_unsupported=cfg.force_unsupported)
    return fixed_point_densities(model, K=cfg.K, force_unsupported=cfg.force_unsupported)


def analytic_reference(model, cfg: ExperimentConfig, solution=None):
    """The report's analytic densities and their method label: the family's
    closed form (degrees 1..REPORT_DEGREES) when it has one, else
    ``solution``, the model's own solve (made here when not given), with
    the solve's own method.  Two-colour models return the solution."""
    __getattr__("closed_form_for")  # closed_forms's names become globals
    cf = None if isinstance(model, TwoColourModel) else closed_form_for(model)
    if cf is not None:
        return cf.densities(REPORT_DEGREES), "closed-form"
    sol = solution if solution is not None else solve_model(model, cfg)
    return (sol if isinstance(model, TwoColourModel) else sol.densities), sol.method


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
    densities; the report's ``ok`` drives the CLI exit code.  A degree on
    which every replica has the same count has SE 0 and tests nothing, so
    fewer than two replicas are refused, and so is a run with no checked
    degree of SE > 0 (as up to t = 3) unless the solve was forced outside
    the regime, which claims nothing.  The solve refuses an unsupported
    model before any replica grows."""
    if cfg.replicas < 2:
        raise InvalidParameterError(
            f"compare needs at least 2 replicas for standard errors, got {cfg.replicas}")
    model = build_model(cfg.model)
    solution = solve_model(model, cfg)
    ref_model, ref_solution = model, solution
    if cfg.reference_model:
        ref_model, ref_solution = build_model(cfg.reference_model), None
    # the solve judged the model: the replicas do not judge it again
    results = run_replicated(replace(cfg, force_unsupported=True))
    checks = [(name, f"{val:.17g}") for name, val in worst_checks(results).items()]
    if solution.unsupported:
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
        se[emp.max(axis=0) == emp.min(axis=0)] = 0.0    # not std's rounding residue
        z = _z_scores(mean, se, ana)
        rows.extend(DegreeRow(colour, k + 1, method, float(ana[k]),
                              float(mean[k]), float(se[k]), float(z[k]))
                    for k in range(REPORT_DEGREES))
    if not solution.unsupported and not any(r.stderr > 0 for r in rows
                                            if r.k <= cfg.k_check):
        raise InvalidParameterError(
            f"compare has nothing to test: all {cfg.replicas} replicas grow the same "
            f"census at degrees 1..{cfg.k_check} by t_final {cfg.t_final}")
    if two_colour:
        # vertex-normalised colour sum against the reduced one-colour model
        rho_w, rho_b = densities_from_e(ref)
        upto = min(cfg.k_check, len(rho_w))
        cross = np.max(np.abs((rho_w + rho_b)[:upto] - ref.one_colour.densities[:upto]))
        checks.append(("colour_sum_vs_one_colour_max_dev", f"{cross:.17g}"))

    return ExperimentReport(rows=rows, checks=checks, config=cfg, solution=solution,
                            growth=growth_counters(results))
