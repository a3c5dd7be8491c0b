"""Spans around the calls that splitgrow's front end makes into each layer.

The tracer rebinds the public names that ``splitgrow.cli`` and
``splitgrow.experiment`` call (``run``, ``run_replicated``, ``compare``,
``analytic_reference``, ``closed_form_for``, ``fixed_point_densities``,
``solve_two_colour``, ``build_model``, ``validate_model``) to wrappers that
record a span, and restores them afterwards.  Nothing inside the package
changes.  With one worker every replica runs in-process, so replica spans
nest under the command's span.

A span records its name, start, end, parent and operation index; spans stay
in memory until ``dump``.  A span's self time is its duration minus the
durations of its children (calls in one thread never overlap).
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path

import splitgrow.cli
import splitgrow.experiment
from splitgrow.solver import residuals

TRACED_NAMES = ("run", "run_replicated", "compare", "analytic_reference",
                "closed_form_for", "fixed_point_densities", "solve_two_colour",
                "build_model", "validate_model")
FAMILIES = ("preferential", "uniform", "grafting")

# per-layer metric -> (unit, better); each metric's expected effect on the
# end-to-end metrics is written down in perfbench/README.md
LAYER_METRICS = {
    "growth.run_s": ("s", "lower"),
    "growth.us_per_step": ("us", "lower"),
    "twocolour.us_per_event": ("us", "lower"),
    "twocolour.solve_s": ("s", "lower"),
    "twocolour.solve_calls": ("count", "lower"),
    "solver.fixed_point_s": ("s", "lower"),
    **{f"solver.fixed_point_s.{f}": ("s", "lower") for f in FAMILIES},
    "solver.calls": ("count", "lower"),
    "solver.iterations": ("count", "lower"),
    "solver.residuals_s": ("s", "lower"),
    "solver.flops_computed": ("flop", "lower"),
    "solver.bytes_computed": ("B", "lower"),
    "weights.build_model_s": ("s", "lower"),
    "weights.validate_s": ("s", "lower"),
    "weights.classify_regime_s": ("s", "lower"),
    "closed_forms.densities_s": ("s", "lower"),
    "experiment.run_replicated_s": ("s", "lower"),
    "experiment.analytic_reference_s": ("s", "lower"),
    "experiment.compare_self_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# counts fixed by the workload's inputs and seed: they describe the work
# done, so they are printed but have no better direction
DESCRIPTORS = ("growth.steps", "growth.max_degree", "growth.snapshots",
               "twocolour.events", "solver.K")

# counts that must repeat exactly between operations of one seed
EXACT_COUNTS = ("solver.calls", "solver.iterations", "twocolour.solve_calls",
                "growth.steps", "growth.max_degree", "growth.snapshots",
                "cli.bytes_written")


class _TracedClosedForm:
    """A ClosedForm whose ``densities`` evaluation is a span."""

    def __init__(self, cf, tracer: "Tracer"):
        self._cf = cf
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._cf, name)

    def __call__(self, k):
        return self._cf(k)

    def densities(self, k_max):
        with self._tracer.span("closed_forms.densities"):
            return self._cf.densities(k_max)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op = 0
        self._stack: list[int] = []
        self.solutions: list[tuple] = []    # (model, densities) of this op

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "op": self.op,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "info": {}}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn):
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = args[0].t if fn.__name__ == "run" else None
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            self._annotate(fn.__name__, rec["info"], args, out, before)
            if fn.__name__ == "closed_form_for" and out is not None:
                out = _TracedClosedForm(out, self)
            return out
        return traced

    def _annotate(self, fname, info, args, out, before):
        if fname == "run":
            final = out[-1]
            nonzero = [d for d, n in enumerate(final.counts, start=1) if n]
            info.update(steps=final.t - before, snapshots=len(out),
                        max_degree=max(nonzero, default=0))
        elif fname == "run_replicated" and out and out[0]["kind"] == "two-colour":
            # replicas start from one edge at t = 2; each event adds one to t
            info["events"] = sum(r["t"] - 2 for r in out)
        elif fname == "fixed_point_densities":
            info.update(family=args[0].family, K=out.K, iterations=out.iterations)
            self.solutions.append((args[0], out.densities))

    @contextmanager
    def installed(self):
        """Rebind the traced names in the cli and experiment modules."""
        saved = []
        try:
            for mod in (splitgrow.cli, splitgrow.experiment):
                for name in TRACED_NAMES:
                    if hasattr(mod, name):
                        fn = getattr(mod, name)
                        saved.append((mod, name, fn))
                        setattr(mod, name, self._wrap(fn))
            yield self
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)

    def time_residuals(self) -> float:
        """Seconds spent in the public ``residuals()`` on this op's
        fixed-point solutions; it rebuilds the band matrix each call."""
        t0 = time.perf_counter()
        for model, dens in self.solutions:
            residuals(model, dens)
        self.solutions.clear()
        return time.perf_counter() - t0

    def op_metrics(self, op: int) -> dict[str, float]:
        """Per-layer figures of one operation's spans."""
        indexed = [(i, s) for i, s in enumerate(self.spans) if s["op"] == op]
        spans = [s for _, s in indexed]
        child_time: dict[int, float] = {}
        for _, s in indexed:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end"] - s["start"])

        def total(name, self_only=False):
            acc = 0.0
            for i, s in indexed:
                if s["name"] == name:
                    acc += s["end"] - s["start"]
                    if self_only:
                        acc -= child_time.get(i, 0.0)
            return acc

        def info(name, key):
            return [s["info"][key] for s in spans
                    if s["name"] == name and key in s["info"]]

        m = {name: 0.0 for name in LAYER_METRICS}
        m["growth.run_s"] = total("growth.run")
        m["growth.steps"] = sum(info("growth.run", "steps"))
        m["growth.max_degree"] = max(info("growth.run", "max_degree"), default=0)
        m["growth.snapshots"] = sum(info("growth.run", "snapshots"))
        if m["growth.steps"]:
            m["growth.us_per_step"] = 1e6 * m["growth.run_s"] / m["growth.steps"]
        events = sum(info("experiment.run_replicated", "events"))
        m["twocolour.events"] = events
        if events:
            m["twocolour.us_per_event"] = 1e6 * total(
                "experiment.run_replicated", self_only=True) / events
        m["twocolour.solve_s"] = total("twocolour.solve_two_colour")
        m["twocolour.solve_calls"] = sum(
            s["name"] == "twocolour.solve_two_colour" for s in spans)
        fp = [s for s in spans if s["name"] == "solver.fixed_point_densities"]
        m["solver.fixed_point_s"] = total("solver.fixed_point_densities")
        for s in fp:
            key = f"solver.fixed_point_s.{s['info']['family']}"
            if key in m:
                m[key] += s["end"] - s["start"]
        m["solver.calls"] = len(fp)
        m["solver.iterations"] = sum(s["info"]["iterations"] for s in fp)
        m["solver.K"] = max((s["info"]["K"] for s in fp), default=0)
        m["solver.flops_computed"] = sum(
            2 * s["info"]["K"] ** 2 * s["info"]["iterations"] for s in fp)
        m["solver.bytes_computed"] = sum(
            8 * s["info"]["K"] ** 2 * s["info"]["iterations"] for s in fp)
        m["closed_forms.densities_s"] = total("closed_forms.densities")
        m["experiment.run_replicated_s"] = total("experiment.run_replicated")
        m["experiment.analytic_reference_s"] = total("experiment.analytic_reference")
        m["experiment.compare_self_s"] = total("experiment.compare", self_only=True)
        m["cli.main_s"] = total("cli.main")
        m["cli.self_s"] = total("cli.main", self_only=True)
        return m

    def dump(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"meta": meta, "spans": self.spans}) + "\n")
