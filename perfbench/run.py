"""splitgrow benchmark: end-to-end figures, or per-layer figures from a traced run.

    python3 perfbench/run.py --workload compare-pref-urn --seed 1 --seconds 36 --trace 0

Runs from a source checkout (``src/splitgrow``); nothing is installed.  One
operation runs the workload's ``splitgrow`` command lines in-process through
``splitgrow.cli.main``, the way a user runs them, and checks every output
(see ``workloads.py``).  Operations repeat until ``--seconds`` would be
exceeded, at least twice so that byte stability is always checked (three
times when traced, so that the exact counts are compared too).

The thread environment is pinned (``THREAD_ENV``) because the machine is
shared: unpinned BLAS threads measure the neighbours, not the program.

The machine's speed also swings by itself, so the gated times, ``wall_s``
and ``setup_s``, are given at a reference speed sampled while they run
(``speed.py``); the raw times are printed above the result.  Set-up time is
measured in fresh interpreters (``setup_probe.py``), ``SETUP_REPEATS`` times,
and reported as the median.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced operation in three and reports the per-layer metrics
(``tracing.py``), including the tracing overhead.  The last line of standard
output is the JSON result; the lines before it describe the environment and
every metric with its unit, including figures that apply to some workloads
only (``steps_per_s``, ``max_abs_err``, ``max_residual``, ``failed_frac``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"          # per-run scratch, removed at exit
TRACE_OUT = ROOT / ".perfbench_out"      # span dumps of traced runs
THREAD_ENV = {"SPLITGROW_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1"}
SETUP_REPEATS = 11
MIN_OPS = 2
MIN_OPS_TRACED = 3      # one untraced and two traced, to compare exact counts

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "splitgrow").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(args) -> dict:
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "threads": {k: os.environ.get(k) for k in THREAD_ENV},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": git_commit(),
            "source_digest": source_digest(), "machine": platform.machine()}


def measure_setup(wl) -> list[dict]:
    specs = json.dumps([c.model for c in wl.calls])
    runs = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), specs],
            capture_output=True, text=True, timeout=120, check=True,
            env={**os.environ, **THREAD_ENV})
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return runs


def run_call(cli, call, out: Path, tracer=None, probe=None) -> tuple[int, str, float]:
    """Run one command line; returns (exit code, captured text, seconds).
    With a ``speed.SpeedProbe``, the host's speed is sampled during the call."""
    argv = [*call.argv, "--out", str(out)]
    if call.config is not None:
        cfg = out.with_suffix(".config.json")
        cfg.write_text(json.dumps(call.config))
        argv += ["--config", str(cfg)]
    buf = io.StringIO()
    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    sampling = probe.sampling() if probe else contextlib.nullcontext()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf), sampling:
        t0 = time.perf_counter()
        try:
            with span:
                rc = cli.main(argv)
        except Exception:
            rc = -1
            buf.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
    return rc, buf.getvalue(), seconds


def run_op(cli, wl, op_dir: Path, reference, tracer=None, probe=None) -> dict:
    """One operation: every call of the workload, then the checks.  With a
    ``speed.SpeedProbe``, ``ref_wall_s`` is the wall time at reference speed."""
    from workloads import check_call, output_bytes
    shutil.rmtree(op_dir, ignore_errors=True)
    op_dir.mkdir(parents=True)
    gc.collect()
    op = {"wall_s": 0.0, "errors": [], "steps": 0, "bytes": 0, "digests": []}
    results = []
    for i, call in enumerate(wl.calls):
        out = op_dir / f"call{i}"
        rc, text, seconds = run_call(cli, call, out, tracer, probe)
        op["wall_s"] += seconds
        res = check_call(call, out, rc, text)
        results.append(res)
        op["errors"] += [f"{' '.join(call.argv[:3])}: {e}" for e in res.errors]
        op["steps"] += res.steps
        op["bytes"] += output_bytes(out) if out.is_dir() else 0
        op["digests"].append(res.digests)
    op["ref_wall_s"] = probe.rescale(op["wall_s"]) if probe else math.nan
    for key in ("max_abs_err", "max_residual"):
        op[key] = max((getattr(r, key) for r in results
                       if not math.isnan(getattr(r, key))), default=math.nan)
    if reference is not None:
        for i, (got, want) in enumerate(zip(op["digests"], reference)):
            for name in sorted(set(got) | set(want)):
                if got.get(name) != want.get(name):
                    op["errors"].append(f"call {i}: {name} differs from the "
                                        "first repetition")
    shutil.rmtree(op_dir, ignore_errors=True)
    return op


def median(xs):
    return statistics.median(xs) if xs else math.nan


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(THREAD_ENV)            # before numpy is imported
    if not (SRC / "splitgrow" / "__init__.py").is_file():
        print(f"error: no splitgrow source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import splitgrow.cli as cli
    import speed
    import tracing
    import workloads
    try:
        wl = workloads.make_workload(args.workload, args.seed)
    except workloads.WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = environment(args)
    print("# env " + json.dumps(env, sort_keys=True))
    setup = measure_setup(wl)

    tracer = tracing.Tracer() if args.trace else None
    work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    ops, layer, durations = [], [], []
    reference = None
    min_ops = MIN_OPS_TRACED if tracer else MIN_OPS
    deadline = time.perf_counter() + args.seconds
    try:
        while len(ops) < min_ops or time.perf_counter() + median(durations) <= deadline:
            started = time.perf_counter()
            traced = bool(tracer) and len(ops) % 3 != 0
            if traced:
                tracer.op = len(ops)
                with tracer.installed():
                    op = run_op(cli, wl, work / "op", reference, tracer)
                m = tracer.op_metrics(tracer.op)
                m["solver.residuals_s"] = tracer.time_residuals()
                m["cli.bytes_written"] = op["bytes"]
                if layer:
                    for key in tracing.EXACT_COUNTS:
                        if m[key] != layer[0][key]:
                            op["errors"].append(f"count {key} = {m[key]}, first "
                                                f"traced repetition {layer[0][key]}")
                layer.append(m)
            else:
                op = run_op(cli, wl, work / "op", reference,
                            probe=None if tracer else speed.SpeedProbe())
            op["traced"] = traced
            if reference is None:
                reference = op["digests"]
            ops.append(op)
            durations.append(time.perf_counter() - started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    failed = sum(bool(op["errors"]) for op in ops)
    for i, op in enumerate(ops):
        for err in op["errors"][:5]:
            print(f"# FAIL op {i}: {err}")
    walls = [op["wall_s"] for op in ops]
    print(f"# operations {len(ops)} ({len(layer)} traced), failed {failed}, "
          f"failed_frac {failed / len(ops):.6g}; op wall_s "
          + " ".join(f"{w:.4g}" for w in walls))

    if args.trace:
        metrics = {name: median([m[name] for m in layer])
                   for name in tracing.LAYER_METRICS}
        for key in tracing.DESCRIPTORS:
            print(f"# {key} {median([m[key] for m in layer]):.6g} count")
        for key in ("build_model_s", "validate_s", "classify_regime_s"):
            metrics[f"weights.{key}"] = median([s[key] for s in setup])
        metrics["trace.overhead_s"] = (
            median([op["wall_s"] for op in ops if op["traced"]])
            - median([op["wall_s"] for op in ops if not op["traced"]]))
        units = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
        tracer.dump(TRACE_OUT / f"spans-{args.workload}-seed{args.seed}.json", env)
    else:
        steps_per_s = median([op["steps"] / op["wall_s"] for op in ops])
        errs = [op["max_abs_err"] for op in ops if not math.isnan(op["max_abs_err"])]
        resid = [op["max_residual"] for op in ops if not math.isnan(op["max_residual"])]
        refs = [op["ref_wall_s"] for op in ops]
        print(f"# raw wall_s median {median(walls):.6g} s, max {max(walls):.6g} s "
              f"over {len(walls)} operations")
        print(f"# raw setup_s median {median([s['raw_setup_s'] for s in setup]):.6g} s")
        print("# reference-speed op wall_s " + " ".join(f"{w:.4g}" for w in refs))
        print(f"# steps_per_s {steps_per_s:.6g} 1/s" if steps_per_s else
              "# steps_per_s n/a (no growth in this workload)")
        print(f"# max_abs_err {max(errs):.6g}" if errs else "# max_abs_err n/a")
        print(f"# max_residual {max(resid):.6g}" if resid else "# max_residual n/a")
        metrics = {
            "wall_s": median(refs),
            "setup_s": median([s["setup_s"] for s in setup]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"# {name} {value:.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
