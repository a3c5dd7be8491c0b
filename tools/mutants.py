"""Mutation controls: each mutant breaks one spot of the source, and the
tests it names must catch it.

    python3 tools/mutants.py            # the control, then every mutant
    python3 tools/mutants.py NAME ...   # the control, then the named ones

The runner copies ``src/``, ``tests/``, ``perfbench/`` (a test imports its
tracer) and ``pyproject.toml`` into a temporary directory.  It first runs every selection on the unmutated copy,
which must pass.  It then applies one mutant at a time (a snippet that must
occur exactly once in its file, replaced) and runs the mutant's selection
with ``-x -q -p no:cacheprovider``, which must fail.

Exit code 0 when the control passes and every mutant is killed, 1 when not,
2 when a snippet does not occur exactly once or a selection errs.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str                  # relative to the repository root
    snippet: str               # occurs exactly once in the file
    replacement: str
    selection: tuple[str, ...]  # pytest arguments that must fail


MUTANTS = [
    Mutant("chain-rates-one-class-high", "src/splitgrow/growth.py",
           "t *= laws.inv_w[cls]", "t *= laws.inv_w[cls + 1]",
           ("tests/test_growth.py", "-k", "TestCensusKernel or batch_independence")),
    Mutant("radix-rank-low-half-only", "src/splitgrow/growth.py",
           'return order[np.argsort((ids[order] >> 16).astype(np.uint16), kind="stable")]',
           "return order",
           ("tests/test_growth.py", "-k", "radix_ranking_matches_stable_argsort")),
    Mutant("csv-leading-zeros-kept", "src/splitgrow/growth.py",
           "(digit + 48) * (values >= (10 ** e if e else 0))", "(digit + 48)",
           ("tests/test_growth.py", "-k", "TestSerialisation")),
    Mutant("unsupported-model-not-refused", "src/splitgrow/experiment.py",
           "check_support(judged_model(build_model(cfg.model)))",
           "judged_model(build_model(cfg.model))",
           ("tests/test_refusals.py", "-k", "library_callers or forced_model_runs")),
    Mutant("regime-condition-dropped", "src/splitgrow/solver.py",
           "regime = ConditionReport(s > 0.0, where)", "regime = ConditionReport(True, where)",
           ("tests/test_refusals.py", "-k", "agree")),
    Mutant("column-sums-drop-g", "src/splitgrow/solver.py",
           "tail = 2.0 * (self.g + self.h)", "tail = 2.0 * self.h",
           ("tests/test_solver.py", "tests/test_refusals.py", "-k", "column_sums or agree")),
    Mutant("linearity-span-cut-to-16", "src/splitgrow/solver.py",
           "span = 200", "span = 16",
           ("tests/test_refusals.py", "-k", "agree")),
    Mutant("iteration-drops-row2-closure", "src/splitgrow/solver.py",
           "            y[1] += clo.Qh * a[-1] / denom[1]\n", "",
           # grafting (0.5, 0.5) at K = 64: the oracle's fixed point moves
           # far beyond the 1e-12 it must agree with the direct solve to
           ("tests/test_solver.py", "-k", "matches_iteration")),
    Mutant("normalisation-drops-tail-mass", "src/splitgrow/solver.py",
           "A[0, m - 1] += P.sum() + B.closure.Q0 * last", "A[0, m - 1] += P.sum()",
           # the densities alone then sum to 1, missing the closed tail
           # mass (6.5e-3 of it for preferential w = i at K = 16)
           ("tests/test_solver.py", "-k", "dense_solve or closed_form")),
    Mutant("split-draw-only-past-three-entries", "src/splitgrow/growth.py",
           "pick = np.flatnonzero(b - a > 1)", "pick = np.flatnonzero(b - a > 3)",
           # a class of two or three entries then always takes its first:
           # a degree-2 white split is always (1, 3)
           ("tests/test_growth.py", "-k", "matches_step_reference")),
    Mutant("release-rings-uniform-in-move", "src/splitgrow/growth.py",
           "t = lo - np.log1p(-rng.random(len(c)) * q) * laws.inv_w[c]",
           "t = hi - rng.random(len(c)) * (hi - lo)",
           # a released member rings uniformly on (lo, hi], not as its clock:
           # w = i - 0.9's leaves ring too late in long moves
           ("tests/test_growth.py", "-k", "matches_step_reference and budget64")),
    Mutant("release-ignores-move-length", "src/splitgrow/growth.py",
           "q = -np.expm1(-laws.w[occupied] * (hi - lo))", "q = -np.expm1(-laws.w[occupied])",
           # a move rings members as if it lasted one time unit: on w = i's
           # clock slowed 64 times too few old members ring
           ("tests/test_growth.py", "-k", "matches_step_reference and budget64")),
    Mutant("batch-group-drops-a-replica", "src/splitgrow/growth.py",
           "del todo[:len(group)]", "del todo[:len(group) + 1]",
           ("tests/test_growth.py", "-k", "batch_independence")),
    Mutant("uniforms-from-the-next-replica", "src/splitgrow/growth.py",
           "self.rngs[r].random((*shape, b - a))",
           "self.rngs[(r + 1) % len(self.rngs)].random((*shape, b - a))",
           ("tests/test_growth.py", "-k", "batch_independence")),
    Mutant("run-batch-grows-a-tree", "src/splitgrow/growth.py",
           "        if isinstance(s, OrderedTree):\n"
           '            raise InvalidParameterError("run_batch grows census engines; '
           'grow a tree with run")\n', "",
           ("tests/test_refusals.py", "-k", "run_batch_refuses_a_tree")),
    Mutant("csv-writer-unchunked", "src/splitgrow/growth.py",
           "_CSV_CELLS = 32768", "_CSV_CELLS = 10**12",
           ("tests/test_growth.py", "-k", "test_write_memory_bounded")),
    Mutant("twocolour-imports-growth", "src/splitgrow/twocolour.py",
           "from .errors import InvalidParameterError\n",
           "from .errors import InvalidParameterError\n"
           "from .growth import _CensusUrn  # noqa: F401\n",
           ("tests/test_imports.py", "-k", "load_no_engine")),
    Mutant("deferred-import-drops-a-rebinding", "src/splitgrow/experiment.py",
           "globals().setdefault(other, getattr(home, other))",
           "globals()[other] = getattr(home, other)",
           ("tests/test_cli.py", "-k", "spans_recorded")),
    Mutant("json-number-list-indent-one-short", "src/splitgrow/cli.py",
           "replace(', ', ',' + inner)", "replace(', ', ',' + pad)",
           ("tests/test_cli.py", "-k", "json_text_is_json_dumps")),
    Mutant("replicas-share-one-seed", "src/splitgrow/experiment.py",
           "np.random.SeedSequence(cfg.seed).spawn(cfg.replicas)",
           "np.random.SeedSequence(cfg.seed).spawn(1) * cfg.replicas",
           # two-replica compares: equal replicas give SE 0 at every degree,
           # which compare refuses as a run with nothing to test
           ("tests/test_cli.py", "-k", "TestCompare and (reproducible or solves_once)")),
    Mutant("bessel-domain-from-zero", "src/splitgrow/closed_forms.py",
           "if nu <= -1 or z <= 0:", "if nu < 0 or z <= 0:",
           # uniform x < -0.5 takes the Bessel order 1/2 + x below 0
           ("tests/test_closed_forms.py", "-k", "negative_order or against_scipy")),
    Mutant("by-split-degree-limit-halved", "src/splitgrow/weights.py",
           "return 2.0 * self.splitting.a", "return self.splitting.a",
           # uniform x = 3 then classifies with s = 1, not 2
           ("tests/test_weights.py", "-k", "TestLeafMassLimit")),
    Mutant("se-keeps-rounding-residue", "src/splitgrow/experiment.py",
           "        se[emp.max(axis=0) == emp.min(axis=0)] = 0.0", "        pass",
           # 16 equal replicas at t = 3: std leaves ~1e-17, which FAILs the
           # run with |z| ~ 1e16 instead of refusing it
           ("tests/test_cli.py", "-k", "without_variation")),
]


def snippet_problems(root: Path = ROOT, mutants=MUTANTS) -> list[str]:
    """Each mutant whose snippet does not occur exactly once in its file,
    or whose selection names a test file that does not exist."""
    bad = []
    for m in mutants:
        count = (root / m.file).read_text().count(m.snippet)
        if count != 1:
            bad.append(f"{m.name}: snippet occurs {count} times in {m.file}")
        bad += [f"{m.name}: no test file {arg}" for arg in m.selection
                if arg.endswith(".py") and not (root / arg).is_file()]
    return bad


def _pytest(copy: Path, selection: tuple[str, ...]) -> int:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "SPLITGROW_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *selection], cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main(argv: list[str]) -> int:
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    mutants = [m for m in MUTANTS if not argv or m.name in argv]
    problems = snippet_problems(ROOT, mutants)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    start, failed = time.monotonic(), False
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(src, copy / name)
        for selection in dict.fromkeys(m.selection for m in mutants):
            rc = _pytest(copy, selection)
            print(f"control  {'pass' if rc == 0 else f'FAIL (exit {rc})'}  {' '.join(selection)}")
            failed |= rc != 0
        if failed:
            print("the unmutated copy fails a selection; no mutant was run", file=sys.stderr)
            return 1
        for m in mutants:
            path = copy / m.file
            text = path.read_text()
            path.write_text(text.replace(m.snippet, m.replacement))
            try:
                rc = _pytest(copy, m.selection)
            finally:
                path.write_text(text)
            if rc not in (0, 1):
                print(f"{m.name}: pytest exit {rc}, not a test failure", file=sys.stderr)
                return 2
            verdict = "killed" if rc == 1 else "SURVIVES"
            failed |= rc == 0
            print(f"mutant   {verdict:<9}  {m.name}")
    print(f"{len(mutants)} mutants in {time.monotonic() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
