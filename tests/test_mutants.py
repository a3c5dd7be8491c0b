"""The mutation-control list of ``tools/mutants.py`` parses, and each
mutant's snippet still occurs exactly once, so the list cannot rot when the
code it mutates moves.  Running the mutants is the tool's job, not tier-1's."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_mutant_snippet_occurs_once():
    mutants = load_mutants()
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names)) >= 5
    assert all(m.snippet != m.replacement and m.selection for m in mutants.MUTANTS)
    assert mutants.snippet_problems(ROOT) == []


def test_a_moved_snippet_is_reported():
    # negative control: a snippet that no longer occurs is named
    mutants = load_mutants()
    moved = mutants.Mutant("moved", "src/splitgrow/growth.py", "no such line", "",
                           ("tests/test_growth.py",))
    assert mutants.snippet_problems(ROOT, [moved]) == [
        "moved: snippet occurs 0 times in src/splitgrow/growth.py"]
