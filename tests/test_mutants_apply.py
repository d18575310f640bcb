"""``tools/mutants.py`` finds each mutant's node by its source text, so a
change that removes or rewrites one of those nodes fails here, in the fast
tests, and not only in the minutes-long mutation run."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_mutants(monkeypatch):
    """The mutation tool as it is, loaded from its file; nothing runs.  It is
    registered while it loads, as ``dataclass`` looks its module up."""
    spec = importlib.util.spec_from_file_location("isurf_mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_applies_to_the_current_sources(monkeypatch):
    tool = _load_mutants(monkeypatch)
    names = [m.name for m in tool.MUTANTS]
    assert len(set(names)) == len(names)
    for mutant in tool.MUTANTS:
        source = (ROOT / mutant.path).read_text()
        text, line = tool.mutated(source, mutant)
        assert text != source and text.count("\n") == source.count("\n")
        assert mutant.replacement in text.splitlines()[line - 1], mutant.name
