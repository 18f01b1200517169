"""Every exported name has a caller: code with none outside its own test is deleted.

A name in ``corrpeaks.__all__`` counts as called when some module of the
package other than ``__init__.py``, the acceptance tests or the benchmark
refers to it outside its own top-level definition.  Unit tests do not
count: a function that only its own test calls has no caller.
"""

import ast
from pathlib import Path

import corrpeaks

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "corrpeaks"


def _exported():
    """``corrpeaks.__all__``, which the package builds from its modules' own."""
    return list(corrpeaks.__all__)


def _referenced(paths):
    """Names and attributes read anywhere in ``paths``, outside the top-level
    definition of the same name."""
    seen = set()
    for path in paths:
        for top in ast.parse(path.read_text()).body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    seen.add(name)
    return seen


def test_every_exported_name_has_a_caller():
    callers = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    callers += [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    referenced = _referenced(callers)
    uncalled = [name for name in _exported() if name not in referenced]
    assert not uncalled, f"exported with no caller outside its own tests: {uncalled}"


def test_no_name_is_exported_twice():
    # A second star import of the same name would silently shadow the first.
    exported = _exported()
    twice = sorted({name for name in exported if exported.count(name) > 1})
    assert not twice, f"exported by more than one module: {twice}"
