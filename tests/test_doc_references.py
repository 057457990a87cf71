"""Every `module.name` that the README or a module docstring names exists.

A reference is a backticked ``module.name`` (single or double backticks,
optionally followed by a call's parenthesis) whose module is one of the
package's; it resolves when the module has the attribute. Renaming or
deleting a function or type then fails here instead of leaving the docs
pointing at nothing.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import nucontrast

ROOT = Path(__file__).parents[1]
MODULES = {
    info.name: importlib.import_module(f"nucontrast.{info.name}")
    for info in pkgutil.iter_modules(nucontrast.__path__)
}
REFERENCE = re.compile(
    r"`(" + "|".join(sorted(MODULES)) + r")\.([A-Za-z_]\w*)(?:\.\w+)*(?<!\.py)(?=`|\()"
)


def references(text):
    """[(module, name)] of every reference in ``text``, in order."""
    return REFERENCE.findall(text)


def unresolved(text):
    return [f"{m}.{n}" for m, n in references(text) if not hasattr(MODULES[m], n)]


def module_docstrings():
    sources = sorted((ROOT / "src" / "nucontrast").glob("*.py"))
    return {
        p.name: ast.get_docstring(ast.parse(p.read_text(encoding="utf-8"))) or ""
        for p in sources
    }


def test_readme_references_resolve():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    assert len(references(text)) >= 20  # the scan saw the README's references
    assert unresolved(text) == []


def test_module_docstring_references_resolve():
    docstrings = module_docstrings()
    assert sum(len(references(d)) for d in docstrings.values()) >= 10
    assert {name: unresolved(d) for name, d in docstrings.items() if unresolved(d)} == {}


def test_finder_sees_a_missing_name():
    text = (
        "``model._backward`` and `losses.LossOutput` and `trainer.train(ds, cfg)`,"
        " `contrast.py`, `np.linalg.svd` and `model.ForwardCache.x`"
    )
    assert references(text) == [
        ("model", "_backward"),
        ("losses", "LossOutput"),
        ("trainer", "train"),
        ("model", "ForwardCache"),
    ]
    assert unresolved(text) == ["losses.LossOutput"]
