"""Every top-level import in the package modules is used, every
definition in them is referenced, and every dataclass field is read.

A name bound as `from m import name as name` is an explicit re-export
and counts as used.  A definition counts as referenced when its name
appears as a whole word, outside its own definitions, somewhere in the
Python files of src/, tests/ or bench/; the match is textual, so a name
inside a string or an f-string counts.  The package `__init__.py` is
neither checked nor read: a re-export alone is no use.

A dataclass field counts as read when some Python file of src/, tests/
or bench/ loads it as an attribute (`x.field`); this match is syntactic,
so a field set but never looked up fails even if its name occurs
elsewhere.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "stobeam"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list:
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.asname is not None and alias.asname == alias.name:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def _definitions(tree: ast.Module) -> list:
    """Top-level functions and classes, and the non-dunder methods and
    properties of those classes."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and not (item.name.startswith("__")
                               and item.name.endswith("__"))]
    return names


@pytest.fixture(scope="module")
def corpus():
    """How often each word occurs in the text the references may come
    from, and every definition name of the checked modules (one entry per
    definition)."""
    files = [p for d in ("src", "tests", "bench")
             for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py"]
    words = Counter(re.findall(r"\w+", "\n".join(p.read_text()
                                                  for p in files)))
    defined = Counter(name for p in MODULES
                      for name in _definitions(ast.parse(p.read_text())))
    return words, defined


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_referenced(path, corpus):
    words, defined = corpus
    unused = [name for name in _definitions(ast.parse(path.read_text()))
              if words[name] <= defined[name]]
    assert unused == []


def _dataclass_fields(tree: ast.Module) -> list:
    """(class, field) for each annotated field of a top-level dataclass."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id",
                        None) == "dataclass"
                for d in node.decorator_list):
            out += [(node.name, item.target.id) for item in node.body
                    if isinstance(item, ast.AnnAssign)]
    return out


def test_every_dataclass_field_is_read():
    files = [p for d in ("src", "tests", "bench")
             for p in (ROOT / d).rglob("*.py")]
    loaded = {n.attr for p in files for n in ast.walk(ast.parse(p.read_text()))
              if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = [f"{cls}.{name}" for p in MODULES
              for cls, name in _dataclass_fields(ast.parse(p.read_text()))
              if name not in loaded]
    assert unread == []
