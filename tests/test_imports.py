"""Every top-level import in the package modules is used, every
definition in them is referenced, every dataclass field is read, and
every defaulted parameter is set by some call.

A re-export counts as no use: a name is imported from the module that
defines it, so `from m import name as name` fails like any other unused
import.  A definition counts as referenced when its name appears as a
whole word, outside its own definitions, somewhere in the Python files
of src/, tests/ or bench/; the match is textual, so a name inside a
string or an f-string counts.  The package `__init__.py` is
neither checked nor read: a re-export alone is no use, and the root
holds only `__version__`.

A dataclass field, and any attribute that a class assigns as
`self.attr = ...`, counts as read when some Python file of src/, tests/
or bench/ loads it as an attribute (`x.attr`); this match is syntactic,
so an attribute set but never looked up fails even if its name occurs
elsewhere.

A defaulted parameter of a function or method counts as set when some
call in src/, tests/ or bench/ to a callee of that name (an `__init__`
by its class name) passes it by keyword, or by position, or passes
`*args` or `**kwargs`; the match is by name, not by resolved object.
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


def _class_attributes(tree: ast.Module) -> list:
    """(class, attribute) for each annotated field of a top-level dataclass
    and each `self.attribute` that a method of a top-level class assigns."""
    out = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        if any(getattr(d.func if isinstance(d, ast.Call) else d, "id",
                       None) == "dataclass" for d in node.decorator_list):
            out += [(node.name, item.target.id) for item in node.body
                    if isinstance(item, ast.AnnAssign)]
        out += [(node.name, n.attr) for n in ast.walk(node)
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                and getattr(n.value, "id", None) == "self"]
    return out


def test_every_dataclass_field_is_read():
    files = [p for d in ("src", "tests", "bench")
             for p in (ROOT / d).rglob("*.py")]
    loaded = {n.attr for p in files for n in ast.walk(ast.parse(p.read_text()))
              if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = sorted({f"{cls}.{name}" for p in MODULES
                     for cls, name in _class_attributes(ast.parse(p.read_text()))
                     if name not in loaded})
    assert unread == []


def _defaulted_parameters(tree: ast.Module) -> list:
    """(callee, parameter, position) for each defaulted parameter of a
    top-level function or a method; `__init__` is called by its class name
    and a method's position does not count `self` or `cls`.  Position is
    None for keyword-only parameters."""
    out = []

    def visit(fn, callee, bound):
        a = fn.args
        positional = (a.posonlyargs + a.args)[bound:]
        first = len(positional) - len(a.defaults)
        out.extend((callee, p.arg, first + i)
                   for i, p in enumerate(positional[first:]))
        out.extend((callee, p.arg, None)
                   for p, d in zip(a.kwonlyargs, a.kw_defaults)
                   if d is not None)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            visit(node, node.name, 0)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    visit(item, node.name if item.name == "__init__"
                          else item.name, 0 if static else 1)
    return out


def test_every_defaulted_parameter_is_set_somewhere():
    """A default that no call overrides is a constant in disguise."""
    files = [p for d in ("src", "tests", "bench")
             for p in (ROOT / d).rglob("*.py")]
    set_by = {}  # callee name -> (max positional count, keyword names)
    for p in files:
        for n in ast.walk(ast.parse(p.read_text())):
            if not isinstance(n, ast.Call):
                continue
            name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
            count, names = set_by.get(name, (0, set()))
            if any(isinstance(a, ast.Starred) for a in n.args):
                count = float("inf")
            names |= {k.arg for k in n.keywords}
            set_by[name] = (max(count, len(n.args)), names)
    unset = []
    for p in MODULES:
        for callee, name, pos in _defaulted_parameters(
                ast.parse(p.read_text())):
            count, names = set_by.get(callee, (0, set()))
            # a `**kwargs` argument (keyword None) may set any name
            if not (name in names or None in names
                    or (pos is not None and count > pos)):
                unset.append(f"{callee}({name}=)")
    assert unset == []
