"""Every top-level import in the package modules is used, every
definition in them is referenced, every dataclass field is read, every
defaulted parameter is set by some call, and no parameter without a
default is given the same literal by every call.

A re-export counts as no use: a name is imported from the module that
defines it, so `from m import name as name` fails like any other unused
import.  A top-level function or class counts as referenced when the
code of the Python files of src/ or bench/ names it outside its own
definition: as a name, as an attribute (`m.name`), in an import, or as
a whole string constant (the names the bench patches by string); tests
do not count, since library code that only tests use is dead weight.
The match reads the syntax trees, so the name as a word inside a longer
string, a comment or a docstring does not count.  A method or property
counts as referenced only when the syntax trees of those files look it
up as an attribute (`x.name`): a plain name match would let any local
variable or keyword argument of the same name keep it alive.  The package
`__init__.py` is neither checked nor read: a re-export alone is no use,
and the root holds only `__version__`.

A dataclass field, and any attribute that a class assigns as
`self.attr = ...`, counts as read when some Python file of src/, tests/
or bench/ loads it as an attribute (`x.attr`); this match is syntactic,
so an attribute set but never looked up fails even if its name occurs
elsewhere.

A defaulted parameter of a function or method counts as set when some
call in src/, tests/ or bench/ to a callee of that name (an `__init__`
by its class name) passes it by keyword, or by position, or passes
`*args` or `**kwargs`; the match is by name, not by resolved object.

A parameter without a default fails when at least two calls in src/,
tests/ or bench/ reach it, matched by callee name in the same way, and
every one of them passes the same literal constant: the parameter is a
constant in disguise.  A name defined more than once in the package is
skipped, since its calls cannot be told apart.

Every backticked `module.name` of README.md whose module is one of the
package's names a config key or an attribute of that module.

Every stobeam name that `bench/child.py` patches or calls exists:
`install_tracer` runs in a subprocess, so that its patches stay out of
this one, and the names the child calls outside it are looked up.
"""

import ast
import importlib
import re
import subprocess
import sys
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
    """(name, is_method) of each top-level function and class, and of each
    non-dunder method and property of those classes."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append((node.name, False))
        if isinstance(node, ast.ClassDef):
            names += [(item.name, True) for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and not (item.name.startswith("__")
                               and item.name.endswith("__"))]
    return names


def _named(node: ast.AST) -> list:
    """The names a node of a syntax tree refers to: a name, an attribute,
    the parts of an imported name and its alias, or a string constant."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return node.name.split(".") + [node.asname]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    return []


def _references(tree: ast.Module) -> set:
    """The names a module's code refers to, a top-level definition's own
    name left out within that definition."""
    out = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        out |= {name for n in ast.walk(top) for name in _named(n)
                if name != own}
    return out


@pytest.fixture(scope="module")
def corpus():
    """The names that the code of the files the references may come from
    (src/ and bench/, not tests/) refers to, the attribute names it looks
    up, and every definition name of the checked modules (one entry per
    definition)."""
    trees = [ast.parse(p.read_text()) for d in ("src", "bench")
             for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py"]
    named = set().union(*map(_references, trees))
    looked_up = {n.attr for t in trees for n in ast.walk(t)
                 if isinstance(n, ast.Attribute)}
    defined = Counter(name for p in MODULES
                      for name, _ in _definitions(ast.parse(p.read_text())))
    return named, looked_up, defined


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_referenced(path, corpus):
    named, looked_up, defined = corpus
    tree = ast.parse(path.read_text())
    unused = [name for name, method in _definitions(tree)
              if name not in (looked_up if method else named)]
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


def _parameters(tree: ast.Module) -> list:
    """(callee, parameter, position, defaulted) for each parameter of a
    top-level function or a method; `__init__` is called by its class name
    and a method's position does not count `self` or `cls`.  Position is
    None for keyword-only parameters."""
    out = []

    def visit(fn, callee, bound):
        a = fn.args
        positional = (a.posonlyargs + a.args)[bound:]
        first = len(positional) - len(a.defaults)
        out.extend((callee, p.arg, i, i >= first)
                   for i, p in enumerate(positional))
        out.extend((callee, p.arg, None, d is not None)
                   for p, d in zip(a.kwonlyargs, a.kw_defaults))

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
        for callee, name, pos, defaulted in _parameters(
                ast.parse(p.read_text())):
            if not defaulted:
                continue
            count, names = set_by.get(callee, (0, set()))
            # a `**kwargs` argument (keyword None) may set any name
            if not (name in names or None in names
                    or (pos is not None and count > pos)):
                unset.append(f"{callee}({name}=)")
    assert unset == []


def _passed_literal(call: ast.Call, name: str, pos):
    """The literal constant a call passes for a parameter, as its AST dump,
    or None when it passes another expression or nothing that can be told
    (through `*args` or `**kwargs`)."""
    if any(isinstance(a, ast.Starred) for a in call.args) or \
            any(k.arg is None for k in call.keywords):
        return None
    node = next((k.value for k in call.keywords if k.arg == name), None)
    if node is None and pos is not None and pos < len(call.args):
        node = call.args[pos]
    return ast.dump(node) if isinstance(node, ast.Constant) else None


def test_no_required_parameter_takes_one_literal_everywhere(corpus):
    """A parameter that every call passes the same literal is a constant
    in disguise."""
    _, _, defined = corpus
    calls = {}  # callee name -> its calls
    for p in (p for d in ("src", "tests", "bench")
              for p in (ROOT / d).rglob("*.py")):
        for n in ast.walk(ast.parse(p.read_text())):
            if isinstance(n, ast.Call):
                name = getattr(n.func, "id", None) or \
                    getattr(n.func, "attr", None)
                calls.setdefault(name, []).append(n)
    constant = []
    for p in MODULES:
        for callee, name, pos, defaulted in _parameters(
                ast.parse(p.read_text())):
            if defaulted or defined[callee] != 1:
                continue
            made = calls.get(callee, [])
            passed = {_passed_literal(c, name, pos) for c in made}
            if len(made) >= 2 and len(passed) == 1 and None not in passed:
                constant.append(f"{callee}({name})")
    assert constant == []


#: run with -B, so that neither bench/ nor src/ gets a bytecode cache
_BENCH_NAMES = """
import importlib.util, sys
sys.path.insert(0, {src!r})
spec = importlib.util.spec_from_file_location("bench_child", {child!r})
child = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = child
spec.loader.exec_module(child)
child.install_tracer()
from stobeam import cli, config, solver, verify
for owner, name in ((cli, "main"), (config, "parse_config"),
                    (solver, "build_scene"), (solver, "solve_homogeneous"),
                    (verify, "_CHECKS")):
    assert hasattr(owner, name), owner.__name__ + "." + name
assert verify._CHECKS
"""


def test_bench_child_finds_every_name_it_patches_or_calls():
    code = _BENCH_NAMES.format(src=str(ROOT / "src"),
                               child=str(ROOT / "bench" / "child.py"))
    proc = subprocess.run([sys.executable, "-B", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_names_exist():
    """A README name such as `propagator.build_banded` or `grid.n` that is
    neither a config key nor an attribute of its module is stale."""
    from stobeam.config import _KEYS
    modules = {p.stem for p in MODULES}
    names = {(mod, name) for mod, name in re.findall(
        r"`(\w+)\.(\w+)`", (ROOT / "README.md").read_text())
        if mod in modules}
    assert names
    stale = sorted(f"{mod}.{name}" for mod, name in names
                   if f"{mod}.{name}" not in _KEYS and not hasattr(
                       importlib.import_module(f"stobeam.{mod}"), name))
    assert stale == []
