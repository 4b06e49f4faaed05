"""Every top-level name and method in ``src/repro`` is reached from an entry point.

A top-level ``def``, ``class`` or assignment is a *name*.  A reference is
an ``ast.Name`` id, an ``ast.Attribute`` attr, or an identifier-shaped
string constant (the scheme registry and the benchmark harness resolve
names by string).  ``import`` lines and ``__all__`` entries are never
references, so a re-export alone keeps nothing alive.

Each non-dunder method of a top-level class (properties and classmethods
included) is a node of its own.  It is reached once its class is reached
*and* its name is referenced from reached code.  Everything else in the
class body counts with the class: bases, decorators, class attributes and
every dunder, ``__init__`` and ``__post_init__`` included.  Methods are
reported as ``path:Class.method``.

The roots are ``examples/**/*.py``, ``benchmarks/**/*.py``, the module-level
statements of ``src`` that define nothing, and the classes decorated with
``register_scheme``.  Reachability is a fixpoint: the body of a name or a
method counts only once it is reached, so the helpers of dead code are
flagged with it.  Code that only tests reach belongs under ``tests/``.
``test_the_pass_on_a_synthetic_package`` pins these rules.

``test_no_unused_imports`` is the same idea at the scale of one file: no
module of ``src/repro`` (bar the package ``__init__`` re-exports) or of
``tests/`` imports a name it never uses.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
ENTRY_DIRS = ("examples", "benchmarks")

#: ``"repro/<module path>.py:<name or Class.method>"`` -> one-line reason it
#: may stay unreached.
ALLOWED: dict = {}

_IDENT = re.compile(r"[A-Za-z_]\w*")
_ANNOTATION = re.compile(r"[A-Za-z_][\w.\[\], ]*")
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = _FUNCS + (ast.ClassDef,)


def _references(node: ast.AST) -> set:
    """Names ``node`` refers to."""
    found = set()
    for sub in ast.walk(node):
        kind = type(sub)
        if kind is ast.Name:
            found.add(sub.id)
        elif kind is ast.Attribute:
            found.add(sub.attr)
        elif kind is ast.Constant:
            if type(sub.value) is str and _IDENT.fullmatch(sub.value):
                found.add(sub.value)
    return found


def _defined(stmt: ast.stmt) -> list:
    if isinstance(stmt, _DEFS):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _is_method(stmt: ast.stmt) -> bool:
    return isinstance(stmt, _FUNCS) and not (
        stmt.name.startswith("__") and stmt.name.endswith("__")
    )


@lru_cache(maxsize=None)
def scan(src: Path = SRC, entries: tuple = tuple(ROOT / d for d in ENTRY_DIRS)) -> dict:
    """What no entry point reaches, from one pass over ``src`` and ``entries``.

    Maps ``"path:name"`` (``"path:Class.method"`` for a method) to its line.
    """
    by_name = {}  # name -> [(path, line, references of its statement)]
    methods = {}  # (class, method) -> [(path, line, references of its body)]
    reached = set()
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src.parent).as_posix()
        for stmt in ast.parse(path.read_text("utf-8")).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            names = _defined(stmt)
            if names == ["__all__"]:
                continue
            if isinstance(stmt, ast.ClassDef):
                refs = set()
                for part in stmt.bases + stmt.keywords + stmt.decorator_list + stmt.body:
                    if _is_method(part):
                        methods.setdefault((stmt.name, part.name), []).append(
                            (rel, part.lineno, _references(part))
                        )
                    else:
                        refs |= _references(part)
            else:
                refs = _references(stmt)
            if not names or (
                isinstance(stmt, ast.ClassDef)
                and any("register_scheme" in _references(d) for d in stmt.decorator_list)
            ):
                reached |= refs | set(names)
            for name in names:
                by_name.setdefault(name, []).append((rel, stmt.lineno, refs))
    for folder in entries:
        for path in sorted(folder.rglob("*.py")):
            for stmt in ast.parse(path.read_text("utf-8")).body:
                if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                    reached |= _references(stmt)
    # A method wakes when both its class and its name are reached, so it
    # waits under each of the two.
    waiting = {}
    for key in methods:
        for part in key:
            waiting.setdefault(part, []).append(key)
    pending = list(reached)
    while pending:
        name = pending.pop()
        defs = by_name.pop(name, [])
        for cls, meth in waiting.get(name, ()):
            if cls in reached and meth in reached:
                defs += methods.pop((cls, meth), [])
        for _rel, _line, refs in defs:
            new = refs - reached
            reached |= new
            pending.extend(new)
    left = [*by_name.items(), *((".".join(key), defs) for key, defs in methods.items())]
    return {f"{rel}:{name}": line for name, defs in left for rel, line, _refs in defs}


def test_every_src_name_is_reached():
    flagged = sorted(
        f"{key} (line {line})" for key, line in scan().items() if key not in ALLOWED
    )
    assert not flagged, f"names only tests reach — delete or move under tests/: {flagged}"


def test_allowlist_entries_are_still_needed():
    stale = set(ALLOWED) - set(scan())
    assert not stale, f"allowlisted names that are reached now: {stale}"


def test_the_pass_on_a_synthetic_package(tmp_path):
    pkg, entry = tmp_path / "src" / "pkg", tmp_path / "examples"
    pkg.mkdir(parents=True)
    entry.mkdir()
    (pkg / "mod.py").write_text(
        """
class Live:
    def __init__(self):
        self.size = 1
    def __repr__(self):
        return "Live"
    def by_string(self):
        return 1
    @property
    def prop(self):
        return 2
    @classmethod
    def build(cls):
        return cls()
    def dead(self):
        return only_dead_calls()
class Unreached:
    def method(self):
        return 3
def only_dead_calls():
    return 4
"""
    )
    (entry / "run.py").write_text(
        """
obj = Live.build()
print(obj.prop, obj.method)
TARGETS = (("pkg.mod", "Live", "by_string"),)
"""
    )
    # Dunders live with their class, ``by_string`` is named by a string,
    # ``prop`` and ``build`` are read by attribute; ``method`` is referenced
    # but its class is not reached, and only the dead ``dead`` calls the
    # helper.
    assert set(scan(pkg, (entry,))) == {
        "pkg/mod.py:Live.dead",
        "pkg/mod.py:Unreached",
        "pkg/mod.py:Unreached.method",
        "pkg/mod.py:only_dead_calls",
    }



def _unused_imports(path: Path) -> list:
    """Names ``path`` imports, at any depth, and never uses.

    A use is an ``ast.Name``, or an identifier in a string shaped like a
    quoted annotation (``"Optional[Tuple[int, Link]]"``).
    """
    bound, used = {}, set()
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and type(node.value) is str:
            if _ANNOTATION.fullmatch(node.value):
                used.update(_IDENT.findall(node.value))
    rel = path.relative_to(ROOT).as_posix()
    return [f"{rel}:{line} {name}" for name, line in bound.items() if name not in used]


def test_no_unused_imports():
    modules = [p for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"]
    unused = [hit for p in modules + sorted((ROOT / "tests").rglob("*.py")) for hit in _unused_imports(p)]
    assert not unused, f"imported and never used: {unused}"
