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

The last test keeps ``docs/API.md`` honest: every identifier in the
first column of its tables must still exist.
"""

from __future__ import annotations

import ast
import keyword
import re
from functools import lru_cache
from pathlib import Path

from .test_knobs import KNOBS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
ENTRY_DIRS = ("examples", "benchmarks")

#: ``"repro/<module path>.py:<name or Class.method>"`` -> one-line reason it
#: may stay unreached.
ALLOWED: dict = {}

_IDENT = re.compile(r"[A-Za-z_]\w*")
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = _FUNCS + (ast.ClassDef,)


def _references(node: ast.AST, known: set) -> set:
    """Names ``node`` refers to; what it defines, at any depth, goes to ``known``."""
    found = set()
    for sub in ast.walk(node):
        kind = type(sub)
        if kind is ast.Name:
            found.add(sub.id)
            if type(sub.ctx) is ast.Store:
                known.add(sub.id)
        elif kind is ast.Attribute:
            found.add(sub.attr)
            if type(sub.ctx) is ast.Store:
                known.add(sub.attr)
        elif kind is ast.Constant:
            if type(sub.value) is str and _IDENT.fullmatch(sub.value):
                found.add(sub.value)
        elif kind is ast.arg:
            known.add(sub.arg)
        elif kind in _DEFS:
            known.add(sub.name)
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
def scan(src: Path = SRC, entries: tuple = tuple(ROOT / d for d in ENTRY_DIRS)) -> tuple:
    """``(unreached, known)``, from one pass over ``src`` and the ``entries`` folders.

    ``unreached`` maps ``"path:name"`` (``"path:Class.method"`` for a
    method) to the line of everything no entry point reaches; ``known``
    holds every identifier ``src`` defines at any depth (names, arguments,
    stored attributes), its module names and the knobs.
    """
    known = set(KNOBS) | {src.name}
    by_name = {}  # name -> [(path, line, references of its statement)]
    methods = {}  # (class, method) -> [(path, line, references of its body)]
    reached = set()
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src.parent).as_posix()
        known.update(Path(rel).with_suffix("").parts)
        for stmt in ast.parse(path.read_text("utf-8")).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            names = _defined(stmt)
            if names == ["__all__"]:
                continue
            if isinstance(stmt, ast.ClassDef):
                known.add(stmt.name)
                refs = set()
                for part in stmt.bases + stmt.keywords + stmt.decorator_list + stmt.body:
                    if _is_method(part):
                        methods.setdefault((stmt.name, part.name), []).append(
                            (rel, part.lineno, _references(part, known))
                        )
                    else:
                        refs |= _references(part, known)
            else:
                refs = _references(stmt, known)
            if not names or (
                isinstance(stmt, ast.ClassDef)
                and any("register_scheme" in _references(d, set()) for d in stmt.decorator_list)
            ):
                reached |= refs | set(names)
            for name in names:
                by_name.setdefault(name, []).append((rel, stmt.lineno, refs))
    for folder in entries:
        for path in sorted(folder.rglob("*.py")):
            for stmt in ast.parse(path.read_text("utf-8")).body:
                if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                    reached |= _references(stmt, set())
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
    unreached = {f"{rel}:{name}": line for name, defs in left for rel, line, _refs in defs}
    return unreached, known


def test_every_src_name_is_reached():
    flagged = sorted(
        f"{key} (line {line})" for key, line in scan()[0].items() if key not in ALLOWED
    )
    assert not flagged, f"names only tests reach — delete or move under tests/: {flagged}"


def test_allowlist_entries_are_still_needed():
    stale = set(ALLOWED) - set(scan()[0])
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
    assert set(scan(pkg, (entry,))[0]) == {
        "pkg/mod.py:Live.dead",
        "pkg/mod.py:Unreached",
        "pkg/mod.py:Unreached.method",
        "pkg/mod.py:only_dead_calls",
    }


def test_api_doc_names_exist():
    known = scan()[1]
    stale = []
    for lineno, line in enumerate((ROOT / "docs" / "API.md").read_text("utf-8").splitlines(), 1):
        if not line.startswith("|"):
            continue
        first_column = line.split("|")[1]
        for span in re.findall(r"`([^`]*)`", first_column):
            stale += [
                f"API.md:{lineno} {name}"
                for name in _IDENT.findall(span.removesuffix(".py"))
                if name not in known and not keyword.iskeyword(name)
            ]
    assert not stale, f"docs/API.md names that no longer exist: {stale}"
