"""Every top-level name in ``src/repro`` is reached from a program entry point.

A top-level ``def``, ``class`` or assignment is a *name*.  A reference is
an ``ast.Name`` id, an ``ast.Attribute`` attr, or an identifier-shaped
string constant (the scheme registry and the benchmark harness resolve
names by string).  ``import`` lines and ``__all__`` entries are never
references, so a re-export alone keeps nothing alive.

The roots are ``examples/**/*.py``, ``benchmarks/**/*.py``, the module-level
statements of ``src`` that define nothing, and the classes decorated with
``register_scheme``.  Reachability is a fixpoint: a name's body counts
only once the name is reached, so the helpers of a dead name are flagged
with it.  Code that only tests reach belongs under ``tests/``.

The second test keeps ``docs/API.md`` honest: every identifier in the
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

#: ``"repro/<module path>.py:<name>"`` -> one-line reason it may stay unreached.
ALLOWED: dict = {}

_IDENT = re.compile(r"[A-Za-z_]\w*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


@lru_cache(maxsize=None)
def scan() -> tuple:
    """``(unreached, known)``, from one pass over src, examples and benchmarks.

    ``unreached`` maps ``"path:name"`` to the line of every top-level name
    no entry point reaches; ``known`` holds every identifier ``src``
    defines at any depth (names, arguments, stored attributes), its module
    names and the knobs.
    """
    known = set(KNOBS) | {"repro"}
    by_name = {}  # name -> [(path, line, references of its statement)]
    reached = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC.parent).as_posix()
        known.update(Path(rel).with_suffix("").parts)
        for stmt in ast.parse(path.read_text("utf-8")).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            names = _defined(stmt)
            if names == ["__all__"]:
                continue
            refs = _references(stmt, known)
            if not names or (
                isinstance(stmt, ast.ClassDef)
                and any("register_scheme" in _references(d, set()) for d in stmt.decorator_list)
            ):
                reached |= refs | set(names)
            for name in names:
                by_name.setdefault(name, []).append((rel, stmt.lineno, refs))
    for folder in ENTRY_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for stmt in ast.parse(path.read_text("utf-8")).body:
                if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                    reached |= _references(stmt, set())
    pending = list(reached)
    while pending:
        for _rel, _line, refs in by_name.pop(pending.pop(), ()):
            new = refs - reached
            reached |= new
            pending.extend(new)
    unreached = {
        f"{rel}:{name}": line for name, defs in by_name.items() for rel, line, _refs in defs
    }
    return unreached, known


def test_every_src_name_is_reached():
    flagged = sorted(
        f"{key} (line {line})" for key, line in scan()[0].items() if key not in ALLOWED
    )
    assert not flagged, f"names only tests reach — delete or move under tests/: {flagged}"


def test_allowlist_entries_are_still_needed():
    stale = set(ALLOWED) - set(scan()[0])
    assert not stale, f"allowlisted names that are reached now: {stale}"


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
