"""``docs/API.md`` is rendered from each subpackage's ``__all__`` and docstrings.

``test_api_map_is_current`` fails when an ``__all__`` entry has no
docstring of its own, or when the checked-in map is not ``render()``.
Rewrite the map with ``PYTHONPATH=src python -m tests.test_api_map``.
Only names and docstring text are rendered, never values or signatures,
so the map is the same on every Python version, with numpy or without.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

MAP = Path(__file__).resolve().parents[1] / "docs" / "API.md"
REWRITE = "PYTHONPATH=src python -m tests.test_api_map"
PACKAGES = (
    "geometry", "topology", "routing", "failures", "simulator", "core", "schemes",
    "chaos", "eval", "traffic", "te", "obs", "store", "viz",
)


def _documented(obj) -> bool:
    """Whether ``obj`` carries a docstring of its own (constants do not)."""
    return inspect.isclass(obj) or inspect.isroutine(obj) or inspect.ismodule(obj)


def _doc(obj) -> str:
    """``obj``'s own docstring, or ``""`` (a dataclass's generated one is not)."""
    doc = obj.__doc__ or ""
    return "" if inspect.isclass(obj) and doc.startswith(obj.__name__ + "(") else inspect.cleandoc(doc)


def _markdown(text: str) -> str:
    """Docstring markup as Markdown code spans (``:class:`~a.B``` reads `B`)."""
    return re.sub(r"(?::\w+:)?`+(?:~[\w.]*\.)?([^`]+)`+", r"`\1`", text)


def _summary(obj) -> str:
    """The first paragraph of ``obj``'s docstring, on one line, without its full stop."""
    return _markdown(" ".join(_doc(obj).split("\n\n")[0].split())).rstrip(".").replace("|", "\\|")


def render() -> str:
    """Per subpackage: its summary, one row per ``__all__`` entry, its constants and modules."""
    out = [
        "# API reference (by subpackage)",
        "",
        "Generated from each subpackage's `__all__` and docstrings; never edit it",
        f"by hand. Rewrite it with `{REWRITE}`.",
    ]
    for name in PACKAGES:
        pkg = importlib.import_module(f"repro.{name}")
        objs = {item: getattr(pkg, item) for item in pkg.__all__}
        out += ["", f"## `repro.{name}`", "", _summary(pkg), "", "| name | summary |", "|---|---|"]
        out += [f"| `{item}` | {_summary(obj)} |" for item, obj in objs.items() if _documented(obj)]
        constants = [f"`{item}`" for item, obj in objs.items() if not _documented(obj)]
        if constants:
            out += ["", f"Constants: {', '.join(constants)}."]
        modules = [
            f"`{mod.name}` ({_summary(importlib.import_module(f'{pkg.__name__}.{mod.name}'))})"
            for mod in pkgutil.iter_modules(pkg.__path__)
            if mod.name not in objs
        ]
        out += ["", f"Modules: {'; '.join(modules)}."]
    out += ["", "## CLI", "", _markdown(_doc(importlib.import_module("repro.cli")))]
    return "\n".join(out) + "\n"


def test_api_map_is_current():
    undocumented = []
    for name in PACKAGES:
        pkg = importlib.import_module(f"repro.{name}")
        objs = [(item, getattr(pkg, item)) for item in pkg.__all__]
        undocumented += [f"{pkg.__name__}.{item}" for item, obj in objs if _documented(obj) and not _doc(obj)]
    assert not undocumented, f"__all__ entries without a docstring of their own: {undocumented}"
    want, have = render().splitlines(), MAP.read_text("utf-8").splitlines()
    for lineno, (new, old) in enumerate(zip(want, have), 1):
        assert new == old, f"docs/API.md:{lineno} is stale ({REWRITE}):\n  is {old}\n  want {new}"
    assert len(want) == len(have), f"docs/API.md has {len(have)} lines, want {len(want)} ({REWRITE})"


if __name__ == "__main__":
    MAP.write_text(render(), "utf-8")
