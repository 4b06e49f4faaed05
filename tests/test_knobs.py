"""Inventory of the ``REPRO_*`` environment knobs the library reads.

Every published number is meant to be produced with no knob set, so the
set of knobs only shrinks on purpose.  This test collects every
``REPRO_[A-Z_]+`` token in ``src/repro`` — code, comments and docstrings
alike, so a stale mention of a deleted knob fails too — and pins the set.
Adding a knob means editing :data:`KNOBS` here.
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

KNOBS = {
    "REPRO_LOG",
    "REPRO_OBS",
    "REPRO_OBS_DIR",
    "REPRO_SCHEME_MODULES",
    "REPRO_SOAK_CHAOS_KILL",
    "REPRO_STORE",
}

_TOKEN = re.compile(r"REPRO_[A-Z_]+")


def knob_mentions():
    """``{knob: sorted "path:line" mentions}`` over ``src/repro/**/*.py``."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, 1):
            for token in _TOKEN.findall(line):
                where = f"{path.relative_to(SRC.parent)}:{lineno}"
                found.setdefault(token, []).append(where)
    return found


def test_knob_set_is_pinned():
    found = knob_mentions()
    unexpected = {k: v for k, v in found.items() if k not in KNOBS}
    assert not unexpected, f"unlisted REPRO_* knobs: {unexpected}"
    assert set(found) == KNOBS, f"knobs no longer read: {KNOBS - set(found)}"
