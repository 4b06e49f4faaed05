"""Torn-write-proof file emission.

An instrumented run may die at any instant — a ``kill -9``
mid-``write_text`` must never leave a truncated ``manifest.json``
behind, because ``repro obs report`` and ``repro query ingest`` read
whatever is on disk.  The cure is the classic same-directory temp file
+ ``fsync`` + ``os.replace`` dance: the visible path always holds either
the previous complete version or the new complete version, never a
prefix.

Used by every obs artifact writer (:mod:`repro.obs.export`).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Optional


def atomic_write_text(path: Path, text: str, sync: bool = True) -> Path:
    """Atomically replace ``path`` with ``text``.

    The temp file lives in ``path``'s directory so ``os.replace`` stays
    a same-filesystem rename (atomic on POSIX).  With ``sync`` the data
    is fsynced before the rename and the directory entry after it, so
    the replacement survives power loss, not just process death.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            if sync:
                os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    if sync:
        _fsync_dir(path.parent)
    return path


def atomic_write_json(
    path: Path,
    obj: object,
    indent: Optional[int] = 2,
    sync: bool = True,
) -> Path:
    """Atomically replace ``path`` with ``obj`` serialized as JSON.

    Keys are sorted and floats round-trip exactly (``json`` emits
    ``repr``-exact doubles), so identical objects always produce
    byte-identical files.
    """
    text = json.dumps(obj, indent=indent, sort_keys=True) + "\n"
    return atomic_write_text(path, text, sync=sync)


def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry; best-effort on platforms without it."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)
