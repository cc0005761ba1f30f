"""Atomic file writes: tempfile in the target directory + ``os.replace``.

Every artifact the repo persists — result stores and exported traces —
goes through :func:`atomic_write_text` (or the JSON convenience wrapper),
so a crash or kill mid-write can never leave a truncated file for a later
run to half-load.  ``os.replace`` is atomic on POSIX when source and
destination share a filesystem, which writing the tempfile *next to* the
destination guarantees.
"""

from __future__ import annotations

import json
import os
import tempfile

__all__ = ["atomic_write_text", "atomic_write_json"]


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path`` atomically (all-or-nothing).

    The parent directory is created if missing.  On any failure the
    tempfile is removed and the previous file contents (if any) survive
    untouched.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    descriptor, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp_path, path)
    except BaseException:
        os.unlink(temp_path)
        raise


def atomic_write_json(path: str | os.PathLike, payload, *,
                      indent: int | None = 1,
                      sort_keys: bool = True) -> None:
    """Serialize ``payload`` as JSON and write it atomically."""
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys) + "\n"
    atomic_write_text(path, text)
