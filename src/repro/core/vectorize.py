"""The installed numpy version, read without importing numpy.

The analysis is pure standard-library Python and never imports numpy; this
one helper remains for tools that record the machine environment beside
their timings.
"""

from __future__ import annotations

from importlib import metadata

__all__ = ["numpy_version"]


def numpy_version() -> str | None:
    """The installed numpy version string, or None when numpy is absent."""
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return None
