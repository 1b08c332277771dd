"""File reads and atomic writes, shared by every module that persists an artifact."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from .errors import FormatError


def read_input(path, what: str) -> bytes:
    """The whole file; one that cannot be opened or read raises FormatError naming it."""
    try:
        return Path(path).read_bytes()
    except OSError as err:
        raise FormatError(f"cannot read {what} {path}: {err.strerror or err}") from None


def write_atomic(path, data: bytes) -> None:
    """Write `data` to a temp file beside `path`, then rename it into place.

    A failure at any point leaves the previous file (if any) untouched and
    removes the temp file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
