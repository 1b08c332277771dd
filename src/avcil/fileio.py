"""File reads and atomic writes, and the package's only JSON encoder and decoder.

JSON goes out canonical (sorted keys, minimal separators, no NaN), so equal
payloads give equal bytes and equal content hashes.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Optional

from .errors import FormatError


def read_input(path, what: str, error: type = FormatError) -> bytes:
    """The whole file; one that cannot be opened or read raises `error` naming it."""
    try:
        return Path(path).read_bytes()
    except OSError as err:
        reason = "file not found" if isinstance(err, FileNotFoundError) else err.strerror
        raise error(f"cannot read {what} {path}: {reason or err}") from None


def file_sha256(path, what: str) -> str:
    """Hex sha256 of the file's bytes; an unreadable file raises `FormatError`."""
    return hashlib.sha256(read_input(path, what)).hexdigest()


def read_json(source, error: type, what: str, blob: Optional[bytes] = None) -> dict:
    """The JSON object in the file `source`, or in `blob`, in which case
    `source` says where in its file `blob` sits.

    A missing or unreadable file, bytes that do not decode as JSON, nesting
    too deep for the parser, or a value other than an object raises `error`
    naming `what` and `source`.
    """
    if blob is None:
        blob = read_input(source, what, error)
    try:
        value = json.loads(blob)
    except (ValueError, RecursionError) as err:     # RecursionError: nesting too deep
        raise error(f"{what} {source} is not valid JSON: {err}") from None
    if not isinstance(value, dict):
        raise error(f"{what} {source} is not a JSON object, got {type(value).__name__}")
    return value


def canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def content_hash(payload: dict) -> str:
    """Hash of the canonical form with the hash field itself left out."""
    stripped = {k: v for k, v in payload.items() if k != "content_hash"}
    return hashlib.sha256(canonical_json(stripped).encode()).hexdigest()


def write_json(path, payload: dict) -> None:
    """`payload` plus its `content_hash`, as one canonical JSON line."""
    payload = dict(payload)
    payload["content_hash"] = content_hash(payload)
    write_atomic(path, (canonical_json(payload) + "\n").encode())


def write_lines(path, lines: Iterable[str]) -> None:
    """Text lines, each ended by a newline."""
    write_atomic(path, ("\n".join(lines) + "\n").encode())


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
