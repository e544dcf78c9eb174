"""Disk cache for restriction tables.

One file per (shape, scalar mode, orientation).  Files carry a versioned
header and a checksum of the canonical payload; JSON that does not parse
or nests too deep, a checksum mismatch, or rows that are not lists of
strings, is treated as a miss, so corrupted files are silently
recomputed.  Whether the strings make a table of the model is checked by
the caller (``gkm.KModel``), which treats a misfit as a miss too.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

FORMAT = "qk-restrict/1"


def cache_dir() -> Path:
    env = os.environ.get("QK_CACHE_DIR")
    if env:
        return Path(env)
    if sys.platform == "darwin":
        base = Path.home() / "Library" / "Caches"
    else:
        base = Path(os.environ.get("XDG_CACHE_HOME", Path.home() / ".cache"))
    return base / "qk-comin"


def _path_for(key: str) -> Path:
    digest = hashlib.sha256(key.encode()).hexdigest()[:24]
    return cache_dir() / f"restrict_{digest}.json"


def _payload_hash(rows: list) -> str:
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def load_rows(key: str) -> list | None:
    """Return the cached rows of grammar strings, or None on miss/corruption."""
    path = _path_for(key)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError):
        return None
    if not isinstance(doc, dict):  # valid JSON, but not a cache document
        return None
    if doc.get("format") != FORMAT or doc.get("key") != key:
        return None
    rows = doc.get("rows")
    if not isinstance(rows, list) or doc.get("sha256") != _payload_hash(rows):
        return None
    if not all(type(row) is list and all(type(s) is str for s in row) for row in rows):
        return None
    return rows


def store_rows(key: str, rows: list) -> None:
    path = _path_for(key)
    doc = {
        "format": FORMAT,
        "key": key,
        "sha256": _payload_hash(rows),
        "rows": rows,
    }
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix="restrict_", suffix=".tmp")
    except OSError:
        return  # caching is best-effort
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        os.replace(tmp, path)
    except BaseException as exc:
        # never leave the partial temp file behind; only OSError is absorbed
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if not isinstance(exc, OSError):
            raise


def clear() -> int:
    """Delete all cache files, and the temp files of writers killed before
    their rename; returns the number removed."""
    d = cache_dir()
    removed = 0
    if d.is_dir():
        for p in [*d.glob("restrict_*.json"), *d.glob("restrict_*.tmp")]:
            try:
                p.unlink()
                removed += 1
            except OSError:
                pass
    return removed


def stats() -> dict:
    d = cache_dir()
    files = sorted(d.glob("restrict_*.json")) if d.is_dir() else []
    return {
        "path": str(d),
        "files": len(files),
        "bytes": sum(p.stat().st_size for p in files),
    }
