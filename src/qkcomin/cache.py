"""Disk cache for restriction tables and projected classes.

Two kinds of document, each one checksummed file:

* ``restrict_<digest>.json``, one per (shape, scalar mode, orientation):
  the rows of a restriction table as grammar strings;
* ``projected_<digest>.json``, one per (space, scalar mode): the projected
  classes of ``Space.projected``, each entry ``[dims, a, b, [[w, N], ...]]``
  with dims those of Y_d, a <= b two opposite indices on Y_d, w an
  opposite index on X and N its coefficient in the grammar.

A file carries a versioned header, its key and a checksum of the canonical
payload; JSON that does not parse or nests too deep, a wrong format or key,
or a checksum mismatch is treated as a miss, so corrupted files are
silently recomputed, and so are table rows that are not lists of strings.
Both kinds are decoded here, each distinct string parsed once
(:func:`_parse_each`), and checked against the sizes the caller passes
(:func:`load_table`, :func:`load_classes`).  A misfit is a miss too.
Writes are atomic (temp file and rename) and best-effort.

Keys name the shape or space, the scalar mode and the format, but no
engine version: a change that alters a cached number or byte must bump
``FORMAT`` or ``PROJECTED_FORMAT``, or old files feed old numbers in.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from qkcomin.laurent import ExponentRangeError, LaurentElement

FORMAT = "qk-restrict/1"
PROJECTED_FORMAT = "qk-projected/1"
# the file name prefix of each kind of document
PREFIXES = ("restrict_", "projected_")


def cache_dir() -> Path:
    env = os.environ.get("QK_CACHE_DIR")
    if env:
        return Path(env)
    if sys.platform == "darwin":
        base = Path.home() / "Library" / "Caches"
    else:
        base = Path(os.environ.get("XDG_CACHE_HOME", Path.home() / ".cache"))
    return base / "qk-comin"


def _path(prefix: str, key: str) -> Path:
    digest = hashlib.sha256(key.encode()).hexdigest()[:24]
    return cache_dir() / f"{prefix}{digest}.json"


def _path_for(key: str) -> Path:
    return _path("restrict_", key)


def _encode(payload) -> str:
    return json.dumps(payload, separators=(",", ":"))


def _payload_hash(payload: list) -> str:
    return hashlib.sha256(_encode(payload).encode()).hexdigest()


def _load_doc(path: Path, fmt: str, key: str, field: str) -> list | None:
    """The checksummed list ``field`` of the document at ``path``, or None
    if the file is missing, does not parse, or has the wrong format, key
    or checksum."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError):
        return None
    if not isinstance(doc, dict):  # valid JSON, but not a cache document
        return None
    if doc.get("format") != fmt or doc.get("key") != key:
        return None
    payload = doc.get(field)
    if not isinstance(payload, list) or doc.get("sha256") != _payload_hash(payload):
        return None
    return payload


def _store_doc(prefix: str, fmt: str, key: str, field: str, payload: list) -> None:
    """Write the document atomically; an OSError leaves no file behind."""
    path = _path(prefix, key)
    doc = {"format": fmt, "key": key, "sha256": _payload_hash(payload), field: payload}
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=prefix, suffix=".tmp")
    except OSError:
        return  # caching is best-effort
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(_encode(doc))
        os.replace(tmp, path)
    except BaseException as exc:
        # never leave the partial temp file behind; only OSError is absorbed
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if not isinstance(exc, OSError):
            raise


def load_rows(key: str) -> list | None:
    """Return the cached rows of grammar strings, or None on miss/corruption."""
    rows = _load_doc(_path_for(key), FORMAT, key, "rows")
    if rows is None:
        return None
    if not all(type(row) is list and all(type(s) is str for s in row) for row in rows):
        return None
    return rows


def store_rows(key: str, rows: list) -> None:
    _store_doc("restrict_", FORMAT, key, "rows", rows)


def load_table(key: str, npoints: int, nvars: int) -> list | None:
    """The cached restriction table, a tuple of elements per row, or None
    on a miss, corruption or a misfit: not ``npoints`` rows of ``npoints``
    strings that parse.  Reads through :func:`load_rows`."""
    raw = load_rows(key)
    if raw is None or len(raw) != npoints or any(len(row) != npoints for row in raw):
        return None
    elements = _parse_each((s for row in raw for s in row), nvars)
    if elements is None:
        return None
    return [tuple(map(elements.__getitem__, row)) for row in raw]


def store_table(key: str, rows: list) -> None:
    """Write a restriction table through :func:`store_rows`."""
    text = _format_each(v for row in rows for v in row)
    store_rows(key, [[text[id(v)] for v in row] for row in rows])


def _parse_each(texts, nvars: int) -> dict | None:
    """The element of each distinct string of ``texts``, parsed once, or None
    if one is not a string or does not parse.  Equal strings thus load as
    one shared element, which is safe because cached tables and classes
    are never mutated (``KModel.expand_values`` copies what it updates)."""
    try:
        distinct = set(texts)
    except TypeError:  # an unhashable entry, such as a list
        return None
    if not all(type(s) is str for s in distinct):
        return None
    try:
        return {s: LaurentElement.parse(s, nvars) for s in distinct}
    except (ValueError, ExponentRangeError):
        return None


def _format_each(values) -> dict:
    """The grammar string of each coefficient object of ``values``, by id, so
    a shared object is formatted once; the objects must outlive the dict."""
    distinct = {id(v): v for v in values}
    return {k: str(v) for k, v in distinct.items()}


def load_classes(key: str, ys: dict, npoints: int, nvars: int) -> dict | None:
    """The cached projected classes, ``{(Y_d shape, a, b): {w: c}}``, or
    None on a miss, corruption or a misfit.

    ``ys`` maps the dims of each Y_d of the space to its shape and number
    of points, ``npoints`` is the number of points of X and ``nvars`` the
    number of variables of the scalars.  A misfit is an entry whose dims
    are not in ``ys``, with a > b, an index outside Y_d or X, a repeated
    key or index, or an N that does not parse or is zero.
    """
    raw = _load_doc(_path("projected_", key), PROJECTED_FORMAT, key, "classes")
    if raw is None:
        return None
    texts: dict = {}  # (Y_d shape, a, b) -> {w: N as a string}
    for entry in raw:
        if type(entry) is not list or len(entry) != 4:
            return None
        dims, a, b, terms = entry
        if type(dims) is not list or not all(type(x) is int for x in dims):
            return None
        hit = ys.get(tuple(dims))
        if hit is None or type(a) is not int or type(b) is not int or type(terms) is not list:
            return None
        y, ny = hit
        if not 0 <= a <= b < ny or (y, a, b) in texts:
            return None
        if not all(type(t) is list and len(t) == 2 and type(t[0]) is int for t in terms):
            return None
        exp = texts[y, a, b] = dict(terms)
        if len(exp) != len(terms) or not all(0 <= w < npoints for w in exp):
            return None
    elements = _parse_each((s for exp in texts.values() for s in exp.values()), nvars)
    if elements is None or any(c.is_zero() for c in elements.values()):
        return None
    return {k: {w: elements[s] for w, s in exp.items()} for k, exp in texts.items()}


def store_classes(key: str, classes: dict) -> None:
    """Write the projected classes of :func:`load_classes`.  Entries are
    sorted by (dims, a, b) and terms by index, so equal memos give equal
    bytes."""
    items = sorted(classes.items(), key=_entry_order)
    text = _format_each(c for _key, exp in items for c in exp.values())
    entries = [
        (y.dims, a, b, [(w, text[id(c)]) for w, c in sorted(exp.items())])
        for (y, a, b), exp in items
    ]
    _store_doc("projected_", PROJECTED_FORMAT, key, "classes", entries)


def _entry_order(item) -> tuple:
    (y, a, b), _exp = item
    return y.dims, a, b


def _files(suffix: str) -> list:
    d = cache_dir()
    if not d.is_dir():
        return []
    return sorted(p for prefix in PREFIXES for p in d.glob(f"{prefix}*{suffix}"))


def clear() -> int:
    """Delete all cache files, and the temp files of writers killed before
    their rename; returns the number removed."""
    removed = 0
    for p in [*_files(".json"), *_files(".tmp")]:
        try:
            p.unlink()
            removed += 1
        except OSError:
            pass
    return removed


def stats() -> dict:
    files = _files(".json")
    return {
        "path": str(cache_dir()),
        "files": len(files),
        "bytes": sum(p.stat().st_size for p in files),
    }
