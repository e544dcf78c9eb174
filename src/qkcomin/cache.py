"""Disk cache for restriction tables and projected classes.

Two kinds of document, each one checksummed file:

* ``restrict_<digest>.json``, one per (shape, scalar mode, orientation):
  the rows of a restriction table, each entry the index of its scalar;
* ``projected_<digest>.json``, one per (space, scalar mode): the projected
  classes of ``Space.projected``, each entry ``[dims, a, b, [w, s, ...]]``
  with dims those of Y_d, a <= b two opposite indices on Y_d, and pairs of
  an opposite index w on X and the index s of its coefficient.

A file is two lines of JSON: a header with the format, the key and the
sha256 of the second line, then the payload.  Besides its rows or classes
the payload holds the scalars in integers, in two lists: each distinct
monomial once, as an exponent vector, and each distinct scalar once, as a
flat list ``[m, c, ...]`` of monomial indices m and nonzero coefficients
c.  One helper lays that out (:func:`_encode`), one writes it an item
at a time, holding no copy of the file (:func:`_store_doc`), and one
reads it (:func:`_decode`): a warm load packs each monomial once and
builds each scalar from its lists, with no grammar to parse, and equal
scalars of a file load as one shared element.

JSON that does not parse or nests too deep, a wrong format or key, or a
checksum mismatch is a miss, so corrupted files are silently recomputed.
So is a payload that does not fit the caller's sizes (:func:`load_table`,
:func:`load_classes`): an entry that is not an integer, an index out of
range, an exponent vector of the wrong width or, on the full torus, past
``EXPONENT_LIMIT``, an odd-length term list, a repeated monomial in one
scalar, a zero coefficient, or a zero projected class.  Writes are
atomic (temp file and rename) and best-effort.

Keys name the shape or space and the scalar mode, and headers the format,
but nothing names an engine version: a change that alters a cached number
or byte must bump ``FORMAT`` or ``PROJECTED_FORMAT``, or old files feed old
numbers in.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import tempfile
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path

from qkcomin.laurent import ExponentRangeError, pack_monomials, packed_element, unpack_key

FORMAT = "qk-restrict/2"
PROJECTED_FORMAT = "qk-projected/2"
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


_dumps = json.JSONEncoder(separators=(",", ":")).encode


def _load_doc(path: Path, fmt: str, key: str, field: str) -> list | None:
    """``[monomials, scalars, body]`` of the document at ``path``, its body
    the list ``field``, or None if the file is missing, does not parse,
    nests too deep, or has the wrong format, key or checksum."""
    try:
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            body = fh.read()
        if not isinstance(header, dict):  # valid JSON, but not a cache document
            return None
        if header.get("format") != fmt or header.get("key") != key:
            return None
        if header.get("sha256") != hashlib.sha256(body).hexdigest():
            return None
        doc = json.loads(body)
    except (OSError, ValueError, RecursionError):
        return None
    if not isinstance(doc, dict):
        return None
    payload = [doc.get("monomials"), doc.get("scalars"), doc.get(field)]
    if not all(type(part) is list for part in payload):
        return None
    return payload


def _store_doc(prefix: str, fmt: str, key: str, field: str, payload: list) -> None:
    """Write ``[monomials, scalars, body]`` atomically, the body as
    ``field``, in the bytes of ``json.dumps`` with compact separators but
    an item at a time: nothing holds the file, whose header's checksum is
    filled in last.  An OSError leaves no file behind."""
    path = _path(prefix, key)
    header = _dumps({"format": fmt, "key": key, "sha256": "0" * 64}).encode()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=prefix, suffix=".tmp")
    except OSError:
        return  # caching is best-effort
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header + b"\n")
            digest = hashlib.sha256()
            openers = ('{"monomials":[', '],"scalars":[', f'],"{field}":[', "]}")
            for opener, items in zip(openers, (*payload, ())):
                texts = map(_dumps, items)
                for text in chain((opener + next(texts, ""),), map(",".__add__, texts)):
                    data = text.encode()
                    digest.update(data)
                    fh.write(data)
            fh.seek(header.rindex(b"0" * 64))
            fh.write(digest.hexdigest().encode())
        os.replace(tmp, path)
    except BaseException as exc:
        # never leave the partial temp file behind; only OSError is absorbed
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if not isinstance(exc, OSError):
            raise


def load_rows(key: str) -> list | None:
    """The cached ``[monomials, scalars, rows]`` of a table, or None on a
    miss or corruption; :func:`load_table` checks that they fit."""
    return _load_doc(_path_for(key), FORMAT, key, "rows")


def store_rows(key: str, payload: list) -> None:
    _store_doc("restrict_", FORMAT, key, "rows", payload)


def load_table(key: str, npoints: int, nvars: int) -> list | None:
    """The cached restriction table, a tuple of elements per row, or None
    on a miss, corruption or a misfit: not ``npoints`` rows of ``npoints``
    indices of scalars in ``nvars`` variables.  Reads through
    :func:`load_rows`."""
    payload = load_rows(key)
    if payload is None:
        return None
    monomials, scalars, rows = payload
    elements = _decode(monomials, scalars, nvars)
    if elements is None or len(rows) != npoints:
        return None
    if not _int_lists(rows) or set(map(len, rows)) != {npoints}:
        return None
    try:
        return [tuple(map(elements.__getitem__, row)) for row in rows]
    except KeyError:  # an index of no scalar
        return None


def store_table(key: str, rows: list) -> None:
    """Write a restriction table through :func:`store_rows`."""
    monomials, scalars, index = _encode(v for row in rows for v in row)
    store_rows(key, [monomials, scalars, ([index[id(v)] for v in row] for row in rows)])


# the monomial indices and the coefficients of a flat term list
_EVEN, _ODD = itemgetter(slice(0, None, 2)), itemgetter(slice(1, None, 2))


def _int_lists(lists: list) -> bool:
    """True if every item of ``lists`` is a list of ints (no bool)."""
    return set(map(type, lists)) <= {list} and set(map(type, chain.from_iterable(lists))) <= {int}


def _decode(monomials: list, scalars: list, nvars: int) -> dict | None:
    """The element of each scalar of a document in ``nvars`` variables, by
    index, or None if one does not fit: a monomial that is not an exponent
    vector of ``nvars`` ints within range, or a scalar that is not a flat
    list of ints of even length, names no monomial, repeats one, or has a
    zero coefficient.

    Each monomial is packed once, and the scalars are built and checked by
    C-level dict, zip and map calls, each with the exact bound of its
    exponents.  Equal scalars are listed once, so they load as one shared
    element, which is safe because cached tables and classes are never
    mutated (``KModel.expand_values`` copies what it updates)."""
    if not (_int_lists(monomials) and _int_lists(scalars)):
        return None
    try:
        keys, bounds = pack_monomials(monomials, nvars)
    except (ValueError, ExponentRangeError):
        return None
    at = list(map(_EVEN, scalars))  # the monomial indices of each scalar
    coeffs = list(map(_ODD, scalars))
    sizes = list(map(len, coeffs))
    if list(map(len, at)) != sizes or 0 in chain.from_iterable(coeffs):
        return None
    indices = set(chain.from_iterable(at))
    if indices and not 0 <= min(indices) <= max(indices) < len(keys):
        return None
    terms = list(map(dict, map(zip, map(map, repeat(keys.__getitem__), at), coeffs)))
    if list(map(len, terms)) != sizes:  # a repeated monomial
        return None
    bound = bounds.__getitem__
    return {
        i: packed_element(nvars, t, max(map(bound, a), default=0))
        for i, (t, a) in enumerate(zip(terms, at))
    }


def _encode(values) -> tuple:
    """``(monomials, scalars, index)`` for the coefficient objects of
    ``values``: lazy iterators over the items of the lists :func:`_decode`
    reads, and the index of the scalar of each object by id, so the objects
    must outlive it.  Equal values share one scalar, found by the element
    itself.  Scalars are listed in order of first appearance, monomials and
    the terms of a scalar in key order, so equal values give equal bytes."""
    index: dict = {}  # id of an object -> index of its scalar
    found: dict = {}  # a distinct element -> the index of its scalar
    for v in values:
        if id(v) not in index:
            index[id(v)] = found.setdefault(v, len(found))
    nvars = next(iter(found)).nvars if found else 0
    keys = sorted({k for v in found for k in v.terms})
    at = dict(zip(keys, range(len(keys))))
    scalars = ([x for k, c in sorted(v.terms.items()) for x in (at[k], c)] for v in found)
    return map(unpack_key, keys, repeat(nvars)), scalars, index


def load_classes(key: str, ys: dict, npoints: int, nvars: int) -> dict | None:
    """The cached projected classes, ``{(Y_d shape, a, b): {w: c}}``, or
    None on a miss, corruption or a misfit.

    ``ys`` maps the dims of each Y_d of the space to its shape and number
    of points, ``npoints`` is the number of points of X and ``nvars`` the
    number of variables of the scalars.  A misfit is an entry whose dims
    are not in ``ys``, with a > b, an index outside Y_d or X, a repeated
    key or index, a term list that is empty (a zero class: every
    projected class has Euler characteristic 1) or of odd length, a
    scalar that does not decode or is zero, or a negative exponent in z
    mode (``nvars`` 1: ``KModel.expand_product`` unpacks at origin 0).
    """
    payload = _load_doc(_path("projected_", key), PROJECTED_FORMAT, key, "classes")
    if payload is None:
        return None
    monomials, scalars, entries = payload
    elements = _decode(monomials, scalars, nvars)
    if elements is None or [] in scalars or (nvars == 1 and min(monomials, default=[0]) < [0]):
        return None
    classes: dict = {}
    for entry in entries:
        if type(entry) is not list or len(entry) != 4:
            return None
        dims, a, b, terms = entry
        if type(dims) is not list or not all(type(x) is int for x in dims):
            return None
        hit = ys.get(tuple(dims))
        if hit is None or type(a) is not int or type(b) is not int:
            return None
        if not _int_lists([terms]) or not terms or len(terms) % 2:
            return None
        y, ny = hit
        if not 0 <= a <= b < ny or (y, a, b) in classes:
            return None
        ws = terms[::2]
        try:
            exp = classes[y, a, b] = dict(zip(ws, map(elements.__getitem__, terms[1::2])))
        except KeyError:  # an index of no scalar
            return None
        if len(exp) != len(ws) or not all(0 <= w < npoints for w in ws):
            return None
    return classes


def store_classes(key: str, classes: dict) -> None:
    """Write the projected classes of :func:`load_classes`.  Entries are
    sorted by (dims, a, b) and terms by index, so equal memos give equal
    bytes."""
    order = sorted(classes, key=lambda k: (k[0].dims, *k[1:]))
    monomials, scalars, index = _encode(c for k in order for _w, c in sorted(classes[k].items()))
    entries = (
        [y.dims, a, b, [x for w, c in sorted(classes[y, a, b].items()) for x in (w, index[id(c)])]]
        for y, a, b in order
    )
    _store_doc("projected_", PROJECTED_FORMAT, key, "classes", [monomials, scalars, entries])


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
