"""Deterministic report emission: RFC-4180 CSV plus a mirrored JSON file.

The writer knows only the format. Each verb builds its own table (a
header, sorted rows and a JSON mirror) and hands it over; identical
tables always produce byte-identical files, since JSON is serialized
with sorted keys and a fixed layout: ``json.dumps(obj, indent=2,
sort_keys=True)``, written here without ``json``'s pure-Python encoder,
which ``json.dumps`` runs whenever ``indent`` is set.
"""

from __future__ import annotations

import csv
import io
import json
import os
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii as _quote


class IoFailure(OSError):
    """Report files could not be written."""


@contextmanager
def open_output(path: str):
    """The output file at ``path``, open for writing text, in a directory
    made as needed. An ``OSError`` from the open or from a write in the
    body is an ``IoFailure`` naming the path."""
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as f:
            yield f
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _write(path: str, data: str) -> None:
    with open_output(path) as f:
        f.write(data)


def _csv_string(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's spellings


def _float(x: float) -> str:
    r = float.__repr__(x)
    return _NONFINITE.get(r, r)


# the leaves, by exact type: a subclass may format itself otherwise
_LEAVES = {str: _quote, int: int.__repr__, float: _float, type(None): lambda _: "null",
           bool: {True: "true", False: "false"}.__getitem__}


def _indented(obj, pad: str) -> str:
    """``obj`` as ``json.dumps(indent=2, sort_keys=True)`` writes it at
    ``pad``; ``TypeError`` for anything but str-keyed dicts, lists,
    tuples and exact leaf types."""
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    inner = pad + "  "
    if type(obj) is dict:
        if not obj:
            return "{}"
        parts = []
        for k in sorted(obj):
            if type(k) is not str:
                raise TypeError("not a str key")
            parts.append(f"{_quote(k)}: {_indented(obj[k], inner)}")
        opening, closing = "{", "}"
    elif type(obj) is list or type(obj) is tuple:
        if not obj:
            return "[]"
        parts = [_indented(v, inner) for v in obj]
        opening, closing = "[", "]"
    else:
        raise TypeError("not a JSON container or leaf")
    newline = "\n" + inner
    return opening + newline + ("," + newline).join(parts) + "\n" + pad + closing


def _json_string(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``. What the
    direct writer does not cover (subclasses, other keys, cycles, nesting
    deep enough to recurse out) goes to ``json.dumps``, which writes it or
    raises its own error."""
    try:
        return _indented(obj, "") + "\n"
    except (TypeError, RecursionError):
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def emit_report(out_base: str, header, rows, mirror) -> tuple[str, str]:
    """Write <out_base>.csv (header and rows) and <out_base>.json (mirror);
    returns both paths."""
    csv_path, json_path = out_base + ".csv", out_base + ".json"
    _write(csv_path, _csv_string(header, rows))
    _write(json_path, _json_string(mirror))
    return csv_path, json_path
