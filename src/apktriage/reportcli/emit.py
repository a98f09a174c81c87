"""Deterministic report emission: RFC-4180 CSV plus a mirrored JSON file.

The writer knows only the format. Each verb builds its own table (a
header, sorted rows and a JSON mirror) and hands it over; identical
tables always produce byte-identical files, since JSON is serialized
with sorted keys and a fixed layout.
"""

from __future__ import annotations

import csv
import io
import json
import os


class IoFailure(OSError):
    """Report files could not be written."""


def _write(path: str, data: str) -> None:
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(data)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _csv_string(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def _json_string(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def emit_report(out_base: str, header, rows, mirror) -> tuple[str, str]:
    """Write <out_base>.csv (header and rows) and <out_base>.json (mirror);
    returns both paths."""
    csv_path, json_path = out_base + ".csv", out_base + ".json"
    _write(csv_path, _csv_string(header, rows))
    _write(json_path, _json_string(mirror))
    return csv_path, json_path
