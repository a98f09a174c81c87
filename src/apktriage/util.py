"""Small shared helpers."""

import json
from contextlib import contextmanager
from decimal import ROUND_HALF_UP, Decimal
from functools import cache
from importlib import resources

_scan = json.JSONDecoder().scan_once  # what json.loads runs, minus its checks


def read_data_text(path, name: str) -> str:
    """Text of the file at ``path``, or of the packaged data file
    ``apktriage.data/<name>`` when ``path`` is None."""
    if path is None:
        return resources.files("apktriage.data").joinpath(name).read_text(encoding="utf-8")
    with open(path, encoding="utf-8") as f:
        return f.read()


def list_file_entries(lines) -> list[str]:
    """The entries of a list file's ``lines``: each line up to its first
    ``#``, stripped, and kept when anything is left."""
    return [entry for line in lines if (entry := line.split("#", 1)[0].strip())]


def read_json(path, parse):
    """``parse`` of the JSON document in the file at ``path``. ``parse``
    checks its shape and raises ``ValueError`` for any other; that, a file
    that is not JSON, or one nested too deep for ``json`` is a
    ``ValueError`` naming the file."""
    with open(path, encoding="utf-8") as f:
        try:
            return parse(json.load(f))
        except (ValueError, RecursionError) as e:  # json recurses on nesting
            raise ValueError(f"{path}: {e}") from None


@contextmanager
def gc_paused():
    """Run the body with the cyclic garbage collector off, and leave it as
    it was on every exit. For code that builds many acyclic objects, whose
    memory reference counting frees: the collector would only traverse
    them. Nested use is safe."""
    import gc  # not at module level: scan, which never pauses, imports this module

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def json_lines(path, lines, parse) -> list:
    """``parse`` of each decoded non-blank line of ``lines``, the lines of
    the file at ``path``. ``parse`` checks the shape of its object and
    raises ``ValueError`` for any other; that, a line that is not JSON, or
    one nested too deep for ``json`` is a ``ValueError`` naming the file
    and the line number.

    Each stripped line is decoded by one call of ``json``'s C scanner, and
    taken when the value ends the line. Any other line goes to
    ``json.loads``, which decides it and words its error: a stripped line
    has no JSON whitespace at either end, so the scanner takes exactly the
    lines that ``json.loads`` takes, with the same objects."""
    out = []
    with gc_paused():
        for n, line in enumerate(lines, 1):
            line = line.strip()
            if line:
                try:
                    try:
                        obj, end = _scan(line, 0)
                    except StopIteration:  # no value starts the line
                        end = -1
                    if end != len(line):
                        obj = json.loads(line)
                    out.append(parse(obj))
                except (ValueError, RecursionError) as e:  # json recurses on nesting
                    raise ValueError(f"{path}, line {n}: {e}") from None
    return out


def read_json_lines(path, parse) -> list:
    """``json_lines`` over the JSON-lines file at ``path``."""
    with open(path, encoding="utf-8") as f:
        return json_lines(path, f, parse)


def round_half_up(value: float, places: int) -> float:
    """Decimal half-up rounding, matching the precision used in reports."""
    q = Decimal(1).scaleb(-places)
    return float(Decimal(repr(value)).quantize(q, rounding=ROUND_HALF_UP))


@cache  # reports ask for few distinct ratios, many times each
def pct(numerator: int, denominator: int, places: int = 2) -> float:
    if denominator == 0:
        return 0.0
    return round_half_up(100.0 * numerator / denominator, places)
