"""Small shared helpers."""

from decimal import ROUND_HALF_UP, Decimal
from importlib import resources


def read_data_text(path, name: str) -> str:
    """Text of the file at ``path``, or of the packaged data file
    ``apktriage.data/<name>`` when ``path`` is None."""
    if path is None:
        return resources.files("apktriage.data").joinpath(name).read_text(encoding="utf-8")
    with open(path, encoding="utf-8") as f:
        return f.read()


def round_half_up(value: float, places: int) -> float:
    """Decimal half-up rounding, matching the precision used in reports."""
    q = Decimal(1).scaleb(-places)
    return float(Decimal(repr(value)).quantize(q, rounding=ROUND_HALF_UP))


def pct(numerator: int, denominator: int, places: int = 2) -> float:
    if denominator == 0:
        return 0.0
    return round_half_up(100.0 * numerator / denominator, places)
