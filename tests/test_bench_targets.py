"""The benchmark's trace targets still name functions of the package.

A traced benchmark run (``triagebench/run.py --trace 1``) patches every
``(module, attribute)`` in ``triagebench/measure.py``'s ``TARGETS``; a
renamed or deleted function would first show there. This test only
reads ``TARGETS`` and resolves each entry the way the tracer does: a
plain name on its module, ``Class.method`` through the class.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "triagebench"


def _targets():
    sys.path.insert(0, str(BENCH))  # measure.py imports its sibling modules
    try:
        spec = importlib.util.spec_from_file_location("triagebench_measure",
                                                      BENCH / "measure.py")
        measure = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(measure)
    finally:
        sys.path.remove(str(BENCH))
    return [(module, attr) for module, attr, _span, _hook in measure.TARGETS]


TARGETS = _targets()


@pytest.mark.parametrize("module,attr", TARGETS, ids=[f"{m}:{a}" for m, a in TARGETS])
def test_target_resolves(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(owner, cls_name))[meth])
    else:
        assert callable(getattr(owner, attr))
