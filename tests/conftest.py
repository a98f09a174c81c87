import multiprocessing
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a multiprocessing child running, and end it."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join(10)
    if left:
        pytest.fail(f"child processes left running: {left}")
