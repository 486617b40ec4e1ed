import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def cli_env():
    """Environment for a ``python -m amvlab.cli`` subprocess.

    The subprocess runs in a temporary directory, where a relative
    ``PYTHONPATH=src`` no longer resolves, so the package source goes first
    on ``PYTHONPATH`` by absolute path.
    """
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
