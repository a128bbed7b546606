import importlib.util
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")


def test_declared_dependencies_are_importable():
    # the declared install must resolve from what the package really imports
    meta = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    for dep in meta["project"]["dependencies"]:
        name = re.match(r"[A-Za-z0-9_.-]+", dep).group(0)
        assert importlib.util.find_spec(name.replace("-", "_")) is not None, dep
