import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import jointwork

tomllib = pytest.importorskip("tomllib")

META = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())


def _importable(dep: str) -> bool:
    name = re.match(r"[A-Za-z0-9_.-]+", dep).group(0)
    return importlib.util.find_spec(name.replace("-", "_")) is not None


def test_declared_dependencies_are_importable():
    # the declared install must resolve from what the package really imports
    for dep in META["project"]["dependencies"]:
        assert _importable(dep), dep


def test_test_extra_is_importable():
    for dep in META["project"]["optional-dependencies"]["test"]:
        assert _importable(dep), dep


def test_cli_import_leaves_scipy_out():
    # numpy is the only runtime dependency; scipy is for the tests alone
    src = str(Path(jointwork.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import jointwork.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
