"""The package imports on the oldest Python that pyproject.toml accepts (3.10)."""

import os
import shutil
import subprocess
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
# Every module; the package has no runtime dependency another interpreter may lack.
MODULES = ["datareel"] + sorted(
    f"datareel.{path.stem}" for path in (SRC / "datareel").glob("*.py")
    if path.stem != "__init__")


def _interpreter(version: str) -> str | None:
    """The path of a `python<version>` that starts and is that version."""
    exe = shutil.which(f"python{version}")
    if exe is None:
        return None
    try:
        result = subprocess.run(
            [exe, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
            capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return exe if result.returncode == 0 and result.stdout.strip() == version else None


def test_every_module_imports_on_python_3_10():
    exe = _interpreter("3.10")
    if exe is None:
        pytest.skip("no python3.10 interpreter starts here")
    result = subprocess.run(
        [exe, "-c", "import importlib, sys\nfor name in sys.argv[1:]: importlib.import_module(name)",
         *MODULES],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
