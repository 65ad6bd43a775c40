"""Which ``leofim`` the test suite imports.

The suite's configuration (``pyproject.toml`` and ``tests/conftest.py``),
copied into a stand-in checkout whose ``src/leofim`` is a marker package, runs
a probe test under ``python -m pytest``: a ``PYTHONPATH`` naming another
tree's ``leofim`` must win over the checkout's, and without one the
checkout's must still be found.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PROBE = """\
import os

import leofim


def test_probe():
    assert leofim.TREE == os.environ["EXPECTED_TREE"]
"""


def _package(src: Path, tree: str) -> None:
    (src / "leofim").mkdir(parents=True)
    (src / "leofim" / "__init__.py").write_text(f"TREE = {tree!r}\n")


@pytest.mark.parametrize("other", [True, False], ids=["pythonpath_wins", "bare_run"])
def test_pythonpath_chooses_the_imported_leofim(tmp_path, other):
    checkout = tmp_path / "checkout"
    (checkout / "tests").mkdir(parents=True)
    shutil.copy(ROOT / "pyproject.toml", checkout)
    shutil.copy(ROOT / "tests" / "conftest.py", checkout / "tests")
    (checkout / "tests" / "test_probe.py").write_text(PROBE)
    _package(checkout / "src", "checkout")
    _package(tmp_path / "other", "other")

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["EXPECTED_TREE"] = "checkout"
    if other:
        env["PYTHONPATH"] = str(tmp_path / "other")
        env["EXPECTED_TREE"] = "other"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_probe.py"],
        cwd=checkout, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
