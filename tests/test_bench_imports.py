"""The names the benchmark imports from leofim.

``benches/worker.py`` imports ``benches/tracing.py`` and
``benches/workloads.py`` at module level, and those import leofim's public
names.  A name the library drops would fail every bench run at import, so the
bench modules are loaded here by file path, as the worker loads them.
"""

import importlib.util
from pathlib import Path

import pytest

import leofim

BENCHES = Path(__file__).resolve().parents[1] / "benches"


@pytest.mark.parametrize("name", ["tracing", "workloads"])
def test_bench_modules_import(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCHES / f"{name}.py")
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


def test_public_names_are_unique_and_resolve():
    from leofim import efim_lemma_route  # noqa: F401  (benches/worker.py's own import)

    assert len(leofim.__all__) == len(set(leofim.__all__))
    assert [name for name in leofim.__all__ if not hasattr(leofim, name)] == []
