"""The names the benchmark imports from leofim, and the traced pass.

``benches/worker.py`` imports ``benches/tracing.py`` and
``benches/workloads.py`` at module level, and those import leofim's public
names.  A name the library drops would fail every bench run at import, so the
bench modules are loaded here by file path, as the worker loads them.  The
traced pass (``benches/run.py --trace 1``) calls the dense oracle, the
single-link entry points and both EFIM routes, so it is run here too.
"""

import importlib.util
from pathlib import Path

import pytest

import leofim

BENCHES = Path(__file__).resolve().parents[1] / "benches"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCHES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["tracing", "workloads"])
def test_bench_modules_import(name):
    _load(name)


def test_traced_pass_runs_clean(tmp_path):
    """The traced pass over a default scenario and a receiver-only one with
    two satellites: no problem and no error in any layer, the Schur and
    lemma routes within 1e-12, and 6 physical links per EFIM on average
    (1 + 3 + 3 with station observations, 2 + 3 without)."""
    tracing = _load("tracing")
    trials = [
        (leofim.ScenarioConfig(), 42),
        (leofim.ScenarioConfig(n_leo=2, case=leofim.Case.RECEIVER_ONLY), 7),
    ]
    config = BENCHES / "configs" / "counts_grid.json"
    result = tracing.traced_pass(trials, config, tmp_path / "trace.csv")
    assert result["problems"] == []
    assert result["errors"] == {layer: 0 for layer in tracing.LAYERS}
    assert result["route_gap"] < 1e-12
    assert result["links"] == 6.0


def test_public_names_are_unique_and_resolve():
    from leofim import efim_lemma_route  # noqa: F401  (benches/worker.py's own import)

    assert len(leofim.__all__) == len(set(leofim.__all__))
    assert [name for name in leofim.__all__ if not hasattr(leofim, name)] == []
