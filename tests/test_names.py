"""Names that callers outside the package look up by string.

`perfbench/tracing.py` patches evaluator, bump, datum and hull methods by
attribute (`owner.__dict__[attr]`), and no other test imports it: a deleted
or renamed method would otherwise surface only as a KeyError in a traced
benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
MODULES_WITH_ALL = ("dampedwave", "dampedwave.features", "dampedwave.geometry",
                    "dampedwave.initial_data", "dampedwave.oracles",
                    "dampedwave.quadrature", "dampedwave.solution")


def _load_tracing(monkeypatch):
    # Loaded by path, without writing bytecode next to the benchmark.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("dampedwave_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_names_that_exist(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    boundaries = tracing._boundaries()
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in boundaries
               if attr not in owner.__dict__]
    assert not missing
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in boundaries]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert len(tracer._patched) == len(boundaries)
    finally:
        tracer.restore()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, (owner, attr)


@pytest.mark.parametrize("name", MODULES_WITH_ALL)
def test_exported_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), sorted(
        n for n in set(exported) if exported.count(n) > 1)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing
