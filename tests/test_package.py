"""The package's public names."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import treefem

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

MODULES = ["treefem"] + [f"treefem.{info.name}"
                         for info in pkgutil.iter_modules(treefem.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_benchmark_probes_reach_every_entry_point(monkeypatch):
    # the benchmark traces treefem by replacing names it looks up; a
    # refactor that drops or renames one leaves its stage untimed
    monkeypatch.syspath_prepend(str(PERFBENCH))
    probes = importlib.import_module("probes")
    patches = probes.Patches()
    tracer = probes.Tracer("guard")
    try:
        tracer.install(patches)
        probes.SolverProbe().install(patches)
    finally:
        patches.restore()
    assert tracer.missing == []
