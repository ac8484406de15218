"""The package's public surface and the names the benchmark's tracer wraps."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import fuzzyvault
from fuzzyvault.store import FileVaultStore, MemoryVaultStore


def test_every_exported_name_resolves():
    assert [name for name in fuzzyvault.__all__ if not hasattr(fuzzyvault, name)] == []


def test_import_does_not_load_requests():
    # the client speaks http.client; requests is only a test and benchmark dependency
    src = str(Path(fuzzyvault.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, fuzzyvault, fuzzyvault.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'requests'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_benchmark_wrap_points_resolve(monkeypatch):
    # vaultbench/tracer.py wraps these by name and counts a missing one as an
    # absent layer, so a rename would otherwise pass unnoticed
    path = Path(__file__).resolve().parent.parent / "vaultbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("vaultbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look their module up
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{attr}" for layer in tracer.LAYERS for module, attr in layer.targets
               if not hasattr(importlib.import_module(module), attr)]
    missing += [f"{store.__name__}.{attr}" for store in (FileVaultStore, MemoryVaultStore)
                for layer in tracer.STORE_LAYERS for _, attr in layer.targets
                if not callable(getattr(store, attr, None))]
    assert missing == []
