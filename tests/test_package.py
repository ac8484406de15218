"""The package's public surface and the names the benchmark imports and wraps."""

import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import fuzzyvault
from fuzzyvault.store import FileVaultStore, MemoryVaultStore

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "vaultbench"


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
    path = BENCH_DIR / "tracer.py"
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


def _attribute(module: str, name: str):
    """module.name, imported first when it is a submodule; None when it is neither."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        return getattr(importlib.import_module(module), name, None)


def test_benchmark_imports_resolve():
    # tier-1 runs only tests/, so a package name the benchmark imports or
    # reads off a module could otherwise be renamed away unnoticed
    missing = []
    for file in ("workloads.py", "run.py", "test_vaultbench.py"):
        tree = ast.parse((BENCH_DIR / file).read_text())
        modules = {}  # local name -> the package module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "fuzzyvault":
                        # "import a.b" binds a, "import a.b as c" binds a.b
                        bound = alias.name if alias.asname else alias.name.split(".")[0]
                        modules[alias.asname or bound] = importlib.import_module(bound)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fuzzyvault":
                for alias in node.names:
                    value = _attribute(node.module, alias.name)
                    if value is None:
                        missing.append(f"{file}: {node.module}.{alias.name}")
                    elif inspect.ismodule(value):
                        modules[alias.asname or alias.name] = value
        assert modules, f"{file} binds no package module"
        missing += [f"{file}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and not hasattr(modules[node.value.id], node.attr)]
    assert missing == []


def test_readme_python_imports_resolve():
    # the Library example is documentation, so removing a public name it
    # imports would otherwise break it unnoticed
    names, missing = 0, []
    for block in re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fuzzyvault":
                names += len(node.names)
                missing += [f"{node.module}.{alias.name}" for alias in node.names
                            if _attribute(node.module, alias.name) is None]
    assert names > 0 and missing == []
