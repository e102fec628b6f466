"""The package's advertised surface: documented modules, ``__all__`` and
console scripts all resolve to code that exists."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import xbarprune

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE_DIR = Path(xbarprune.__file__).parent


def documented_modules():
    lines = xbarprune.__doc__.split("Modules\n-------\n", 1)[1].splitlines()
    names = []
    for line in lines:
        if not line.strip():
            break
        names.append(line.split()[0])
    return names


def test_docstring_lists_every_module():
    on_disk = {p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__"}
    assert set(documented_modules()) == on_disk


def package_imports(module):
    """The package modules that `module` imports, relatively or by name."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE_DIR / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["xbarprune" if node.level else None, node.module]))
            names = ([f"{base}.{alias.name}" for alias in node.names]
                     if base == "xbarprune" else [base])
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith("xbarprune."))
    return found


def test_module_layering():
    # the scalar rules are a leaf, circuit depends on them alone, and the
    # tile mapping does not reach into the network code
    assert package_imports("_checks") == set()
    assert package_imports("circuit") == {"_checks"}
    assert {"_checks", "circuit", "pruning"} <= package_imports("mapping")
    assert "nn" not in package_imports("mapping")


@pytest.mark.parametrize("name", documented_modules())
def test_documented_module_imports(name):
    importlib.import_module(f"xbarprune.{name}")


def test_all_names_resolve():
    for name in xbarprune.__all__:
        assert hasattr(xbarprune, name), name


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for script, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), script


def test_benchmark_hooks_resolve():
    # perfbench wraps these callables by name; its own tests are not in the
    # default test run, so a rename would otherwise break the benchmark
    # without a failing test
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    tracing = importlib.import_module("perfbench.tracing")
    for owner, attr, name, _ in tracing.TARGETS:
        assert callable(getattr(owner, attr, None)), (name, attr)


def test_benchmark_calls_resolve():
    # every circuit.X, mapping.X, nn.X and pruning.X that the benchmark's
    # workloads, checks and harness name must exist, so that deleting one
    # fails here and not only in the benchmark run
    modules = {name: importlib.import_module(f"xbarprune.{name}")
               for name in ("circuit", "mapping", "nn", "pruning")}
    used = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                used.add((node.value.id, node.attr))
    assert ("mapping", "layer_nf") in used and ("circuit", "default_params") in used
    missing = sorted(f"{owner}.{attr}" for owner, attr in used
                     if not hasattr(modules[owner], attr))
    assert not missing
