"""Every ``repro`` import of the harnesses resolves.

The benchmarks, scripts, examples and perfbench run outside the tier-1
suite, so a name deleted from ``src/`` could break one of them unseen.
This test parses each of their files with :mod:`ast`, without running
it, and resolves every ``import repro…`` and ``from repro… import name``
it finds by import plus ``getattr``.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HARNESS_DIRS = ("benchmarks", "scripts", "examples", "perfbench")


def _harness_files():
    return sorted(
        path
        for directory in HARNESS_DIRS
        for path in (ROOT / directory).rglob("*.py")
    )


def _is_repro(module):
    return module == "repro" or module.startswith("repro.")


def _repro_imports(tree):
    """``(line, module, name)`` per repro import; *name* is None for a
    plain ``import repro.x``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_repro(alias.name):
                    yield node.lineno, alias.name, None
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and _is_repro(node.module):
                for alias in node.names:
                    if alias.name != "*":
                        yield node.lineno, node.module, alias.name


def _resolves(module_name, name):
    module = importlib.import_module(module_name)
    if name is None or hasattr(module, name):
        return True
    try:  # ``from repro.pkg import submodule``
        importlib.import_module(f"{module_name}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_the_harnesses_are_scanned():
    files = _harness_files()
    assert {path.relative_to(ROOT).parts[0] for path in files} == set(HARNESS_DIRS)
    assert any(
        next(_repro_imports(ast.parse(path.read_text())), None) for path in files
    )


@pytest.mark.parametrize(
    "path", _harness_files(), ids=lambda path: str(path.relative_to(ROOT))
)
def test_repro_imports_resolve(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    missing = [
        f"line {line}: {module}" + ("" if name is None else f".{name}")
        for line, module, name in _repro_imports(tree)
        if not _resolves(module, name)
    ]
    assert not missing, missing
