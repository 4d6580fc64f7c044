"""The package runs on the standard library and NumPy alone: no module under
``src/wavepool`` imports anything else (SciPy and threadpoolctl included),
even lazily inside a function."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wavepool"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "wavepool"}


def imported(path: Path) -> set[str]:
    """The top-level name of every absolute import in the module's source."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_the_package_imports_only_the_standard_library_and_numpy(path):
    assert imported(path) <= ALLOWED, sorted(imported(path) - ALLOWED)


def test_the_import_check_sees_a_foreign_import_inside_a_function(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from . import lanes\nimport os.path\n\n"
                      "def f():\n    from scipy.linalg import eigh\n    import threadpoolctl\n")
    assert imported(module) - ALLOWED == {"scipy", "threadpoolctl"}
