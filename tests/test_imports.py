"""Every module of the package and its tests imports only what the project declares."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = sorted((ROOT / "tests").rglob("*.py"))
MODULES = sorted((ROOT / "src").rglob("*.py")) + TESTS
# the runtime dependencies (numpy, pyyaml), the test extra (pytest), the package itself and
# the test modules; mpmath, hypothesis or scipy may be installed, but no module may need them
DECLARED = {"numpy", "yaml", "pytest", "weakpol", *(path.stem for path in TESTS)}


def test_modules_import_only_the_standard_library_and_declared_dependencies():
    assert len(MODULES) > 10
    undeclared = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:  # relative: the package
                names = [node.module]
            else:
                continue
            undeclared += [f"{path.relative_to(ROOT)}: {name}" for name in names
                           if name.partition(".")[0] not in sys.stdlib_module_names | DECLARED]
    assert not undeclared, undeclared
