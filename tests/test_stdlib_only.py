"""The package promises the standard library only.

numpy and other third-party packages may be installed where the tests run, so
a stray import would pass every other test; this one reads the imports off
the source instead of importing it.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "neurovar"


def test_package_imports_only_neurovar_and_stdlib():
    files = sorted(SRC.glob("*.py"))
    assert files
    foreign = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "neurovar" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}:{node.lineno}: {module}")
    assert not foreign, foreign
