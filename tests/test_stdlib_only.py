"""The package promises the standard library only, and a quick start.

numpy and other third-party packages may be installed where the tests run, so
a stray import would pass every other test; this one reads the imports off
the source instead of importing it.  Every `neurovar` process pays for what
importing the command line loads, so the tests below pin what it leaves out.
"""

import ast
import os
import subprocess
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


def test_cli_import_loads_no_dataclasses_or_csv():
    # `dataclasses` generates and compiles methods at import; `csv` serves
    # only `scan --csv`.  -S keeps site hooks from importing either first.
    code = ("import sys, neurovar.cli; "
            "print(sorted({'dataclasses', 'csv'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "[]\n", proc.stdout + proc.stderr


def test_record_annotations_are_not_compiled_at_import():
    # Under PEP 563 every `NamedTuple` field annotation is a string that
    # `typing` turns into a `ForwardRef` and compiles at import.
    code = ("import typing\n"
            "count = 0\n"
            "init = typing.ForwardRef.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    global count\n"
            "    count += 1\n"
            "    init(self, *args, **kwargs)\n"
            "typing.ForwardRef.__init__ = counting\n"
            "import neurovar.cli, neurovar.scan, neurovar.veronese\n"
            "print(count)")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "0\n", proc.stdout + proc.stderr
