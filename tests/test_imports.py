"""The CLI's import path loads no module beyond genus3 and the stdlib modules
it names.  Every CLI call pays for what ``import genus3.tablecli`` loads, and
a 10-20% import regression is too small to see in wall-clock timings; a new
stdlib import in genus3 has to be declared here instead."""

import ast
import os
import subprocess
import sys
from pathlib import Path

from genus3 import tablecli

# the modules genus3's modules import at top level (submodules named in full)
STDLIB_IMPORTS = (
    "__future__",
    "argparse",
    "csv",
    "dataclasses",
    "functools",
    "importlib.resources",
    "io",
    "itertools",
    "json",
    "operator",
    "sys",
    "typing",
)

LOADED = "import sys\n{imports}\nprint(*sorted(sys.modules))"

PACKAGE = Path(tablecli.__file__).resolve().parent


def top_level_imports():
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module)
    return names


def modules_after(imports):
    result = subprocess.run(
        [sys.executable, "-c", LOADED.format(imports=imports)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_declared_imports_are_the_ones_genus3_names():
    assert {name.partition(".")[0] for name in STDLIB_IMPORTS} == top_level_imports()


def test_cli_import_adds_only_genus3_modules():
    stdlib = modules_after("\n".join(f"import {name}" for name in STDLIB_IMPORTS))
    cli = modules_after("import genus3.tablecli")
    extra = sorted(name for name in cli - stdlib if name.partition(".")[0] != "genus3")
    assert extra == []
