"""The CLI's import path loads no module beyond genus3 and the stdlib modules
it names.  Every CLI call pays for what ``import genus3.tablecli`` loads, and
a 10-20% import regression is too small to see in wall-clock timings; a new
stdlib import in genus3 has to be declared here instead.

Every public name genus3 defines is also reached: from genus3 itself or from
the acceptance test, so no record or function lives only for its own tests."""

import ast
import os
import subprocess
import sys
from pathlib import Path

from genus3 import tablecli

# the modules genus3's modules import at top level (submodules named in full)
STDLIB_IMPORTS = (
    "__future__",
    "collections",
    "collections.abc",
    "functools",
    "gc",
    "io",
    "itertools",
    "json",
    "operator",
    "os",
    "sys",
    "types",
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


def modules_after(imports, *flags):
    result = subprocess.run(
        [sys.executable, *flags, "-c", LOADED.format(imports=imports)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_declared_imports_are_the_ones_genus3_names():
    assert set(STDLIB_IMPORTS) == top_level_imports()


def test_cli_import_adds_only_genus3_modules():
    stdlib = modules_after("\n".join(f"import {name}" for name in STDLIB_IMPORTS))
    cli = modules_after("import genus3.tablecli")
    extra = sorted(name for name in cli - stdlib if name.partition(".")[0] != "genus3")
    assert extra == []
    # named here as well, so that no transitive import can bring them back:
    # dataclasses pulls in inspect, and inspect pulls in ast, dis and tokenize;
    # argparse pulls in gettext, whose first message pulls in locale, and csv is
    # for --format csv alone
    assert {"dataclasses", "argparse", "csv"} & cli == set()


def test_cli_import_loads_neither_resources_nor_inspect():
    # without site (-S), which on some installs loads importlib.resources and
    # typing for a .pth file: from Python 3.12 on, importlib.resources imports
    # inspect itself, and defining a typing.NamedTuple costs more than a
    # collections.namedtuple subclass, which costs several times what a
    # chowcurve.Record subclass does
    cli = modules_after("import genus3.tablecli", "-S")
    assert {"importlib.resources", "inspect", "typing"} & cli == set()


NO_NAMEDTUPLE = """
import collections

def namedtuple(*args, **kwargs):
    raise AssertionError(f"collections.namedtuple{args!r} on the CLI's import path")

collections.namedtuple = namedtuple
import genus3.tablecli
"""


def test_cli_import_defines_no_namedtuple():
    # collections.namedtuple compiles each record's __new__ with eval and
    # builds a second class under it: on CPython 3.11, a four-field record
    # costs about 94 us that way and 13 us as a chowcurve.Record subclass,
    # and genus3 defines 27.  A few ms is too small to see in wall-clock
    # timings, so a record built on namedtuple again fails here instead.
    result = subprocess.run(
        [sys.executable, "-c", NO_NAMEDTUPLE], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    )
    assert result.returncode == 0, result.stderr


# the benchmark's CLI command lines (perfbench/workloads.py, CLI_COMMANDS)
BENCHMARK_COMMAND_LINES = (
    "invariants --base-genus 0 --rank 4 --c1 6 --b -2",
    "invariants --base-genus 1 --rank 3 --c1 2 --b -1 --veronese",
    "enumerate --d 11",
    "enumerate --d 9 --n-max 10 --format json",
    "enumerate --d 6 --format csv",
    *(f"verify --table {table}" for table in tablecli.TABLE_IDS),
)

RUN_CLI = (
    "import sys\nfrom genus3.tablecli import main\nstatus = main()\n"
    "print(*sorted(sys.modules), file=sys.stderr)\nsys.exit(status)"
)


def test_a_well_formed_command_loads_no_argparse():
    # argparse is for help and usage errors: a command it need not parse loads
    # neither it nor gettext and locale, which its first message pulls in
    for line in BENCHMARK_COMMAND_LINES:
        result = subprocess.run(
            [sys.executable, "-c", RUN_CLI, *line.split()],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        )
        assert result.returncode == 0, result.stderr
        loaded = set(result.stderr.split())
        assert {"argparse", "gettext", "locale"} & loaded == set(), line
        assert ("csv" in loaded) == line.endswith("--format csv"), line


# public names no genus3 code or acceptance test reaches, kept on purpose: the
# ring's exported generators
UNREACHED_ALLOWED = {"H", "F"}


def public_definitions(trees):
    """(name, defining node) for every public top-level name in the trees."""
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            yield from ((name, node) for name in names if not name.startswith("_"))


def referenced_names(tree, skip=None):
    """Names read in ``tree``, bare or as ``x.name``, outside the node ``skip``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def acceptance_names():
    """genus3 names the acceptance test imports or reads as ``module.name``."""
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    imported, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "genus3":
            modules.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("genus3."):
            imported.update(alias.name for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            imported.add(node.attr)
    return imported


def test_every_public_name_is_reached():
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    from_acceptance = acceptance_names()
    unreached = {
        name
        for name, definition in public_definitions(trees)
        if name not in from_acceptance
        and not any(name in referenced_names(tree, skip=definition) for tree in trees)
    }
    assert unreached == UNREACHED_ALLOWED
