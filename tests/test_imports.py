"""What the package loads, and when: the lazy public namespace, the modules a
first call imports, and the CLI's eager imports.  Every module of the package
uses each name it imports, and every line fits in 100 columns."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import goldbach_lab

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "goldbach_lab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []


SUBMODULES = ["audit", "census", "cli", "dc", "errors", "primes", "rowrange", "serialize", "sweep"]


def run_python(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    return proc.stdout


def test_cli_import_loads_neither_the_pool_nor_datetime():
    # ...and loads every engine and json up front, so that no command pays
    # for importing one inside its own time
    code = (
        "import sys, goldbach_lab.cli\n"
        "heavy = ('multiprocessing', 'datetime', 'dataclasses', 'inspect')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
        "eager = ('audit', 'census', 'rowrange', 'serialize', 'sweep', 'dc', 'primes')\n"
        "eager = ['json'] + ['goldbach_lab.' + m for m in eager]\n"
        "print(sorted(m for m in eager if m not in sys.modules))\n"
    )
    assert run_python(code) == "[]\n[]\n"


def test_the_setup_path_loads_the_sieve_the_sweep_and_dc_only():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import goldbach_lab\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('goldbach_lab.'))\n"
        "print(loaded())\n"
        "goldbach_lab.verify_block(4, 4)\n"
        "goldbach_lab.dc_min(4)\n"
        "print(loaded())\n"
        "heavy = ('json', 'dataclasses', 'inspect')\n"
        "print(sorted(m for m in heavy if m in set(sys.modules) - before))\n"
    )
    modules = ["_record", "dc", "errors", "primes", "sweep"]
    assert run_python(code).splitlines() == [
        "[]", str([f"goldbach_lab.{m}" for m in modules]), "[]"
    ]


def defining_modules(name: str) -> list[str]:
    """The package modules whose top level defines ``name`` (not imports it)."""
    return [
        path.stem for path in MODULES
        if name in top_level_names(ast.parse(path.read_text(), filename=str(path)))
    ]


class TestLazyNamespace:
    @pytest.mark.parametrize("name", goldbach_lab.__all__)
    def test_each_public_name_is_the_object_of_its_defining_module(self, name):
        [module] = defining_modules(name)
        defined = getattr(importlib.import_module(f"goldbach_lab.{module}"), name)
        assert getattr(goldbach_lab, name) is defined

    @pytest.mark.parametrize("name", SUBMODULES)
    def test_each_submodule_resolves_in_a_fresh_interpreter(self, name):
        code = (
            "import sys, goldbach_lab\n"
            f"module = goldbach_lab.{name}\n"
            f"print(module is sys.modules['goldbach_lab.{name}'])\n"
        )
        assert run_python(code) == "True\n"

    @pytest.mark.parametrize("name", ["no_such_name", "base_primes", "json"])
    def test_an_unknown_name_raises_attribute_error(self, name):
        with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
            getattr(goldbach_lab, name)

    def test_star_import_binds_exactly_all_and_dir_holds_it(self):
        code = (
            "import goldbach_lab\n"
            "print(set(goldbach_lab.__all__) <= set(dir(goldbach_lab)))\n"
            "namespace = {}\n"
            "exec('from goldbach_lab import *', namespace)\n"
            "print(sorted(set(namespace) - {'__builtins__'}) == goldbach_lab.__all__)\n"
        )
        assert run_python(code) == "True\nTrue\n"

    def test_a_record_reached_through_the_lazy_name_pickles_and_copies(self):
        code = (
            "import copy, pickle, goldbach_lab\n"
            "for record in (goldbach_lab.Row(1, 10), goldbach_lab.dc_min(216)):\n"
            "    twins = (pickle.loads(pickle.dumps(record)), copy.copy(record),\n"
            "             copy.deepcopy(record))\n"
            "    print(all(t == record and type(t) is type(record) for t in twins))\n"
        )
        assert run_python(code) == "True\nTrue\n"


def test_only_the_record_base_writes_past_setattr():
    writers = [
        f"{path.name}:{node.lineno}"
        for path in MODULES if path.name != "_record.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"
    ]
    assert writers == []


def test_one_base_prime_table_kept_by_primes_alone():
    # primes._base_table holds the process's one table; no other module
    # builds one, and nothing caches base_primes' tables by argument
    def names(path):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.asname or node.name

    namers = [p.name for p in sorted(PACKAGE.glob("*.py")) if "base_primes" in set(names(p))]
    assert namers == ["primes.py"]
    assert {"lru_cache", "cache"} & set(names(PACKAGE / "primes.py")) == set()


def test_no_module_keys_anything_by_identity():
    # an id() memo holds only while its objects live; the audit's census groups
    # are indexed by value, so nothing in the package reads id
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Name) and node.id == "id"
    ]
    assert readers == []


def test_the_cli_prints_row_lists_from_the_walk_or_row_arithmetic():
    # the CLI's rows come from the census walk or from range(start, end + 1,
    # width), so neither module names a row record or a public row-list builder
    listers = {"Row", "partition_rows", "census_range", "audit_range"}
    named = [
        f"{name}:{node.lineno}"
        for name in ("cli.py", "serialize.py")
        for node in ast.walk(ast.parse((PACKAGE / name).read_text(), filename=name))
        if {getattr(node, "id", None), getattr(node, "attr", None),
            node.name if isinstance(node, ast.alias) else None} & listers
    ]
    assert named == []


def top_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def top_level_private_names(tree: ast.Module):
    return (n for n in top_level_names(tree) if n.startswith("_") and not n.endswith("__"))


def test_every_private_definition_is_used():
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))]
    loaded = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
    defined = {name for tree in trees for name in top_level_private_names(tree)}
    assert defined, "no private definitions found"
    assert sorted(defined - loaded) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_line_fits_in_100_columns(path):
    long_lines = [
        f"{path.name}:{number}: {len(line)} columns"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 100
    ]
    assert long_lines == []
