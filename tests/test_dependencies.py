import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import y00sim

PACKAGE = Path(y00sim.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_package_imports_only_numpy_beyond_the_standard_library():
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in ALLOWED]
    assert outside == []


def _run_fresh(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter that imports y00sim from here."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                       os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=60)
    return done.stdout


def test_importing_the_cli_builds_no_parser_and_no_tables():
    # the benchmark's setup_s times this import: the argument parser and the
    # LFSR tables are built on first use, and hashlib is loaded by the
    # counter_hash keystream alone, not here
    code = ("import sys, y00sim.cli; from y00sim import kernels; "
            "print(y00sim.cli._build_parser.cache_info().currsize, "
            "kernels._lfsr_tables.cache_info().currsize, 'hashlib' in sys.modules)")
    assert _run_fresh(code).split() == ["0", "0", "False"]


def _package_imports(module: str) -> set[str]:
    """The y00sim modules that ``module``'s own source imports."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return {node.module or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def _imported_closure(module: str) -> set[str]:
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += _package_imports(name)
    return seen


LOADED = ("import sys; print(*sorted(name for name in sys.modules "
          "if name.partition('.')[0] == 'y00sim'))")


@pytest.mark.parametrize("module", MODULES)
def test_a_module_loads_only_the_package_modules_it_imports(module):
    loaded = _run_fresh(f"import y00sim.{module}; {LOADED}").split()
    assert loaded == sorted({"y00sim"} | {f"y00sim.{name}" for name in _imported_closure(module)})


def test_the_kernels_and_the_coherent_algebra_stand_almost_alone():
    assert _imported_closure("kernels") == {"kernels"}
    assert _imported_closure("coherent_algebra") == {"coherent_algebra", "errors"}


def test_the_package_root_holds_only_its_version():
    # each public name has one import path, its own module's
    code = f"import y00sim; {LOADED}; print(*sorted(vars(y00sim)))"
    loaded, names = _run_fresh(code).splitlines()
    assert loaded.split() == ["y00sim"]
    assert [name for name in names.split() if not name.startswith("__")] == []
    assert "__version__" in names.split()
