import ast
import os
import subprocess
import sys
from pathlib import Path

import y00sim

ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_package_imports_only_numpy_beyond_the_standard_library():
    outside = []
    for path in sorted(Path(y00sim.__file__).parent.glob("*.py")):
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


def test_importing_the_cli_builds_no_parser_and_no_tables():
    # the benchmark's setup_s times this import: the argument parser and the
    # LFSR tables are built on first use, and hashlib is loaded by the
    # counter_hash keystream alone, not here
    code = ("import sys, y00sim.cli; from y00sim import kernels; "
            "print(y00sim.cli._build_parser.cache_info().currsize, "
            "kernels._lfsr_tables.cache_info().currsize, 'hashlib' in sys.modules)")
    src = str(Path(y00sim.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=60)
    assert done.stdout.split() == ["0", "0", "False"]
