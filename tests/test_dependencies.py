import ast
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
