"""Every function in the package that no CLI command calls is named here,
with the reason it stays. New code that only its own tests reach fails
this check instead of waiting for the next audit."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import y00sim
from y00sim.scenario import default_config

PACKAGE = Path(y00sim.__file__).resolve().parent

# "{cfg}" is the default config, "{out}" a scratch output file
ARGVS = [
    # the README's CLI block
    ["emit-default-config", "--out", "{out}"],
    ["run", "{cfg}", "--out", "{out}"],
    ["run", "{cfg}", "--set", "trials=20000", "--set", "lfsr_poly=80000062", "--out", "{out}"],
    ["sweep", "{cfg}", "--set", "sweep_variable=M", "--set", "sweep_values=2,4,8,16",
     "--out", "{out}"],
    ["attacks", "{cfg}", "--out", "{out}"],
    # the other run paths and the other ladder
    ["run", "{cfg}", "--set", "M=15", "--out", "{out}"],
    ["run", "{cfg}", "--set", "assignment=non_overlap", "--out", "{out}"],
    ["run", "{cfg}", "--set", "keystream=counter_hash", "--out", "{out}"],
    ["run", "{cfg}", "--set", "coding=off", "--out", "{out}"],
    ["attacks", "{cfg}", "--set", "kind=phase_ladder", "--out", "{out}"],
    # both ladders above 128 levels, where the root comes from the Toeplitz halves
    ["run", "{cfg}", "--set", "M=65", "--set", "trials=2000", "--out", "{out}"],
    ["run", "{cfg}", "--set", "M=65", "--set", "assignment=non_overlap", "--set", "trials=2000",
     "--out", "{out}"],
    ["attacks", "{cfg}", "--set", "M=65", "--out", "{out}"],
    ["attacks", "{cfg}", "--set", "M=65", "--set", "kind=phase_ladder", "--out", "{out}"],
    # a config error, then a seed error
    ["run", "{cfg}", "--set", "M=nope", "--out", "{out}"],
    ["run", "{cfg}", "--set", "seed_key=0000", "--out", "{out}"],
]
EXIT_CODES = [0] * 14 + [2, 1]

# library API that no command calls, each with the reason it stays
KEPT = {
    "coherent_algebra.MultiModeState.single": "acceptance criteria 3 and 4",
    "coherent_algebra.quasi_bell_reduced_eigenvalues": "acceptance criterion 7",
    "coherent_algebra.lossy_shared_state": "acceptance criterion 6",
    "detection.srm_error": "acceptance criteria 1 and 4",
    "detection.helstrom_mixed_pair": "acceptance criteria 1, 3 and 5",
    "detection.DiscriminationProblem.__post_init__": "acceptance criteria 1, 3 and 5",
    "detection.DiscriminationProblem.two_mixtures": "acceptance criteria 1, 3 and 5",
    # helstrom_mixed_pair and srm_error return it
    "detection.DetectionReport.__post_init__": "acceptance criteria 1, 3, 4 and 5",
    # DiscriminationProblem, helstrom_mixed_pair and srm_error read it
    "coherent_algebra.StateEnsemble.__len__": "acceptance criteria 1, 3, 4 and 5",
    "y00_cipher.eve_bit_mixtures": "acceptance criteria 1 and 5",
    "fiber_link.ber_on_off": "acceptance criterion 9",
    "fiber_link.bob_practical_vs_optimal": "acceptance criterion 9",
    "scenario.ScenarioConfig.link_params": "acceptance criterion 9",
    "kernels.backend_name": "the benchmark harness reports it",
    "y00_cipher.bob_decode": "Bob's keyed decision in the documented session",
    "y00_cipher.key_expansion_session": "the documented key-expansion session",
    "y00_cipher.SessionResult.mismatch_count": "the documented key-expansion session",
}

# Trace calls from before the package is imported, so module-level calls
# count; only call events are traced, never lines. A function is known by
# its module and first line, the line of its first decorator if it has one.
TRACER = """
import json, sys
from pathlib import Path
argvs = json.loads(sys.argv[1])
called = set()
def trace(frame, event, arg):
    code = frame.f_code
    if "y00sim" in code.co_filename:
        called.add((code.co_filename, code.co_firstlineno))
sys.settrace(trace)
import y00sim.cli
codes = [y00sim.cli.main(argv) for argv in argvs]
sys.settrace(None)
package = Path(y00sim.__file__).resolve().parent
called = [[Path(f).stem, line] for f, line in called if Path(f).resolve().parent == package]
print(json.dumps({"codes": codes, "called": called}))
"""


def defined_functions() -> dict:
    """(module, first line) -> ``module.qualname`` of every function and
    method defined in the package."""
    names = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                names[prefix.partition(".")[0], first] = prefix + child.name
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.")
    return names


def test_only_the_kept_api_is_out_of_reach_of_the_cli(tmp_path):
    config_path = tmp_path / "demo.cfg"
    config_path.write_text(default_config().to_text(), encoding="utf-8")
    argvs = [[a.format(cfg=config_path, out=tmp_path / "out.txt") for a in argv] for argv in ARGVS]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", TRACER, json.dumps(argvs)],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    report = json.loads(result.stdout)
    assert report["codes"] == EXIT_CODES
    defined = defined_functions()
    for module, line in report["called"]:
        defined.pop((module, line), None)
    assert set(defined.values()) == set(KEPT)
