"""Golden-report gate and known-defect probes, run in a process of their own.

Run from the repository root: ``python3 perfbench/gate.py``. Prints one
JSON object as its last line and exits 0 when every golden report matches.
The timed workload runs in another process, so its peak memory does not
include these 1e5-trial reports.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import DEFECT_PROBES, GOLDEN, check_report  # noqa: E402
from workloads import run_op  # noqa: E402


def main() -> int:
    from y00sim.cli import main as cli_main

    golden = []
    for name, argv, expected in GOLDEN:
        result = run_op(argv, cli_main)
        digest = hashlib.sha256(result.report.encode("utf-8")).hexdigest()
        golden.append({
            "name": name,
            "ok": result.exit_code == 0 and digest == expected,
            "sha256": digest,
            "expected": expected,
            "error": result.error,
        })
    probes = []
    for defect, argv in DEFECT_PROBES:
        result = run_op(argv, cli_main)
        error = result.error
        if result.exit_code == 0:
            error = "; ".join(check_report(argv, result.report))
        probes.append({"defect": defect, "argv": argv, "open": bool(error), "error": error})
    print(json.dumps({"golden": golden, "probes": probes}))
    return 0 if all(g["ok"] for g in golden) else 1


if __name__ == "__main__":
    raise SystemExit(main())
