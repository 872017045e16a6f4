"""Seeded workloads of real CLI operations, and the in-process op runner.

An op is one ``y00sim`` command line (``run`` or ``attacks``). Its argv is
a pure function of (workload, seed, position in the list); the program only
ever sees the generated argv. Every op names the shipped config
``perfbench/demo.cfg`` (``y00sim emit-default-config`` as the benchmark was
written), so a later change of the program's defaults leaves the workloads
as they are.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from dataclasses import dataclass

CONFIG = "perfbench/demo.cfg"


@dataclass(frozen=True)
class Workload:
    why: str  # also BENCHMARK.json's "why"
    ops_per_pass: int
    min_passes: int  # a timed run makes at least this many passes
    # op_s_tail's percentile: the highest that leaves at least 10 ops beyond it
    # in min_passes passes, fixed so that runs stay comparable.
    tail_percentile: int
    probe: str  # the host-speed probe (run.PROBES) nearest to the workload's hot path


def _fresh_keys(rng: random.Random) -> list[str]:
    """A nonzero 32-bit seed key and Monte Carlo seed, new for every op."""
    return [
        "--set", f"seed_key={rng.randrange(1, 1 << 32):08X}",
        "--set", f"master_rng_seed={rng.randrange(1, 1 << 32)}",
    ]


def _demo_keyed(rng: random.Random, k: int) -> list[list[str]]:
    return [["run", CONFIG, *_fresh_keys(rng), "--workers", "1"] for _ in range(k)]


# The work an attacks op does depends on M and alpha_max (eigensolver time
# varies by up to a quarter with alpha_max at large M). So the ops are a
# fixed design: M and op order are the same for every seed,
# and each op's alpha_max has its own 1/k-wide stratum of the range. The
# seed draws where in its stratum each alpha_max falls. Every seed thus
# measures nearly the same work in the same order, which also keeps peak
# memory, set by the allocation sequence, the same.


def _fixed_order(items: list) -> list:
    """The same seed-independent shuffle for every seed, so that op size,
    alpha_max stratum and position in the run are uncorrelated."""
    random.Random(0).shuffle(items)
    return items


def _alpha_draws(rng: random.Random, k: int) -> list[float]:
    """For op i, a draw from [0, 1) inside stratum i of a fixed pairing."""
    strata = _fixed_order(list(range(k)))
    return [(stratum + rng.random()) / k for stratum in strata]


def _attack_scan(rng: random.Random, k: int) -> list[list[str]]:
    ops = []
    for i, alpha_u in enumerate(_alpha_draws(rng, k)):
        m = 128 + round(i * 192 / (k - 1))  # evenly over 128..320
        alpha = 30.0 + alpha_u * 270.0
        ops.append(["attacks", CONFIG, "--set", f"M={m}", "--set", f"alpha_max={alpha:.6g}"])
    return _fixed_order(ops)


WORKLOADS = {
    "demo_keyed": Workload(
        "README headline run (M=16, OSK, LFSR, coding on, 1e5 trials), fresh keys per op;"
        " the power-of-two LFSR keystream dominates",
        ops_per_pass=8,
        min_passes=4,
        tail_percentile=68,
        probe="python_loop_s",
    ),
    "attack_scan": Workload(
        "attacks with M 128-320: Gram builds and 2M x 2M eigensolves in detection and"
        " coherent_algebra, no keystream or Monte Carlo",
        ops_per_pass=40,
        min_passes=2,
        tail_percentile=87,
        probe="eigh400_s",
    ),
}

_GENERATORS = {"demo_keyed": _demo_keyed, "attack_scan": _attack_scan}


def op_list(workload: str, seed: int) -> list[list[str]]:
    """The workload's ops for this seed: same (workload, seed), same argv lists."""
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, WORKLOADS[workload].ops_per_pass)


@dataclass
class OpResult:
    argv: list[str]
    exit_code: object  # int, or None when main() raised
    seconds: float
    report: str  # everything the op wrote to stdout
    error: str  # first error line, "" on success


def run_op(argv: list[str], main) -> OpResult:
    """Call the CLI's ``main`` in-process and time it.

    An uncaught exception is part of the measurement, not a benchmark
    crash: it is recorded as the op's error with exit code None.
    """
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a malformed argv this way
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - any crash counts as a failed op
            code = None
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    if code != 0 and not error:
        lines = err.getvalue().strip().splitlines()
        error = lines[0] if lines else f"exit code {code}"
    return OpResult(list(argv), code, seconds, out.getvalue(), error)
