"""y00sim benchmark: seeded CLI workloads, checked outputs, per-layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload demo_keyed --seed 1 --seconds 40 --trace 0

One closed-loop client drives ``y00sim.cli.main`` in-process, one op at a
time with ``--workers 1``. Before timing, a separate process (``gate.py``)
checks six golden report hashes (no result is printed if one differs) and
probes the known defects. The workload's op list (``workloads.py``) is run
in whole passes until ``--seconds`` is used up, and every op's report is
checked (``checks.py``); a failed check counts as a failed op. Op seconds
are host-adjusted: a fixed probe timed between ops scales each op's wall
time to the probe's reference host speed (``PROBES``); raw wall times are
printed as ``op_wall_s_*``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one pass in
which each op runs untraced and then traced (``spans.py``); the traced run
gives the per-layer metrics and ``trace.overhead``. The last line of
standard output is the JSON result. Per-op records and traced spans go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import KNOWN_DEFECTS, check_report, parse_fields
from spans import LAYERS, PER_LAYER_UNITS, Tracer, layer_metrics, layer_totals
from workloads import WORKLOADS, op_list, run_op

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 15
SPANS_KEPT = 1_000_000  # spans written out per traced run; the rest are only summed



def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _python_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def setup_seconds() -> list[float]:
    """Import time of ``y00sim.cli`` in fresh interpreters, the fixed cost of
    every CLI call. A first, discarded import writes the bytecode cache."""
    code = "import time; t = time.perf_counter(); import y00sim.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=_python_env(),
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times[1:]


def run_gate() -> dict:
    """Golden gate and defect probes, in a process of their own so that the
    timed process's peak memory does not include them."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "gate.py")], cwd=ROOT, env=_python_env(),
        capture_output=True, text=True, timeout=150,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        return {"ok": False, "error": done.stderr.strip()[-2000:] or "gate printed nothing"}
    return {**json.loads(lines[-1]), "ok": done.returncode == 0}


def python_loop_probe() -> float:
    """Seconds for a fixed pure-Python loop shaped like the LFSR keystream
    loop: 40 000 shift/xor steps, each stored into a uint8 array."""
    out = np.empty(40_000, dtype=np.uint8)
    state, mask = 0xACE1ACE1, 0x80200003
    start = time.perf_counter()
    for i in range(out.shape[0]):
        lsb = state & 1
        state >>= 1
        if lsb:
            state ^= mask
        out[i] = lsb
    return time.perf_counter() - start


_EIGH_MATRIX = np.random.default_rng(0).standard_normal((400, 400))
_EIGH_MATRIX = _EIGH_MATRIX + _EIGH_MATRIX.T


def eigh_probe() -> float:
    """Seconds for one ``numpy.linalg.eigh`` of a fixed 400 x 400 matrix."""
    start = time.perf_counter()
    np.linalg.eigh(_EIGH_MATRIX)
    return time.perf_counter() - start


# Host-speed probes and their median seconds on the host the benchmark was
# tuned on (2 vCPUs of a shared x86-64 host, OpenBLAS, 2 threads). An op's
# host-adjusted seconds are its wall seconds times reference / probe, with
# the probe timed just before and just after the op.
PROBES = {"python_loop_s": (python_loop_probe, 0.0130), "eigh400_s": (eigh_probe, 0.0255)}


def calibration() -> dict[str, float]:
    """Each probe's median of five, recorded to spot a slow host."""
    return {name: statistics.median(probe() for _ in range(5))
            for name, (probe, _) in PROBES.items()}


def environment(seed: int) -> dict:
    from y00sim import kernels

    git_commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        git_commit = done.stdout.strip() or done.stderr.strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit,
        "kernel_backend": kernels.backend_name(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            name: os.environ.get(name, "unset")
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workload_seed": seed,
    }


class Tally:
    """Op results of one run: timings, failures, Monte Carlo symbols."""

    def __init__(self):
        self.seconds: list[float] = []  # host-adjusted; inf for a failed op
        self.wall_seconds: list[float] = []  # as measured; inf for a failed op
        self.ops: list[dict] = []  # one record per op, written to OUT for inspection
        self.failures: list[tuple[list[str], str]] = []
        self.mc_symbols = 0
        self.mc_seconds = 0.0
        self.first_digest: dict[tuple[str, ...], str] = {}
        self.known_defect_hits = {defect: 0 for defect in KNOWN_DEFECTS}

    def record(self, result, speed: float = 1.0) -> bool:
        """Check one op; returns whether it succeeded. ``speed`` scales its
        wall seconds to the probes' reference host speed."""
        if result.exit_code != 0:
            problems = [result.error]
        else:
            problems = check_report(result.argv, result.report)
            digest = hashlib.sha256(result.report.encode("utf-8")).hexdigest()
            if self.first_digest.setdefault(tuple(result.argv), digest) != digest:
                problems.append("report bytes differ from an earlier run of the same argv")
        for defect in KNOWN_DEFECTS:
            if defect in problems:
                problems.remove(defect)
                self.known_defect_hits[defect] += 1
        seconds = result.seconds * speed
        self.ops.append({"argv": result.argv, "wall_s": result.seconds, "seconds": seconds,
                         "problems": problems})
        if problems:
            self.seconds.append(math.inf)
            self.wall_seconds.append(math.inf)
            self.failures.append((result.argv, problems[0]))
            return False
        self.seconds.append(seconds)
        self.wall_seconds.append(result.seconds)
        if result.argv[0] == "run":
            fields = parse_fields(result.report)
            self.mc_symbols += int(fields["trials"]) + 3 * int(fields["coded_blocks"])
            self.mc_seconds += seconds
        return True


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(percentile / 100 * len(ordered)) - 1, 0)]


def timed_run(ops, seconds: float, main, min_passes: int, probe: str) -> tuple[Tally, int]:
    """Whole passes over the op list: at least ``min_passes``, then more
    while the next pass, judged by the last one, would end nearer to
    ``seconds`` than stopping now. The ``probe`` runs between ops, and each
    op is scaled by the mean of the probes on either side of it: the host's
    speed shifts within seconds, by up to 2x, and a median of raw wall
    times follows the shifts."""
    probe_fn, reference = PROBES[probe]
    tally = Tally()
    passes, last_pass = 0, 0.0
    before = probe_fn()
    start = time.perf_counter()
    while passes < min_passes or time.perf_counter() - start + last_pass / 2 < seconds:
        pass_start = time.perf_counter()
        for argv in ops:
            result = run_op(argv, main)
            after = probe_fn()
            tally.record(result, speed=2 * reference / (before + after))
            before = after
        last_pass = time.perf_counter() - pass_start
        passes += 1
    return tally, passes


def traced_run(ops, main, workload: str) -> tuple[Tally, dict[str, float]]:
    """One pass; each op runs untraced, then traced. Layer totals cover the
    whole pass, so for one seed every count repeats exactly."""
    tracer = Tracer()
    if tracer.missing:
        print(f"warning: the program has no {', '.join(tracer.missing)}; "
              "the per-layer metrics that read them are 0")
    tally = Tally()
    totals: dict[str, float] = {}
    plain_s, traced_s, kept = [], [], []
    for op_id, argv in enumerate(ops):
        plain = run_op(argv, main)
        with tracer.op_span(op_id, main) as traced_main:
            traced = run_op(argv, traced_main)
        spans = tracer.take_op()
        # Tally compares the traced report with the untraced one byte for byte.
        if tally.record(plain) & tally.record(traced):
            plain_s.append(plain.seconds)
            traced_s.append(traced.seconds)
        for name, value in layer_totals(spans, tracer.names).items():
            totals[name] = totals.get(name, 0) + value
        if sum(len(s["start"]) for s in kept) + len(spans["start"]) <= SPANS_KEPT:
            kept.append(spans)
    metrics = layer_metrics(totals)
    metrics["trace.overhead"] = (
        statistics.median(traced_s) / statistics.median(plain_s) - 1.0 if plain_s else 0.0
    )
    OUT.mkdir(exist_ok=True)
    if kept:
        np.savez_compressed(
            OUT / f"spans-{workload}.npz",
            names=np.array(tracer.names),
            **{column: np.concatenate([s[column] for s in kept]) for column in kept[0]},
        )
    return tally, metrics


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def end_to_end(tally: Tally, setup: list[float], percentile: int) -> dict[str, tuple]:
    """The end-to-end metrics; also prints the ones BENCHMARK.json leaves out
    (mc_symbols_per_s does not exist for ``attacks``, fail_frac can be 0)."""
    attempted = len(tally.seconds)
    beyond = attempted - math.ceil(percentile / 100 * attempted)
    print(f"op_s_tail is p{percentile} of {attempted} ops, {beyond} beyond it"
          + ("" if beyond >= 10 else " (fewer than 10: the tail is unresolved)"))
    rate = tally.mc_symbols / tally.mc_seconds if tally.mc_seconds else "n/a"
    print(f"{'op_wall_s_p50':<34} {_fmt(statistics.median(tally.wall_seconds))} s")
    print(f"{'op_wall_s_tail':<34} {_fmt(nearest_rank(tally.wall_seconds, percentile))} s")
    print(f"{'mc_symbols_per_s':<34} {_fmt(rate)} 1/s")
    print(f"{'fail_frac':<34} {_fmt(len(tally.failures) / attempted)} ratio")
    return {
        "op_s_p50": (statistics.median(tally.seconds), "s"),
        "op_s_tail": (nearest_rank(tally.seconds, percentile), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(layer: dict[str, float]) -> dict[str, tuple]:
    total = layer["op.traced_s"]
    if total:
        shares = sorted(((layer[f"{name}.self_s"] / total, name) for name in LAYERS), reverse=True)
        print("layer share of traced op time: " + ", ".join(f"{n} {v:.3f}" for v, n in shares))
    return {name: (layer[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "y00sim" / "cli.py").is_file():
        print(f"error: no y00sim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    env = environment(args.seed)
    setup = setup_seconds()
    gate = run_gate()
    if not gate["ok"]:
        print(f"error: golden report gate failed: {json.dumps(gate)}", file=sys.stderr)
        return 1
    from y00sim.cli import main as cli_main

    print("env " + json.dumps(env, sort_keys=True))
    print(f"gate: {len(gate['golden'])}/{len(gate['golden'])} golden reports match")
    for probe in gate["probes"]:
        status = "open" if probe["open"] else "fixed"
        print(f"known defect {status}: {probe['defect']}; argv={probe['argv']}; {probe['error']}")

    ops = op_list(args.workload, args.seed)
    run_op(ops[0], cli_main)  # warm-up: lazy imports and first-call set-up
    calibration_s = {"before": calibration()}
    if args.trace:
        tally, layer = traced_run(ops, cli_main, args.workload)
        passes = 1
    else:
        spec = WORKLOADS[args.workload]
        tally, passes = timed_run(ops, args.seconds, cli_main, spec.min_passes, spec.probe)
    calibration_s["after"] = calibration()

    attempted, failed = len(tally.seconds), len(tally.failures)
    print("calibration " + json.dumps(calibration_s, sort_keys=True))
    print(f"workload {args.workload} ({WORKLOADS[args.workload].why}) seed {args.seed} "
          f"trace {args.trace}: {passes} pass(es) x {len(ops)} ops = {attempted} ops")
    for failed_argv, error in tally.failures:
        print(f"failed op: argv={failed_argv}; {error}")
    for defect, hits in tally.known_defect_hits.items():
        if hits:
            print(f"known defect hit in {hits}/{attempted} ops: {defect}")
    if args.trace:
        metrics = per_layer(layer)
    else:
        metrics = end_to_end(tally, setup, WORKLOADS[args.workload].tail_percentile)
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {_fmt(value)} {unit}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    OUT.mkdir(exist_ok=True)
    record = {
        "env": env, "calibration": calibration_s, "gate": gate, "ops": tally.ops, "result": result,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
