"""Tests of the benchmark itself: op generation, report checks, tracing.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import importlib
import math
import random
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

from checks import FRACTION_ROUNDING, check_attacks, check_run, log_tail_bound  # noqa: E402
from spans import LAYERS, ROOT_SPAN, Tracer, layer_metrics, layer_totals, self_times  # noqa: E402
from workloads import CONFIG, WORKLOADS, op_list, run_op  # noqa: E402

from y00sim import scenario  # noqa: E402
from y00sim.cli import main as cli_main  # noqa: E402

SMALL_RUN = ["run", CONFIG, "--set", "trials=3000", "--set", "M=12"]
SMALL_ATTACKS = ["attacks", CONFIG, "--set", "M=24"]


@pytest.fixture(autouse=True)
def _at_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _set(report: str, key: str, value: str) -> str:
    lines = [
        f"{key}={value}" if line.startswith(key + "=") else line for line in report.splitlines()
    ]
    return "\n".join(lines) + "\n"


def _field(report: str, key: str) -> str:
    return next(line[len(key) + 1:] for line in report.splitlines() if line.startswith(key + "="))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_op_list_is_a_pure_function_of_workload_and_seed(workload):
    first = op_list(workload, 7)
    random.seed(12345)  # global random state must not leak in
    assert op_list(workload, 7) == first
    assert op_list(workload, 8) != first
    assert len(first) == WORKLOADS[workload].ops_per_pass
    assert all(argv[0] in ("run", "attacks") and argv[1] == CONFIG for argv in first)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tail_percentile_is_the_highest_with_ten_ops_beyond_it(workload):
    spec = WORKLOADS[workload]
    fewest = spec.min_passes * spec.ops_per_pass  # ops in the shortest timed run

    def beyond(percentile):
        return fewest - math.ceil(percentile / 100 * fewest)

    assert beyond(spec.tail_percentile) >= 10
    assert beyond(spec.tail_percentile + 1) < 10


def test_timed_run_makes_at_least_min_passes():
    from run import timed_run

    def fake_main(argv):
        print("ok=1")
        return 0

    ops = [["attacks", CONFIG, "--set", f"M={m}"] for m in (2, 3)]
    tally, passes = timed_run(ops, 0.0, fake_main, min_passes=3, probe="python_loop_s")
    assert passes == 3
    assert len(tally.seconds) == 6


def test_timed_run_scales_op_seconds_by_the_probes_around_each_op(monkeypatch):
    import run

    def slow_main(argv):
        time.sleep(0.01)
        print("ok=1")
        return 0

    probes = iter([0.2, 0.6, 0.4])  # probe before op 1, between, after op 2
    monkeypatch.setitem(run.PROBES, "fake", (lambda: next(probes), 0.2))
    ops = [["attacks", CONFIG, "--set", f"M={m}"] for m in (2, 3)]
    tally, _ = run.timed_run(ops, 0.0, slow_main, min_passes=1, probe="fake")
    speeds = [op["seconds"] / op["wall_s"] for op in tally.ops]
    assert speeds == pytest.approx([0.4 / 0.8, 0.4 / 1.0])


def test_run_checker_accepts_a_real_report_and_rejects_doctored_ones():
    result = run_op(SMALL_RUN, cli_main)
    assert result.exit_code == 0, result.error
    report = result.report
    assert check_run(report) == []

    count = int(_field(report, "bob_error_count"))
    assert any("is not" in p for p in check_run(_set(report, "bob_error_count", str(count + 1))))
    assert any("not finite" in p for p in check_run(_set(report, "eve_state_error_srm", "nan")))
    assert any("outside [0, 1]" in p for p in check_run(_set(report, "guess_baseline", "1.5")))
    doctored = _set(report, "eve_bit_error_analytic", "0.25")
    assert any("exactly 0.5" in p for p in check_run(doctored))
    # Counts that agree with the printed rate but not with the analytic 0.5.
    skewed = _set(report, "eve_bit_error_count", "900")
    skewed = _set(skewed, "eve_bit_error_montecarlo", repr(900 / 3000))
    assert any("eve_bit_error" in p and "tail bound" in p for p in check_run(skewed))
    assert check_run(report.replace("coded_blocks=", "uncoded_blocks=")) != []


def test_attacks_checker_accepts_a_real_report_and_rejects_doctored_ones():
    result = run_op(SMALL_ATTACKS, cli_main)
    assert result.exit_code == 0, result.error
    report = result.report
    assert [p for p in check_attacks(report) if p != FRACTION_ROUNDING] == []
    guessing = _field(report, "guessing_error")
    doctored = _set(report, "srm_state_error", "0.99999")
    assert any("above guessing" in p for p in check_attacks(doctored))
    assert check_attacks(_set(report, "srm_state_error", guessing)) == check_attacks(report)
    assert any("above 0.5" in p for p in check_attacks(_set(report, "minimax_error", "0.6")))
    assert any("not finite" in p or "non-finite" in p
               for p in check_attacks(_set(report, "minimax_error", "nan")))
    rows = report.splitlines()
    rows[-1] = rows[-1].split(",")[0] + ",1.5,1.0"
    assert any("outside [0, 1]" in p for p in check_attacks("\n".join(rows) + "\n"))
    rows[-1] = rows[-1].split(",")[0] + ",1.0000000000000004,1.0"
    assert check_attacks("\n".join(rows) + "\n").count(FRACTION_ROUNDING) == 1


def test_log_tail_bound_edges():
    assert log_tail_bound(50, 100, 0.5) == 0.0
    assert log_tail_bound(1, 100, 0.0) == -math.inf
    assert log_tail_bound(40, 100, 0.5) > math.log(1e-9)
    assert log_tail_bound(10, 100, 0.5) < math.log(1e-9)


@pytest.mark.parametrize("argv", [SMALL_RUN, SMALL_ATTACKS], ids=["run", "attacks"])
def test_traced_op_self_times_sum_to_its_wall_time(argv):
    tracer = Tracer()
    plain = run_op(argv, cli_main)
    original = scenario.srm_error
    with tracer.op_span(0, cli_main) as traced_main:
        assert scenario.srm_error is not original
        traced = run_op(argv, traced_main)
    assert scenario.srm_error is original  # every wrapper is removed again
    assert traced.report == plain.report  # tracing changes no report byte

    spans = tracer.take_op()
    names = [tracer.names[i] for i in spans["name_id"]]
    roots = [i for i, parent in enumerate(spans["parent"]) if parent < 0]
    assert [names[i] for i in roots] == [ROOT_SPAN]
    duration = spans["end"] - spans["start"]
    own = self_times(spans["parent"], duration)
    assert (own >= -1e-9).all()
    assert math.isclose(own.sum(), duration[roots[0]], rel_tol=1e-9)
    assert abs(own.sum() - traced.seconds) <= max(1e-3, 0.02 * traced.seconds)

    assert tracer.missing == []  # every name a per-layer metric reads is traced
    metrics = layer_metrics(layer_totals(spans, tracer.names))
    layers = sum(value for name, value in metrics.items()
                 if name.endswith(".self_s") and name.count(".") == 1)
    assert math.isclose(layers, metrics["op.traced_s"], rel_tol=1e-9)
    if argv[0] == "run":
        assert metrics["y00_cipher.take_calls"] > 0
        assert metrics["scenario.mc_chunks"] == 2  # one uncoded and one coded chunk
    else:
        assert metrics["y00_cipher.take_calls"] == 0
        assert metrics["coherent_algebra.sqrt_calls"] > 0


def test_tracer_wraps_callables_that_are_not_functions(monkeypatch):
    """A numba kernel is a dispatcher object, not a function."""
    from y00sim import kernels

    class Dispatcher:
        def __init__(self, py_func):
            self.py_func = py_func

        def __call__(self, *args):
            return self.py_func(*args)

    monkeypatch.setattr(kernels, "srm_sample", Dispatcher(kernels.srm_sample))
    tracer = Tracer()
    assert "kernels.srm_sample" in tracer.names and tracer.missing == []
    with tracer.op_span(0, cli_main) as traced_main:
        assert run_op(SMALL_RUN, traced_main).exit_code == 0
    metrics = layer_metrics(layer_totals(tracer.take_op(), tracer.names))
    assert metrics["kernels.srm_cells"] > 0


def test_tracer_lists_a_name_the_program_no_longer_has(monkeypatch):
    for layer in LAYERS:  # the defining module and every module importing it
        module = importlib.import_module(f"y00sim.{layer}")
        if hasattr(module, "minimax_pair"):
            monkeypatch.delattr(module, "minimax_pair")
    assert Tracer().missing == ["detection.minimax_pair"]
