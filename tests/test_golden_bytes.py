"""sha256 pins of the CLI's output bytes: reports, attack summaries, sweep
CSVs and the emitted default configuration. A refactor that changes one
byte of any of these outputs fails here."""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from y00sim.cli import main as cli_main
from y00sim.scenario import default_config

GOLDEN = [
    ("emit_default_config", ["emit-default-config"],
     "e96024c4a1aca40781b3e37369f623dafbd749babb0b49e19a82076cce73a2a6"),
    ("run_default", ["run", "{cfg}"],
     "0aaf061c9abc86a3ed768a52b7212635c00c734df5ee948bc631372690f64c5d"),
    ("run_M15", ["run", "{cfg}", "--set", "M=15"],
     "db8fc5b400bdb9312d614e809ab8c04ab4de0f2cebadb93c4c6bcacf0e49c283"),
    ("run_non_overlap", ["run", "{cfg}", "--set", "assignment=non_overlap"],
     "1f94f10134d8584bb855d4c2dc5aa1256ce373813270b2bf9b9dbf9f15aa5a9b"),
    ("run_counter_hash", ["run", "{cfg}", "--set", "keystream=counter_hash"],
     "4320c202bc4b837bda14294d5fe11094a031c54c587f7c58bc8598c9cca92b77"),
    ("run_coding_off", ["run", "{cfg}", "--set", "coding=off"],
     "2de803ac418107fa4a26465fd674a92afdb1e1c21cb09f192139981c825586de"),
    ("attacks_default", ["attacks", "{cfg}"],
     "948d5751335250966729b102ebc303205596d5770df96aae39558bdeb900c080"),
    ("sweep_readme_fig2",
     ["sweep", "{cfg}", "--set", "sweep_variable=M", "--set", "sweep_values=2,4,8,16"],
     "1f60ae8d865fd2414b083e74ff1367448714e5d2ae778cd6ea4cd9317b0e85c4"),
    ("sweep_N_coding_off",
     ["sweep", "{cfg}", "--set", "sweep_variable=N", "--set", "sweep_values=0,3,10",
      "--set", "coding=off", "--set", "trials=20000"],
     "3b7164b3510214e9af84a659b179949cc945199fe4f38ed1fef90aba7513ff78"),
    ("sweep_n_mean_counter_hash_M15",
     ["sweep", "{cfg}", "--set", "sweep_variable=n_mean", "--set", "sweep_values=1e12,1e13",
      "--set", "trials=20000", "--set", "keystream=counter_hash", "--set", "M=15"],
     "dd880658b84b2beeb3be7b7ecdfdaaea25b26ae9fbbcc2627fc9b28d2a895ad2"),
]


@pytest.mark.parametrize("argv, expected", [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN])
def test_output_bytes_match_golden_hash(tmp_path, argv, expected):
    config_path = tmp_path / "demo.cfg"
    config_path.write_text(default_config().to_text(), encoding="utf-8")
    out = tmp_path / "out.txt"
    argv = [arg.format(cfg=config_path) for arg in argv]
    assert cli_main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


def load_module(monkeypatch, name, path):
    """Import ``path`` as module ``name`` for this test only."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_pins_match_these(monkeypatch):
    # the benchmark's report checks carry their own copy of some pins
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    workloads = load_module(monkeypatch, "workloads", bench / "workloads.py")
    checks = load_module(monkeypatch, "checks", bench / "checks.py")
    pins = {tuple(argv): digest for _, argv, digest in GOLDEN}
    assert checks.GOLDEN
    for name, argv, digest in checks.GOLDEN:
        key = tuple("{cfg}" if arg == workloads.CONFIG else arg for arg in argv)
        assert pins.get(key) == digest, name
