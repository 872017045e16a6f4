"""sha256 pins of the CLI's output bytes: reports, attack summaries, sweep
CSVs and the emitted default configuration. A refactor that changes one
byte of any of these outputs fails here."""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import y00sim
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
    ("attacks_M15", ["attacks", "{cfg}", "--set", "M=15"],
     "94f1ea7f272e453f61bedfcc2cb99aa5715a78bc0d3d846f8786a066c16a7523"),
    ("attacks_phase_ladder", ["attacks", "{cfg}", "--set", "kind=phase_ladder"],
     "2205070d0bccb081536a2c1fb5b7f8a45e98e630b7e49f729e325d74306f95d4"),
    # its minimax_error, 3.4678425883669062e-01 (levels 1 and 2), is within
    # 2.8e-15 relative of the 40-digit value (test_mpmath_oracle)
    ("attacks_phase_ladder_M15_alpha3",
     ["attacks", "{cfg}", "--set", "kind=phase_ladder", "--set", "M=15", "--set", "alpha_max=3"],
     "df0072c4760a6a7729f18563462814fcc749964d0309570546f13541764455f9"),
    # 2M=128: the largest ladder whose SRM diagonal is read off the full
    # Gram, not the even/odd Toeplitz halves, runs under a pin
    ("attacks_M64_alpha30", ["attacks", "{cfg}", "--set", "M=64", "--set", "alpha_max=30"],
     "13cc5750949d7ea9e0fd5666b8fb5277441403cc841d8c6c242bd3e5fb18bc19"),
    ("attacks_phase_ladder_M64_alpha30",
     ["attacks", "{cfg}", "--set", "kind=phase_ladder", "--set", "M=64", "--set", "alpha_max=30"],
     "0b0168f1317adbb04c768f67a44bdb91dc49be5c35fe9a3c696067897682bf03"),
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


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    # main() builds its parser once per process: neither the options of one
    # call nor an argument error may reach the next call
    config_path = tmp_path / "demo.cfg"
    config_path.write_text(default_config().to_text(), encoding="utf-8")
    m15 = tmp_path / "m15.txt"
    assert cli_main(["run", str(config_path), "--set", "M=15", "--out", str(m15)]) == 0
    with pytest.raises(SystemExit):
        cli_main(["run", str(config_path), "--workers", "many"])
    capsys.readouterr()
    assert cli_main(["run", str(config_path)]) == 0
    expected = next(digest for name, _, digest in GOLDEN if name == "run_default")
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == expected
    assert hashlib.sha256(m15.read_bytes()).hexdigest() != expected


@pytest.mark.parametrize(
    "name",
    ["run_default", "attacks_default", "attacks_M64_alpha30", "attacks_phase_ladder_M64_alpha30"],
)
def test_default_reports_match_on_one_blas_thread(tmp_path, name):
    # The pins hold at the default BLAS thread count. At large M (M=100
    # already) the SRM digits follow the thread count; these must not.
    _, argv, expected = next(g for g in GOLDEN if g[0] == name)
    config_path = tmp_path / "demo.cfg"
    config_path.write_text(default_config().to_text(), encoding="utf-8")
    out = tmp_path / "out.txt"
    src = str(Path(y00sim.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run(
        [sys.executable, "-m", "y00sim.cli", *(arg.format(cfg=config_path) for arg in argv),
         "--out", str(out)],
        env=env, check=True, timeout=120,
    )
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
