"""A committed byte grid: about 300 CLI argvs, each pinned by one sha256 over
its (exit code, stdout, stderr). Every argv runs in process through
``cli.main`` as its own test case, so a change that moves one byte of any
of them fails that argv's case, named by its command and settings.

The table lives in ``byte_grid.txt`` beside this file, one row per argv:
its digest, two spaces, then the argv as a JSON list. Rewrite it only for
a deliberate re-pin, and list the moved rows it prints where the change
is recorded:

    PYTHONPATH=src python tests/test_byte_grid.py --rewrite
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from y00sim.cli import main as cli_main
from y00sim.scenario import default_config

TABLE = Path(__file__).with_name("byte_grid.txt")
CFG = "{cfg}"  # the default config, written to a scratch file


def _argv(*settings: str, command: str = "run") -> list[str]:
    sets = ["trials=2000"] * (command != "attacks") + list(settings)
    return [command, CFG, *(a for kv in sets for a in ("--set", kv))]


# a few links beyond the default: noisy, amplifier-free, underflowing (the
# off level's noise rounds to 0, a config error) and near BER 1/2
LINKS = {
    "default": [],
    "noisy": ["N=20", "G_p=30", "kappa_r=0.1", "I_th_var=1e-11"],
    "amplifier_free": ["G_p=1", "N=0"],
    "underflow": ["G_p=1", "N=0", "I_th_var=0", "B=1e-3", "n_mean=1.3141473626117096e-283"],
    "near_half": ["n_mean=1e9", "alpha_max=1"],
}
OVERFLOW_LINK = ["G_p=1", "N=0", "I_th_var=0", "B=5e-324", "n_mean=1e300"]
GRID_M = [1, 2, 3, 15, 16, 17, 33, 64, 65]
ASSIGNMENTS = ["assignment=osk", "assignment=non_overlap"]
# each a config error (exit 2), but the zero seed, a run-time error (exit 1)
ERRORS = [
    "M=0", "M=1025", "M=nope", "alpha_max=5e-324", "alpha_max=1e10", "G_p=0.5", "G_p=1e200",
    "kappa_r=0", "kappa_r=2", "N=-1", "n_mean=0", "n_mean=1e300", "n_sp=0.5", "B=0",
    "delta_f=-1", "I_th_var=-1", "trials=0", "master_rng_seed=-1", "seed_key=F",
    "seed_key=ABCDEF1234", "lfsr_poly=0", "lfsr_poly=3", "lfsr_poly=B400", "kind=other",
    "assignment=other", "keystream=other", "coding=maybe", "sweep_variable=M",
    "colour=blue", "seed_key=0000",
]
# random configs draw each of a few keys from these
RANDOM_VALUES = {
    "M": [str(m) for m in range(1, 66)],
    "alpha_max": ["0.25", "1", "4", "8", "30", "100", "1000"],
    "assignment": ["osk", "non_overlap"],
    "seed_key": ["ACE1", "ACE1F00D", "1234ABCD", "9E3779B9"],
    "keystream": ["lfsr", "counter_hash"],
    "G_p": ["1", "10", "100", "1000"],
    "kappa_r": ["0.01", "0.1", "0.5", "1"],
    "N": [str(n) for n in range(21)],
    "n_mean": ["1e9", "1e11", "1e12", "1e13", "1e15"],
    "n_sp": ["1", "1.5", "5"],
    "B": ["1e6", "1e9", "1e11"],
    "I_th_var": ["0", "1e-15", "1e-13", "1e-11"],
    "coding": ["on", "off"],
    "master_rng_seed": ["0", "1", "20260810", "18446744073709551616"],
}


def grid_argvs() -> list[list[str]]:
    """Every argv of the grid, in table order."""
    argvs = [["emit-default-config"], _argv()]
    # run at every M, both assignments, coding on and off, both keystreams
    for m, assignment, coding, keystream in itertools.product(
        GRID_M, ASSIGNMENTS, ["coding=on", "coding=off"],
        ["keystream=lfsr", "keystream=counter_hash"],
    ):
        argvs.append(_argv(f"M={m}", assignment, coding, keystream))
    for link, m, assignment in itertools.product(LINKS, [1, 4, 16, 17], ASSIGNMENTS):
        argvs.append(_argv(f"M={m}", assignment, *LINKS[link]))
    for exponent, m, assignment in itertools.product(range(-9, 9), [2, 16], ASSIGNMENTS):
        argvs.append(_argv(f"M={m}", assignment, f"alpha_max=1e{exponent}"))
    for kind, m, alpha in itertools.product(
        ["intensity_ladder", "phase_ladder"], GRID_M, ["1", "30", "100"]
    ):
        argvs.append(_argv(f"kind={kind}", f"M={m}", f"alpha_max={alpha}", command="attacks"))
    # above 128 levels every command factors the two Toeplitz halves
    for kind, m in itertools.product(["intensity_ladder", "phase_ladder"], [100, 128, 200]):
        argvs.append(_argv(f"kind={kind}", f"M={m}", command="attacks"))
    for assignment in ASSIGNMENTS:
        argvs.append(_argv("M=100", assignment))
    for variable, values in [("M", "2,4,16,17"), ("alpha_max", "1,10,100"), ("N", "0,3,10"),
                             ("n_mean", "1e12,1e13")]:
        for assignment in ASSIGNMENTS:
            argvs.append(_argv(f"sweep_variable={variable}", f"sweep_values={values}",
                               assignment, command="sweep"))
    for setting in ERRORS:
        argvs.append(_argv(setting))
    argvs.append(_argv("sweep_variable=M", "sweep_values=2,8.5", command="sweep"))
    argvs.append(_argv("seed_key=0000", "keystream=counter_hash"))
    argvs.append(_argv("seed_key=0000", command="attacks"))
    # the README's run, whose maximal polynomial factors 2^32 - 1
    argvs.append(["run", CFG, "--set", "trials=20000", "--set", "lfsr_poly=80000062"])
    # a 40-bit register, which has no default polynomial
    argvs.append(_argv("seed_key=ACE1F00D12", "lfsr_poly=800000001C"))
    # a link whose cuts overflow to +-inf, so Bob never errs
    for assignment in ASSIGNMENTS:
        argvs.append(_argv(assignment, *OVERFLOW_LINK))
    # probes the 4x4 embedding rejects (exit 2)
    for alpha in ["1e-9", "2.5e-2"]:
        argvs.append(_argv(f"alpha_max={alpha}", command="attacks"))
    rng = random.Random(20261022)
    for _ in range(60):
        keys = rng.sample(sorted(RANDOM_VALUES), rng.randint(2, 6))
        argvs.append(_argv(*(f"{key}={rng.choice(RANDOM_VALUES[key])}" for key in sorted(keys))))
    return argvs


def digest(argv: list[str], cfg: Path) -> str:
    """sha256 over the exit code, stdout and stderr of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([str(cfg) if a == CFG else a for a in argv])
    return hashlib.sha256(
        json.dumps([code, out.getvalue(), err.getvalue()]).encode("utf-8")
    ).hexdigest()


def read_table() -> list[tuple[list[str], str]]:
    rows = []
    for line in TABLE.read_text(encoding="utf-8").splitlines():
        sha, _, argv = line.partition("  ")
        rows.append((json.loads(argv), sha))
    return rows


def write_table(cfg: Path) -> None:
    """Rewrite the table, printing each argv whose digest changed or is new."""
    old = {json.dumps(argv): sha for argv, sha in read_table()} if TABLE.exists() else {}
    lines = []
    for argv in grid_argvs():
        key, sha = json.dumps(argv), digest(argv, cfg)
        if old.get(key) != sha:
            print(_case_id(argv))
        lines.append(f"{sha}  {key}")
    TABLE.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _default_cfg(directory: Path) -> Path:
    cfg = directory / "demo.cfg"
    cfg.write_text(default_config().to_text(), encoding="utf-8")
    return cfg


def test_the_table_holds_the_grid():
    # a changed grid needs a rewritten table
    assert [argv for argv, _ in read_table()] == grid_argvs()


@pytest.fixture(scope="module")
def cfg(tmp_path_factory):
    return _default_cfg(tmp_path_factory.mktemp("grid"))


def _case_id(argv: list[str]) -> str:
    return " ".join(a for a in argv if a not in ("--set", CFG))


@pytest.mark.parametrize(
    "argv, sha", [pytest.param(argv, sha, id=_case_id(argv)) for argv, sha in read_table()]
)
def test_no_byte_of_the_grid_moved(argv, sha, cfg):
    assert digest(argv, cfg) == sha, f"the bytes of {' '.join(argv)} moved"


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        raise SystemExit(__doc__)
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        write_table(_default_cfg(Path(scratch)))
