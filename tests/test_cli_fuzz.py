"""Seeded fuzz of the command line: `run`, `sweep` and `attacks` over valid
and boundary key sets either succeed with every probability in [0, 1], stop
with a config error (exit 2) before any work, or stop with a single
`error: ` line (exit 1), never with another exception or a RuntimeWarning."""

import contextlib
import io
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from y00sim import kernels, scenario, y00_cipher
from y00sim.cli import main as cli_main
from y00sim.scenario import TrialReport
from y00sim.y00_cipher import LFSR_MASKS

PROBABILITIES = {f.name for f in fields(TrialReport) if f.metadata.get("probability")}
ATTACK_PROBABILITIES = {
    "minimax_prior", "minimax_error", "srm_state_error", "srm_minimax_bound", "guessing_error",
}


def _floats(edges, low, high):
    return st.one_of(st.sampled_from(edges), st.floats(low, high).map(repr))


# trials is always set, as its default is 1e5; it and M stay small
TRIALS = st.integers(1, 2000).map(str)
# each key's values inside its range, its inclusive edges among them; an
# all-zero seed is a runtime error (exit 1), a vanishing attacks probe a
# config error (exit 2)
VALID = {
    "M": st.integers(1, 64).map(str),
    "kind": st.sampled_from(["intensity_ladder", "phase_ladder"]),
    "alpha_max": _floats(["1e-7", "0.25", "1", "100", "1e8"], 1e-3, 1e4),
    "assignment": st.sampled_from(["osk", "non_overlap"]),
    "seed_key": st.one_of(st.just("0000"), st.text("0123456789ABCDEF", min_size=2, max_size=8)),
    "keystream": st.sampled_from(["lfsr", "counter_hash"]),
    "lfsr_poly": st.sampled_from(["auto", f"{LFSR_MASKS[32]:X}"]),
    "G_p": _floats(["1", "100"], 1.0, 1e4),
    "kappa_r": _floats(["1e-3", "1"], 1e-3, 1.0),
    "N": st.integers(0, 20).map(str),
    "n_mean": _floats(["1", "1e13"], 1.0, 1e16),
    "n_sp": _floats(["1"], 1.0, 10.0),
    "B": _floats(["1", "1e9"], 1e6, 1e12),
    "delta_f": _floats(["1", "1e11"], 1e6, 1e12),
    "I_th_var": _floats(["0", "1e-13"], 0.0, 1e-10),
    "coding": st.sampled_from(["on", "off"]),
    "master_rng_seed": st.integers(0, 2**64).map(str),
}
SWEEP_VALUES = {
    "M": st.integers(1, 64).map(str),
    "alpha_max": _floats(["1"], 0.5, 1e4),
    "N": st.integers(0, 20).map(str),
    "n_mean": _floats(["1e13"], 1e9, 1e16),
}
# a sweep value out of its key's range; sorted last, it is the last point
BAD_LAST_SWEEP_VALUE = {
    "M": ["1025", "64.5"], "alpha_max": ["1e10"], "N": ["20.5"], "n_mean": ["1e300"],
}


@st.composite
def sweeps(draw):
    """A sweep key with up to 3 valid values, perhaps then a bad one."""
    key = draw(st.sampled_from(sorted(SWEEP_VALUES)))
    values = draw(st.lists(SWEEP_VALUES[key], min_size=1, max_size=3))
    tail = draw(st.one_of(st.none(), st.sampled_from(BAD_LAST_SWEEP_VALUE[key])))
    return key, values + ([tail] if tail is not None else [])


# A config error must stop a command before these: the 2M-state roots, Bob's
# decision cuts and the keyed draws. (The attacks probe's own 4x4 root comes
# before its floor check, which fails on that root.)
WORK = [
    (scenario, "orthonormal_embedding"), (scenario, "embedding_diagonal"),
    (kernels, "decision_cuts"), (scenario, "draw_uniform"), (y00_cipher, "draw_uniform"),
]
# a step past a range, or a value out of double-precision reach (exit 2)
OUT_OF_RANGE = [
    "M=0", "M=1025", "alpha_max=5e-324", "alpha_max=1e10", "G_p=0.5", "G_p=1e200",
    "kappa_r=0", "kappa_r=1e-320", "kappa_r=2", "N=-1", "n_mean=0", "n_mean=1e300",
    "n_sp=0.5", "n_sp=1e300", "B=0", "delta_f=-1", "I_th_var=-1", "trials=0",
    "master_rng_seed=-1", "seed_key=F", "seed_key=ABCDEF1234", "seed_key=123456789ABCDEF012",
    "lfsr_poly=0", "lfsr_poly=1", "lfsr_poly=3", "lfsr_poly=B400", "sweep_values=none",
    "sweep_values=8.5", "sweep_values=nan",
]


@st.composite
def key_sets(draw):
    """A few keys set inside their ranges, the rest left at their defaults."""
    keys = draw(st.lists(st.sampled_from(sorted(VALID)), max_size=6, unique=True))
    return {"trials": draw(TRIALS), **{key: draw(VALID[key]) for key in keys}}


@pytest.fixture(scope="module")
def empty_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "empty.cfg"
    path.write_text("")
    return str(path)


def _in_unit_interval(text: str) -> bool:
    return 0.0 <= float(text) <= 1.0


def _probabilities_in_range(command: str, out: str) -> bool:
    lines = out.splitlines()
    if command == "run":
        cells = dict(line.split("=", 1) for line in lines[1:])
        return all(_in_unit_interval(cells[name]) for name in PROBABILITIES if cells[name] != "na")
    if command == "sweep":
        header = lines[0].split(",")
        return all(
            _in_unit_interval(cell)
            for row in lines[1:]
            for name, cell in zip(header, row.split(","))
            if name in PROBABILITIES
        )
    split = lines.index("eta,entangled_fraction,closed_form_fraction")
    cells = dict(line.split("=", 1) for line in lines[1:split])
    # closed_form_fraction is the textbook formula, shown for comparison: it can exceed 1
    return all(_in_unit_interval(cells[name]) for name in ATTACK_PROBABILITIES) and all(
        _in_unit_interval(cell) for row in lines[split + 1:] for cell in row.split(",")[:2]
    )


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    command=st.sampled_from(["run", "sweep", "attacks"]),
    values=key_sets(),
    swept=st.one_of(st.none(), sweeps()),
    bad=st.one_of(st.none(), st.sampled_from(OUT_OF_RANGE)),
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_exits_cleanly_with_probabilities_in_range(empty_config, command, values, swept, bad):
    overrides = [f"{key}={value}" for key, value in values.items()]
    if swept is not None:
        overrides += [f"sweep_variable={swept[0]}", f"sweep_values={','.join(swept[1])}"]
    if bad is not None:
        overrides.append(bad)
    argv = [command, empty_config]
    if command != "attacks":
        argv += ["--workers", "2"]
    for item in overrides:
        argv += ["--set", item]
    out, err = io.StringIO(), io.StringIO()
    worked = []
    with pytest.MonkeyPatch.context() as patch:
        for module, name in WORK:
            def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                worked.append(_name)
                return _original(*args, **kwargs)

            patch.setattr(module, name, counted)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    if code == 0:
        assert _probabilities_in_range(command, out.getvalue()), (argv, out.getvalue())
    elif code == 2:
        assert err.getvalue().startswith("config error: "), (argv, err.getvalue())
        assert worked == [], (argv, worked)
    else:
        assert code == 1, argv
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
