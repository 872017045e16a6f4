"""Seeded fuzz of the config text: any key=value set either parses to a
config or fails with a ConfigError naming the key, never with another
exception or a RuntimeWarning."""

import re
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from y00sim.errors import ConfigError
from y00sim.scenario import ScenarioConfig

KEYS = [f.metadata["key"] for f in fields(ScenarioConfig)]

# every bound's edge, the double-precision extremes and subnormals
EDGES = [
    "0", "-0", "1", "-1", "0.5", "2", "1e8", "100000000.00000001", "1e-7", "1e200",
    "1e300", "1.7976931348623157e308", "2.2250738585072014e-308", "1e-310", "5e-324",
    "nan", "inf", "-inf", "1e999", "",
]

FLOAT = st.one_of(
    st.sampled_from(EDGES),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(min_value=0.0, max_value=2.2250738585072014e-308).map(repr),
)
INTEGER = st.one_of(st.sampled_from(["0", "-1", "1", "1.5", ""]),
                    st.integers(-(10**400), 10**400).map(str))

# validation builds all 2M levels, so M stays small, and is never garbage
VALUES = {
    "M": st.integers(1, 512).map(str),
    "kind": st.sampled_from(["intensity_ladder", "phase_ladder", "ladder"]),
    "assignment": st.sampled_from(["osk", "non_overlap", "OSK"]),
    "keystream": st.sampled_from(["lfsr", "counter_hash", "aes"]),
    "coding": st.sampled_from(["on", "off", "ON", "yes"]),
    "sweep_variable": st.sampled_from(["none", "", "M", "alpha_max", "N", "n_mean", "trials"]),
    "seed_key": st.one_of(st.sampled_from(["ACE1F00D", "0000", "FF", "123456789ABCDEF012"]),
                          st.text("0123456789abcdefABCDEF", max_size=20)),
    "lfsr_poly": st.one_of(st.sampled_from(["auto", "0", "1", "B400", "-3"]),
                           st.text("0123456789ABCDEF", max_size=20)),
    "sweep_values": st.one_of(st.just("none"), st.lists(FLOAT, max_size=4).map(",".join)),
    "N": INTEGER,
    "trials": INTEGER,
    "master_rng_seed": INTEGER,
}


@st.composite
def entries(draw):
    keys = draw(st.lists(st.sampled_from(KEYS), max_size=len(KEYS)))
    items = []
    for key in keys:
        garbage = key != "M" and draw(st.integers(0, 9)) == 0
        value = draw(st.text(max_size=12) if garbage else VALUES.get(key, FLOAT))
        forms = 10 * [f"{key}={value}"] + [f" {key} = {value} "]
        if "=" not in value:
            forms.append(f"{key}{value}")  # no '=': a syntax error
        items.append(draw(st.sampled_from(forms)))
    return items


def _fits_a_line(item: str) -> bool:
    return "#" not in item and item.splitlines() == [item]


def _names_where(message: str) -> bool:
    head = message.split(": ", 1)[0]
    if re.fullmatch(r"line \d+|override", head):
        return True
    return all(key in KEYS for key in head.split(", "))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(items=entries(), as_file=st.booleans())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_from_text_returns_a_config_or_a_config_error_naming_the_key(items, as_file):
    if as_file and all(_fits_a_line(item) for item in items):
        text, overrides = "\n".join(items), ()
    else:
        text, overrides = "", tuple(items)
    try:
        config = ScenarioConfig.from_text(text, overrides)
    except ConfigError as exc:
        assert _names_where(str(exc)), str(exc)
    else:
        assert isinstance(config, ScenarioConfig)
