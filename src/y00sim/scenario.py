"""Scenario runner: reproducible Monte Carlo experiments over the full
stack (keystream -> keyed encode -> link noise -> keyed decode, with the
eavesdropper attacking each symbol), parameter sweeps, and attack reports.

Reproducibility contract: trials are split into fixed-size chunks; chunk c
of stream s draws from a generator seeded by SeedSequence(master_rng_seed,
spawn_key=(s, c)). Chunks are evaluated one after another in index order,
so the report bytes depend only on the configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from . import kernels
from .coherent_algebra import (
    embedding_diagonal,
    entangled_fraction,
    lossy_shared_states,
    orthonormal_embedding,
    toeplitz_embedding,
    toeplitz_embedding_diagonal,
)
from .detection import guess_baseline, helstrom_error, minimax_pair, srm_diagonal
from .errors import ConfigError, IllConditionedEnsembleError, ParameterError
from .fiber_link import LinkParams, decision_point, gaussian_ber, level_photon_rate
from .overlap_coding import analytic_block_error, pattern_array
from .y00_cipher import (
    BasisAssignment,
    ConstellationSpec,
    KeystreamGenerator,
    SeedKey,
    draw_symbol_frames,
    draw_uniform,
    is_maximal_lfsr,
    lfsr_polynomial,
)

CHUNK_SIZE = 16384

_ETA_SWEEP = (1.0, 0.8, 0.6, 0.4, 0.2, 0.1, 0.01, 0.001, 0.0001)

# Ladders with at most this many levels take their Gram root from the
# 2M-state ensemble, larger ones from the two halves of the Toeplitz
# overlap sequence. The bound only keeps pinned bytes: the largest pinned
# ladder has 128 levels, and the split's root differs from the ensemble's
# in the last digits. It goes when those pins are next re-pinned.
_PINNED_LADDER_MAX_ROWS = 128


def _fmt(value: float) -> str:
    """17-significant-digit scientific notation; parses back bit-exact."""
    return format(float(value), ".16e")


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _on_off(raw: str) -> bool:
    if raw.lower() not in ("on", "off"):
        raise ValueError("expected on/off")
    return raw.lower() == "on"


def _is_none(raw: str) -> bool:
    return raw.lower() in ("", "none")


# Codecs of the config text: (parse the stripped value text, emit a value).
_STR = (str, str)
_INT = (int, str)
_FLOAT = (_finite, _fmt)
_HEX_OR_AUTO = (
    lambda raw: None if raw.lower() == "auto" else int(raw, 16),
    lambda value: "auto" if value is None else format(value, "X"),
)
_ON_OFF = (_on_off, lambda value: "on" if value else "off")
_NONE_OR_STR = (
    lambda raw: None if _is_none(raw) else raw,
    lambda value: "none" if value is None else value,
)
_NONE_OR_FLOATS = (
    lambda raw: None if _is_none(raw) else tuple(_finite(v) for v in raw.split(",")),
    lambda value: "none" if not value else ",".join(_fmt(v) for v in value),
)


def _field(key: str, codec, default, *, choices=None, bound=None):
    """A config field: its text key, its (parse, emit) codec and its own
    range, as allowed ``choices`` or a ``bound`` such as (">=", 1), or
    (">=", 1, 1024) with an inclusive top."""
    return field(
        default=default, metadata={"key": key, "codec": codec, "choices": choices, "bound": bound}
    )


@dataclass(frozen=True)
class ScenarioConfig:
    """One reproducible experiment, serializable as flat key=value text.

    Each field's metadata is its whole text contract: key, codec and range.
    Parsing, emitting, validation and sweep points all read it. A config is
    validated once, when it is built, so every instance is valid.
    """

    kind: str = _field("kind", _STR, "intensity_ladder",
                       choices=("intensity_ladder", "phase_ladder"))
    # Every command factors the ladder's Gram, so time grows as M^3 and
    # memory as M^2. Up to 128 levels (M <= 64) it factors the complex 2M x 2M
    # Gram; above, two real M x M halves, with about 16x less arithmetic.
    # The README gives the M=1024 figures.
    m_bases: int = _field("M", _INT, 16, bound=(">=", 1, 1024))
    alpha_max: float = _field("alpha_max", _FLOAT, 100.0, bound=(">", 0))
    assignment: str = _field("assignment", _STR, "osk", choices=("osk", "non_overlap"))
    seed_key: str = _field("seed_key", _STR, "ACE1F00D")
    keystream: str = _field("keystream", _STR, "lfsr", choices=("lfsr", "counter_hash"))
    lfsr_poly: Optional[int] = _field("lfsr_poly", _HEX_OR_AUTO, None, bound=(">=", 1))
    g_p: float = _field("G_p", _FLOAT, 100.0)
    kappa_r: float = _field("kappa_r", _FLOAT, 0.5)
    n_repeaters: int = _field("N", _INT, 10, bound=(">=", 0))
    n_mean: float = _field("n_mean", _FLOAT, 1e13, bound=(">", 0))
    n_sp: float = _field("n_sp", _FLOAT, 1.5)
    bandwidth: float = _field("B", _FLOAT, 1e9)
    delta_f: float = _field("delta_f", _FLOAT, 1e11)
    thermal_var: float = _field("I_th_var", _FLOAT, 1e-13)
    coding: bool = _field("coding", _ON_OFF, True)
    trials: int = _field("trials", _INT, 100_000, bound=(">=", 1))
    master_rng_seed: int = _field("master_rng_seed", _INT, 20260810, bound=(">=", 0))
    sweep_variable: Optional[str] = _field("sweep_variable", _NONE_OR_STR, None,
                                           choices=("M", "alpha_max", "N", "n_mean"))
    sweep_values: Optional[tuple[float, ...]] = _field("sweep_values", _NONE_OR_FLOATS, None)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for f in fields(self):
            key, value = f.metadata["key"], getattr(self, f.name)
            choices, bound = f.metadata["choices"], f.metadata["bound"]
            if value is None:
                continue
            if choices is not None and value not in choices:
                raise ConfigError(f"{key}: must be one of {choices}, got {value!r}")
            if bound is not None:
                op, low, *high = bound
                if not (value > low if op == ">" else value >= low):
                    raise ConfigError(f"{key}: must be {op} {low}, got {value}")
                if high and value > high[0]:
                    raise ConfigError(f"{key}: must be <= {high[0]}, got {value}")
        if self.sweep_variable is not None and not self.sweep_values:
            raise ConfigError("sweep_values: empty sweep list")
        if self.sweep_values and len(set(self.sweep_values)) < len(self.sweep_values):
            # each row of a sweep is keyed by its value
            raise ConfigError(f"sweep_values: a value is repeated in {self.sweep_values}")
        try:
            spec = self.constellation()
        except ParameterError as exc:
            # kind and M have passed their own checks: the peak is at fault
            raise ConfigError(f"alpha_max: {exc}") from exc
        fault = self._link[1]
        if fault is not None:
            # name the link keys that, each set back to its default alone,
            # make the link valid (all of them if none does)
            values = self._link_values()
            culprits = [
                key for key in _LINK_KEYS
                if _link_check({**values, _FIELDS[key].name: _FIELDS[key].default}, spec)[1] is None
            ]
            raise ConfigError(f"{', '.join(culprits or _LINK_KEYS)}: {fault}")
        key = "seed_key"
        try:
            seed = SeedKey.from_hex(self.seed_key)
            if self.keystream == "lfsr":
                # a register of at most 64 bits leaves only an explicit polynomial at fault
                key = "lfsr_poly" if self.lfsr_poly is not None and seed.n <= 64 else key
                lfsr_polynomial(seed.n, self.lfsr_poly)
        except ParameterError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
        if self.keystream == "lfsr" and self.lfsr_poly is not None:
            if not is_maximal_lfsr(seed.n, self.lfsr_poly):
                raise ConfigError(
                    f"lfsr_poly: 0x{self.lfsr_poly:X} does not give a {seed.n}-bit LFSR "
                    f"the maximal period 2^{seed.n} - 1"
                )
        if self.sweep_variable is not None:
            self._sweep_points  # a bad point stops here, before any point runs

    def constellation(self) -> ConstellationSpec:
        """The configured ladder: the one (frozen) spec validate() built."""
        return self._constellation

    @cached_property
    def _constellation(self) -> ConstellationSpec:
        if self.kind == "intensity_ladder":
            return ConstellationSpec.intensity_ladder(self.m_bases, self.alpha_max)
        return ConstellationSpec.phase_ladder(self.m_bases, self.alpha_max)

    @cached_property
    def _link(self) -> tuple:
        """(tables, fault) of the configured link, from the one build that
        validate() checks and run_scenario reads."""
        return _link_check(self._link_values(), self.constellation())

    @cached_property
    def _sweep_points(self) -> tuple["ScenarioConfig", ...]:
        """The sweep's points in ascending order, built (so validated) by
        validate() and run by sweep()."""
        return tuple(self.with_value(self.sweep_variable, v) for v in sorted(self.sweep_values))

    def _link_values(self) -> dict:
        return {_FIELDS[key].name: getattr(self, _FIELDS[key].name) for key in _LINK_KEYS}

    def link_params(self) -> LinkParams:
        return LinkParams(**self._link_values())

    def keystream_generator(self) -> KeystreamGenerator:
        return KeystreamGenerator(
            SeedKey.from_hex(self.seed_key), kind=self.keystream, polynomial=self.lfsr_poly
        )

    def with_value(self, key: str, value: float) -> "ScenarioConfig":
        """A sweep point: a copy with the numeric field ``key`` set to
        ``value`` and no sweep of its own; an integer field takes only
        integral values."""
        f = _FIELDS[key]
        if f.metadata["codec"] is _INT:
            if value != int(value):
                raise ConfigError(f"sweep_values: {key} must be an integer, got {value}")
            value = int(value)
        return replace(self, **{f.name: value}, sweep_variable=None, sweep_values=None)

    # -- flat key=value serialization ------------------------------------

    @classmethod
    def from_text(cls, text: str, overrides: tuple[str, ...] = ()) -> "ScenarioConfig":
        """Parse file lines, then ``--set`` overrides, each KEY=VALUE; a
        later assignment of a key wins."""
        entries = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if line:
                entries.append((f"line {lineno}", line))
        entries.extend(("override", item) for item in overrides)
        values = {}
        for where, entry in entries:
            key, sep, raw = (part.strip() for part in entry.partition("="))
            if not sep:
                raise ConfigError(f"{where}: expected key=value, got {entry!r}")
            f = _FIELDS.get(key)
            if f is None:
                raise ConfigError(f"{key}: unknown configuration key")
            try:
                values[f.name] = f.metadata["codec"][0](raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{key}: cannot parse {raw!r} ({exc})") from exc
        return cls(**values)

    @classmethod
    def from_file(cls, path, overrides: tuple[str, ...] = ()) -> "ScenarioConfig":
        try:
            # utf-8-sig drops a byte-order mark that would glue onto the first key
            text = Path(path).read_text(encoding="utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
        return cls.from_text(text, overrides)

    def lines(self, keys=None) -> list[str]:
        """``key=value`` lines for ``keys`` (default: every key, in field order)."""
        lines = []
        for key in _FIELDS if keys is None else keys:
            f = _FIELDS[key]
            lines.append(f"{key}={f.metadata['codec'][1](getattr(self, f.name))}")
        return lines

    def to_text(self) -> str:
        return "\n".join(["# y00sim scenario configuration", *self.lines()]) + "\n"


_FIELDS = {f.metadata["key"]: f for f in fields(ScenarioConfig)}
# the keys link_params() reads: its fields share their names with LinkParams'
_LINK_KEYS = tuple(key for key, f in _FIELDS.items() if f.name in LinkParams.__dataclass_fields__)


def default_config() -> ScenarioConfig:
    """The shipped demo scenario: M=16 ladder at 1e4 peak photons, OSK,
    10 repeaters at 1 GHz, repetition coding on."""
    return ScenarioConfig()


def _probability(**kwargs):
    return field(metadata={"probability": True}, **kwargs)


@dataclass(frozen=True)
class TrialReport:
    """Measured and analytic error rates of one scenario run, its fields in
    report order. The block fields stay 0 and None when coding is off."""

    trials: int
    bob_ber_analytic: float = _probability()
    bob_ber_montecarlo: float = _probability()
    bob_ber_stderr: float
    bob_error_count: int
    eve_bit_error_analytic: float = _probability()
    eve_bit_error_montecarlo: float = _probability()
    eve_bit_error_stderr: float
    eve_bit_error_count: int
    eve_state_error_srm: float = _probability()
    guess_baseline: float = _probability()
    coded_blocks: int = 0
    block_error_analytic: Optional[float] = _probability(default=None)
    block_error_montecarlo: Optional[float] = _probability(default=None)
    block_error_stderr: Optional[float] = None
    block_error_count: Optional[int] = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.metadata.get("probability") and value is not None and not 0.0 <= value <= 1.0:
                raise ParameterError(f"{f.name} must lie in [0, 1], got {value}")

    def to_text(self, config: ScenarioConfig) -> str:
        lines = [
            "# y00sim trial report",
            *config.lines(("kind", "M", "alpha_max", "assignment", "coding", "master_rng_seed")),
            *(f"{f.name}={_cell(getattr(self, f.name))}" for f in fields(self)),
        ]
        return "\n".join(lines) + "\n"


def _cell(value) -> str:
    """A report or CSV value: na for None, integers exact, floats via _fmt."""
    if value is None:
        return "na"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _fmt(float(value))


def _chunk_rng(master_seed: int, stream: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(stream, chunk))
    )


def _chunk_bounds(total: int):
    for c, lo in enumerate(range(0, total, CHUNK_SIZE)):
        yield c, lo, min(lo + CHUNK_SIZE, total)


def _stderr(errors: int, n: int) -> float:
    p = errors / n
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _draw_code_ids(gen: KeystreamGenerator, count: int) -> np.ndarray:
    """One code id per block, 2 running-key bits per attempt, value 3 rejected."""
    return draw_uniform(gen, 3, count)[0]


def _link_tables(params: LinkParams, spec: ConstellationSpec):
    """(cut, basis_ber): Bob's per-level cut and per-basis BERs, basis j
    pairing level j (off) with level j + M (on). A symbol on level l is
    decided high when its noise draw z exceeds cut[l] = (thr - mean) / sigma,
    within about 1e-14 of the cut of where its photocurrent mean + sigma * z
    exceeds thr (the quotient rounds twice); an overflowing cut is +-inf."""
    m = spec.m_bases
    rates = level_photon_rate(params, spec, np.arange(2 * m))
    thresholds, i_on, i_off, sigma_on, sigma_off = decision_point(params, rates[m:], rates[:m])
    basis_ber = gaussian_ber(i_on, i_off, sigma_on, sigma_off)
    mean_i, sigma_i = np.concatenate([i_off, i_on]), np.concatenate([sigma_off, sigma_on])
    with np.errstate(over="ignore"):
        cut = (np.tile(thresholds, 2) - mean_i) / sigma_i
    return cut, basis_ber


def _link_check(values: dict, spec: ConstellationSpec) -> tuple[Optional[tuple], Optional[str]]:
    """(tables, fault) of the link with ``LinkParams`` fields ``values`` on
    ``spec``: its read-only ``_link_tables`` on a usable intensity ladder
    (else None), and why ``LinkParams`` or ``fiber_link`` rejects it (else None)."""
    try:
        params = LinkParams(**values)
    except ParameterError as exc:
        return None, str(exc)
    if spec.kind != "intensity_ladder":
        return None, None
    try:
        tables = _link_tables(params, spec)
    except ParameterError as exc:
        return None, f"the link budget is out of double-precision range ({exc})"
    for table in tables:
        table.flags.writeable = False  # a config shares them with every run
    return tables, None


def _eve_cuts(root: np.ndarray, m: int) -> np.ndarray:
    """Per-level cut of Eve's bit guess: from level l she guesses 1 when
    u > cut[l], for u uniform on [0, 1).

    She guesses 1 when her SRM outcome j, drawn with probability |S_jl|^2
    down column l of the Gram root S, is an upper-half level: by inverse
    CDF, exactly when u exceeds the lower half's share of the column. So no
    per-symbol work grows with M.
    """
    p = np.abs(root)
    np.square(p, out=p)
    return p[:m].sum(axis=0) / p.sum(axis=0)


def run_scenario(config: ScenarioConfig) -> TrialReport:
    """Run the full pipeline for ``config.trials`` symbols (and as many
    coded blocks when coding is on)."""
    if config.kind != "intensity_ladder":
        raise ConfigError("kind: the Monte Carlo link model requires intensity_ladder")
    spec = config.constellation()
    assignment = BasisAssignment(config.assignment)
    m = spec.m_bases
    bob_cut, basis_ber = config._link[0]

    # the levels are the distinct kets of either assignment's bit mixtures
    if 2 * m <= _PINNED_LADDER_MAX_ROWS:
        root = orthonormal_embedding(spec.ensemble())
    else:
        root = toeplitz_embedding(spec.overlaps())
    if assignment.mode == "osk":
        # both bit mixtures are the uniform mixture of all 2M levels, so
        # they are one density operator and no measurement beats a guess
        eve_bit_error = 0.5
    else:
        # bit 0 is sent on the lower half of the levels and bit 1 on the
        # upper, each level with prior 1/2M: the root's columns are the kets
        eve_bit_error = helstrom_error(root, np.repeat((-1.0, 1.0), m) / (2 * m))
    _, eve_state_error = srm_diagonal(np.diag(root))
    eve_cut = _eve_cuts(root, m)
    # only the draws outside a table's reach are decided one by one
    eve_reach = kernels.decision_reach(eve_cut, m)
    bob_reach = kernels.decision_reach(bob_cut, m)

    gen = config.keystream_generator()
    n = config.trials
    basis, polarity = draw_symbol_frames(gen, m, assignment, n)
    bob_errors = eve_errors = 0
    for c, lo, hi in _chunk_bounds(n):
        rng = _chunk_rng(config.master_rng_seed, 0, c)
        bits = rng.integers(0, 2, size=hi - lo, dtype=np.uint8)
        z = rng.standard_normal(hi - lo)
        u = rng.random(hi - lo)
        frame = basis[lo:hi], polarity[lo:hi], bits
        bob_errors += kernels.bob_errors(*frame, z, bob_cut, bob_reach)
        eve_errors += kernels.eve_errors(*frame, u, eve_cut, eve_reach)

    block_fields = {}
    if config.coding:
        basis, polarity = draw_symbol_frames(gen, m, assignment, n)
        code_ids = _draw_code_ids(gen, n)
        patterns = pattern_array()
        block_errors = 0
        for c, lo, hi in _chunk_bounds(n):
            rng = _chunk_rng(config.master_rng_seed, 1, c)
            bits = rng.integers(0, 2, size=hi - lo, dtype=np.uint8)
            z = rng.standard_normal((hi - lo, 3))
            frame = basis[lo:hi], polarity[lo:hi], code_ids[lo:hi], bits
            block_errors += kernels.coded_errors(*frame, z, bob_cut, bob_reach, patterns)
        block_fields = dict(
            coded_blocks=n,
            block_error_analytic=float(np.mean(list(map(analytic_block_error, basis_ber)))),
            block_error_montecarlo=block_errors / n,
            block_error_stderr=_stderr(block_errors, n),
            block_error_count=block_errors,
        )

    return TrialReport(
        trials=n,
        bob_ber_analytic=float(basis_ber.mean()),
        bob_ber_montecarlo=bob_errors / n,
        bob_ber_stderr=_stderr(bob_errors, n),
        bob_error_count=bob_errors,
        eve_bit_error_analytic=eve_bit_error,
        eve_bit_error_montecarlo=eve_errors / n,
        eve_bit_error_stderr=_stderr(eve_errors, n),
        eve_bit_error_count=eve_errors,
        eve_state_error_srm=eve_state_error,
        guess_baseline=guess_baseline(2 * m),
        **block_fields,
    )


# ---------------------------------------------------------------------------
# Sweeps and CSV emission
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CsvSeries:
    """A rectangular table: header row plus data rows keyed by sweep value."""

    header: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.header):
                raise ParameterError("rows must match the header width")


def sweep(config: ScenarioConfig) -> CsvSeries:
    """One run_scenario per sweep value, rows ordered by ascending value.
    The columns are the report's float fields; the block ones need coding."""
    if config.sweep_variable is None:
        raise ConfigError("sweep_variable: a sweep needs a variable")
    # annotations are strings here (postponed evaluation)
    columns = [
        f.name for f in fields(TrialReport)
        if f.type == "float" or (config.coding and f.type == "Optional[float]")
    ]
    swept = _FIELDS[config.sweep_variable].name
    rows = []
    for point in config._sweep_points:
        report = run_scenario(point)
        rows.append((getattr(point, swept), *(getattr(report, name) for name in columns)))
    return CsvSeries((config.sweep_variable, *columns), tuple(rows))


def write_text(text: str, destination) -> None:
    """Write ``text`` to a path (as UTF-8, line endings untranslated) or to
    a file-like object."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    elif hasattr(destination, "write"):
        destination.write(text)
    else:
        raise ParameterError(f"cannot write to {destination!r}")


def emit_csv(series: CsvSeries, destination) -> None:
    """Write a series as UTF-8 CSV: '.' decimal, 17-significant-digit
    scientific notation, LF line endings, header first."""
    lines = [",".join(series.header)]
    lines.extend(",".join(_cell(v) for v in row) for row in series.rows)
    write_text("\n".join(lines) + "\n", destination)


# ---------------------------------------------------------------------------
# Attack suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttackReport:
    """Detection-theory attacks on a configured constellation.

    Every neighbour pair of an exact ladder has the same overlap, so the
    pairs tie and the report names levels (1, 2). Its ``worst_pair_error``
    is helstrom_pure_pair's (1 - sqrt(1 - x)) / 2, which cancels as the
    overlap x shrinks: about 12 of its digits are true on the default
    config.
    """

    worst_pair_prior: float
    worst_pair_error: float
    srm_state_error: float
    guessing_error: float
    probe_alpha: float
    fraction_rows: tuple[tuple[float, float, float], ...]

    def to_text(self) -> str:
        lines = [
            "# y00sim attack suite",
            "worst_neighbor_pair=1,2",
            f"minimax_prior={_fmt(self.worst_pair_prior)}",
            f"minimax_error={_fmt(self.worst_pair_error)}",
            f"srm_state_error={_fmt(self.srm_state_error)}",
            # no closed form gives the M-ary minimax value, so the
            # equal-prior SRM error stands in for it as a bound
            f"srm_minimax_bound={_fmt(self.srm_state_error)}",
            "srm_minimax_bound_exact=no (upper bound)",
            f"guessing_error={_fmt(self.guessing_error)}",
            f"entanglement_probe_alpha={_fmt(self.probe_alpha)}",
            "eta,entangled_fraction,closed_form_fraction",
        ]
        lines.extend(
            f"{_fmt(eta)},{_fmt(frac)},{_fmt(closed)}"
            for eta, frac, closed in self.fraction_rows
        )
        return "\n".join(lines) + "\n"


def attack_suite(config: ScenarioConfig) -> AttackReport:
    """Neighbour-pair minimax, 2M-state SRM vs guessing, and the entangled
    fraction surviving a lossy channel for the configured amplitude."""
    spec = config.constellation()
    # the probes run first: one too small for the embedding is a config
    # error, and it should stop the command before the 2M-state root
    if spec.kind == "intensity_ladder":
        probe_alpha = float(spec.level_amplitudes()[0])
    else:
        probe_alpha = float(config.alpha_max)
    try:
        states = lossy_shared_states(probe_alpha, _ETA_SWEEP)
    except (IllConditionedEnsembleError, ParameterError) as exc:
        raise ConfigError(
            f"alpha_max: the entanglement probe alpha={probe_alpha:g} is too small"
            f" for the 4x4 embedding ({exc})"
        ) from exc
    # each fraction is its own psi2^dagger rho psi2: one stacked product
    # rounds differently in the last bit
    rows = tuple((state.eta, *entangled_fraction(state)) for state in states)

    worst_prior, worst_error = minimax_pair(*spec.level_states(2))
    # the error needs only the root's diagonal, not the root or the outcome distribution
    n_levels = 2 * spec.m_bases
    if n_levels <= _PINNED_LADDER_MAX_ROWS:
        diagonal = embedding_diagonal(spec.ensemble())
    else:
        diagonal = toeplitz_embedding_diagonal(spec.overlaps())
    _, srm_state_error = srm_diagonal(diagonal)
    return AttackReport(
        worst_pair_prior=worst_prior,
        worst_pair_error=worst_error,
        srm_state_error=srm_state_error,
        guessing_error=guess_baseline(n_levels),
        probe_alpha=probe_alpha,
        fraction_rows=rows,
    )
