"""Scenario runner: reproducible Monte Carlo experiments over the full
stack (keystream -> keyed encode -> link noise -> keyed decode, with the
eavesdropper attacking each symbol), parameter sweeps, and attack reports.

Reproducibility contract: trials are split into fixed-size chunks; chunk c
of stream s draws from a generator seeded by SeedSequence(master_rng_seed,
spawn_key=(s, c)). Chunks may be evaluated concurrently but are reduced in
index order, so the report bytes depend only on the configuration.
"""

from __future__ import annotations

import concurrent.futures
import io
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import kernels
from .coherent_algebra import EntangledFraction, entangled_fraction, lossy_shared_state
from .detection import (
    DetectionReport,
    guess_baseline,
    helstrom_mixed_pair,
    minimax_pair,
    minimax_srm_bound,
    srm_confusion,
    srm_error,
)
from .errors import ConfigError, ParameterError
from .fiber_link import LinkParams, ber_on_off, decision_point, mean_photocurrent, noise_budget
from .overlap_coding import analytic_block_error, pattern_array
from .y00_cipher import (
    BasisAssignment,
    ConstellationSpec,
    KeystreamGenerator,
    SeedKey,
    draw_symbol_frames,
    draw_uniform,
    eve_bit_mixtures,
)

CHUNK_SIZE = 16384

_SWEEPABLE = ("M", "alpha_max", "N", "n_mean")
_ETA_SWEEP = (1.0, 0.8, 0.6, 0.4, 0.2, 0.1, 0.01, 0.001, 0.0001)


@dataclass(frozen=True)
class ScenarioConfig:
    """One reproducible experiment, serializable as flat key=value text."""

    kind: str = "intensity_ladder"
    m_bases: int = 16
    alpha_max: float = 100.0
    assignment: str = "osk"
    seed_key: str = "ACE1F00D"
    keystream: str = "lfsr"
    lfsr_poly: Optional[int] = None
    g_p: float = 100.0
    kappa_r: float = 0.5
    n_repeaters: int = 10
    n_mean: float = 1e13
    n_sp: float = 1.5
    bandwidth: float = 1e9
    delta_f: float = 1e11
    thermal_var: float = 1e-13
    coding: bool = True
    trials: int = 100_000
    master_rng_seed: int = 20260810
    sweep_variable: Optional[str] = None
    sweep_values: Optional[tuple[float, ...]] = None

    def validate(self) -> None:
        if self.kind not in ("intensity_ladder", "phase_ladder"):
            raise ConfigError(f"kind: unknown constellation kind {self.kind!r}")
        if self.m_bases < 1:
            raise ConfigError(f"M: must be >= 1, got {self.m_bases}")
        if self.alpha_max <= 0:
            raise ConfigError(f"alpha_max: must be positive, got {self.alpha_max}")
        if self.assignment not in ("osk", "non_overlap"):
            raise ConfigError(f"assignment: unknown mode {self.assignment!r}")
        if self.keystream not in ("lfsr", "counter_hash"):
            raise ConfigError(f"keystream: unknown kind {self.keystream!r}")
        if self.trials < 1:
            raise ConfigError(f"trials: must be >= 1, got {self.trials}")
        if self.sweep_variable is not None and self.sweep_variable not in _SWEEPABLE:
            raise ConfigError(
                f"sweep_variable: must be one of {_SWEEPABLE}, got {self.sweep_variable!r}"
            )
        if self.sweep_variable is not None and not self.sweep_values:
            raise ConfigError("sweep_values: empty sweep list")
        try:
            self.link_params()
            self.constellation()
            SeedKey.from_hex(self.seed_key)
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc

    def constellation(self) -> ConstellationSpec:
        if self.kind == "intensity_ladder":
            return ConstellationSpec.intensity_ladder(self.m_bases, self.alpha_max)
        return ConstellationSpec.phase_ladder(self.m_bases, self.alpha_max)

    def link_params(self) -> LinkParams:
        return LinkParams(
            g_p=self.g_p,
            kappa_r=self.kappa_r,
            n_repeaters=self.n_repeaters,
            n_mean=self.n_mean,
            n_sp=self.n_sp,
            bandwidth=self.bandwidth,
            delta_f=self.delta_f,
            thermal_var=self.thermal_var,
        )

    def keystream_generator(self) -> KeystreamGenerator:
        return KeystreamGenerator(
            SeedKey.from_hex(self.seed_key), kind=self.keystream, polynomial=self.lfsr_poly
        )

    # -- flat key=value serialization ------------------------------------

    _KEYMAP = {
        "kind": ("kind", str),
        "M": ("m_bases", int),
        "alpha_max": ("alpha_max", float),
        "assignment": ("assignment", str),
        "seed_key": ("seed_key", str),
        "keystream": ("keystream", str),
        "lfsr_poly": ("lfsr_poly", "hex_or_auto"),
        "G_p": ("g_p", float),
        "kappa_r": ("kappa_r", float),
        "N": ("n_repeaters", int),
        "n_mean": ("n_mean", float),
        "n_sp": ("n_sp", float),
        "B": ("bandwidth", float),
        "delta_f": ("delta_f", float),
        "I_th_var": ("thermal_var", float),
        "coding": ("coding", "on_off"),
        "trials": ("trials", int),
        "master_rng_seed": ("master_rng_seed", int),
        "sweep_variable": ("sweep_variable", "optional_str"),
        "sweep_values": ("sweep_values", "float_list"),
    }

    @classmethod
    def _parse_value(cls, key: str, raw: str):
        field_name, conv = cls._KEYMAP[key]
        raw = raw.strip()
        try:
            if conv == "hex_or_auto":
                return field_name, None if raw.lower() == "auto" else int(raw, 16)
            if conv == "on_off":
                if raw.lower() not in ("on", "off"):
                    raise ValueError("expected on/off")
                return field_name, raw.lower() == "on"
            if conv == "optional_str":
                return field_name, None if raw.lower() in ("", "none") else raw
            if conv == "float_list":
                if raw.lower() in ("", "none"):
                    return field_name, None
                return field_name, tuple(float(v) for v in raw.split(","))
            return field_name, conv(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{key}: cannot parse {raw!r} ({exc})") from exc

    @classmethod
    def from_text(cls, text: str, overrides: tuple[str, ...] = ()) -> "ScenarioConfig":
        values = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in cls._KEYMAP:
                raise ConfigError(f"{key}: unknown configuration key")
            field_name, value = cls._parse_value(key, raw)
            values[field_name] = value
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"override {item!r}: expected key=value")
            key, raw = (part.strip() for part in item.split("=", 1))
            if key not in cls._KEYMAP:
                raise ConfigError(f"{key}: unknown configuration key")
            field_name, value = cls._parse_value(key, raw)
            values[field_name] = value
        config = cls(**values)
        config.validate()
        return config

    @classmethod
    def from_file(cls, path, overrides: tuple[str, ...] = ()) -> "ScenarioConfig":
        return cls.from_text(Path(path).read_text(encoding="utf-8"), overrides)

    def to_text(self) -> str:
        lines = [
            "# y00sim scenario configuration",
            f"kind={self.kind}",
            f"M={self.m_bases}",
            f"alpha_max={_fmt(self.alpha_max)}",
            f"assignment={self.assignment}",
            f"seed_key={self.seed_key}",
            f"keystream={self.keystream}",
            "lfsr_poly=" + ("auto" if self.lfsr_poly is None else format(self.lfsr_poly, "X")),
            f"G_p={_fmt(self.g_p)}",
            f"kappa_r={_fmt(self.kappa_r)}",
            f"N={self.n_repeaters}",
            f"n_mean={_fmt(self.n_mean)}",
            f"n_sp={_fmt(self.n_sp)}",
            f"B={_fmt(self.bandwidth)}",
            f"delta_f={_fmt(self.delta_f)}",
            f"I_th_var={_fmt(self.thermal_var)}",
            "coding=" + ("on" if self.coding else "off"),
            f"trials={self.trials}",
            f"master_rng_seed={self.master_rng_seed}",
            "sweep_variable="
            + ("none" if self.sweep_variable is None else self.sweep_variable),
            "sweep_values="
            + ("none" if not self.sweep_values else ",".join(_fmt(v) for v in self.sweep_values)),
        ]
        return "\n".join(lines) + "\n"


def default_config() -> ScenarioConfig:
    """The shipped demo scenario: M=16 ladder at 1e4 peak photons, OSK,
    10 repeaters at 1 GHz, repetition coding on."""
    return ScenarioConfig()


def _fmt(value: float) -> str:
    """17-significant-digit scientific notation; parses back bit-exact."""
    return format(float(value), ".16e")


@dataclass(frozen=True)
class TrialReport:
    """Measured and analytic error rates of one scenario run."""

    trials: int
    coded_blocks: int
    bob_ber_analytic: float
    bob_ber_montecarlo: float
    bob_ber_stderr: float
    bob_error_count: int
    eve_bit_error_analytic: float
    eve_bit_error_montecarlo: float
    eve_bit_error_stderr: float
    eve_bit_error_count: int
    eve_state_error_srm: float
    guess_baseline: float
    block_error_analytic: Optional[float]
    block_error_montecarlo: Optional[float]
    block_error_stderr: Optional[float]
    block_error_count: Optional[int]

    def __post_init__(self):
        for name in (
            "bob_ber_analytic",
            "bob_ber_montecarlo",
            "eve_bit_error_analytic",
            "eve_bit_error_montecarlo",
            "eve_state_error_srm",
            "guess_baseline",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ParameterError(f"{name} must lie in [0, 1], got {value}")

    def to_text(self, config: ScenarioConfig) -> str:
        lines = [
            "# y00sim trial report",
            f"kind={config.kind}",
            f"M={config.m_bases}",
            f"alpha_max={_fmt(config.alpha_max)}",
            f"assignment={config.assignment}",
            f"coding={'on' if config.coding else 'off'}",
            f"master_rng_seed={config.master_rng_seed}",
            f"trials={self.trials}",
            f"bob_ber_analytic={_fmt(self.bob_ber_analytic)}",
            f"bob_ber_montecarlo={_fmt(self.bob_ber_montecarlo)}",
            f"bob_ber_stderr={_fmt(self.bob_ber_stderr)}",
            f"bob_error_count={self.bob_error_count}",
            f"eve_bit_error_analytic={_fmt(self.eve_bit_error_analytic)}",
            f"eve_bit_error_montecarlo={_fmt(self.eve_bit_error_montecarlo)}",
            f"eve_bit_error_stderr={_fmt(self.eve_bit_error_stderr)}",
            f"eve_bit_error_count={self.eve_bit_error_count}",
            f"eve_state_error_srm={_fmt(self.eve_state_error_srm)}",
            f"guess_baseline={_fmt(self.guess_baseline)}",
            f"coded_blocks={self.coded_blocks}",
        ]
        if self.block_error_analytic is None:
            lines.append("block_error_analytic=na")
            lines.append("block_error_montecarlo=na")
            lines.append("block_error_stderr=na")
            lines.append("block_error_count=na")
        else:
            lines.append(f"block_error_analytic={_fmt(self.block_error_analytic)}")
            lines.append(f"block_error_montecarlo={_fmt(self.block_error_montecarlo)}")
            lines.append(f"block_error_stderr={_fmt(self.block_error_stderr)}")
            lines.append(f"block_error_count={self.block_error_count}")
        return "\n".join(lines) + "\n"


def _chunk_rng(master_seed: int, stream: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(stream, chunk))
    )


def _chunk_bounds(total: int):
    for c in range(0, max(total + CHUNK_SIZE - 1, 1) // CHUNK_SIZE):
        lo = c * CHUNK_SIZE
        hi = min(lo + CHUNK_SIZE, total)
        if lo >= hi:
            break
        yield c, lo, hi


def _stderr(errors: int, n: int) -> float:
    p = errors / n
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _draw_code_ids(gen: KeystreamGenerator, count: int) -> np.ndarray:
    """One code id per block, 2 running-key bits per attempt, value 3 rejected."""
    return draw_uniform(gen, 3, count)[0]


def _link_tables(config: ScenarioConfig, spec: ConstellationSpec):
    """Per-level current means/sigmas and per-basis thresholds and BERs."""
    params = config.link_params()
    amps = spec.level_amplitudes()
    rates = params.n_mean * (amps / spec.alpha_max) ** 2
    mean_i = np.array([mean_photocurrent(params, r) for r in rates])
    sigma_i = np.array([math.sqrt(noise_budget(params, r).total_on) for r in rates])
    m = spec.m_bases
    thresholds = np.empty(m)
    basis_ber = np.empty(m)
    for j in range(m):
        thresholds[j], *_ = decision_point(params, rates[j + m], rates[j])
        basis_ber[j] = ber_on_off(params, rates[j + m], rates[j])
    return mean_i, sigma_i, thresholds, basis_ber


def run_scenario(config: ScenarioConfig, workers: int = 1) -> TrialReport:
    """Run the full pipeline for ``config.trials`` symbols (and as many
    coded blocks when coding is on). Identical configs produce identical
    reports regardless of ``workers``."""
    config.validate()
    if config.kind != "intensity_ladder":
        raise ConfigError("kind: the Monte Carlo link model requires intensity_ladder")
    spec = config.constellation()
    assignment = BasisAssignment(config.assignment)
    m = spec.m_bases
    mean_i, sigma_i, thresholds, basis_ber = _link_tables(config, spec)

    bob_ber_analytic = float(basis_ber.mean())
    eve_report = helstrom_mixed_pair(eve_bit_mixtures(spec, assignment))
    srm_report = srm_error(spec.ensemble())
    confusion = srm_confusion(spec.ensemble())
    cdf = np.cumsum(confusion, axis=1)
    cdf /= cdf[:, -1:]

    gen = config.keystream_generator()
    n = config.trials
    basis, polarity = draw_symbol_frames(gen, m, assignment, n)

    def uncoded_chunk(args):
        c, lo, hi = args
        rng = _chunk_rng(config.master_rng_seed, 0, c)
        nc = hi - lo
        bits = rng.integers(0, 2, size=nc, dtype=np.uint8)
        z = rng.standard_normal(nc)
        u = rng.random(nc)
        basis_c = basis[lo:hi]
        polarity_c = polarity[lo:hi]
        level_idx = basis_c + m * (bits ^ polarity_c).astype(np.int64)
        bob = int(kernels.bob_errors(level_idx, basis_c, polarity_c, bits, z, mean_i, sigma_i, thresholds))
        outcomes = np.empty(nc, dtype=np.int64)
        kernels.srm_sample(cdf, level_idx, u, outcomes)
        eve_guess = (outcomes >= m).astype(np.uint8)
        eve = int(np.count_nonzero(eve_guess != bits))
        return c, bob, eve

    chunks = list(_chunk_bounds(n))
    results = _run_chunks(uncoded_chunk, chunks, workers)
    bob_errors = sum(r[1] for r in results)
    eve_errors = sum(r[2] for r in results)

    if config.coding:
        blocks = n
        basis2, polarity2 = draw_symbol_frames(gen, m, assignment, blocks)
        code_ids = _draw_code_ids(gen, blocks)
        patterns = pattern_array()
        block_error_analytic = float(
            np.mean([analytic_block_error(p) for p in basis_ber])
        )

        def coded_chunk(args):
            c, lo, hi = args
            rng = _chunk_rng(config.master_rng_seed, 1, c)
            nc = hi - lo
            bits = rng.integers(0, 2, size=nc, dtype=np.uint8)
            z = rng.standard_normal((nc, 3))
            count = int(
                kernels.coded_errors(
                    basis2[lo:hi], polarity2[lo:hi], code_ids[lo:hi], bits, z,
                    mean_i, sigma_i, thresholds, patterns, m,
                )
            )
            return c, count

        coded_results = _run_chunks(coded_chunk, list(_chunk_bounds(blocks)), workers)
        block_errors = sum(r[1] for r in coded_results)
        block_fields = dict(
            coded_blocks=blocks,
            block_error_analytic=block_error_analytic,
            block_error_montecarlo=block_errors / blocks,
            block_error_stderr=_stderr(block_errors, blocks),
            block_error_count=block_errors,
        )
    else:
        block_fields = dict(
            coded_blocks=0,
            block_error_analytic=None,
            block_error_montecarlo=None,
            block_error_stderr=None,
            block_error_count=None,
        )

    return TrialReport(
        trials=n,
        bob_ber_analytic=bob_ber_analytic,
        bob_ber_montecarlo=bob_errors / n,
        bob_ber_stderr=_stderr(bob_errors, n),
        bob_error_count=bob_errors,
        eve_bit_error_analytic=eve_report.error_probability,
        eve_bit_error_montecarlo=eve_errors / n,
        eve_bit_error_stderr=_stderr(eve_errors, n),
        eve_bit_error_count=eve_errors,
        eve_state_error_srm=srm_report.error_probability,
        guess_baseline=guess_baseline(2 * m),
        **block_fields,
    )


def _run_chunks(worker_fn, chunks, workers: int):
    if workers <= 1 or len(chunks) <= 1:
        return [worker_fn(args) for args in chunks]
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(worker_fn, chunks))
    results.sort(key=lambda r: r[0])
    return results


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


def _apply_sweep_value(config: ScenarioConfig, variable: str, value: float) -> ScenarioConfig:
    if variable == "M":
        if value != int(value) or int(value) < 1:
            raise ConfigError(f"sweep_values: M must be a positive integer, got {value}")
        return replace(config, m_bases=int(value))
    if variable == "N":
        if value != int(value) or int(value) < 0:
            raise ConfigError(f"sweep_values: N must be a nonnegative integer, got {value}")
        return replace(config, n_repeaters=int(value))
    if variable == "alpha_max":
        return replace(config, alpha_max=float(value))
    if variable == "n_mean":
        return replace(config, n_mean=float(value))
    raise ConfigError(f"sweep_variable: unsupported variable {variable!r}")


def sweep(config: ScenarioConfig, workers: int = 1) -> CsvSeries:
    """One run_scenario per sweep value, rows ordered by ascending value."""
    config.validate()
    if config.sweep_variable is None:
        raise ConfigError("sweep_variable: a sweep needs a variable")
    if not config.sweep_values:
        raise ConfigError("sweep_values: empty sweep list")
    header = [
        config.sweep_variable,
        "bob_ber_analytic",
        "bob_ber_montecarlo",
        "bob_ber_stderr",
        "eve_bit_error_analytic",
        "eve_bit_error_montecarlo",
        "eve_bit_error_stderr",
        "eve_state_error_srm",
        "guess_baseline",
    ]
    if config.coding:
        header += ["block_error_analytic", "block_error_montecarlo", "block_error_stderr"]
    rows = []
    for value in sorted(config.sweep_values):
        point = _apply_sweep_value(config, config.sweep_variable, value)
        point = replace(point, sweep_variable=None, sweep_values=None)
        report = run_scenario(point, workers=workers)
        row = [
            int(value) if config.sweep_variable in ("M", "N") else float(value),
            report.bob_ber_analytic,
            report.bob_ber_montecarlo,
            report.bob_ber_stderr,
            report.eve_bit_error_analytic,
            report.eve_bit_error_montecarlo,
            report.eve_bit_error_stderr,
            report.eve_state_error_srm,
            report.guess_baseline,
        ]
        if config.coding:
            row += [
                report.block_error_analytic,
                report.block_error_montecarlo,
                report.block_error_stderr,
            ]
        rows.append(tuple(row))
    return CsvSeries(tuple(header), tuple(rows))


def emit_csv(series: CsvSeries, destination) -> None:
    """Write a series as UTF-8 CSV: '.' decimal, 17-significant-digit
    scientific notation, LF line endings, header first."""
    def render(value) -> str:
        if isinstance(value, bool):
            raise ParameterError("boolean cells are not part of the CSV format")
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return _fmt(float(value))

    lines = [",".join(series.header)]
    lines.extend(",".join(render(v) for v in row) for row in series.rows)
    text = "\n".join(lines) + "\n"
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    elif isinstance(destination, io.TextIOBase) or hasattr(destination, "write"):
        destination.write(text)
    else:
        raise ParameterError(f"cannot write CSV to {destination!r}")


# ---------------------------------------------------------------------------
# Attack suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttackReport:
    """Detection-theory attacks on a configured constellation."""

    worst_pair_levels: tuple[int, int]
    worst_pair_prior: float
    worst_pair_error: float
    srm_state_error: float
    srm_minimax_bound: DetectionReport
    guessing_error: float
    probe_alpha: float
    fraction_rows: tuple[tuple[float, float, float], ...]

    def to_text(self) -> str:
        lines = [
            "# y00sim attack suite",
            f"worst_neighbor_pair={self.worst_pair_levels[0]},{self.worst_pair_levels[1]}",
            f"minimax_prior={_fmt(self.worst_pair_prior)}",
            f"minimax_error={_fmt(self.worst_pair_error)}",
            f"srm_state_error={_fmt(self.srm_state_error)}",
            f"srm_minimax_bound={_fmt(self.srm_minimax_bound.error_probability)}",
            "srm_minimax_bound_exact="
            + ("yes" if self.srm_minimax_bound.exact else "no (upper bound)"),
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
    """Worst-pair minimax, 2M-state SRM vs guessing, and the entangled
    fraction surviving a lossy channel for the configured amplitude."""
    config.validate()
    spec = config.constellation()
    ensemble = spec.ensemble()

    worst_error = -1.0
    worst_pair = (1, 2)
    worst_prior = 0.5
    for i in range(len(spec.levels) - 1):
        prior, value = minimax_pair(spec.levels[i], spec.levels[i + 1])
        if value > worst_error:
            worst_error = value
            worst_prior = prior
            worst_pair = (i + 1, i + 2)

    srm_report = srm_error(ensemble)
    bound = minimax_srm_bound(ensemble)

    if spec.kind == "intensity_ladder":
        probe_alpha = float(spec.level_amplitudes()[0])
    else:
        probe_alpha = float(config.alpha_max)
    rows = []
    for eta in _ETA_SWEEP:
        fraction: EntangledFraction = entangled_fraction(lossy_shared_state(probe_alpha, eta))
        rows.append((eta, fraction.fraction, fraction.closed_form))

    return AttackReport(
        worst_pair_levels=worst_pair,
        worst_pair_prior=worst_prior,
        worst_pair_error=worst_error,
        srm_state_error=srm_report.error_probability,
        srm_minimax_bound=bound,
        guessing_error=guess_baseline(len(spec.levels)),
        probe_alpha=probe_alpha,
        fraction_rows=tuple(rows),
    )
