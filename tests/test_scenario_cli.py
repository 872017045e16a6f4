import codecs
import dataclasses
import io
import math
import re
import shlex
import threading
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from y00sim import coherent_algebra, fiber_link, kernels, scenario
from y00sim.cli import main as cli_main
from y00sim.detection import srm_error
from y00sim.errors import ConfigError, ParameterError
from y00sim.fiber_link import ber_on_off, decision_point, level_photon_rate
from y00sim.scenario import (
    CHUNK_SIZE,
    CsvSeries,
    ScenarioConfig,
    _link_tables,
    attack_suite,
    default_config,
    emit_csv,
    run_scenario,
    sweep,
)
from y00sim.y00_cipher import ConstellationSpec


def log_tail_bound(k: int, n: int, p: float) -> float:
    """log of the Chernoff bound exp(-n KL(k/n || p)) on seeing k of n
    Bernoulli(p) trials, or a count further from n p."""
    x = k / n
    if x == p:
        return 0.0
    if (p == 0.0 and x > 0.0) or (p == 1.0 and x < 1.0):
        return -math.inf
    kl = x * math.log(x / p) if x > 0.0 else 0.0
    if x < 1.0:
        kl += (1.0 - x) * math.log((1.0 - x) / (1.0 - p))
    return -n * kl


def small_config(**kwargs) -> ScenarioConfig:
    base = dict(trials=2000, m_bases=4, alpha_max=8.0, n_mean=64.0 * 1e9)
    base.update(kwargs)
    return replace(default_config(), **base)


class TestConfigParsing:
    def test_default_round_trips_through_text(self):
        config = default_config()
        assert ScenarioConfig.from_text(config.to_text()) == config

    def test_comments_and_blanks_ignored(self):
        text = default_config().to_text() + "\n# trailing comment\n\n"
        assert ScenarioConfig.from_text(text) == default_config()

    def test_overrides_apply_last(self):
        config = ScenarioConfig.from_text(default_config().to_text(), ("M=4", "trials=10"))
        assert config.m_bases == 4
        assert config.trials == 10

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match="bogus"):
            ScenarioConfig.from_text("bogus=1\n")

    def test_bad_value_reports_key(self):
        with pytest.raises(ConfigError, match="trials"):
            ScenarioConfig.from_text(default_config().to_text(), ("trials=many",))

    def test_repeated_sweep_value_is_a_config_error(self, tmp_path, capsys):
        # two rows keyed by one value would repeat one run
        config_path = tmp_path / "scenario.cfg"
        config_path.write_text(small_config(trials=100).to_text())
        argv = ["sweep", str(config_path), "--set", "sweep_variable=M",
                "--set", "sweep_values=4,2,4", "--out", str(tmp_path / "out.csv")]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: sweep_values: ")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("values, key", [("2,4,8,16,5000", "M"), ("2,4,5.5", "sweep_values")])
    def test_bad_last_sweep_point_stops_before_any_point(self, tmp_path, monkeypatch, capsys,
                                                         values, key):
        # validate() builds every sweep point, so the last one is checked
        # before the first one runs
        runs = []
        monkeypatch.setattr(scenario, "run_scenario", lambda point: runs.append(point))
        config_path = tmp_path / "scenario.cfg"
        config_path.write_text(small_config(trials=100).to_text())
        argv = ["sweep", str(config_path), "--set", "sweep_variable=M",
                "--set", f"sweep_values={values}", "--out", str(tmp_path / "out.csv")]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")
        assert runs == []

    def test_sweep_runs_the_points_validate_built(self, monkeypatch):
        config = small_config(trials=100, sweep_variable="M", sweep_values=(4.0, 2.0))
        points = config._sweep_points
        assert [p.m_bases for p in points] == [2, 4]
        runs = []
        monkeypatch.setattr(scenario, "run_scenario", lambda point: runs.append(point) or
                            run_scenario(point))
        sweep(config)
        assert len(runs) == 2 and all(a is b for a, b in zip(runs, points))

    def test_invalid_field_combination(self):
        with pytest.raises(ConfigError, match="sweep_values"):
            sweep(replace(default_config(), sweep_variable="M", sweep_values=None))

    def test_every_codec_round_trips_through_text(self):
        config = ScenarioConfig(
            kind="phase_ladder", m_bases=5, alpha_max=2.5, assignment="non_overlap",
            seed_key="BEEF", keystream="counter_hash", lfsr_poly=0xB400, g_p=3.0,
            kappa_r=0.25, n_repeaters=2, n_mean=1.5e12, n_sp=2.0, bandwidth=2e9,
            delta_f=5e10, thermal_var=1e-14, coding=False, trials=1234, master_rng_seed=7,
            sweep_variable="alpha_max", sweep_values=(0.5, 1.0 / 3.0),
        )
        for f in fields(ScenarioConfig):
            assert getattr(config, f.name) != f.default, f.name
        assert "lfsr_poly=B400\n" in config.to_text()
        assert ScenarioConfig.from_text(config.to_text()) == config

    def test_every_field_has_its_own_key(self):
        keys = [f.metadata["key"] for f in fields(ScenarioConfig)]
        assert all(keys)
        assert len(set(keys)) == len(keys)

    def test_invalid_config_cannot_be_built(self):
        with pytest.raises(ConfigError, match="^G_p: "):
            replace(default_config(), g_p=0.5)

    # a UTF-8 BOM once glued itself to the first line: to the header, or,
    # without one, to the first key
    @pytest.mark.parametrize("header", [True, False])
    def test_byte_order_mark_is_not_part_of_the_first_line(self, tmp_path, header):
        text = default_config().to_text()
        if not header:
            text = text.partition("\n")[2]
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(text, encoding="utf-8")
        bom.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        assert ScenarioConfig.from_file(bom) == ScenarioConfig.from_file(plain) == default_config()

    def test_zero_seed_key_fails_at_run_time_as_seed_error(self):
        from y00sim.errors import SeedError

        config = ScenarioConfig.from_text(default_config().to_text(), ("seed_key=0000",))
        with pytest.raises(SeedError):
            run_scenario(config)


class TestRunScenario:
    def test_identical_configs_give_identical_reports(self):
        config = small_config()
        text_a = run_scenario(config).to_text(config)
        text_b = run_scenario(config).to_text(config)
        assert text_a == text_b

    def test_osk_eve_error_is_exactly_half(self):
        report = run_scenario(small_config())
        assert report.eve_bit_error_analytic == 0.5

    def test_quiet_link_gives_zero_bob_errors(self):
        config = small_config(
            g_p=1.0, kappa_r=1.0, n_repeaters=0, thermal_var=0.0,
            alpha_max=1000.0, n_mean=1e15, trials=20_000,
        )
        report = run_scenario(config)
        assert report.bob_error_count == 0
        assert report.bob_ber_montecarlo == 0.0

    def test_montecarlo_tracks_analytic_bob_ber(self):
        config = small_config(trials=100_000, alpha_max=4.0, n_mean=16.0 * 1e9,
                              g_p=30.0, kappa_r=0.5, n_repeaters=8, thermal_var=1e-15)
        report = run_scenario(config)
        spread = 3 * max(report.bob_ber_stderr, 1e-6)
        assert abs(report.bob_ber_montecarlo - report.bob_ber_analytic) < spread

    def test_one_sided_link_analytic_errors_match_montecarlo(self, tmp_path):
        # the off level's noise underflows to 0 and the on level's does not:
        # P(1|0) = 0, so Bob errs at Phi(-Q) / 2 and a block at Phi(-Q)^2 / 2,
        # here with Q about 0
        config_path = tmp_path / "scenario.cfg"
        config_path.write_text(default_config().to_text())
        out = tmp_path / "report.txt"
        settings = ["M=1", "G_p=1", "N=0", "I_th_var=0", "B=1e-3",
                    "n_mean=1.3141473626117096e-283"]
        argv = ["run", str(config_path), "--out", str(out)]
        assert cli_main(argv + [a for kv in settings for a in ("--set", kv)]) == 0
        fields = dict(line.split("=", 1) for line in out.read_text().splitlines() if "=" in line)
        n = int(fields["trials"])
        for name, count, expected in [("bob_ber", "bob_error_count", 0.25),
                                      ("block_error", "block_error_count", 0.125)]:
            analytic = float(fields[f"{name}_analytic"])
            assert analytic == pytest.approx(expected, abs=1e-12)
            assert log_tail_bound(int(fields[count]), n, analytic) >= math.log(1e-9)

    def test_coding_off_leaves_block_fields_empty(self):
        report = run_scenario(small_config(coding=False))
        assert report.block_error_analytic is None
        assert report.coded_blocks == 0

    def test_phase_ladder_rejected_for_link_runs(self):
        with pytest.raises(ConfigError, match="kind"):
            run_scenario(small_config(kind="phase_ladder", alpha_max=2.0))

    def test_non_overlap_mc_not_below_optimal_bound(self):
        # the simulated per-symbol SRM attack cannot beat the mixed-state
        # Helstrom bound it is benchmarked against
        config = small_config(assignment="non_overlap", trials=50_000, alpha_max=4.0,
                              n_mean=16.0 * 1e9)
        report = run_scenario(config)
        assert (
            report.eve_bit_error_montecarlo
            >= report.eve_bit_error_analytic - 3 * report.eve_bit_error_stderr
        )


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"m_bases": 15},
        {"m_bases": 320},
        {"n_repeaters": 0},
        {"thermal_var": 0.0},
        # noise variances underflow to 0: midpoint thresholds, BER 0
        {"g_p": 1.0, "n_repeaters": 0, "thermal_var": 0.0, "n_mean": 1e-300},
    ],
)
def test_link_tables_equal_per_basis_calls(overrides):
    # the array calls in _link_tables give the scalar per-basis values bit for bit
    config = replace(default_config(), **overrides)
    spec = config.constellation()
    params = config.link_params()
    m = spec.m_bases
    rates = level_photon_rate(params, spec, np.arange(2 * m))
    mean_i, sigma_i, thresholds, basis_ber = _link_tables(params, spec)
    per_basis = [decision_point(params, rates[j + m], rates[j]) for j in range(m)]
    threshold, i_on, i_off, sigma_on, sigma_off = (np.array(column) for column in zip(*per_basis))
    assert thresholds.tobytes() == threshold.tobytes()
    assert mean_i.tobytes() == np.concatenate([i_off, i_on]).tobytes()
    assert sigma_i.tobytes() == np.concatenate([sigma_off, sigma_on]).tobytes()
    expected_ber = [ber_on_off(params, rates[j + m], rates[j]) for j in range(m)]
    assert basis_ber.tobytes() == np.array(expected_ber).tobytes()


def test_link_tables_evaluate_the_noise_budget_once(monkeypatch):
    config = default_config()
    calls = []

    def counted(params, rates, _original=fiber_link.noise_budget):
        calls.append(np.shape(rates))
        return _original(params, rates)

    monkeypatch.setattr(fiber_link, "noise_budget", counted)
    _link_tables(config.link_params(), config.constellation())
    assert calls == [(2, config.m_bases)]


def count_eigensolves(monkeypatch, n: int) -> list:
    """Record every np.linalg.eigh/eigvalsh call on an n x n matrix or a
    stack of them."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            if np.shape(a)[-2:] == (n, n):
                calls.append(_name)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("command", [run_scenario, attack_suite])
def test_one_gram_eigensolve_per_command(monkeypatch, command):
    config = default_config()
    calls = count_eigensolves(monkeypatch, 2 * config.m_bases)
    command(config)
    assert calls == ["eigh"]


def count_checked_rows(monkeypatch, check_all=False) -> list:
    """Record (rows handed, rows decided) of every Monte Carlo kernel call,
    in call order: per chunk Bob's symbols and then Eve's, and then the
    blocks' chunks. With ``check_all`` every row is decided, as the
    kernels did before they filtered by reach."""
    calls = []

    def counted(draws, reach, _original=kernels._checked_rows):
        rows = np.arange(len(draws)) if check_all else _original(draws, reach)
        calls.append((len(draws), len(rows)))
        return rows

    monkeypatch.setattr(kernels, "_checked_rows", counted)
    return calls


def test_monte_carlo_decides_few_trials_past_the_reach(monkeypatch):
    config = default_config()
    calls = count_checked_rows(monkeypatch)
    run_scenario(config)
    chunks = -(-config.trials // CHUNK_SIZE)
    assert len(calls) == 3 * chunks
    assert sum(handed for handed, _ in calls) == 3 * config.trials
    # about 0.3% of Bob's draws and 1e-5 of Eve's and of the blocks'
    assert all(decided < 0.01 * handed for handed, decided in calls)


@pytest.mark.parametrize("alpha_max", [100.0, 1.0])
def test_the_reach_filter_keeps_every_report_byte(monkeypatch, alpha_max):
    config = replace(default_config(), alpha_max=alpha_max)
    filtered = count_checked_rows(monkeypatch)
    report = run_scenario(config).to_text(config)
    monkeypatch.undo()
    count_checked_rows(monkeypatch, check_all=True)
    assert run_scenario(config).to_text(config) == report
    if alpha_max == 1.0:
        # Eve's cuts crowd 1/2 on an overlapping ladder, so nearly every
        # guess is made one by one (Bob's cuts do not depend on alpha_max)
        chunks = -(-config.trials // CHUNK_SIZE)
        eve_decided = sum(decided for _, decided in filtered[1:2 * chunks:2])
        assert eve_decided > 0.9 * config.trials


@pytest.mark.parametrize("command, kind", [
    (run_scenario, "intensity_ladder"),
    (attack_suite, "intensity_ladder"),
    (attack_suite, "phase_ladder"),
])
def test_large_ladder_takes_two_half_size_eigensolves(monkeypatch, command, kind):
    # above 128 levels the Gram root comes from the even and odd M x M
    # halves of the overlap sequence, with no 2M x 2M eigensolve
    config = replace(default_config(), kind=kind, m_bases=65, trials=2000)
    full = count_eigensolves(monkeypatch, 130)
    halves = count_eigensolves(monkeypatch, 65)
    command(config)
    assert (full, halves) == ([], ["eigh", "eigh"])


@pytest.mark.parametrize("kind", ["intensity_ladder", "phase_ladder"])
def test_large_ladder_attacks_build_no_per_level_states(monkeypatch, kind):
    # above 128 levels attacks reads the spec's amplitude array and overlap
    # sequence: the state objects it builds (the minimax pair and the
    # entanglement probe's kets) do not grow with M
    built = []
    original = coherent_algebra.MultiModeState.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(coherent_algebra.MultiModeState, "__post_init__", counted)
    counts = []
    for m in (65, 320):
        built.clear()
        attack_suite(replace(default_config(), kind=kind, m_bases=m))
        counts.append(len(built))
    assert counts[0] == counts[1] <= 6


def count_root_products(monkeypatch, n: int) -> list:
    """Record every n x n by n x n matmul made with the eigenvectors of an
    n x n eigh, or with arrays computed from them by ufuncs; a product's
    result is a plain array again."""
    products = []

    class Traced(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
            def plain(a):
                return a.view(np.ndarray) if isinstance(a, Traced) else a

            if out is not None:
                kwargs["out"] = tuple(plain(a) for a in out)
            result = getattr(ufunc, method)(*(plain(a) for a in inputs), **kwargs)
            if ufunc is np.matmul:
                if all(np.shape(a) == (n, n) for a in inputs):
                    products.append("matmul")
                return result
            if out is not None:
                return out[0] if len(out) == 1 else out
            return result.view(Traced)

    def traced_eigh(a, *args, _original=np.linalg.eigh, **kwargs):
        w, u = _original(a, *args, **kwargs)
        return w, (u.view(Traced) if np.shape(a) == (n, n) else u)

    monkeypatch.setattr(np.linalg, "eigh", traced_eigh)
    return products


@pytest.mark.parametrize("command, products", [(run_scenario, ["matmul"]), (attack_suite, [])])
def test_only_run_forms_the_gram_root(monkeypatch, command, products):
    # attacks reads the root's diagonal off the eigenvectors of its one eigh
    # (test_one_gram_eigensolve_per_command); run needs the whole root for
    # its outcome distribution
    config = replace(default_config(), trials=1000)
    seen = count_root_products(monkeypatch, 2 * config.m_bases)
    command(config)
    assert seen == products


def test_attacks_takes_one_probe_root(monkeypatch):
    # the nine eta of the sweep are built in one call at one probe
    # amplitude, so they share one 4 x 4 eigh, and their stacked density
    # matrices share one PSD check
    calls = count_eigensolves(monkeypatch, 4)
    attack_suite(default_config())
    assert sorted(calls) == ["eigh", "eigvalsh"]


@pytest.mark.parametrize("command", ["run", "attacks"])
def test_cli_builds_one_constellation(tmp_path, monkeypatch, command):
    config_path = tmp_path / "demo.cfg"
    config_path.write_text(default_config().to_text(), encoding="utf-8")
    built = []

    def counted(self, _original=ConstellationSpec.__post_init__):
        built.append(self.kind)
        _original(self)

    monkeypatch.setattr(ConstellationSpec, "__post_init__", counted)
    assert cli_main([command, str(config_path), "--set", "trials=1000",
                     "--out", str(tmp_path / "out.txt")]) == 0
    assert built == ["intensity_ladder"]


def test_run_builds_the_link_tables_once(tmp_path, monkeypatch):
    # validate() checks the tables that run_scenario then reads
    config_path = tmp_path / "demo.cfg"
    config_path.write_text(default_config().to_text(), encoding="utf-8")
    built = []

    def counted(params, spec, _original=scenario._link_tables):
        built.append(spec.m_bases)
        return _original(params, spec)

    monkeypatch.setattr(scenario, "_link_tables", counted)
    assert cli_main(["run", str(config_path), "--set", "trials=1000",
                     "--out", str(tmp_path / "out.txt")]) == 0
    assert built == [16]


def test_constellation_is_shared_and_frozen():
    config = default_config()
    spec = config.constellation()
    assert config.constellation() is spec
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.levels = spec.levels[:2]


def test_non_overlap_run_takes_one_gram_root(monkeypatch):
    # the SRM error and the Helstrom bound share one embedding; the trace
    # norm of the signed bit operator is the one other eigensolve
    config = replace(default_config(), assignment="non_overlap", trials=1000)
    calls = count_eigensolves(monkeypatch, 2 * config.m_bases)
    run_scenario(config)
    assert sorted(calls) == ["eigh", "eigvalsh"]


def test_large_non_overlap_run_takes_one_full_size_eigvalsh(monkeypatch):
    # the root comes from the two halves; the trace norm of the signed bit
    # operator still needs the one 2M x 2M eigvalsh
    config = replace(default_config(), assignment="non_overlap", m_bases=65, trials=2000)
    full = count_eigensolves(monkeypatch, 130)
    halves = count_eigensolves(monkeypatch, 65)
    run_scenario(config)
    assert (full, halves) == (["eigvalsh"], ["eigh", "eigh"])


class TestSweep:
    def test_state_error_grows_with_bases(self):
        config = small_config(
            trials=200, alpha_max=10.0, sweep_variable="M",
            sweep_values=(2.0, 4.0, 8.0, 16.0),
        )
        series = sweep(config)
        col = series.header.index("eve_state_error_srm")
        values = [row[col] for row in series.rows]
        assert values == sorted(values)

    def test_non_overlap_bit_error_falls_with_power(self):
        config = small_config(
            trials=200, m_bases=8, assignment="non_overlap", sweep_variable="alpha_max",
            sweep_values=(0.5, 1.0, 2.0, 4.0, 8.0),
        )
        series = sweep(config)
        col = series.header.index("eve_bit_error_analytic")
        values = [row[col] for row in series.rows]
        assert values == sorted(values, reverse=True)

    def test_single_point_sweep(self):
        config = small_config(trials=100, sweep_variable="N", sweep_values=(10.0,))
        series = sweep(config)
        assert len(series.rows) == 1
        assert series.rows[0][0] == 10

    def test_sweep_needs_integer_bases(self):
        # the config itself is refused, before sweep() could run a point
        with pytest.raises(ConfigError, match="M"):
            small_config(sweep_variable="M", sweep_values=(2.5,))


class TestEmitCsv(object):
    def test_header_only_when_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(CsvSeries(("a", "b"), ()), path)
        assert path.read_bytes() == b"a,b\n"

    def test_round_trip_parses_exactly(self, tmp_path):
        rows = ((1, 0.1 + 0.2), (2, 1.0 / 3.0))
        path = tmp_path / "series.csv"
        emit_csv(CsvSeries(("k", "v"), rows), path)
        lines = path.read_text().splitlines()[1:]
        for line, (k, v) in zip(lines, rows):
            ks, vs = line.split(",")
            assert int(ks) == k
            assert float(vs) == v  # bit-exact through 17 significant digits

    def test_lf_only_line_endings(self, tmp_path):
        path = tmp_path / "lf.csv"
        emit_csv(CsvSeries(("x",), ((1.5,),)), path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_deterministic_bytes(self, tmp_path):
        series = CsvSeries(("x", "y"), ((1, 2.0), (3, 4.0)))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(series, p1)
        emit_csv(series, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_writes_to_a_path_or_a_file_like_object_only(self, tmp_path):
        series = CsvSeries(("x",), ((1.5,),))
        path = tmp_path / "series.csv"
        emit_csv(series, str(path))
        buffer = io.StringIO()
        emit_csv(series, buffer)
        assert buffer.getvalue().encode() == path.read_bytes() == b"x\n1.5000000000000000e+00\n"
        with pytest.raises(ParameterError):
            emit_csv(series, 42)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ParameterError):
            CsvSeries(("a", "b"), ((1,),))


class TestAttackSuite:
    def test_transparent_channel_row_is_fully_entangled(self):
        report = attack_suite(small_config())
        eta, fraction, _ = report.fraction_rows[0]
        assert eta == 1.0
        assert fraction == pytest.approx(1.0, abs=1e-10)

    def test_srm_beats_guessing(self):
        report = attack_suite(small_config())
        assert report.srm_state_error <= report.guessing_error

    def test_crowded_weak_constellation_approaches_guessing(self):
        config = small_config(m_bases=16, alpha_max=0.1, n_mean=0.01 * 1e9)
        report = attack_suite(config)
        assert report.guessing_error - report.srm_state_error < 0.05

    def test_minimax_bound_flagged(self):
        # the SRM error stands in for the M-ary minimax value, flagged as a bound
        config = small_config()
        report = attack_suite(config)
        fields = dict(line.split("=", 1) for line in report.to_text().splitlines() if "=" in line)
        assert fields["srm_minimax_bound_exact"] == "no (upper bound)"
        assert float(fields["srm_minimax_bound"]) == report.srm_state_error
        assert report.srm_state_error == srm_error(config.constellation().ensemble()).error_probability

    def test_entangled_fraction_stays_in_unit_interval(self):
        # the embedding put the eta=1 fraction at 1 + 4e-16 on this ladder
        report = attack_suite(replace(default_config(), m_bases=205, alpha_max=292.588))
        assert report.fraction_rows[0][:2] == (1.0, 1.0)
        assert all(0.0 <= fraction <= 1.0 for _, fraction, _ in report.fraction_rows)

    def test_works_for_phase_constellations(self):
        report = attack_suite(small_config(kind="phase_ladder", alpha_max=1.5))
        assert 0.0 <= report.srm_state_error <= report.guessing_error
        assert report.probe_alpha == 1.5


class TestCli:
    def test_emit_default_config(self, capsys):
        assert cli_main(["emit-default-config"]) == 0
        out = capsys.readouterr().out
        assert ScenarioConfig.from_text(out) == default_config()

    def test_run_round_trip(self, tmp_path, capsys):
        config_path = tmp_path / "scenario.cfg"
        config_path.write_text(small_config(trials=500).to_text())
        assert cli_main(["run", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "eve_bit_error_analytic=5.0000000000000000e-01" in out

    def test_run_is_byte_deterministic(self, tmp_path):
        config_path = tmp_path / "scenario.cfg"
        config_path.write_text(small_config(trials=500).to_text())
        out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        assert cli_main(["run", str(config_path), "--out", str(out1)]) == 0
        assert cli_main(["run", str(config_path), "--out", str(out2), "--workers", "3"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_set_overrides(self, tmp_path, capsys):
        config_path = tmp_path / "scenario.cfg"
        config_path.write_text(small_config(trials=500).to_text())
        assert cli_main(["run", str(config_path), "--set", "trials=100"]) == 0
        assert "trials=100\n" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        config_path = tmp_path / "bad.cfg"
        config_path.write_text("M=nope\n")
        assert cli_main(["run", str(config_path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, key",
        [
            (["G_p=nan"], "G_p"),
            (["B=nan"], "B"),
            (["I_th_var=inf"], "I_th_var"),
            (["n_mean=inf"], "n_mean"),
            (["sweep_values=nan"], "sweep_values"),
            (["master_rng_seed=-1"], "master_rng_seed"),
            (["seed_key=ABCDEF1234"], "seed_key"),  # 40 bits: no default polynomial
            (["seed_key=123456789ABCDEF012", "lfsr_poly=3"], "seed_key"),  # 72-bit LFSR
            # int(..., 16) once read this as a 36-bit key
            (["seed_key=ACE1_F00D", "keystream=counter_hash"], "seed_key"),
            (["n_mean=0"], "n_mean"),
            # the link budget overflows: X^2 in the noise terms, then the
            # threshold's sigma * (i_on - i_off), then the repeater gain 1/kappa_r
            (["G_p=1e200"], "G_p"),
            (["n_sp=1e300"], "n_sp"),
            (["n_mean=1e300"], "n_mean"),
            (["kappa_r=1e-320"], "kappa_r"),
            # link values outside their physical ranges
            (["G_p=0.5"], "G_p"),
            (["kappa_r=2"], "kappa_r"),
            (["kappa_r=0"], "kappa_r"),
            (["n_sp=0.5"], "n_sp"),
            (["B=0"], "B"),
            (["delta_f=-1"], "delta_f"),
            (["I_th_var=-1"], "I_th_var"),
            # a subnormal peak collapses the 2M levels
            (["alpha_max=5e-324"], "alpha_max"),
            # past the ceiling every command would factor a 2050 x 2050 Gram matrix
            (["M=1025"], "M"),
            # short cycles: 1 sticks at state 1, 3 has period far below 2^32 - 1
            (["lfsr_poly=1"], "lfsr_poly"),
            (["lfsr_poly=3"], "lfsr_poly"),
            # a float ** in the noise budget overflows, as G_p=1e200 does
            (["n_sp=1e200"], "n_sp"),
            ([f"N={'9' * 200}"], "N"),
            # the gain 1/kappa_r is inf, and with no repeaters the bracket 0 * inf
            (["kappa_r=5e-324", "N=0"], "kappa_r"),
            # a polynomial wider than the 32-bit seed key
            (["lfsr_poly=1FFFFFFFF"], "lfsr_poly"),
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_invalid_value_is_a_config_error_naming_the_key(self, tmp_path, capsys, overrides, key):
        config_path = tmp_path / "scenario.cfg"
        config_path.write_text(small_config(trials=100).to_text())
        argv = ["run", str(config_path)]
        for item in overrides:
            argv += ["--set", item]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: ")
        # an OverflowError's args are (errno, message): print the message only
        assert re.search(r"\(\d+, '", err) is None, err

    @pytest.mark.parametrize(
        "n_mean, noise, code",
        [
            # no noise, so the analytic BER is 0, but a basis's two currents
            # round to one value (995 of 2000 symbols were wrong) or its
            # threshold onto the on current (78 wrong)
            ("1e-320", "0", 2),
            ("5e-305", "0", 2),
            # noise-free with every basis split: no errors, as the analytic 0 says
            ("1e-300", "0", 0),
            # merged currents under thermal noise: analytic and Monte Carlo both 1/2
            ("1e-320", "1e-13", 0),
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_noise_free_link_must_split_every_basis(self, tmp_path, capsys, n_mean, noise, code):
        config_path = tmp_path / "scenario.cfg"
        config_path.write_text(default_config().to_text())
        argv = ["run", str(config_path), "--set", "kappa_r=1", "--set", "G_p=1",
                "--set", f"I_th_var={noise}", "--set", f"n_mean={n_mean}",
                "--set", "trials=2000"]
        assert cli_main(argv) == code
        out, err = capsys.readouterr()
        if code == 2:
            assert err.startswith("config error: ") and "n_mean" in err.split(":")[1]
            return
        cells = dict(line.split("=", 1) for line in out.splitlines()[1:])
        for name in ("bob_ber", "block_error"):
            analytic = float(cells[f"{name}_analytic"])
            assert analytic == (0.0 if noise == "0" else 0.5)
            spread = 4 * float(cells[f"{name}_stderr"])
            assert abs(float(cells[f"{name}_montecarlo"]) - analytic) <= spread

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_link_whose_q_overflows_has_ber_0(self, tmp_path, capsys):
        # a subnormal bandwidth leaves the shot noise so small next to the
        # current gap that Q overflows: the BER is its limit 0, not a config error
        config_path = tmp_path / "scenario.cfg"
        config_path.write_text(default_config().to_text())
        argv = ["run", str(config_path)]
        for item in ("B=5e-324", "n_mean=1e300", "G_p=1", "kappa_r=1", "N=0", "I_th_var=0",
                     "trials=2000"):
            argv += ["--set", item]
        assert cli_main(argv) == 0
        cells = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines()[1:])
        assert cells["bob_ber_analytic"] == cells["block_error_analytic"] == "0.0000000000000000e+00"
        assert cells["bob_error_count"] == cells["block_error_count"] == "0"

    def test_readme_commands_run(self, tmp_path, monkeypatch, capsys):
        # every line of the README's fenced block of y00sim commands, in order
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = [b.strip().splitlines() for b in readme.split("```")[1::2]]
        (lines,) = [b for b in blocks if b and all(x.startswith("y00sim ") for x in b)]
        monkeypatch.chdir(tmp_path)
        for line in lines:
            argv = ["--out" if a == ">" else a for a in shlex.split(line, comments=True)[1:]]
            assert cli_main(argv) == 0, line
            out = capsys.readouterr().out
            if "--out" in argv:
                out = Path(argv[argv.index("--out") + 1]).read_text()
            assert out, line

    @pytest.mark.parametrize(
        "command, kind, alpha_max, code",
        [
            ("run", "intensity_ladder", "1e10", 2),
            ("run", "intensity_ladder", "1e200", 2),
            ("attacks", "intensity_ladder", "1e10", 2),
            ("attacks", "intensity_ladder", "1e200", 2),
            ("attacks", "phase_ladder", "1e10", 2),
            ("attacks", "phase_ladder", "1e200", 2),
            ("run", "intensity_ladder", "1e8", 0),
            ("attacks", "intensity_ladder", "1e8", 0),
            ("attacks", "phase_ladder", "1e8", 0),
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_alpha_max_ceiling(self, tmp_path, capsys, command, kind, alpha_max, code):
        config_path = tmp_path / "scenario.cfg"
        config_path.write_text(default_config().to_text())
        argv = [command, str(config_path), "--set", f"kind={kind}",
                "--set", f"alpha_max={alpha_max}", "--set", "trials=1000"]
        assert cli_main(argv) == code
        if code == 2:
            assert capsys.readouterr().err.startswith("config error: alpha_max: ")

    def test_attacks_link_error_names_the_key(self, tmp_path, capsys):
        config_path = tmp_path / "scenario.cfg"
        config_path.write_text(default_config().to_text())
        argv = ["attacks", str(config_path), "--set", "kind=phase_ladder", "--set", "G_p=0.5"]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: G_p: ")

    @pytest.mark.parametrize(
        "kind, alpha_max",
        [
            ("intensity_ladder", "1e-7"),
            ("intensity_ladder", "1e-8"),
            ("intensity_ladder", "1e-9"),
            ("intensity_ladder", "1e-310"),
            ("intensity_ladder", "1e-320"),  # subnormal
            ("phase_ladder", "1e-9"),
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_attacks_on_a_vanishing_probe_is_a_config_error(
        self, tmp_path, capsys, kind, alpha_max
    ):
        # the probe's overlap exp(-2 a^2) rounds to 1, so the shared state is
        # undefined: the probe is too small for the embedding
        config_path = tmp_path / "scenario.cfg"
        config_path.write_text(default_config().to_text())
        argv = ["attacks", str(config_path), "--set", f"kind={kind}",
                "--set", f"alpha_max={alpha_max}"]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: alpha_max: the entanglement probe alpha=")
        assert "too small for the 4x4 embedding" in err and "rounds to 1" in err

    @pytest.mark.parametrize(
        "kind, alpha_max, probe",
        [
            # the intensity ladder probes its lowest level, alpha_max / 32 at M=16
            ("intensity_ladder", "1e-2", "0.0003125"),
            ("intensity_ladder", "2.5e-2", "0.00078125"),
            ("phase_ladder", "1e-4", "0.0001"),
            ("phase_ladder", "1e-7", "1e-07"),
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_attacks_below_the_embedding_floor_is_a_config_error(
        self, tmp_path, capsys, kind, alpha_max, probe
    ):
        config_path = tmp_path / "scenario.cfg"
        config_path.write_text(default_config().to_text())
        argv = ["attacks", str(config_path), "--set", f"kind={kind}",
                "--set", f"alpha_max={alpha_max}"]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: alpha_max: the entanglement probe alpha={probe} ")
        assert "too small for the 4x4 embedding (density matrix must" in err
        # run has no entanglement probe, so the same value still runs
        assert cli_main(["run", str(config_path), "--set", f"alpha_max={alpha_max}",
                         "--set", "trials=1000", "--out", str(tmp_path / "r.txt")]) == 0

    def test_run_validates_the_config_once(self, tmp_path, monkeypatch):
        calls = []
        validate = ScenarioConfig.validate

        def counted(config):
            calls.append(config)
            validate(config)

        monkeypatch.setattr(ScenarioConfig, "validate", counted)
        config_path = tmp_path / "scenario.cfg"
        config_path.write_text("")
        assert cli_main(["run", str(config_path), "--set", "trials=100",
                         "--out", str(tmp_path / "report.txt")]) == 0
        assert len(calls) == 1

    def test_missing_file_is_runtime_error(self, capsys):
        assert cli_main(["run", "/nonexistent/path.cfg"]) == 1

    @pytest.mark.parametrize("exc", [
        MemoryError(),
        MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)"),
    ])
    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch, exc):
        def out_of_memory(config):
            raise exc

        monkeypatch.setattr("y00sim.cli.run_scenario", out_of_memory)
        config_path = tmp_path / "scenario.cfg"
        config_path.write_text("")
        assert cli_main(["run", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err[len("error: "):].strip()

    def test_config_file_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        config_path = tmp_path / "bad.cfg"
        config_path.write_bytes(b"\xff\xfeM=4\n")
        with pytest.raises(ConfigError, match="not UTF-8"):
            ScenarioConfig.from_file(config_path)
        assert cli_main(["run", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(config_path) in err

    def test_sweep_writes_csv(self, tmp_path):
        config_path = tmp_path / "scenario.cfg"
        config_path.write_text(
            small_config(
                trials=200, sweep_variable="M", sweep_values=(2.0, 4.0)
            ).to_text()
        )
        out = tmp_path / "series.csv"
        assert cli_main(["sweep", str(config_path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("M,bob_ber_analytic")
        assert len(lines) == 3

    def test_sweep_parallel_bytes_match_serial(self, tmp_path):
        config_path = tmp_path / "scenario.cfg"
        config_path.write_text(
            small_config(
                trials=30_000, sweep_variable="alpha_max", sweep_values=(4.0, 8.0)
            ).to_text()
        )
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        assert cli_main(["sweep", str(config_path), "--out", str(serial)]) == 0
        assert cli_main(
            ["sweep", str(config_path), "--out", str(parallel), "--workers", "4"]
        ) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_workers_start_no_thread(self, tmp_path, monkeypatch, command):
        # --workers is accepted and ignored: the Monte Carlo is one in-order pass
        def refuse(thread):
            raise AssertionError(f"a thread was started: {thread!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        config_path = tmp_path / "scenario.cfg"
        config_path.write_text(
            small_config(
                trials=2 * CHUNK_SIZE, sweep_variable="M", sweep_values=(2.0, 4.0)
            ).to_text()
        )
        out = tmp_path / "out.txt"
        assert cli_main([command, str(config_path), "--out", str(out), "--workers", "4"]) == 0

    @pytest.mark.parametrize(
        "args",
        [
            ["run", "--set", "M=8"],
            ["run", "--set", "M=256", "--set", "trials=2000"],
            ["sweep", "--set", "sweep_variable=M", "--set", "sweep_values=2,4,8,16"],
        ],
        ids=["run_M8", "run_M256", "readme_fig2_sweep"],
    )
    def test_documented_commands_on_the_default_config(self, tmp_path, args):
        # M=8 rounds |S_ii|^2 above 1; M=256 puts level indices past uint8
        config_path = tmp_path / "demo.cfg"
        config_path.write_text(default_config().to_text())
        out = tmp_path / "out.txt"
        argv = [args[0], str(config_path), *args[1:], "--out", str(out)]
        assert cli_main(argv) == 0
        assert out.stat().st_size > 0

    def test_attacks_report(self, tmp_path, capsys):
        config_path = tmp_path / "scenario.cfg"
        config_path.write_text(small_config(trials=200).to_text())
        assert cli_main(["attacks", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "srm_state_error=" in out
        assert "eta,entangled_fraction,closed_form_fraction" in out
