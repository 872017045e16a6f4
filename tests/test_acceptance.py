"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or -rA to see them on success)."""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from y00sim import kernels
from y00sim.cli import main as cli_main
from y00sim.coherent_algebra import (
    MultiModeState,
    StateEnsemble,
    entangled_fraction,
    inner_product,
    lossy_shared_state,
    quasi_bell_reduced_eigenvalues,
)
from y00sim.detection import (
    DiscriminationProblem,
    helstrom_mixed_pair,
    helstrom_pure_pair,
    srm_confusion,
    srm_error,
)
from y00sim.fiber_link import LinkParams, bob_practical_vs_optimal, noise_budget
from y00sim.overlap_coding import analytic_block_error, pattern_array
from y00sim.scenario import default_config, run_scenario
from y00sim.y00_cipher import (
    BasisAssignment,
    ConstellationSpec,
    KeystreamGenerator,
    SeedKey,
    draw_symbol_frames,
    eve_bit_mixtures,
)

from test_fiber_link import random_params, reference_budget


@contextmanager
def criterion(number, name):
    started = time.monotonic()
    try:
        yield
    except Exception as exc:
        print(f"ACCEPTANCE {number} {name}: FAIL ({exc})")
        raise
    else:
        print(f"ACCEPTANCE {number} {name}: PASS ({time.monotonic() - started:.1f}s)")


def simulate_srm_eve_bit_error(m, alpha_max, symbols, seed):
    """Per-symbol SRM attacker mapping her level estimate to a bit via the
    public polarity-0 convention."""
    spec = ConstellationSpec.intensity_ladder(m, alpha_max)
    gen = KeystreamGenerator(SeedKey.from_hex("ACE1F00D"))
    basis, polarity = draw_symbol_frames(gen, m, BasisAssignment("osk"), symbols)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, symbols, dtype=np.uint8)
    level_idx = basis + m * (bits ^ polarity).astype(np.int64)
    cdf = np.cumsum(srm_confusion(spec.ensemble()), axis=1)
    cdf /= cdf[:, -1:]
    outcomes = np.empty(symbols, dtype=np.int64)
    kernels.srm_sample(cdf, level_idx, rng.random(symbols), outcomes)
    guesses = (outcomes >= m).astype(np.uint8)
    return np.count_nonzero(guesses != bits) / symbols


def test_criterion_1_osk_secrecy():
    with criterion(1, "OSK secrecy"):
        started = time.monotonic()
        symbols = 100_000
        three_sigma = 3 * math.sqrt(0.25 / symbols)
        for m in (1, 2, 8, 32):
            for alpha_max in (0.1, 1.0, 10.0, 100.0):
                spec = ConstellationSpec.intensity_ladder(m, alpha_max)
                problem = eve_bit_mixtures(spec, BasisAssignment("osk"))
                error = helstrom_mixed_pair(problem).error_probability
                assert abs(error - 0.5) <= 1e-12, (m, alpha_max, error)
        for m, alpha_max, seed in ((1, 0.1, 1), (2, 1.0, 2), (8, 10.0, 3), (32, 100.0, 4)):
            simulated = simulate_srm_eve_bit_error(m, alpha_max, symbols, seed)
            assert abs(simulated - 0.5) <= three_sigma, (m, alpha_max, simulated)
        assert time.monotonic() - started < 60.0


def test_criterion_2_repetition_code():
    with criterion(2, "repetition code"):
        started = time.monotonic()
        assert analytic_block_error(1e-4) == pytest.approx(2.9998e-8, rel=1e-12)
        p = 0.01
        blocks = 1_000_000
        rng = np.random.default_rng(2026)
        bits = rng.integers(0, 2, blocks, dtype=np.uint8)
        code_ids = rng.integers(0, 3, blocks, dtype=np.int64)
        polarities = rng.integers(0, 2, blocks, dtype=np.uint8)
        patterns = pattern_array()
        sent = patterns[code_ids, bits ^ polarities]
        received = sent ^ (rng.random((blocks, 3)) < p).astype(np.uint8)
        matches_one = (received == patterns[code_ids, 1]).sum(axis=1)
        decoded = (matches_one >= 2).astype(np.uint8) ^ polarities
        rate = np.count_nonzero(decoded != bits) / blocks
        expected = 2.98e-4
        stderr = math.sqrt(expected * (1 - expected) / blocks)
        assert abs(rate - expected) <= 3 * stderr, rate
        assert time.monotonic() - started < 60.0


def test_criterion_3_binary_bounds():
    with criterion(3, "binary Helstrom bounds"):
        assert helstrom_pure_pair(0.0, 0.5) == 0.0
        assert helstrom_pure_pair(1.0, 0.5) == 0.5
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = MultiModeState.single(complex(*rng.normal(size=2)))
            b = MultiModeState.single(complex(*rng.normal(size=2)))
            p1 = rng.uniform(0.02, 0.98)
            ens = StateEnsemble((a, b), np.array([1 - p1, p1]))
            problem = DiscriminationProblem.two_mixtures(ens, (0,), (1,))
            overlap_sq = min(abs(inner_product(a, b)) ** 2, 1.0)
            expected = helstrom_pure_pair(overlap_sq, p1)
            got = helstrom_mixed_pair(problem).error_probability
            assert abs(got - expected) <= 1e-12


def test_criterion_4_srm_validity():
    with criterion(4, "SRM validity"):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = MultiModeState.single(complex(*rng.normal(size=2)))
            b = MultiModeState.single(complex(*rng.normal(size=2)))
            ens = StateEnsemble.uniform((a, b))
            overlap_sq = min(abs(inner_product(a, b)) ** 2, 1.0)
            assert abs(
                srm_error(ens).error_probability - helstrom_pure_pair(overlap_sq, 0.5)
            ) <= 1e-10
        for n in (2, 3, 10):
            ens = StateEnsemble.uniform([MultiModeState.single(0.9)] * n)
            assert abs(srm_error(ens).error_probability - (n - 1) / n) <= 1e-12
        previous = -1.0
        for m in (2, 4, 8, 16):
            spec = ConstellationSpec.intensity_ladder(m, 10.0)
            error = srm_error(spec.ensemble()).error_probability
            assert error >= previous - 1e-12
            previous = error


def test_criterion_5_non_overlap_power_dependence():
    with criterion(5, "non-overlap power dependence"):
        previous = 1.0
        for alpha_max in (0.5, 1.0, 2.0, 4.0, 8.0):
            spec = ConstellationSpec.intensity_ladder(8, alpha_max)
            problem = eve_bit_mixtures(spec, BasisAssignment("non_overlap"))
            error = helstrom_mixed_pair(problem).error_probability
            assert error <= previous + 1e-12
            previous = error
        spec = ConstellationSpec.intensity_ladder(8, 0.25)
        problem = eve_bit_mixtures(spec, BasisAssignment("non_overlap"))
        weak_power_error = helstrom_mixed_pair(problem).error_probability
        assert weak_power_error > 0.45, (
            f"weak-power bit error is {weak_power_error:.5f} under the pinned "
            f"ladder (alpha_i = alpha_max i / 2M) and half-ladder mixtures; "
            f"it first exceeds 0.45 near alpha_max = 0.20"
        )


def test_criterion_6_entangled_fraction():
    with criterion(6, "entangled fraction"):
        for alpha in (0.5, 1.0, 2.0):
            state = lossy_shared_state(alpha, 1.0)
            report = entangled_fraction(state)
            assert abs(report.fraction - 1.0) <= 1e-10
        for alpha in (0.5, 1.0, 2.0):
            state = lossy_shared_state(alpha, 1e-6)
            report = entangled_fraction(state)
            bound = state.kappa_a**2 * (1 - state.kappa_a**2)
            assert report.fraction >= bound
        fractions = [
            entangled_fraction(lossy_shared_state(1.0, eta)).fraction
            for eta in np.linspace(1e-4, 1.0, 20)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(fractions, fractions[1:]))
        # closed-form comparison is reported, never failed
        for eta in (0.9, 0.5, 0.1):
            report = entangled_fraction(lossy_shared_state(1.0, eta))
            gap = abs(report.closed_form - report.fraction)
            if gap > 1e-9:
                print(
                    f"  note: closed-form fraction deviates from the embedded value "
                    f"by {gap:.3e} at eta={eta} (embedded {report.fraction:.6f}, "
                    f"closed form {report.closed_form:.6f})"
                )


def test_criterion_7_reduced_eigenvalues():
    with criterion(7, "reduced eigenvalues"):
        kappas = np.linspace(0.0, 0.9, 10)
        for ka in kappas:
            for kb in kappas:
                lam1, lam2 = quasi_bell_reduced_eigenvalues(ka, kb)
                assert abs(lam1 + lam2 - 1.0) <= 1e-12
                both_half = abs(lam1 - 0.5) <= 1e-12 and abs(lam2 - 0.5) <= 1e-12
                assert both_half == (abs(ka - kb) <= 1e-12)


def test_criterion_8_noise_budget():
    with criterion(8, "noise budget"):
        quiet = LinkParams(g_p=1.0, kappa_r=0.5, n_repeaters=0, thermal_var=1e-14)
        budget = noise_budget(quiet, 1e12)
        assert budget.sp == 0.0 and budget.sig_sp == 0.0 and budget.sp_sp == 0.0
        assert budget.total_on == pytest.approx(budget.th + budget.sig, rel=1e-15)

        base = LinkParams(g_p=40.0, kappa_r=0.5, n_repeaters=6)
        assert noise_budget(base, 2e11).sig == pytest.approx(
            2 * noise_budget(base, 1e11).sig, rel=1e-15
        )

        rng = np.random.default_rng(8)
        for _ in range(1000):
            draw = random_params(rng)
            params = LinkParams(
                g_p=draw["g_p"], kappa_r=draw["kappa_r"], n_repeaters=draw["n_rep"],
                n_sp=draw["n_sp"], bandwidth=draw["bandwidth"], delta_f=draw["delta_f"],
                thermal_var=draw["thermal"],
            )
            budget = noise_budget(params, draw["rate"])
            ref = reference_budget(
                draw["g_p"], draw["kappa_r"], draw["n_rep"], draw["n_sp"],
                draw["bandwidth"], draw["delta_f"], draw["thermal"], draw["rate"],
            )
            assert budget.sig == pytest.approx(ref["sig"], rel=1e-12)
            assert budget.sp == pytest.approx(ref["sp"], rel=1e-12, abs=1e-300)
            assert budget.sig_sp == pytest.approx(ref["sig_sp"], rel=1e-12, abs=1e-300)
            assert budget.sp_sp == pytest.approx(ref["sp_sp"], rel=1e-12, abs=1e-300)
            assert budget.total_on == pytest.approx(ref["total"], rel=1e-12)


def test_criterion_9_advantage_distillation():
    with criterion(9, "advantage distillation"):
        started = time.monotonic()
        config = default_config()
        spec = config.constellation()
        practical, optimal = bob_practical_vs_optimal(config.link_params(), spec)
        assert practical >= optimal - 1e-12
        report = run_scenario(config)
        assert report.eve_bit_error_analytic == 0.5
        assert abs(report.eve_bit_error_montecarlo - 0.5) <= 3 * report.eve_bit_error_stderr
        assert report.block_error_analytic is not None
        assert report.block_error_analytic < 1e-6
        assert report.block_error_analytic < report.eve_bit_error_analytic
        assert report.bob_ber_analytic < report.eve_bit_error_analytic
        assert time.monotonic() - started < 120.0


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "determinism"):
        config_path = tmp_path / "scenario.cfg"
        config = replace(default_config(), trials=40_000)
        config_path.write_text(config.to_text())
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        assert cli_main(["run", str(config_path), "--out", str(first)]) == 0
        assert cli_main(["run", str(config_path), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

        sweep_path = tmp_path / "sweep.cfg"
        sweep_config = replace(
            default_config(),
            trials=40_000,
            sweep_variable="alpha_max",
            sweep_values=(50.0, 100.0),
        )
        sweep_path.write_text(sweep_config.to_text())
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        assert cli_main(["sweep", str(sweep_path), "--out", str(serial)]) == 0
        assert (
            cli_main(["sweep", str(sweep_path), "--out", str(parallel), "--workers", "4"]) == 0
        )
        assert serial.read_bytes() == parallel.read_bytes()
