import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from y00sim.coherent_algebra import (
    MultiModeState,
    StateEnsemble,
    inner_product,
    orthonormal_embedding,
    toeplitz_embedding_diagonal,
)
from y00sim.detection import (
    DiscriminationProblem,
    guess_baseline,
    helstrom_mixed_pair,
    helstrom_pure_pair,
    minimax_pair,
    srm_diagonal,
    srm_error,
)
from y00sim.errors import ParameterError
from y00sim.scenario import attack_suite, default_config
from y00sim.y00_cipher import BasisAssignment, ConstellationSpec, eve_bit_mixtures

from conftest import (
    LADDER_CASES,
    confusion_reference,
    gram_reference,
    ladder,
    psd_sqrt_reference,
)


def single(alpha):
    return MultiModeState.single(alpha)


class TestHelstromPurePair:
    def test_orthogonal_states(self):
        assert helstrom_pure_pair(0.0, 0.5) == 0.0

    def test_identical_states(self):
        assert helstrom_pure_pair(1.0, 0.5) == 0.5

    def test_neighboring_ladder_levels(self):
        # error for amplitudes separated by d: (1 - sqrt(1 - e^{-d^2})) / 2
        d = 0.8
        value = helstrom_pure_pair(math.exp(-(d**2)), 0.5)
        assert value == pytest.approx(0.5 * (1 - math.sqrt(1 - math.exp(-(d**2)))), rel=1e-12)

    def test_known_priors_shape(self):
        # concave-shaped in the prior with the maximum at 1/2
        for overlap_sq in (0.2, 0.5, 0.9):
            grid = np.linspace(0.0, 1.0, 101)
            values = [helstrom_pure_pair(overlap_sq, p) for p in grid]
            assert np.argmax(values) == 50
            assert values[0] == 0.0 and values[-1] == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ParameterError):
            helstrom_pure_pair(1.5, 0.5)
        with pytest.raises(ParameterError):
            helstrom_pure_pair(0.5, -0.1)


class TestHelstromMixedPair:
    def test_identical_mixtures_give_exactly_half(self):
        spec = ConstellationSpec.intensity_ladder(4, 3.0)
        problem = eve_bit_mixtures(spec, BasisAssignment("osk"))
        assert helstrom_mixed_pair(problem).error_probability == 0.5

    def test_orthogonal_pure_states(self):
        ens = StateEnsemble.uniform([single(0.0), single(80.0)])
        problem = DiscriminationProblem.two_mixtures(ens, (0,), (1,))
        assert helstrom_mixed_pair(problem).error_probability == pytest.approx(0.0, abs=1e-12)

    def test_single_ket_mixtures_match_closed_form(self, rng):
        for _ in range(100):
            a = complex(*rng.normal(size=2))
            b = complex(*rng.normal(size=2))
            p1 = rng.uniform(0.02, 0.98)
            ens = StateEnsemble((single(a), single(b)), np.array([1 - p1, p1]))
            problem = DiscriminationProblem.two_mixtures(ens, (0,), (1,))
            overlap_sq = abs(inner_product(single(a), single(b))) ** 2
            expected = helstrom_pure_pair(min(overlap_sq, 1.0), p1)
            got = helstrom_mixed_pair(problem).error_probability
            assert got == pytest.approx(expected, abs=1e-12)

    def test_partition_must_cover(self):
        ens = StateEnsemble.uniform([single(0.0), single(1.0), single(2.0)])
        with pytest.raises(ParameterError):
            DiscriminationProblem.two_mixtures(ens, (0,), (1,))

    def test_non_overlap_error_decreases_with_power(self):
        previous = 1.0
        for alpha_max in (0.5, 1.0, 2.0, 4.0, 8.0):
            spec = ConstellationSpec.intensity_ladder(8, alpha_max)
            problem = eve_bit_mixtures(spec, BasisAssignment("non_overlap"))
            error = helstrom_mixed_pair(problem).error_probability
            assert error <= previous + 1e-12
            previous = error
        assert previous < 0.05

    def test_non_overlap_error_approaches_half_at_low_power(self):
        spec = ConstellationSpec.intensity_ladder(8, 0.05)
        problem = eve_bit_mixtures(spec, BasisAssignment("non_overlap"))
        assert helstrom_mixed_pair(problem).error_probability > 0.48

    def test_a_given_embedding_gives_the_same_bounds(self):
        # the distinct kets of either bit split are the ladder's levels
        spec = ConstellationSpec.intensity_ladder(8, 3.0)
        embedding = orthonormal_embedding(spec.ensemble())
        for mode in ("osk", "non_overlap"):
            problem = eve_bit_mixtures(spec, BasisAssignment(mode))
            given = helstrom_mixed_pair(problem, embedding).error_probability
            assert given == helstrom_mixed_pair(problem).error_probability


class TestSrmError:
    def test_orthogonal_ensemble(self):
        ens = StateEnsemble.uniform([single(0.0), single(60.0), single(-60.0)])
        assert srm_error(ens).error_probability == pytest.approx(0.0, abs=1e-12)

    def test_identical_states_degrade_to_guessing(self):
        for n in (2, 5, 8):
            ens = StateEnsemble.uniform([single(0.7)] * n)
            assert srm_error(ens).error_probability == pytest.approx((n - 1) / n, abs=1e-12)

    def test_binary_symmetric_matches_helstrom(self, rng):
        for _ in range(20):
            a = complex(*rng.normal(size=2))
            b = complex(*rng.normal(size=2))
            ens = StateEnsemble.uniform([single(a), single(b)])
            overlap_sq = min(abs(inner_product(single(a), single(b))) ** 2, 1.0)
            assert srm_error(ens).error_probability == pytest.approx(
                helstrom_pure_pair(overlap_sq, 0.5), abs=1e-10
            )

    def test_error_monotone_in_bases_at_fixed_peak(self):
        previous = -1.0
        for m in (2, 4, 8, 16):
            spec = ConstellationSpec.intensity_ladder(m, 10.0)
            error = srm_error(spec.ensemble()).error_probability
            assert error >= previous - 1e-12
            previous = error

    def test_bounded_by_guessing(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            states = [single(complex(*rng.normal(size=2))) for _ in range(n)]
            error = srm_error(StateEnsemble.uniform(states)).error_probability
            assert 0.0 <= error <= (n - 1) / n + 1e-12

    @pytest.mark.parametrize("kind", ["intensity_ladder", "phase_ladder"])
    def test_tiny_peaks_never_beat_guessing(self, kind):
        # tr sqrt(G) >= sqrt(N) gives sum_i S_ii^2 >= 1, so the error is at
        # most (N-1)/N; nearly identical kets used to round past it
        for m in (1, 2, 3, 4, 16):
            for alpha in (1e-8, 1e-7, 1e-6):
                spec = getattr(ConstellationSpec, kind)(m, alpha)
                error = srm_error(spec.ensemble()).error_probability
                assert error <= guess_baseline(2 * m), (m, alpha)

    def test_requires_uniform_priors(self):
        ens = StateEnsemble((single(0.0), single(1.0)), np.array([0.7, 0.3]))
        with pytest.raises(ParameterError):
            srm_error(ens)

    def test_per_state_success_reported(self):
        spec = ConstellationSpec.intensity_ladder(2, 4.0)
        report = srm_error(spec.ensemble())
        assert report.per_state_correct is not None
        assert len(report.per_state_correct) == 4
        assert all(0.0 <= c <= 1.0 for c in report.per_state_correct)

    def test_confusion_rows_normalized(self):
        spec = ConstellationSpec.intensity_ladder(4, 6.0)
        report = srm_error(spec.ensemble())
        confusion = report.confusion
        assert np.allclose(confusion.sum(axis=1), 1.0, atol=1e-12)
        # diagonal recovers the per-state success probabilities
        assert np.allclose(np.diag(confusion), report.per_state_correct, atol=1e-10)

    @pytest.mark.parametrize("kind, two_m, alpha", LADDER_CASES)
    def test_bit_identical_to_reference(self, kind, two_m, alpha):
        ens = ladder(kind, two_m, alpha)
        report = srm_error(ens)
        g = gram_reference(ens)
        s = psd_sqrt_reference(g)
        per_state = np.clip(np.abs(np.diag(s)) ** 2, 0.0, 1.0)
        assert np.array_equal(report.per_state_correct, per_state)
        error = min(max(1.0 - float(per_state.mean()), 0.0), (two_m - 1) / two_m)
        assert report.error_probability == error
        assert np.array_equal(report.confusion, confusion_reference(s))

    def test_traced_peak_memory(self):
        # the Gram build, its root and the confusion matrix work in place, so
        # at most 3 complex 2M x 2M arrays are live at once: the Gram beside
        # its eigenvectors, then the eigenvectors beside their scaled copy
        ens = ConstellationSpec.intensity_ladder(320, 100.0).ensemble()
        tracemalloc.start()
        try:
            srm_error(ens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.1 * 640**2 * 16

    def test_diagonal_path_traced_peak_memory(self):
        # attacks' path above 128 levels forms only real M x M arrays: the
        # blocks are views of the overlap sequence, so a half, the
        # eigenvectors of each half and a scaled copy are all there is, at
        # most 4 live at once (16 would fill the complex 2M x 2M Gram and
        # its eigenvectors)
        spec = ConstellationSpec.intensity_ladder(320, 100.0)
        tracemalloc.start()
        try:
            srm_diagonal(toeplitz_embedding_diagonal(spec.overlaps()))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 320**2 * 8


class TestMinimaxPair:
    def test_orthogonal_pair(self):
        prior, value = minimax_pair(single(0.0), single(70.0))
        assert prior == 0.5
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_identical_pair(self):
        prior, value = minimax_pair(single(1.0), single(1.0))
        assert (prior, value) == (0.5, 0.5)

    def test_against_prior_grid_search(self):
        # overlap_sq = 0.5 via separation sqrt(ln 2)
        a, b = 0.0, math.sqrt(math.log(2.0))
        _, value = minimax_pair(single(a), single(b))
        overlap_sq = abs(inner_product(single(a), single(b))) ** 2
        grid = [helstrom_pure_pair(overlap_sq, p) for p in np.arange(0.0, 1.0001, 0.01)]
        assert value == pytest.approx(max(grid), abs=1e-6)

    def test_srm_bound_flagged_inexact(self):
        # the attacks report prints the SRM error as the M-ary minimax value,
        # flagged as a bound rather than an exact game value
        spec = ConstellationSpec.intensity_ladder(4, 2.0)
        config = replace(default_config(), m_bases=4, alpha_max=2.0)
        assert config.constellation().levels == spec.levels
        report = attack_suite(config)
        fields = dict(line.split("=", 1) for line in report.to_text().splitlines() if "=" in line)
        assert fields["srm_minimax_bound_exact"] == "no (upper bound)"
        assert float(fields["srm_minimax_bound"]) == pytest.approx(
            srm_error(spec.ensemble()).error_probability
        )

    @pytest.mark.parametrize("kind", ["intensity_ladder", "phase_ladder"])
    @pytest.mark.parametrize("m", [1, 2, 15, 16, 27, 64])
    @pytest.mark.parametrize("alpha", [0.5, 3.0, 100.0])
    def test_attacks_plays_the_first_neighbour_pair(self, kind, m, alpha):
        # every neighbour pair of a ladder has the same overlap (the float
        # levels tie to rounding), so the report names levels 1 and 2 and
        # prints minimax_pair's digits for them
        config = replace(default_config(), kind=kind, m_bases=m, alpha_max=alpha)
        levels = config.constellation().levels
        overlaps = [abs(inner_product(a, b)) for a, b in zip(levels, levels[1:])]
        assert all(math.isclose(g, overlaps[0], rel_tol=1e-10) for g in overlaps)
        text = attack_suite(config).to_text()
        fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
        prior, value = minimax_pair(levels[0], levels[1])
        assert fields["worst_neighbor_pair"] == "1,2"
        assert (float(fields["minimax_prior"]), float(fields["minimax_error"])) == (prior, value)


class TestGuessBaseline:
    def test_values(self):
        assert guess_baseline(1) == 0.0
        assert guess_baseline(2) == 0.5
        assert guess_baseline(8) == pytest.approx(7 / 8)

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            guess_baseline(0)


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: DiscriminationProblem(
            StateEnsemble.uniform([MultiModeState.single(1.0)]), (0,), ()),
         ParameterError, "both hypotheses need at least one state"),
    ],
)
def test_argument_checks(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
