from itertools import product

import numpy as np
import pytest

from y00sim.errors import ParameterError
from y00sim.overlap_coding import HIGH, LOW, analytic_block_error, pattern_array


def brute_force_decode(received, code_id, polarity):
    """Minimum-distance decoding over the block's two candidate patterns;
    polarity 1 sends the complemented bit's pattern."""
    patterns = pattern_array()
    best_bit, best_distance = None, 4
    for bit in (0, 1):
        pattern = patterns[code_id, bit ^ polarity]
        distance = sum(int(r) != int(p) for r, p in zip(received, pattern))
        if distance < best_distance:
            best_bit, best_distance = bit, distance
    return best_bit


class TestCodewordTable:
    def test_first_code_patterns(self):
        arr = pattern_array()
        assert arr.shape == (3, 2, 3)
        assert tuple(arr[0, 0]) == (LOW, LOW, HIGH)
        assert tuple(arr[0, 1]) == (HIGH, HIGH, LOW)

    def test_all_pairs_are_complements_at_distance_three(self):
        for bit0, bit1 in pattern_array():
            assert np.count_nonzero(bit0 != bit1) == 3

    def test_each_code_puts_bit_zero_high_on_its_own_symbol(self):
        # the key picks which of the 3 symbols carries bit 0's lone high level
        bit0 = pattern_array()[:, 0]
        assert bit0.sum(axis=1).tolist() == [1, 1, 1]
        assert sorted(np.argmax(bit0, axis=1).tolist()) == [0, 1, 2]


class TestAnalyticBlockError:
    def test_quoted_operating_point(self):
        assert analytic_block_error(1e-4) == pytest.approx(2.9998e-8, rel=1e-12)

    def test_end_points(self):
        assert analytic_block_error(0.0) == 0.0
        assert analytic_block_error(0.5) == pytest.approx(0.5, rel=1e-15)

    def test_never_hurts_below_crossover(self):
        for p in np.linspace(0.0, 0.5, 200):
            assert analytic_block_error(p) <= p + 1e-15

    def test_monotone_up_to_half(self):
        grid = np.linspace(0.0, 0.5, 200)
        values = [analytic_block_error(p) for p in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_against_flip_count_simulation(self):
        # 10^7 independent symbol-flip blocks; majority fails iff >= 2 flips
        rng = np.random.default_rng(42)
        p = 0.01
        blocks = 10_000_000
        flips = rng.random((blocks, 3)) < p
        errors = np.count_nonzero(flips.sum(axis=1) >= 2)
        expected = analytic_block_error(p)
        stderr = np.sqrt(expected * (1 - expected) / blocks)
        assert abs(errors / blocks - expected) < 3 * stderr

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            analytic_block_error(1.5)


class TestFullStackMonteCarlo:
    def test_kernel_agrees_with_reference_decoder_exhaustively(self):
        # kernels.coded_errors counts a block as failed when at least 2 of its
        # 3 symbols are wrong; minimum-distance decoding must fail on exactly
        # those blocks, for every (received, code, polarity, bit)
        patterns = pattern_array()
        for received in product((0, 1), repeat=3):
            for code_id, polarity, bit in product((0, 1, 2), (0, 1), (0, 1)):
                sent = patterns[code_id, bit ^ polarity]
                symbol_errors = sum(int(r) != int(s) for r, s in zip(received, sent))
                decoded = brute_force_decode(received, code_id, polarity)
                assert (symbol_errors >= 2) == (decoded != bit)

    @pytest.mark.parametrize("p", [0.001, 0.01, 0.1])
    def test_block_error_matches_analytic_law(self, p):
        rng = np.random.default_rng(int(p * 10_000))
        blocks = 1_000_000
        bits = rng.integers(0, 2, blocks, dtype=np.uint8)
        code_ids = rng.integers(0, 3, blocks, dtype=np.int64)
        polarities = rng.integers(0, 2, blocks, dtype=np.uint8)
        flips = (rng.random((blocks, 3)) < p).astype(np.uint8)
        patterns = pattern_array()
        sent = patterns[code_ids, bits ^ polarities]
        received = sent ^ flips
        matches_one = (received == patterns[code_ids, 1]).sum(axis=1)
        decoded = ((matches_one >= 2).astype(np.uint8)) ^ polarities
        error_rate = np.count_nonzero(decoded != bits) / blocks
        expected = analytic_block_error(p)
        stderr = np.sqrt(expected * (1 - expected) / blocks)
        assert abs(error_rate - expected) < 3 * stderr
