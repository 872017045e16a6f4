from itertools import product

import numpy as np
import pytest

from y00sim.errors import ParameterError
from y00sim.overlap_coding import (
    HIGH,
    LOW,
    analytic_block_error,
    decode_block,
    encode_block,
    pattern_array,
)


def brute_force_decode(received, code_id, polarity):
    """Minimum-distance decoding over the two candidate patterns."""
    best_bit, best_distance = None, 4
    for bit in (0, 1):
        pattern = encode_block(bit, code_id, polarity)
        distance = sum(r != p for r, p in zip(received, pattern))
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

    def test_pattern_array_matches_table(self):
        arr = pattern_array()
        for bit, code_id in product((0, 1), (0, 1, 2)):
            assert tuple(arr[code_id, bit]) == encode_block(bit, code_id, 0)


class TestEncodeDecode:
    def test_encode_examples(self):
        assert encode_block(0, 0, 0) == (LOW, LOW, HIGH)
        assert encode_block(0, 0, 1) == (HIGH, HIGH, LOW)  # polarity swaps the bit roles
        assert encode_block(1, 0, 0) == (HIGH, HIGH, LOW)

    def test_round_trip_all_codes(self):
        for bit, code_id, polarity in product((0, 1), (0, 1, 2), (0, 1)):
            pattern = encode_block(bit, code_id, polarity)
            assert decode_block(pattern, code_id, polarity) == bit

    def test_single_flip_corrected(self):
        for code_id, polarity in product((0, 1, 2), (0, 1)):
            pattern = list(encode_block(0, code_id, polarity))
            for position in range(3):
                corrupted = pattern.copy()
                corrupted[position] ^= 1
                assert decode_block(tuple(corrupted), code_id, polarity) == 0

    def test_double_flip_decodes_wrong(self):
        pattern = list(encode_block(0, 0, 0))
        pattern[0] ^= 1
        pattern[1] ^= 1
        assert decode_block(tuple(pattern), 0, 0) == 1

    def test_exhaustive_against_brute_force(self):
        for received in product((0, 1), repeat=3):
            for code_id, polarity in product((0, 1, 2), (0, 1)):
                assert decode_block(received, code_id, polarity) == brute_force_decode(
                    received, code_id, polarity
                )

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            encode_block(2, 0, 0)
        with pytest.raises(ParameterError):
            decode_block((0, 1), 0, 0)
        with pytest.raises(ParameterError):
            decode_block((0, 1, 2), 0, 0)


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
        # the fast path must equal encode/decode on every (pattern, code,
        # polarity, bit) combination before we trust it for bulk runs
        patterns = pattern_array()
        for bits_tuple in product((0, 1), repeat=3):
            hard = np.array([bits_tuple], dtype=np.uint8)
            for code_id, polarity, bit in product((0, 1, 2), (0, 1), (0, 1)):
                matches_one = int((hard[0] == patterns[code_id, 1]).sum())
                kernel_decoded = (1 if matches_one >= 2 else 0) ^ polarity
                decoded = decode_block(bits_tuple, code_id, polarity)
                assert kernel_decoded == decoded
                # the symbol-error rule of the one-cut kernel: a block is in
                # error when at least 2 of its symbols differ from those sent
                symbol_errors = int((hard[0] != patterns[code_id, bit ^ polarity]).sum())
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

    def test_python_stack_subset(self):
        # slow-path sanity: push a few thousand blocks through the public
        # encode/decode functions directly
        rng = np.random.default_rng(11)
        p = 0.05
        blocks = 4000
        errors = 0
        for _ in range(blocks):
            bit = int(rng.integers(0, 2))
            code_id = int(rng.integers(0, 3))
            polarity = int(rng.integers(0, 2))
            sent = encode_block(bit, code_id, polarity)
            received = tuple(s ^ int(f) for s, f in zip(sent, rng.random(3) < p))
            errors += decode_block(received, code_id, polarity) != bit
        expected = analytic_block_error(p)
        stderr = np.sqrt(expected * (1 - expected) / blocks)
        assert abs(errors / blocks - expected) < 4 * stderr
