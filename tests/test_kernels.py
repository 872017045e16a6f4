import numpy as np
import pytest

from y00sim import kernels
from y00sim.y00_cipher import LFSR_MASKS

LENGTHS = (0, 1, 63, 64, 65, 4095, 4096, 4097, 70_001)


def test_srm_sample_handles_u_above_last_entry():
    cdf = np.array([[0.5, 1.0 - 1e-16]])
    out = np.empty(1, dtype=np.int64)
    kernels.srm_sample(cdf, np.zeros(1, dtype=np.int64), np.array([1.0 - 1e-17]), out)
    assert out[0] == 1


class TestLfsrSemantics:
    def test_output_is_shifted_out_bit(self):
        # one step by hand: state 0b10 -> emits 0, halves; state 0b1 -> emits
        # 1 and folds the mask in
        out = np.empty(2, dtype=np.uint8)
        final = kernels.lfsr_fill(np.uint64(0b10), np.uint64(0b100000), out)
        assert list(out) == [0, 1]
        assert int(final) == 0b100000 ^ 0b0

    def test_zero_state_stays_zero(self):
        out = np.empty(8, dtype=np.uint8)
        final = kernels.lfsr_fill(np.uint64(0), np.uint64(0xB400), out)
        assert int(final) == 0
        assert not out.any()


def assert_matches_oracle(state, mask):
    """The block-jump kernel against the bit-by-bit recurrence, at every
    length around the 64-bit block and output-chunk boundaries."""
    for n in LENGTHS:
        fast = np.empty(n, dtype=np.uint8)
        slow = np.empty(n, dtype=np.uint8)
        fast_state = kernels.lfsr_fill(np.uint64(state), np.uint64(mask), fast)
        slow_state = kernels._lfsr_fill_py(np.uint64(state), np.uint64(mask), slow)
        assert int(fast_state) == int(slow_state), n
        assert np.array_equal(fast, slow), n


@pytest.mark.parametrize("width", sorted(LFSR_MASKS))
def test_lfsr_fill_matches_oracle_at_every_default_width(width):
    assert_matches_oracle((0x9E3779B97F4A7C15 >> (64 - width)) | 1, LFSR_MASKS[width])


@pytest.mark.parametrize("state", [0xF0000001, (1 << 63) | 5])
def test_lfsr_fill_matches_oracle_for_non_maximal_polynomial(state):
    # seed bits far above the feedback mask shift down through the register
    assert_matches_oracle(state, 3)


def test_lfsr_fill_matches_oracle_from_zero_state():
    assert_matches_oracle(0, LFSR_MASKS[32])


def test_bench_module_runs_small():
    from y00sim import bench

    assert bench.main(["--scale", "0.01"]) == 0
