import numpy as np
import pytest

from y00sim import kernels
from y00sim.detection import srm_error
from y00sim.scenario import _eve_cuts
from y00sim.y00_cipher import LFSR_MASKS, ConstellationSpec

LENGTHS = (0, 1, 63, 64, 65, 4095, 4096, 4097, 70_001)


def srm_outcomes(cdf, level_idx, u, chunk=4096):
    """Per-symbol SRM outcomes by the full-row inverse-CDF count, the
    reference for Eve's one-cut decision: the number of entries of the
    symbol's CDF row below u, clipped to the last outcome for u past the
    final entry."""
    out = np.empty(u.size, dtype=np.int64)
    for lo in range(0, u.size, chunk):
        rows = slice(lo, lo + chunk)
        hits = (u[rows, None] > cdf[level_idx[rows]]).sum(axis=1)
        out[rows] = np.minimum(hits, cdf.shape[1] - 1)
    return out


def test_srm_sample_handles_u_above_last_entry():
    cdf = np.array([[0.5, 1.0 - 1e-16]])
    u = np.array([1.0 - 1e-17])
    assert srm_outcomes(cdf, np.zeros(1, dtype=np.int64), u)[0] == 1
    assert (u > _eve_cuts(np.array([[0.5, 0.5 - 1e-16]]), 1)[0]).all()


@pytest.mark.parametrize("m", [1, 3, 15, 16, 320])
def test_eve_cut_matches_full_row_srm_outcome(m):
    rng = np.random.default_rng(m)
    confusion = srm_error(ConstellationSpec.intensity_ladder(m, 10.0).ensemble()).confusion
    cdf = np.cumsum(confusion, axis=1)
    cdf /= cdf[:, -1:]
    cut = _eve_cuts(confusion, m)
    n = 200_000
    level_idx = rng.integers(0, 2 * m, n)
    u = rng.random(n)
    # draws on each cut, one ulp either side of it, and past every entry
    on_cut = cut[level_idx[:4000]]
    u[:4000] = on_cut
    u[4000:8000] = np.nextafter(on_cut, 0.0)
    u[8000:12000] = np.nextafter(on_cut, 1.0)
    u[12000:13000] = 1.0 - 1e-17
    expected = srm_outcomes(cdf, level_idx, u) >= m
    assert np.array_equal(u > cut[level_idx], expected)
    assert 0 < expected.sum() < n


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

