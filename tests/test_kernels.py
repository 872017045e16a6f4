import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from y00sim import kernels
from y00sim.detection import srm_error
from y00sim.overlap_coding import pattern_array
from y00sim.scenario import ScenarioConfig, _eve_cuts, _link_tables
from y00sim.y00_cipher import LFSR_MASKS, ConstellationSpec

# around the 64-bit word, the 4096-bit super-block, two super-blocks and
# the 2^18-bit keystream refill, and one fill across several refills
LENGTHS = (0, 1, 63, 64, 65, 4095, 4096, 4097, 8191, 8192, 8193, 70_001,
           262_143, 262_144, 262_145, 3 * (1 << 18) + 4161)


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


def float_bob_errors(level_idx, basis, polarity, bits, z, mean_i, sigma_i, thr):
    """Bob's bit errors from the photocurrent itself, the reference for
    the one-cut kernel: decide high when mean + sigma z exceeds the basis
    threshold, then undo the polarity."""
    current = mean_i[level_idx] + sigma_i[level_idx] * z
    decided_high = current > thr[basis]
    bit_hat = decided_high.astype(np.uint8) ^ polarity
    return int(np.count_nonzero(bit_hat != bits))


def float_coded_errors(basis, polarity, code_id, bits, z, mean_i, sigma_i, thr, m):
    """Block errors from the photocurrents and the nearest-pattern decoder,
    the reference for the one-cut coded kernel."""
    patterns = pattern_array()
    tx = patterns[code_id, bits ^ polarity]
    level_idx = basis[:, None] + m * tx.astype(np.int64)
    current = mean_i[level_idx] + sigma_i[level_idx] * z
    hard = (current > thr[basis][:, None]).astype(np.uint8)
    matches_one = (hard == patterns[code_id, 1]).sum(axis=1)
    decoded = (matches_one >= 2).astype(np.uint8) ^ polarity
    return int(np.count_nonzero(decoded != bits))


# link tables of every ladder shape the Monte Carlo meets: several M, a
# link near BER 1/2, and a quiet one (no amplifiers or thermal noise)
LINKS = {
    **{f"M={m}": dict(m_bases=m) for m in (1, 15, 16, 256, 320)},
    "noisy": dict(m_bases=4, alpha_max=4.0, n_mean=16e9, g_p=30.0, n_repeaters=8,
                  thermal_var=1e-15),
    "quiet": dict(m_bases=4, alpha_max=1000.0, n_mean=1e15, g_p=1.0, kappa_r=1.0,
                  n_repeaters=0, thermal_var=0.0),
}


def link_levels(overrides):
    config = ScenarioConfig(**overrides)
    mean_i, sigma_i, thresholds, _ = _link_tables(config.link_params(), config.constellation())
    return config.m_bases, mean_i, sigma_i, thresholds


def assert_exact_cuts(mean, sigma, thr, rng):
    """z > cut decides as the float expression at the cut, one ulp either
    side of it, and at random normals."""
    cut = kernels.decision_cuts(mean, sigma, thr)
    n = mean.size
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.concatenate([
            cut, np.nextafter(cut, -np.inf), np.nextafter(cut, np.inf),
            np.tile(cut, 8) * (1.0 + 1e-6 * rng.standard_normal(8 * n)),
            rng.standard_normal(64 * n),
        ])
    level = np.arange(z.size) % n
    finite = np.isfinite(z)
    z, level = z[finite], level[finite]
    with np.errstate(over="ignore"):
        expected = mean[level] + sigma[level] * z > thr[level]
    assert np.array_equal(z > cut[level], expected)
    return cut


@pytest.mark.parametrize("link", sorted(LINKS))
def test_decision_cuts_are_exact_on_link_tables(link):
    m, mean_i, sigma_i, thresholds = link_levels(LINKS[link])
    cut = assert_exact_cuts(mean_i, sigma_i, np.tile(thresholds, 2), np.random.default_rng(m))
    # a low level passes above its cut and a high one below it
    assert np.all(cut[:m] > 0) and np.all(cut[m:] < 0)


def test_decision_cuts_at_the_extremes():
    big = np.finfo(np.float64).max
    tiny = np.finfo(np.float64).smallest_subnormal
    # (mean, sigma, thr): noise-free levels, thresholds out of reach, a
    # sigma so small next to the mean that the decision flips far from
    # (thr - mean) / sigma, and an overflowing product
    cases = np.array([
        (1.0, 0.0, 0.5), (1.0, 0.0, 1.0), (1.0, 0.0, 2.0), (0.0, 0.0, 0.0),
        (1.0, 1e-300, -1e308), (1.0, 1e-300, 1e308), (-1e308, 1.0, 1e308),
        (1.0, 1e-20, 1.0 + 2.0**-52), (1.0, 1e-20, 1.0 - 2.0**-53), (1e-5, 3e-21, 1e-5),
        (1.0, tiny, 1.0), (0.0, tiny, 0.0), (0.0, tiny, tiny), (0.0, 1e308, 1e308),
        (-1.0, 1e-300, -1.0), (0.0, 1.0, -0.0),
    ]).T
    cut = assert_exact_cuts(*cases, np.random.default_rng(1))
    assert list(cut[:4]) == [-np.inf, big, big, big]
    assert cut[4] == -np.inf and cut[5] == big
    # the decision flips far from the naive quotient (thr - mean) / sigma
    mean, sigma, thr = cases[:, 7]
    assert abs(cut[7] / ((thr - mean) / sigma) - 1) > 0.1


def near_cuts(cuts, rng):
    """Each cut, or one ulp below or above it, at random; a cut with no
    finite neighbour on the chosen side gives 0."""
    with np.errstate(over="ignore"):
        z = np.choose(rng.integers(0, 3, cuts.shape),
                      [np.nextafter(cuts, -np.inf), cuts, np.nextafter(cuts, np.inf)])
    return np.where(np.isfinite(z), z, 0.0)


@pytest.mark.parametrize("link", sorted(LINKS))
def test_one_cut_kernels_match_the_float_decisions(link):
    m, mean_i, sigma_i, thresholds = link_levels(LINKS[link])
    cut = kernels.decision_cuts(mean_i, sigma_i, np.tile(thresholds, 2))
    block_cuts, block_high = kernels.block_tables(cut, pattern_array())
    rng = np.random.default_rng(2 * m + len(link))
    n = 30_000
    basis = rng.integers(0, m, n)
    polarity = rng.integers(0, 2, n, dtype=np.uint8)
    bits = rng.integers(0, 2, n, dtype=np.uint8)
    code_id = rng.integers(0, 3, n)
    high = bits ^ polarity
    level_idx = basis + m * high.astype(np.int64)
    z = rng.standard_normal(n)
    # a third of the symbols on their level's cut or one ulp either side
    near = np.arange(n // 3)
    z[near] = near_cuts(cut[level_idx[near]], rng)
    expected = float_bob_errors(level_idx, basis, polarity, bits, z, mean_i, sigma_i, thresholds)
    assert kernels.bob_errors(level_idx, z, cut, high) == expected > 0
    sent = basis[:, None] + m * pattern_array()[code_id, high].astype(np.int64)
    z3 = rng.standard_normal((n, 3))
    z3[near] = near_cuts(cut[sent[near]], rng)
    expected = float_coded_errors(basis, polarity, code_id, bits, z3, mean_i, sigma_i,
                                  thresholds, m)
    assert kernels.coded_errors(basis, polarity, code_id, bits, z3, block_cuts,
                                block_high) == expected > 0


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
    """The super-block kernel against the bit-by-bit recurrence, at every
    length of LENGTHS. The recurrence runs once, to the longest length, and
    stops at each shorter one for the state there."""
    slow = np.empty(LENGTHS[-1], dtype=np.uint8)
    slow_state, done = np.uint64(state), 0
    for n in LENGTHS:
        slow_state = kernels._lfsr_fill_py(slow_state, np.uint64(mask), slow[done:n])
        done = n
        fast = np.empty(n, dtype=np.uint8)
        fast_state = kernels.lfsr_fill(np.uint64(state), np.uint64(mask), fast)
        assert int(fast_state) == int(slow_state), n
        assert np.array_equal(fast, slow[:n]), n


@pytest.mark.parametrize("width", sorted(LFSR_MASKS))
def test_lfsr_fill_matches_oracle_at_every_default_width(width):
    assert_matches_oracle((0x9E3779B97F4A7C15 >> (64 - width)) | 1, LFSR_MASKS[width])


@pytest.mark.parametrize("state", [0xF0000001, (1 << 63) | 5])
def test_lfsr_fill_matches_oracle_for_non_maximal_polynomial(state):
    # seed bits far above the feedback mask shift down through the register
    assert_matches_oracle(state, 3)


def test_lfsr_fill_matches_oracle_from_zero_state():
    assert_matches_oracle(0, LFSR_MASKS[32])


@st.composite
def registers(draw):
    """(state, mask) of a register 1 to 64 bits wide; the mask may be
    narrower than the state and need not give a maximal period."""
    width = draw(st.integers(1, 64))
    state = draw(st.integers(0, (1 << width) - 1))
    mask = draw(st.integers(0, (1 << draw(st.integers(1, width))) - 1))
    return state, mask


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(registers(), st.integers(0, 3 * kernels.SUPER_BLOCK + 130))
def test_lfsr_fill_matches_oracle_on_any_register(register, n):
    state, mask = register
    fast = np.empty(n, dtype=np.uint8)
    slow = np.empty(n, dtype=np.uint8)
    fast_state = kernels.lfsr_fill(np.uint64(state), np.uint64(mask), fast)
    slow_state = kernels._lfsr_fill_py(np.uint64(state), np.uint64(mask), slow)
    assert int(fast_state) == int(slow_state)
    assert np.array_equal(fast, slow)


def test_kernel_names_the_benchmark_tracer_reads_exist():
    # perfbench/spans.py counts Monte Carlo items from the first argument of
    # these two kernels, and its tracer and environment record read the rest
    for name in ("bob_errors", "coded_errors", "lfsr_fill", "backend_name"):
        assert callable(getattr(kernels, name, None)), name
    first = {name: next(iter(inspect.signature(getattr(kernels, name)).parameters))
             for name in ("bob_errors", "coded_errors")}
    assert first == {"bob_errors": "level_idx", "coded_errors": "basis"}
