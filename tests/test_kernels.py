import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from y00sim import kernels, scenario
from y00sim.coherent_algebra import orthonormal_embedding
from y00sim.overlap_coding import pattern_array
from y00sim.scenario import ScenarioConfig
from y00sim.y00_cipher import LFSR_MASKS, ConstellationSpec

from conftest import lfsr_reference

SUPER_BLOCK = 4096  # lfsr_fill returns whole super-blocks of this many bits
# fill requests of 0 to 4 super-blocks: around a word, a block, two blocks
LENGTHS = (0, 1, 64, 4095, 4096, 4097, 8192, 8193, 12_289, 4 * SUPER_BLOCK)


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
    # the root of two nearly identical states: each column of |S|^2 sums to
    # just under 1
    a, b = np.sqrt(0.5), np.sqrt(0.5 - 1e-16)
    root = np.array([[a, b], [b, a]])
    assert (u > scenario._eve_cuts(root, 1)[0]).all()


# (M, alpha_max): the complex solver up to 2M=128 (M=16 at 100 is the
# default config), the real one at 2M=640
@pytest.mark.parametrize(
    "m, alpha_max", [(1, 10.0), (3, 10.0), (15, 10.0), (16, 10.0), (16, 100.0), (64, 30.0),
                     (320, 10.0)]
)
def test_eve_cut_matches_full_row_srm_outcome(m, alpha_max):
    rng = np.random.default_rng(m)
    root = orthonormal_embedding(ConstellationSpec.intensity_ladder(m, alpha_max).ensemble())
    # from level l the SRM outcome is j with probability |S_jl|^2: the CDF
    # runs down each column
    cdf = np.cumsum(np.abs(root) ** 2, axis=0)
    cdf = (cdf / cdf[-1]).T
    cut = scenario._eve_cuts(root, m)
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


def full_range_cuts(mean, sigma, thr):
    """The cut by bisection over the keys of every finite float64, from the
    lowest to the highest, the reference for decision_cuts' bracketed search:
    the largest key that fails, -inf when every finite z passes and the
    largest float when none does."""
    def passes(keys):
        return mean + sigma * kernels._floats(keys) > thr

    with np.errstate(over="ignore"):
        shape = np.broadcast_shapes(mean.shape, sigma.shape, thr.shape)
        lo, hi = np.full(shape, kernels._KEY_LOW), np.full(shape, kernels._KEY_HIGH)
        every, none = passes(lo), ~passes(hi)
        lo = np.where(every | none, hi - np.uint64(1), lo)
        while True:
            mid = lo + ((hi - lo) >> np.uint64(1))
            if (mid == lo).all():
                break
            up = passes(mid)
            lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    return np.where(every, -np.inf, np.where(none, np.finfo(np.float64).max, kernels._floats(lo)))


def assert_same_cuts(mean, sigma, thr):
    """decision_cuts gives the reference's cuts, bit for bit."""
    cut = kernels.decision_cuts(mean, sigma, thr)
    assert np.array_equal(cut.view(np.uint64), full_range_cuts(mean, sigma, thr).view(np.uint64))


def link_levels(overrides):
    config = ScenarioConfig(**overrides)
    mean_i, sigma_i, thresholds, _ = scenario._link_tables(
        config.link_params(), config.constellation()
    )
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
    assert_same_cuts(mean_i, sigma_i, np.tile(thresholds, 2))
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
    assert_same_cuts(*cases)
    assert list(cut[:4]) == [-np.inf, big, big, big]
    assert cut[4] == -np.inf and cut[5] == big
    # the decision flips far from the naive quotient (thr - mean) / sigma
    mean, sigma, thr = cases[:, 7]
    assert abs(cut[7] / ((thr - mean) / sigma) - 1) > 0.1


# both zeros, subnormals and values up to 1e308, so that sigma * z and
# thr - mean overflow
FINITE = st.floats(-1e308, 1e308)
SIGMAS = st.one_of(st.just(-0.0), st.floats(0.0, 1e308))


@st.composite
def decision_levels(draw):
    """(mean, sigma, thr) of one level: thr anywhere, or within 10 sigma of
    the mean, where the decision flips for ordinary z."""
    mean, sigma = draw(FINITE), draw(SIGMAS)
    near = mean + sigma * draw(st.floats(-10.0, 10.0))
    return mean, sigma, draw(FINITE) if draw(st.booleans()) or not np.isfinite(near) else near


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(decision_levels(), min_size=1, max_size=8))
def test_decision_cuts_match_full_range_bisection(levels):
    assert_same_cuts(*np.array(levels, dtype=np.float64).T)


def test_decision_cuts_start_near_the_cut(monkeypatch):
    # the search starts at (thr - mean) / sigma, a few ulps from a real
    # link's cut; bisecting the whole float range takes 64 passes or more
    _, mean_i, sigma_i, thresholds = link_levels({})
    calls = []
    floats = kernels._floats
    monkeypatch.setattr(kernels, "_floats", lambda keys: calls.append(keys) or floats(keys))
    kernels.decision_cuts(mean_i, sigma_i, np.tile(thresholds, 2))
    assert 0 < len(calls) <= 12


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
        # by hand: state 0b10 emits 0 and halves; 0b1 emits 1 and folds the
        # mask in, to 0b100000, which then cycles through 6 states emitting
        # 0,0,0,0,0,1; after 4096 = 2 + 6 * 682 + 2 steps it is at 0b1000
        bits, final = kernels.lfsr_fill(0b10, 0b100000, 2)
        assert bits.size == SUPER_BLOCK
        assert list(bits[:14]) == [0, 1] + [0, 0, 0, 0, 0, 1] * 2
        assert int(final) == 0b1000

    def test_zero_state_stays_zero(self):
        bits, final = kernels.lfsr_fill(0, 0xB400, 8)
        assert int(final) == 0
        assert bits.size == SUPER_BLOCK and not bits.any()


def assert_matches_oracle(state, mask, lengths=LENGTHS):
    """The super-block kernel against the bit-by-bit recurrence: a request
    for n bits gets the first whole super-blocks holding them, and the state
    after those blocks. The recurrence runs one block at a time, up to the
    most blocks asked for, keeping the state at each block boundary."""
    blocks = [-(-n // SUPER_BLOCK) for n in lengths]
    slow, states = [], [state]
    for _ in range(max(blocks)):
        bits, after = lfsr_reference(states[-1], mask, SUPER_BLOCK)
        slow += bits
        states.append(after)
    for n, k in zip(lengths, blocks):
        fast, fast_state = kernels.lfsr_fill(state, mask, n)
        assert fast.dtype == np.uint8 and fast.size == k * SUPER_BLOCK, n
        assert np.array_equal(fast, slow[:fast.size]), n
        assert int(fast_state) == states[k], n


@pytest.mark.parametrize("width", sorted(LFSR_MASKS))
def test_lfsr_fill_matches_oracle_at_every_default_width(width):
    assert_matches_oracle((0x9E3779B97F4A7C15 >> (64 - width)) | 1, LFSR_MASKS[width])


@pytest.mark.parametrize("state", [0xF0000001, (1 << 63) | 5])
def test_lfsr_fill_matches_oracle_for_non_maximal_polynomial(state):
    # seed bits far above the feedback mask shift down through the register
    assert_matches_oracle(state, 3)


def test_lfsr_fill_matches_oracle_from_zero_state():
    assert_matches_oracle(0, LFSR_MASKS[32])


# fill requests across the state grid, whose rows span 64 super-blocks:
# either side of one and two rows, and 300 blocks, five rows found by
# three coarse doubling levels
GRID_LENGTHS = (63 * SUPER_BLOCK, 64 * SUPER_BLOCK - 1, 64 * SUPER_BLOCK, 64 * SUPER_BLOCK + 1,
                65 * SUPER_BLOCK, 128 * SUPER_BLOCK, 129 * SUPER_BLOCK, 300 * SUPER_BLOCK)


@pytest.mark.parametrize("state, mask", [
    *[((0x9E3779B97F4A7C15 >> (64 - w)) | 1, LFSR_MASKS[w]) for w in (8, 16, 32)],
    (0x9E3779B97F4A7C15, 0xD800000000000000),
])
def test_long_lfsr_fill_matches_chained_short_fills(state, mask):
    # fills of one super-block each, which the bit-by-bit oracle covers,
    # keeping the state at each block boundary
    short, states = [], [state]
    for _ in range(max(GRID_LENGTHS) // SUPER_BLOCK):
        bits, after = kernels.lfsr_fill(states[-1], mask, SUPER_BLOCK)
        short.append(bits)
        states.append(int(after))
    short = np.concatenate(short)
    for n in GRID_LENGTHS:
        k = -(-n // SUPER_BLOCK)
        bits, after = kernels.lfsr_fill(state, mask, n)
        assert np.array_equal(bits, short[:k * SUPER_BLOCK]), n
        assert int(after) == states[k], n


@st.composite
def registers(draw):
    """(state, mask) of a register 1 to 64 bits wide; the mask may be
    narrower than the state and need not give a maximal period."""
    width = draw(st.integers(1, 64))
    state = draw(st.integers(0, (1 << width) - 1))
    mask = draw(st.integers(0, (1 << draw(st.integers(1, width))) - 1))
    return state, mask


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(registers(), st.integers(0, 4 * SUPER_BLOCK))
def test_lfsr_fill_matches_oracle_on_any_register(register, n):
    assert_matches_oracle(*register, lengths=(n,))


@pytest.mark.parametrize("m", [43, 256, 1024])
def test_narrow_draw_lanes_cannot_wrap_an_index(m):
    # keyed draws come as uint8 up to M=256 and uint16 up to M=1024; from
    # M=43 on a uint8 basis * 6 would wrap, and basis + M * high from M=128
    _, mean_i, sigma_i, thresholds = link_levels(dict(m_bases=m))
    cut = kernels.decision_cuts(mean_i, sigma_i, np.tile(thresholds, 2))
    block_cuts, block_high = kernels.block_tables(cut, pattern_array())
    rng = np.random.default_rng(m)
    n = 20_000
    basis = np.concatenate([np.arange(m), rng.integers(0, m, n - m)])
    polarity, bits = rng.integers(0, 2, (2, n), dtype=np.uint8)
    code_id = rng.integers(0, 3, n)
    high = bits ^ polarity
    # noise on each symbol's own cut, so that a wrong row changes decisions
    level_idx = basis + m * high.astype(np.int64)
    z = near_cuts(cut[level_idx], rng)
    sent = basis[:, None] + m * pattern_array()[code_id, high].astype(np.int64)
    z3 = near_cuts(cut[sent], rng)
    bob = kernels.bob_errors(level_idx, z, cut, high)
    coded = kernels.coded_errors(basis, polarity, code_id, bits, z3, block_cuts, block_high)
    assert bob > 0 and coded > 0
    for lane in [np.uint8, np.uint16] if m <= 256 else [np.uint16]:
        narrow_idx = kernels.level_index(basis.astype(lane), high, m)
        assert np.array_equal(narrow_idx, level_idx)
        assert kernels.bob_errors(narrow_idx, z, cut, high) == bob
        assert kernels.coded_errors(basis.astype(lane), polarity, code_id.astype(lane), bits,
                                    z3, block_cuts, block_high) == coded


def test_kernel_names_the_benchmark_tracer_reads_exist():
    # perfbench/spans.py counts Monte Carlo items from the first argument of
    # these two kernels, and its tracer and environment record read the rest
    for name in ("bob_errors", "coded_errors", "lfsr_fill", "backend_name"):
        assert callable(getattr(kernels, name, None)), name
    first = {name: next(iter(inspect.signature(getattr(kernels, name)).parameters))
             for name in ("bob_errors", "coded_errors")}
    assert first == {"bob_errors": "level_idx", "coded_errors": "basis"}
