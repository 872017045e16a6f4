import hashlib
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import sympy
from scipy import stats

from y00sim.coherent_algebra import MultiModeState, gram_matrix
from y00sim.errors import ParameterError, SeedError
from y00sim.kernels import level_index
from y00sim.y00_cipher import (
    LFSR_MASKS,
    _DRAW_CHUNK,
    BasisAssignment,
    ConstellationSpec,
    KeystreamGenerator,
    SeedKey,
    _decode,
    _is_prime,
    _prime_factors,
    draw_symbol_frames,
    draw_uniform,
    eve_bit_mixtures,
    is_maximal_lfsr,
    lfsr_polynomial,
)

from conftest import lfsr_reference, per_draw_values


def brute_force_maximal(width: int, masks) -> np.ndarray:
    """Whether each mask's register, started at 1, first returns to 1 after
    exactly 2^width - 1 steps, walked one step at a time."""
    masks = np.asarray(masks, dtype=np.uint64)
    state = np.ones_like(masks)
    early = np.zeros(masks.size, dtype=bool)
    for step in range(1, 1 << width):
        state = (state >> np.uint64(1)) ^ (masks * (state & np.uint64(1)))
        if step < (1 << width) - 1:
            early |= state == 1
    return ~early & (state == 1)


class TestMaximalPeriod:
    @pytest.mark.parametrize("width", sorted(LFSR_MASKS))
    def test_default_masks_are_maximal(self, width):
        assert is_maximal_lfsr(width, LFSR_MASKS[width])

    @pytest.mark.parametrize("width", [8, 9, 10])
    def test_agrees_with_brute_force_on_every_mask(self, width):
        masks = np.arange(1, 1 << width)
        expected = brute_force_maximal(width, masks)
        assert [is_maximal_lfsr(width, int(m)) for m in masks] == list(expected)
        assert expected.any()

    @pytest.mark.parametrize("width", [11, 12, 13, 14, 15, 16])
    def test_agrees_with_brute_force_on_a_sample(self, width):
        rng = np.random.default_rng(width)
        masks = [LFSR_MASKS[width], *rng.integers(1, 1 << width, size=63)]
        expected = brute_force_maximal(width, masks)
        assert [is_maximal_lfsr(width, int(m)) for m in masks] == list(expected)
        assert expected[0] and not expected.all()

    def test_is_prime_agrees_with_sympy(self):
        # strong pseudoprimes to base 2, to bases 2..7 and to bases 2..23, and
        # a Carmichael number 211 * 421 * 631 with a^((n-1)/2) = 1 for every a
        # coprime to it, so squaring reaches 1 without passing through n - 1
        hard = [2047, 3215031751, 3825123056546413051, 56052361, (1 << 61) - 1, (1 << 64) - 59]
        for n in [*range(5000), *hard]:
            assert _is_prime(n) == sympy.isprime(n), n

    @pytest.mark.parametrize("width", range(2, 65))
    def test_prime_factors_of_the_period(self, width):
        n = (1 << width) - 1
        factors = _prime_factors(n)
        assert factors == set(sympy.primefactors(n))
        for q in factors:
            while n % q == 0:
                n //= q
        assert n == 1


class TestKeystream:
    def test_same_seed_same_stream(self):
        a = KeystreamGenerator(SeedKey.from_hex("ACE1"))
        b = KeystreamGenerator(SeedKey.from_hex("ACE1"))
        assert np.array_equal(a.take(4096), b.take(4096))

    def test_stream_splits_cleanly(self):
        a = KeystreamGenerator(SeedKey.from_hex("BEEF"))
        b = KeystreamGenerator(SeedKey.from_hex("BEEF"))
        left = np.concatenate([a.take(8), a.take(8)])
        assert np.array_equal(left, b.take(16))

    def test_matches_reference_recurrence(self):
        gen = KeystreamGenerator(SeedKey.from_hex("ACE1"))
        expected, _ = lfsr_reference(0xACE1, LFSR_MASKS[16], 500)
        assert list(gen.take(500)) == expected

    def test_sixteen_bit_register_has_maximal_period(self):
        state = 0xACE1
        seen_start = state
        period = 0
        for _ in range(1 << 17):
            _, state = lfsr_reference(state, LFSR_MASKS[16], 1)
            period += 1
            if state == seen_start:
                break
        assert period == (1 << 16) - 1

    @pytest.mark.parametrize("width", [8, 9, 10, 11, 12, 13, 14])
    def test_small_registers_have_maximal_period(self, width):
        state = 1
        period = 0
        for _ in range(1 << (width + 1)):
            _, state = lfsr_reference(state, LFSR_MASKS[width], 1)
            period += 1
            if state == 1:
                break
        assert period == (1 << width) - 1

    def test_zero_seed_rejected(self):
        with pytest.raises(SeedError):
            KeystreamGenerator(SeedKey.from_int(0, 16))

    def test_counter_hash_deterministic(self):
        a = KeystreamGenerator(SeedKey.from_hex("1234ABCD"), kind="counter_hash")
        b = KeystreamGenerator(SeedKey.from_hex("1234ABCD"), kind="counter_hash")
        assert np.array_equal(a.take(1000), b.take(1000))

    def test_counter_hash_roughly_balanced(self):
        gen = KeystreamGenerator(SeedKey.from_hex("1234ABCD"), kind="counter_hash")
        bits = gen.take(20000)
        assert abs(bits.mean() - 0.5) < 0.02

    def test_unsupported_width_needs_explicit_polynomial(self):
        with pytest.raises(ParameterError):
            KeystreamGenerator(SeedKey.from_int(0b101010101, 33))


class TestSeedKey:
    def test_hex_round_trip(self):
        key = SeedKey.from_hex("ACE1F00D")
        assert key.n == 32
        assert key.to_int() == 0xACE1F00D

    def test_too_short_rejected(self):
        with pytest.raises(ParameterError):
            SeedKey.from_hex("F")

    def test_bad_hex_rejected(self):
        with pytest.raises(ParameterError):
            SeedKey.from_hex("XYZ1")

    def test_prefix_and_outer_space_are_not_key_bits(self):
        assert SeedKey.from_hex(" 0xACE1F00D\n") == SeedKey.from_hex("ACE1F00D")

    # only ASCII hex digits after one optional 0x count towards the key width
    @pytest.mark.parametrize(
        "text", ["ACE1_F00D", "+ACE1F00D", "-ACE1F00D", "ACE1 F00D", "0x0XACE1F00D"]
    )
    def test_non_hex_characters_rejected(self, text):
        with pytest.raises(ParameterError, match="not hex"):
            SeedKey.from_hex(text)


class TestSymbolMap:
    def test_single_basis_uses_only_polarity(self):
        gen = KeystreamGenerator(SeedKey.from_hex("ACE1"))
        reference = KeystreamGenerator(SeedKey.from_hex("ACE1"))
        basis, polarity = draw_symbol_frames(gen, 1, BasisAssignment("osk"), 10)
        assert not basis.any()
        assert np.array_equal(polarity, reference.take(10))

    def test_non_overlap_polarity_pinned(self):
        gen = KeystreamGenerator(SeedKey.from_hex("ACE1"))
        _, polarity = draw_symbol_frames(gen, 8, BasisAssignment("non_overlap"), 20)
        assert not polarity.any()

    def test_basis_uniform_under_hash_stream(self):
        gen = KeystreamGenerator(SeedKey.from_hex("1234ABCD"), kind="counter_hash")
        draws = 100_000
        basis, _ = draw_symbol_frames(gen, 8, BasisAssignment("osk"), draws)
        counts = np.bincount(basis, minlength=8)
        assert stats.chisquare(counts).pvalue > 0.001

    def test_rejection_sampling_stays_in_range(self):
        gen = KeystreamGenerator(SeedKey.from_hex("1234ABCD"), kind="counter_hash")
        basis, _ = draw_symbol_frames(gen, 3, BasisAssignment("osk"), 5000)
        assert basis.min() >= 0 and basis.max() <= 2
        counts = np.bincount(basis, minlength=3)
        assert stats.chisquare(counts).pvalue > 0.001


# Uneven takes and peeks over more than three 2^18-bit refills; the peeks
# look past the buffered bits.
UNEVEN_READS = (
    ("take", 5), ("peek", 300_000), ("take", 4091), ("take", (1 << 18) - 3),
    ("peek", 1), ("take", 1), ("peek", 70_001), ("take", 300_007),
    ("take", 1), ("peek", (1 << 18) + 17), ("take", 220_191), ("peek", 64),
)
UNEVEN_READS_SPAN = 3 * (1 << 18) + 300_000  # bits the reads reach, rounded up


def read_unevenly(gen, expected):
    """Read ``gen`` by UNEVEN_READS; every read must match ``expected``."""
    pos = 0
    for op, n in UNEVEN_READS:
        bits = gen.peek(n) if op == "peek" else gen.take(n)
        assert np.array_equal(bits, expected[pos:pos + n]), (op, n, pos)
        pos += n if op == "take" else 0
    assert pos >= 3 * (1 << 18) + 5


class TestBufferedKeystream:
    @pytest.mark.parametrize("kind", ["lfsr", "counter_hash"])
    def test_take_splits_at_any_point_and_peek_consumes_nothing(self, kind):
        for a, b in ((0, 5), (1, 63), (255, 2), (4095, 2), (3000, 9000)):
            split = KeystreamGenerator(SeedKey.from_hex("ACE1F00D"), kind=kind)
            whole = KeystreamGenerator(SeedKey.from_hex("ACE1F00D"), kind=kind)
            peeked = split.peek(a + b).copy()
            left = split.take(a)
            assert np.array_equal(split.peek(b), peeked[a:])
            joined = np.concatenate([left, split.take(b)])
            assert np.array_equal(joined, whole.take(a + b))
            assert np.array_equal(joined, peeked)
            assert np.array_equal(split.take(100), whole.take(100))

    def test_take_returns_a_read_only_view(self):
        gen = KeystreamGenerator(SeedKey.from_hex("ACE1F00D"))
        bits = gen.take(100)
        assert not bits.flags.writeable and not bits.flags.owndata
        with pytest.raises(ValueError):
            bits[0] ^= 1

    @pytest.mark.parametrize("kind", ["lfsr", "counter_hash"])
    def test_taken_views_keep_their_bits_across_refills(self, kind):
        # after each take, a peek one bit past the buffered bits refills; the
        # old buffer must be replaced, not written, so earlier views keep their bits
        gen = KeystreamGenerator(SeedKey.from_hex("ACE1F00D"), kind=kind)
        whole = KeystreamGenerator(SeedKey.from_hex("ACE1F00D"), kind=kind).take(1 << 20)
        views, pos = [], 0
        for n in (4000, 90, (1 << 18) - 7, 5, 300_001):
            views.append((pos, gen.take(n)))
            pos += n
            buffer = gen._buffer
            gen.peek(buffer.size - gen._pos + 1)
            assert gen._buffer is not buffer
            for start, view in views:
                assert np.array_equal(view, whole[start:start + view.size])

    def test_counter_hash_matches_digests_across_refills(self):
        gen = KeystreamGenerator(SeedKey.from_hex("1234ABCD"), kind="counter_hash")
        sizes = (1, 255, 4096, 3, 5000, 9000)
        drawn = np.concatenate([gen.take(n) for n in sizes])
        digests = b"".join(
            hashlib.sha256(bytes.fromhex("1234ABCD") + c.to_bytes(8, "big")).digest()
            for c in range(-(-sum(sizes) // 256))
        )
        expected = np.unpackbits(np.frombuffer(digests, dtype=np.uint8))[: sum(sizes)]
        assert np.array_equal(drawn, expected)

    @pytest.mark.parametrize("width", sorted(LFSR_MASKS))
    def test_lfsr_refills_match_recurrence_at_every_width(self, width):
        seed = (0x9E3779B97F4A7C15 >> (64 - width)) | 1
        gen = KeystreamGenerator(SeedKey.from_int(seed, width))
        expected, _ = lfsr_reference(seed, LFSR_MASKS[width], UNEVEN_READS_SPAN)
        read_unevenly(gen, np.array(expected, dtype=np.uint8))

    def test_counter_hash_refills_match_digests(self):
        gen = KeystreamGenerator(SeedKey.from_hex("1234ABCD"), kind="counter_hash")
        digests = b"".join(
            hashlib.sha256(bytes.fromhex("1234ABCD") + c.to_bytes(8, "big")).digest()
            for c in range(UNEVEN_READS_SPAN // 256)
        )
        read_unevenly(gen, np.unpackbits(np.frombuffer(digests, dtype=np.uint8)))

    def test_non_maximal_polynomial_matches_recurrence(self):
        gen = KeystreamGenerator(SeedKey.from_hex("F0000003"), polynomial=3)
        expected, _ = lfsr_reference(0xF0000003, 3, 5000)
        assert list(np.concatenate([gen.take(1), gen.take(4999)])) == expected

    @pytest.mark.parametrize("mode", ["osk", "non_overlap"])
    @pytest.mark.parametrize("m", [1, 3, 5, 15, 16])
    def test_bulk_frames_leave_the_per_draw_state(self, m, mode):
        # a 7-bit lead-in misaligns the start; tiny batches peek windows that
        # can run out of accepted draws, the large one crosses a peek chunk
        assignment = BasisAssignment(mode)
        bulk = KeystreamGenerator(SeedKey.from_hex("ACE1F00D"))
        stream = KeystreamGenerator(SeedKey.from_hex("ACE1F00D")).take(1 << 19)[7:]
        bulk.take(7)
        batches = [draw_symbol_frames(bulk, m, assignment, k) for k in [1] * 40 + [19_960]]
        basis, polarity = (np.concatenate(column) for column in zip(*batches))
        values, tails, used = per_draw_values(stream.tolist(), m, mode == "osk", 20_000)
        assert basis.tolist() == values and polarity.tolist() == tails
        assert np.array_equal(bulk.take(256), stream[used:used + 256])

    @pytest.mark.parametrize("count", [_DRAW_CHUNK - 1, _DRAW_CHUNK, _DRAW_CHUNK + 1])
    @pytest.mark.parametrize("mode", ["osk", "non_overlap"])
    @pytest.mark.parametrize("m", [2, 17, 1024])
    def test_bulk_frames_around_a_draw_chunk(self, m, mode, count):
        # power-of-two M reads fixed-stride rows with and without the
        # polarity bit, M=17 rejects; counts end just inside, on and just
        # past a chunk of draws
        assignment = BasisAssignment(mode)
        bulk = KeystreamGenerator(SeedKey.from_hex("ACE1F00D"))
        stream = KeystreamGenerator(SeedKey.from_hex("ACE1F00D")).take(1 << 19)[5:]
        bulk.take(5)
        basis, polarity = draw_symbol_frames(bulk, m, assignment, count)
        values, tails, used = per_draw_values(stream.tolist(), m, mode == "osk", count)
        assert basis.tolist() == values and polarity.tolist() == tails
        assert np.array_equal(bulk.take(256), stream[used:used + 256])

    @pytest.mark.parametrize("tail", [False, True])
    # n = ceil(log2 bound) from 0 to 10 covers every split into 8-, 4-, 2- and 1-byte groups
    @pytest.mark.parametrize("bound", [1, 2, 3, 5, 8, 15, 32, 33, 64, 100, 128, 255, 256, 257,
                                       512, 513, 1024])
    def test_draws_at_the_lane_boundaries(self, bound, tail):
        # values come in the narrowest unsigned dtype holding every n-bit
        # attempt; a 3-draw lead-in misaligns the batch that crosses a chunk
        gen = KeystreamGenerator(SeedKey.from_hex("ACE1F00D"))
        stream = KeystreamGenerator(SeedKey.from_hex("ACE1F00D")).take(1 << 19)
        batches = [draw_uniform(gen, bound, k, tail_bit=tail) for k in (3, _DRAW_CHUNK + 5)]
        values, tails = (np.concatenate(column) for column in zip(*batches))
        expected_values, expected_tails, used = per_draw_values(stream.tolist(), bound, tail,
                                                                values.size)
        assert values.tolist() == expected_values
        assert tails.tolist() == expected_tails
        assert np.array_equal(gen.take(256), stream[used:used + 256])
        assert values.dtype.itemsize == (1 if bound <= 256 else 2)
        assert np.iinfo(values.dtype).max >= bound - 1

    @pytest.mark.parametrize("n_bits", [*range(1, 18), 31, 32, 33, 63, 64])
    def test_decode_matches_the_bit_loop(self, n_bits):
        lane = np.min_scalar_type((1 << n_bits) - 1)
        bits = np.random.default_rng(n_bits).integers(0, 2, 2 * _DRAW_CHUNK + 77, dtype=np.uint8)
        bits.flags.writeable = False

        def bit_loop(windows):
            return [int("".join(map(str, row[:n_bits])), 2) for row in windows.tolist()]

        for stride in (n_bits, n_bits + 1):
            # fixed-stride rows, the last ending at the end of the buffer
            rows = bits[bits.size % stride:].reshape(-1, stride)
            decoded = _decode(rows, n_bits, lane)
            assert decoded.dtype == lane and decoded.tolist() == bit_loop(rows)
        # every offset's window, the last ending at the end of a read-only buffer
        windows = np.lib.stride_tricks.sliding_window_view(bits, n_bits)
        assert _decode(windows, n_bits, lane).tolist() == bit_loop(windows)

    def test_bound_one_reads_only_the_tail_bits(self):
        # M=1 under OSK: no basis bits, so each draw is value 0 and one bit
        gen = KeystreamGenerator(SeedKey.from_hex("ACE1F00D"))
        stream = KeystreamGenerator(SeedKey.from_hex("ACE1F00D")).take(_DRAW_CHUNK + 300)
        values, tails = draw_uniform(gen, 1, _DRAW_CHUNK + 44, tail_bit=True)
        assert not values.any()
        assert np.array_equal(tails, stream[:_DRAW_CHUNK + 44])
        assert np.array_equal(gen.take(256), stream[_DRAW_CHUNK + 44:])

    @pytest.mark.parametrize("kind", ["lfsr", "counter_hash"])
    def test_bulk_code_ids_leave_the_per_draw_state(self, kind):
        from y00sim.scenario import _draw_code_ids

        # 2 bits per attempt, value 3 rejected
        bulk = KeystreamGenerator(SeedKey.from_hex("ACE1F00D"), kind=kind)
        stream = KeystreamGenerator(SeedKey.from_hex("ACE1F00D"), kind=kind).take(1 << 16)
        values, _, used = per_draw_values(stream.tolist(), 3, False, 20_000)
        assert _draw_code_ids(bulk, 20_000).tolist() == values
        assert np.array_equal(bulk.take(256), stream[used:used + 256])


def sent_level(basis, polarity, bit, m):
    """Level row (0-based) Alice sends ``bit`` on in the keyed basis."""
    return int(level_index(np.array(basis), np.array(bit ^ polarity), m))


class TestEncodeDecode:
    def test_bit_zero_polarity_zero_rides_lowest_level(self):
        assert sent_level(0, 0, 0, 8) == 0

    def test_bit_zero_polarity_one_rides_upper_level(self):
        assert sent_level(0, 1, 0, 8) == 8

    def test_polarity_flip_swaps_levels_only(self):
        for bit in (0, 1):
            for basis in range(4):
                levels = {sent_level(basis, polarity, bit, 4) for polarity in (0, 1)}
                assert levels == {basis, basis + 4}


class TestEveMixtures:
    def test_osk_hypotheses_share_every_ket(self):
        spec = ConstellationSpec.intensity_ladder(1, 2.0)
        problem = eve_bit_mixtures(spec, BasisAssignment("osk"))
        states = problem.ensemble.states
        ones = {states[i] for i in problem.hypothesis_1}
        zeros = {states[i] for i in problem.hypothesis_0}
        assert ones == zeros == set(spec.levels)

    def test_non_overlap_hypotheses_are_half_ladders(self):
        spec = ConstellationSpec.intensity_ladder(4, 4.0)
        problem = eve_bit_mixtures(spec, BasisAssignment("non_overlap"))
        states = problem.ensemble.states
        lows = {states[i] for i in problem.hypothesis_0}
        highs = {states[i] for i in problem.hypothesis_1}
        assert lows == set(spec.levels[:4])
        assert highs == set(spec.levels[4:])


class TestConstellationSpec:
    def test_ladder_levels_spacing(self):
        spec = ConstellationSpec.intensity_ladder(2, 8.0)
        assert np.allclose(spec.level_amplitudes(), [2.0, 4.0, 6.0, 8.0])

    @pytest.mark.parametrize("m, alpha", [(16, 100.0), (15, 100.0), (300, 100.0), (65, 3.0)])
    def test_amplitudes_are_the_per_level_floats(self, m, alpha):
        # the array holds the bits of alpha_max * i / (2M) computed a level at
        # a time, with imaginary parts +0.0, and builds the same level states
        spec = ConstellationSpec.intensity_ladder(m, alpha)
        per_level = [alpha * i / (2 * m) for i in range(1, 2 * m + 1)]
        assert spec.amplitudes.shape == (2 * m, 1)
        assert spec.level_amplitudes().tolist() == per_level
        assert not np.signbit(spec.amplitudes.imag).any() and not spec.amplitudes.imag.any()
        assert spec.levels == tuple(MultiModeState.single(a) for a in per_level)

    @pytest.mark.parametrize("m, alpha", [(1, 3.0), (15, 3.0), (65, 30.0)])
    def test_phase_amplitudes_are_the_per_level_quotients(self, m, alpha):
        spec = ConstellationSpec.phase_ladder(m, alpha)
        base = complex(alpha) / math.sqrt(2.0)
        for k, row in enumerate(spec.amplitudes.tolist()):
            phi = 2.0 * math.pi * k / (2 * m)
            rot = complex(math.cos(phi / 2.0), math.sin(phi / 2.0))
            assert row == [base / rot, base * rot], k

    def test_amplitudes_are_read_only(self):
        spec = ConstellationSpec.intensity_ladder(2, 4.0)
        phase = ConstellationSpec.phase_ladder(2, 4.0)
        for view in (spec.amplitudes, spec.level_amplitudes(), phase.amplitudes):
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0] = 0.0
        assert np.shares_memory(spec.level_amplitudes(), spec.amplitudes)
        assert spec.amplitudes is spec.amplitudes  # derived once per spec

    @pytest.mark.parametrize("kind", ["intensity_ladder", "phase_ladder"])
    @pytest.mark.parametrize("m, alpha", [(1, 3.0), (16, 100.0), (65, 30.0), (320, 1e8)])
    def test_three_numbers_make_the_named_ladder(self, kind, m, alpha):
        # a spec is its kind, M and peak amplitude: built directly it equals
        # the named constructor's, hashes alike and holds the same bits
        direct = ConstellationSpec(kind, m, alpha)
        named = getattr(ConstellationSpec, kind)(m, alpha)
        assert direct == named and hash(direct) == hash(named)
        assert direct.amplitudes.tobytes() == named.amplitudes.tobytes()
        assert direct != ConstellationSpec(kind, m, alpha / 2)

    @pytest.mark.parametrize("kind", ["intensity_ladder", "phase_ladder"])
    def test_levels_are_built_when_first_read(self, kind, monkeypatch):
        built = []
        original = MultiModeState.__post_init__

        def counted(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(MultiModeState, "__post_init__", counted)
        spec = getattr(ConstellationSpec, kind)(320, 100.0)
        spec.overlaps()
        assert built == []
        assert spec.levels is spec.levels and len(built) == 640
        assert spec.level_states(2) == spec.levels[:2]

    def test_ladder_traced_peak_memory(self):
        # the (2M, 1) complex array beside its float source: 22 KB at 640
        # levels, where 640 MultiModeState objects would take 129 KB
        ConstellationSpec.intensity_ladder(2, 1.0)
        tracemalloc.start()
        try:
            ConstellationSpec.intensity_ladder(320, 100.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 1024

    def test_rejects_nonpositive_peak(self):
        with pytest.raises(ParameterError):
            ConstellationSpec.intensity_ladder(4, 0.0)

    @pytest.mark.parametrize("kind", ["intensity_ladder", "phase_ladder"])
    @pytest.mark.parametrize("m, alpha", [(1, 3.0), (15, 3.0), (64, 30.0), (160, 100.0)])
    def test_overlaps_give_the_ladders_gram(self, kind, m, alpha):
        # the float levels' Gram is Toeplitz up to rounding in the levels
        # and in its exponents, which reach 2 alpha^2
        spec = getattr(ConstellationSpec, kind)(m, alpha)
        g = spec.overlaps()
        i = np.arange(2 * m)
        assert g.shape == (2 * m,) and g[0] == 1.0
        off = np.max(np.abs(gram_matrix(spec.ensemble()) - g[abs(i[:, None] - i)]))
        assert off <= 1e-13 + 1e-15 * alpha**2

    @pytest.mark.parametrize("alpha", [30.0, 100.0])
    def test_phase_overlaps_keep_their_digits(self, alpha):
        # the sin^2 form; exp(alpha^2 (cos - 1)) is off by up to 5e-13 here
        m = 1024
        g = ConstellationSpec.phase_ladder(m, alpha).overlaps()
        with mpmath.workdps(40):
            for d in range(64):
                truth = float(mpmath.exp(-2 * mpmath.mpf(alpha) ** 2
                                         * mpmath.sin(mpmath.pi * d / (4 * m)) ** 2))
                assert abs(g[d] - truth) <= 1e-13 * truth, d


def test_simulated_srm_eve_is_blind_under_osk(rng):
    # a per-symbol SRM attacker who knows the ladder but not the key reads
    # the level yet gains nothing about the bit
    from y00sim.detection import srm_error
    from test_kernels import srm_outcomes

    m = 4
    spec = ConstellationSpec.intensity_ladder(m, 6.0)
    gen = KeystreamGenerator(SeedKey.from_hex("ACE1F00D"))
    n = 20_000
    basis, polarity = draw_symbol_frames(gen, m, BasisAssignment("osk"), n)
    bits = rng.integers(0, 2, n, dtype=np.uint8)
    level_idx = basis + m * (bits ^ polarity).astype(np.int64)
    cdf = np.cumsum(srm_error(spec.ensemble()).confusion, axis=1)
    cdf /= cdf[:, -1:]
    guesses = (srm_outcomes(cdf, level_idx, rng.random(n)) >= m).astype(np.uint8)
    error = np.count_nonzero(guesses != bits) / n
    assert abs(error - 0.5) < 3 * np.sqrt(0.25 / n)


SEED = SeedKey.from_hex("ACE1F00D")


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: SeedKey((0,) * 7 + (2,)), ParameterError, "seed bits must be 0 or 1"),
        (lambda: SeedKey.from_hex("0x"), ParameterError, "empty seed key"),
        (lambda: SeedKey.from_int(256, 8), ParameterError, "does not fit in 8 bits"),
        (lambda: lfsr_polynomial(8, 0x100), ParameterError, "does not fit width 8"),
        (lambda: KeystreamGenerator(SEED, kind="x"), ParameterError, "unknown keystream kind"),
        (lambda: KeystreamGenerator(SEED).peek(-1), ParameterError, "negative number of bits"),
        (lambda: BasisAssignment("x"), ParameterError, "unknown assignment mode"),
        (lambda: ConstellationSpec("x", 2, 4.0), ParameterError, "unknown constellation kind"),
        (lambda: ConstellationSpec("intensity_ladder", 0, 4.0), ParameterError,
         "at least one basis"),
        (lambda: ConstellationSpec("phase_ladder", 2, 2e8), ParameterError, "peak amplitude"),
        (lambda: ConstellationSpec("intensity_ladder", 2, 5e-324), ParameterError,
         "strictly increasing"),
        (lambda: draw_uniform(KeystreamGenerator(SEED), 0, 1), ParameterError, "bound >= 1"),
    ],
)
def test_argument_checks(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
