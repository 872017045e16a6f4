"""The Y-00 cipher layer: keystream generation, keyed basis selection with
overlap selection keying (OSK), encode/decode for the legitimate pair, the
eavesdropper's induced state mixtures, and the key-expansion session loop.

The constellation is a ladder of 2M intensity levels alpha_i = alpha_max *
i / (2M); basis j pairs level j with level j+M, and under OSK the running
key also flips which of the pair carries bit 0. A keyed symbol consumes
ceil(log2 M) keystream bits for the basis (rejection-sampled for non-power-
of-two M, first-consumed bit most significant) plus one polarity bit in OSK
mode.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import kernels
from .coherent_algebra import MultiModeState, StateEnsemble
from .detection import DiscriminationProblem
from .errors import ParameterError, SeedError

# Feedback masks giving maximal period 2^n - 1 for the right-shift Galois
# LFSR s' = (s >> 1) ^ (mask if s & 1 else 0). Verified by GF(2)
# transition-matrix order; widths 8..16 are additionally cycle-checked in
# the test suite.
LFSR_MASKS = {
    8: 0x8E,
    9: 0x108,
    10: 0x204,
    11: 0x402,
    12: 0x829,
    13: 0x100D,
    14: 0x2015,
    15: 0x4001,
    16: 0xB400,
    17: 0x10004,
    18: 0x20040,
    19: 0x40013,
    20: 0x80004,
    21: 0x100002,
    22: 0x200001,
    23: 0x400010,
    24: 0x80000D,
    25: 0x1000004,
    26: 0x2000023,
    27: 0x4000013,
    28: 0x8000004,
    29: 0x10000002,
    30: 0x20000029,
    31: 0x40000004,
    32: 0x80000062,
}


@dataclass(frozen=True)
class SeedKey:
    """A short shared secret, stored as a bit string (MSB first)."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) < 8:
            raise ParameterError(f"seed keys need at least 8 bits, got {len(self.bits)}")
        if any(b not in (0, 1) for b in self.bits):
            raise ParameterError("seed bits must be 0 or 1")

    @classmethod
    def from_hex(cls, text: str) -> "SeedKey":
        text = text.strip().removeprefix("0x").removeprefix("0X")
        if not text:
            raise ParameterError("empty seed key")
        try:
            value = int(text, 16)
        except ValueError as exc:
            raise ParameterError(f"seed key is not hex: {text!r}") from exc
        return cls.from_int(value, 4 * len(text))

    @classmethod
    def from_int(cls, value: int, width: int) -> "SeedKey":
        if value < 0 or value >= (1 << width):
            raise ParameterError(f"seed value {value} does not fit in {width} bits")
        return cls(tuple((value >> (width - 1 - i)) & 1 for i in range(width)))

    @property
    def n(self) -> int:
        return len(self.bits)

    def to_int(self) -> int:
        return _bits_to_int(self.bits)

    def to_hex(self) -> str:
        if self.n % 4:
            raise ParameterError("hex form needs a bit length divisible by 4")
        return format(self.to_int(), f"0{self.n // 4}X")


def lfsr_polynomial(width: int, polynomial: Optional[int] = None) -> int:
    """Feedback mask of a ``width``-bit LFSR: ``polynomial``, or the default
    maximal-period mask of that width when it is None."""
    if width > 64:
        raise ParameterError(f"an LFSR register holds at most 64 bits, got {width}")
    if polynomial is None:
        polynomial = LFSR_MASKS.get(width)
        if polynomial is None:
            raise ParameterError(
                f"no default feedback polynomial for width {width}; "
                f"supported widths: {sorted(LFSR_MASKS)}"
            )
    if not 0 < polynomial < (1 << width):
        raise ParameterError(f"polynomial 0x{polynomial:X} does not fit width {width}")
    return int(polynomial)


# Fewest fresh bits a keystream refill generates; bulk draws peek more at once.
_REFILL_BITS = 4096
# Draws resolved per peek of the running key; bounds the bits held at once.
_DRAW_CHUNK = 1 << 14


class KeystreamGenerator:
    """Deterministic running-key source expanded from a seed key.

    Two kinds: "lfsr" (default, a maximal-period Galois register as wide as
    the seed) and "counter_hash" (SHA-256 of seed||counter, for when a
    structure-free stream is preferable). Identical seed and parameters
    always reproduce the identical stream. Both kinds feed one buffer of
    generated but unconsumed bits. Instances are single-owner mutable
    state; use one per thread.
    """

    def __init__(self, seed: SeedKey, kind: str = "lfsr", polynomial: Optional[int] = None):
        if kind not in ("lfsr", "counter_hash"):
            raise ParameterError(f"unknown keystream kind {kind!r}")
        self.kind = kind
        self.seed = seed
        self.width = seed.n
        if kind == "lfsr":
            self.polynomial = lfsr_polynomial(self.width, polynomial)
            self._state = seed.to_int()  # register state after the buffered bits
            if self._state == 0:
                raise SeedError("an all-zero seed locks the LFSR; pick any nonzero key")
        else:
            self.polynomial = None
            self._seed_bytes = np.packbits(np.array(seed.bits, dtype=np.uint8)).tobytes()
            self._counter = 0
        self._buffer = np.empty(0, dtype=np.uint8)
        self._pos = 0

    def _generate(self, n_bits: int) -> np.ndarray:
        """At least n_bits fresh bits of the stream."""
        if self.kind == "lfsr":
            out = np.empty(n_bits, dtype=np.uint8)
            self._state = int(
                kernels.lfsr_fill(np.uint64(self._state), np.uint64(self.polynomial), out)
            )
            return out
        first = self._counter
        self._counter += -(-n_bits // 256)
        digests = b"".join(
            hashlib.sha256(self._seed_bytes + c.to_bytes(8, "big")).digest()
            for c in range(first, self._counter)
        )
        return np.unpackbits(np.frombuffer(digests, dtype=np.uint8))

    def peek(self, n_bits: int) -> np.ndarray:
        """The next n_bits of the running key as a read-only uint8 view,
        without consuming them."""
        if n_bits < 0:
            raise ParameterError("cannot read a negative number of bits")
        short = n_bits - (self._buffer.size - self._pos)
        if short > 0:
            fresh = self._generate(max(short, _REFILL_BITS))
            self._buffer = np.concatenate([self._buffer[self._pos:], fresh])
            self._buffer.flags.writeable = False
            self._pos = 0
        return self._buffer[self._pos:self._pos + n_bits]

    def take(self, n_bits: int) -> np.ndarray:
        """Next n_bits of the running key as a uint8 array."""
        out = self.peek(n_bits).copy()
        self._pos += n_bits
        return out


@dataclass(frozen=True)
class BasisAssignment:
    """How data bits map onto a basis pair.

    "osk" lets a keystream bit pick between the {0,1} and {1,0} polarity
    maps; "non_overlap" fixes polarity 0, so bit 0 always rides the lower
    level of the pair.
    """

    mode: str = "osk"

    def __post_init__(self):
        if self.mode not in ("osk", "non_overlap"):
            raise ParameterError(f"unknown assignment mode {self.mode!r}")


@dataclass(eq=False)
class ConstellationSpec:
    """The 2M-level signal set and its pairing into M bases."""

    kind: str
    m_bases: int
    alpha_max: float
    levels: tuple[MultiModeState, ...]

    def __post_init__(self):
        if self.kind not in ("intensity_ladder", "phase_ladder"):
            raise ParameterError(f"unknown constellation kind {self.kind!r}")
        if self.m_bases < 1:
            raise ParameterError("need at least one basis")
        if len(self.levels) != 2 * self.m_bases:
            raise ParameterError("a constellation has exactly 2M levels")
        if self.kind == "intensity_ladder":
            amps = [lvl.modes[0].real for lvl in self.levels]
            if any(b <= a for a, b in zip(amps, amps[1:])):
                raise ParameterError("intensity levels must be strictly increasing")

    @classmethod
    def intensity_ladder(cls, m_bases: int, alpha_max: float) -> "ConstellationSpec":
        """Levels alpha_i = alpha_max * i / (2M), i = 1 .. 2M."""
        if alpha_max <= 0:
            raise ParameterError(f"alpha_max must be positive, got {alpha_max}")
        if m_bases < 1:
            raise ParameterError("need at least one basis")
        levels = tuple(
            MultiModeState.single(alpha_max * i / (2 * m_bases)) for i in range(1, 2 * m_bases + 1)
        )
        return cls("intensity_ladder", m_bases, float(alpha_max), levels)

    @classmethod
    def phase_ladder(cls, m_bases: int, alpha: float) -> "ConstellationSpec":
        from .coherent_algebra import phase_constellation

        ensemble = phase_constellation(alpha, m_bases)
        return cls("phase_ladder", m_bases, float(alpha), ensemble.states)

    def level_amplitudes(self) -> np.ndarray:
        """Real level amplitudes of the intensity ladder, index 0 = level 1."""
        if self.kind != "intensity_ladder":
            raise ParameterError("level amplitudes are only defined for the intensity ladder")
        return np.array([lvl.modes[0].real for lvl in self.levels])

    def basis_pair(self, basis_index: int) -> tuple[MultiModeState, MultiModeState]:
        """(low, high) states of basis ``basis_index`` in 0..M-1."""
        if not 0 <= basis_index < self.m_bases:
            raise ParameterError(f"basis index {basis_index} out of range")
        return self.levels[basis_index], self.levels[basis_index + self.m_bases]

    def ensemble(self) -> StateEnsemble:
        return StateEnsemble.uniform(self.levels)


@dataclass(frozen=True)
class SymbolFrame:
    """One keyed symbol: which basis, which polarity map, which data bit,
    and the resulting transmitted level (1-based)."""

    basis_index: int
    polarity: int
    data_bit: int
    transmitted_level: int


def _bits_to_int(bits: Iterable[int]) -> int:
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def next_symbol_map(
    gen: KeystreamGenerator, m_bases: int, assignment: BasisAssignment
) -> tuple[int, int]:
    """Consume the running key for one symbol: (basis_index, polarity).

    Reads ceil(log2 M) bits per attempt, rejecting values >= M so the basis
    is uniform, then one polarity bit in OSK mode.
    """
    if m_bases < 1:
        raise ParameterError("need at least one basis")
    n_bits = (m_bases - 1).bit_length()
    while True:
        candidate = _bits_to_int(gen.take(n_bits)) if n_bits else 0
        if candidate < m_bases:
            break
    polarity = int(gen.take(1)[0]) if assignment.mode == "osk" else 0
    return candidate, polarity


def draw_uniform(
    gen: KeystreamGenerator, bound: int, count: int, tail_bit: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` keyed draws uniform on [0, bound): (values int64, tail bits uint8).

    Each attempt reads ceil(log2 bound) bits, first bit most significant,
    and is rejected if >= bound; with ``tail_bit`` one more bit follows each
    accepted value. Resolved in bulk by an accept mask over peeked bits, a
    batch takes exactly the bits the attempt-at-a-time loop would.
    """
    if bound < 1 or count < 0:
        raise ParameterError("need bound >= 1 and count >= 0")
    n_bits = (bound - 1).bit_length()
    tail = int(tail_bit)
    values = np.zeros(count, dtype=np.int64)
    tails = np.zeros(count, dtype=np.uint8)
    if n_bits + tail == 0:
        return values, tails
    # Attempts sit at a fixed stride unless a tail bit follows only the
    # accepted ones.
    fixed = tail == 0 or bound == 1 << n_bits
    done = 0
    while done < count:
        want = min(count - done, _DRAW_CHUNK)
        # bits for `want` draws at the mean acceptance rate, 1/8 to spare
        span = ((want * n_bits) << n_bits) // bound + want * tail
        span += span // 8 + n_bits + tail
        bits = gen.peek(span)
        n_start = span - n_bits - tail + 1
        starts = np.arange(0, n_start, n_bits + tail if fixed else 1)
        v = np.zeros(starts.size, dtype=np.int64)
        for b in range(n_bits):
            v = (v << 1) | bits[starts + b]
        accept = v < bound
        if not fixed:
            # Walk the attempts 0, next[0], next[next[0]], ... by pointer
            # doubling: after k rounds `jump` maps an offset 2^k attempts on.
            jump = np.append(np.minimum(starts + n_bits + tail * accept, n_start), n_start)
            path = np.zeros(1, dtype=np.int64)
            while path[-1] < n_start:
                path = np.concatenate([path, jump[path]])
                jump = jump[jump]
            starts = path[path < n_start]
            v, accept = v[starts], accept[starts]
        hits = np.flatnonzero(accept)[:want]
        got = hits.size
        values[done:done + got] = v[hits]
        if tail:
            tails[done:done + got] = bits[starts[hits] + n_bits]
        last = hits[-1] if got == want else starts.size - 1
        gen.take(int(starts[last] + n_bits + tail * accept[last]))
        done += got
    return values, tails


def draw_symbol_frames(
    gen: KeystreamGenerator, m_bases: int, assignment: BasisAssignment, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized batch of next_symbol_map: (basis int64[count], polarity uint8[count]).

    Consumes the running key exactly as ``count`` calls of next_symbol_map.
    """
    return draw_uniform(gen, m_bases, count, tail_bit=assignment.mode == "osk")


def alice_encode(
    data_bit: int, frame_params: tuple[int, int], spec: ConstellationSpec
) -> SymbolFrame:
    """Map a data bit onto a level of the keyed basis.

    Polarity 0 sends bit 0 on the lower level (basis_index + 1) and bit 1 on
    the upper (basis_index + 1 + M); polarity 1 swaps the two.
    """
    basis_index, polarity = frame_params
    if not 0 <= basis_index < spec.m_bases:
        raise ParameterError(f"basis index {basis_index} out of range")
    if data_bit not in (0, 1) or polarity not in (0, 1):
        raise ParameterError("data bit and polarity must be 0 or 1")
    high = data_bit ^ polarity
    level = basis_index + 1 + spec.m_bases * high
    return SymbolFrame(basis_index, polarity, data_bit, level)


def bob_decode(
    received_amplitude: float, frame_params: tuple[int, int], spec: ConstellationSpec
) -> int:
    """Keyed demodulation of an amplitude estimate.

    Thresholds at the midpoint of the two basis amplitudes; a value exactly
    on the threshold resolves to the lower level. The polarity bit then
    undoes the bit map, so a noiseless round trip is the identity.
    """
    basis_index, polarity = frame_params
    low, high = spec.basis_pair(basis_index)
    if spec.kind != "intensity_ladder":
        raise ParameterError("amplitude demodulation is defined for the intensity ladder")
    threshold = (low.modes[0].real + high.modes[0].real) / 2.0
    decided_high = 1 if received_amplitude > threshold else 0
    return decided_high ^ polarity


def eve_bit_mixtures(
    spec: ConstellationSpec, assignment: BasisAssignment
) -> DiscriminationProblem:
    """The bit-conditional state mixtures seen without the key.

    Under OSK both hypotheses are the uniform mixture over all 2M levels
    (identical density operators, so the optimal bit error is exactly 1/2
    regardless of power). Without overlap, bit 0 occupies the lower half of
    the ladder and bit 1 the upper half.
    """
    n = 2 * spec.m_bases
    if assignment.mode == "osk":
        states = spec.levels + spec.levels
        ensemble = StateEnsemble(states, np.full(2 * n, 1.0 / (2 * n)))
        return DiscriminationProblem.two_mixtures(
            ensemble, idx1=tuple(range(n)), idx0=tuple(range(n, 2 * n))
        )
    ensemble = StateEnsemble(spec.levels, np.full(n, 1.0 / n))
    return DiscriminationProblem.two_mixtures(
        ensemble, idx0=tuple(range(spec.m_bases)), idx1=tuple(range(spec.m_bases, n))
    )


@dataclass(frozen=True)
class SessionResult:
    """Outcome of a key-expansion session.

    ``round_seeds`` records the seed bits driving each round's keystream;
    from round 2 on, each entry equals the block transmitted in the
    previous round.
    """

    alice_key: tuple[int, ...]
    bob_key: tuple[int, ...]
    mismatched_rounds: tuple[int, ...]
    round_seeds: tuple[tuple[int, ...], ...]

    @property
    def mismatch_count(self) -> int:
        return len(self.mismatched_rounds)


def key_expansion_session(
    initial_seed: SeedKey,
    rounds: int,
    randomness: np.random.Generator,
    channel_ber: float = 0.0,
    spec: Optional[ConstellationSpec] = None,
    assignment: BasisAssignment = BasisAssignment("osk"),
) -> SessionResult:
    """Accumulate key material by repeatedly shipping fresh random blocks.

    Each round draws a true-random block as long as the seed, sends it
    through the keyed encode/decode chain (with an optional symmetric
    bit-flip channel at rate ``channel_ber``), and then refreshes the seed
    with the transmitted block. Rounds where Bob's copy differs are
    flagged; the refresh uses the transmitted block so that a flagged round
    models a retransmission rather than a desynchronized stream.
    """
    if rounds < 1:
        raise ParameterError("need at least one round")
    if not 0.0 <= channel_ber <= 1.0:
        raise ParameterError("channel_ber must lie in [0, 1]")
    if spec is None:
        spec = ConstellationSpec.intensity_ladder(2, 4.0)
    n = initial_seed.n
    seed = initial_seed
    alice_key: list[int] = []
    bob_key: list[int] = []
    mismatched = []
    round_seeds = []
    for r in range(rounds):
        round_seeds.append(seed.bits)
        while True:
            block = randomness.integers(0, 2, size=n, dtype=np.uint8)
            if block.any():
                break  # an all-zero block cannot reseed the register
        alice_gen = KeystreamGenerator(seed, kind="lfsr")
        bob_gen = KeystreamGenerator(seed, kind="lfsr")
        received = np.empty(n, dtype=np.uint8)
        for i in range(n):
            frame_params = next_symbol_map(alice_gen, spec.m_bases, assignment)
            frame = alice_encode(int(block[i]), frame_params, spec)
            amplitude = spec.levels[frame.transmitted_level - 1].modes[0].real
            bob_params = next_symbol_map(bob_gen, spec.m_bases, assignment)
            received[i] = bob_decode(amplitude, bob_params, spec)
        if channel_ber > 0.0:
            received ^= (randomness.random(n) < channel_ber).astype(np.uint8)
        if not np.array_equal(received, block):
            mismatched.append(r)
        alice_key.extend(int(b) for b in block)
        bob_key.extend(int(b) for b in received)
        seed = SeedKey(tuple(int(b) for b in block))
    return SessionResult(
        tuple(alice_key), tuple(bob_key), tuple(mismatched), tuple(round_seeds)
    )
