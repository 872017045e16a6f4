"""The Y-00 cipher layer: keystream generation, keyed basis selection with
overlap selection keying (OSK), and the eavesdropper's induced state
mixtures.

ConstellationSpec builds both 2M-level ladders: intensity, alpha_i =
alpha_max * i / (2M), and two-mode phase. Basis j pairs level j with level
j+M, and under OSK the running key also flips which of the pair carries bit
0. A keyed symbol consumes ceil(log2 M) keystream bits for the basis
(rejection-sampled for non-power-of-two M, first-consumed bit most
significant) plus one polarity bit in OSK mode.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from . import kernels
from .coherent_algebra import MultiModeState, StateEnsemble
from .detection import DiscriminationProblem
from .errors import ParameterError, SeedError

# Feedback masks giving maximal period 2^n - 1 for the right-shift Galois
# LFSR s' = (s >> 1) ^ (mask if s & 1 else 0). Each passes
# is_maximal_lfsr; widths 8..16 are also cycle-checked in the test suite.
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
        text = text.strip()
        text = text[2:] if text[:2] in ("0x", "0X") else text
        if not text:
            raise ParameterError("empty seed key")
        # 4 bits per ASCII hex digit: int(text, 16) would also take "_" and a sign
        if not set(text) <= set("0123456789abcdefABCDEF"):
            raise ParameterError(f"seed key is not hex: {text!r}")
        return cls.from_int(int(text, 16), 4 * len(text))

    @classmethod
    def from_int(cls, value: int, width: int) -> "SeedKey":
        if value < 0 or value >= (1 << width):
            raise ParameterError(f"seed value {value} does not fit in {width} bits")
        return cls(tuple((value >> (width - 1 - i)) & 1 for i in range(width)))

    @property
    def n(self) -> int:
        return len(self.bits)

    def to_int(self) -> int:
        return int("".join("01"[b] for b in self.bits), 2)


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


def is_maximal_lfsr(width: int, mask: int) -> bool:
    """Whether the ``width``-bit Galois LFSR with feedback ``mask`` runs
    through all 2^width - 1 nonzero states.

    Reading state bit j as x^(width-1-j), one step multiplies by x modulo
    P(x) = x^w + sum_i bit_{w-1-i}(mask) x^i, so the period is the order of
    x modulo P: maximal exactly when x^(2^w-1) = 1 and x^((2^w-1)/q) != 1
    for every prime q dividing 2^w - 1 (Lidl & Niederreiter, Finite Fields,
    ch. 3). A mask without bit w-1 makes x divide P, so no power of x is 1.
    """
    poly = 1 << width | int(format(mask, f"0{width}b")[::-1], 2)
    period = (1 << width) - 1
    return _gf2_pow_x(period, poly) == 1 and all(
        _gf2_pow_x(period // q, poly) != 1 for q in _prime_factors(period)
    )


def _gf2_pow_x(exponent: int, poly: int) -> int:
    """x^exponent modulo the GF(2) polynomial ``poly`` (bit i holds the
    coefficient of x^i), by square-and-multiply."""
    degree = poly.bit_length() - 1
    result = 1
    for bit in bin(exponent)[2:]:
        result = int("0".join(bin(result)[2:]), 2)  # squaring spreads the bits
        if bit == "1":
            result <<= 1
        while result.bit_length() > degree:
            result ^= poly << (result.bit_length() - 1 - degree)
    return result


# Miller-Rabin with these bases is deterministic below 3.3e24 > 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> frozenset:
    """The distinct prime factors of an odd n >= 1, split by Pollard's rho."""
    if n == 1:
        return frozenset()
    if _is_prime(n):
        return frozenset((n,))
    for c in itertools.count(1):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
        if d != n:
            return _prime_factors(d) | _prime_factors(n // d)


# Fresh bits a keystream refill generates at least: the first refill makes
# 4096, each later one eight times the last, up to 2^18. A refill has a fixed
# cost (the LFSR's jump doubling, the buffer join); growing refills spread it
# over many bits for bulk readers, while a generator read for a few bits
# makes only a few. Bulk draws peek more at once.
_FIRST_REFILL_BITS = 4096
_REFILL_BITS = 1 << 18
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
        self._refill = _FIRST_REFILL_BITS

    def _generate(self, n_bits: int) -> np.ndarray:
        """At least n_bits fresh bits of the stream."""
        if self.kind == "lfsr":
            out, state = kernels.lfsr_fill(self._state, self.polynomial, n_bits)
            self._state = int(state)
            return out
        import hashlib  # only this keystream needs it, so the CLI starts without it

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
            size = max(short, self._refill)
            fresh = self._generate(size)
            self._refill = min(8 * size, _REFILL_BITS)
            self._buffer = np.concatenate([self._buffer[self._pos:], fresh])
            self._buffer.flags.writeable = False
            self._pos = 0
        return self._buffer[self._pos:self._pos + n_bits]

    def take(self, n_bits: int) -> np.ndarray:
        """peek's read-only view of the next n_bits, consumed; a refill leaves it intact."""
        out = self.peek(n_bits)
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


# Highest peak amplitude. At |alpha|^2 = 1e16 rounding in the Gram exponents
# already reaches order 1; the phase-ladder Gram overflows from 1e10, and at
# 1e200 the eigensolve fails to converge.
_ALPHA_MAX_CEILING = 1e8


@dataclass(frozen=True)
class ConstellationSpec:
    """The 2M-level signal set and its pairing into M bases, fixed by its
    kind, M and peak amplitude. Frozen: a config builds its spec once and
    every reader shares it."""

    kind: str
    m_bases: int
    alpha_max: float

    def __post_init__(self):
        if self.kind not in ("intensity_ladder", "phase_ladder"):
            raise ParameterError(f"unknown constellation kind {self.kind!r}")
        if self.m_bases < 1:
            raise ParameterError("need at least one basis")
        if not 0 < self.alpha_max <= _ALPHA_MAX_CEILING:
            raise ParameterError(
                f"peak amplitude must lie in (0, {_ALPHA_MAX_CEILING:g}], got {self.alpha_max}"
            )
        if self.kind == "intensity_ladder" and (np.diff(self.amplitudes[:, 0].real) <= 0).any():
            raise ParameterError("intensity levels must be strictly increasing")

    @classmethod
    def intensity_ladder(cls, m_bases: int, alpha_max: float) -> "ConstellationSpec":
        return cls("intensity_ladder", m_bases, float(alpha_max))

    @classmethod
    def phase_ladder(cls, m_bases: int, alpha: float) -> "ConstellationSpec":
        return cls("phase_ladder", m_bases, float(alpha))

    @cached_property
    def amplitudes(self) -> np.ndarray:
        """One row of mode amplitudes per level, as a read-only complex
        (2M, modes) array. Intensity ladder: alpha_i = alpha_max * i / (2M),
        i = 1 .. 2M. Phase ladder: |e^{-i phi/2} alpha/sqrt(2)> x
        |e^{+i phi/2} alpha/sqrt(2)> with phi = 2 pi k / (2M), k = 0 .. 2M-1:
        each carries total energy |alpha|^2, and the antipodal pairs
        (k, k+M) form the M bases."""
        two_m = 2 * self.m_bases
        if self.kind == "intensity_ladder":
            levels = np.arange(1, two_m + 1, dtype=float)
            levels *= self.alpha_max
            levels /= two_m
            amps = np.array(levels[:, None], dtype=complex)
        else:
            base = complex(self.alpha_max) / math.sqrt(2.0)
            rows = []
            for k in range(two_m):
                phi = 2.0 * math.pi * k / two_m
                rot = complex(math.cos(phi / 2.0), math.sin(phi / 2.0))
                rows.append((base / rot, base * rot))
            amps = np.array(rows)
        amps.flags.writeable = False
        return amps

    def level_states(self, count: int) -> tuple[MultiModeState, ...]:
        """The states of the first ``count`` levels."""
        return tuple(MultiModeState(tuple(row)) for row in self.amplitudes[:count].tolist())

    @cached_property
    def levels(self) -> tuple[MultiModeState, ...]:
        """All 2M level states, built when first read: the generic Gram root
        at <= 128 levels, Eve's bit mixtures and the criteria read them."""
        return self.level_states(2 * self.m_bases)

    def level_amplitudes(self) -> np.ndarray:
        """Real level amplitudes of the intensity ladder, index 0 = level 1,
        as a read-only view."""
        if self.kind != "intensity_ladder":
            raise ParameterError("level amplitudes are only defined for the intensity ladder")
        return self.amplitudes[:, 0].real

    def overlaps(self) -> np.ndarray:
        """g(0 .. 2M-1), the real overlap of two levels of the exact ladder a
        distance d = |i - j| apart, so the ladder's Gram is g[|i - j|]:
        exp(-(d alpha_max / 2M)^2 / 2) on the intensity ladder and
        exp(-2 alpha^2 sin^2(pi d / 4M)) on the phase ladder, whose sin^2
        keeps the digits that exp(alpha^2 (cos(pi d / 2M) - 1)) cancels."""
        two_m = 2 * self.m_bases
        d = np.arange(two_m)
        if self.kind == "intensity_ladder":
            return np.exp(-((d * self.alpha_max / two_m) ** 2) / 2)
        return np.exp(-2.0 * self.alpha_max**2 * np.sin(np.pi * d / (2 * two_m)) ** 2)

    def ensemble(self) -> StateEnsemble:
        return StateEnsemble.uniform(self.levels)


def _decode(windows: np.ndarray, n_bits: int, lane) -> np.ndarray:
    """The value of each row's first ``n_bits`` >= 1 bits, first bit most
    significant; the rows are 0/1 bytes along a contiguous last axis.

    The bits are read in groups of 8, 4, 2 and 1 bytes, each as one
    little-endian word, so byte k of a w-byte group sits at bit 8k. Times
    sum_k 2^(8w-1-9k) and shifted right by 7w, byte k's bit lands on bit
    w-1-k: every partial product sets a bit of its own, so nothing carries.
    The groups tile the n bits exactly, so no read passes them. A batch of
    _DRAW_CHUNK draws bounds the rows: the 8-byte words peak near 2.8 MB,
    on the widest tail walk the config reaches (M = 513..1023).
    """
    v = np.empty(len(windows), dtype=lane)
    at = 0
    for w in (8, 4, 2, 1):
        while n_bits - at >= w:
            spread = sum(1 << (8 * w - 1 - 9 * k) for k in range(w))
            group = windows[:, at:at + w].view(f"<u{w}")[:, 0] * spread
            group >>= 7 * w
            if at:
                v <<= w
                v |= group
            else:
                v[...] = group
            at += w
    return v


def draw_uniform(
    gen: KeystreamGenerator, bound: int, count: int, tail_bit: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` keyed draws uniform on [0, bound): (values, tail bits uint8),
    the values in the narrowest unsigned dtype that holds 2^ceil(log2 bound) - 1.

    Each attempt reads ceil(log2 bound) bits, first bit most significant,
    and is rejected if >= bound; with ``tail_bit`` one more bit follows each
    accepted value. Resolved in bulk over peeked bits, a batch takes exactly
    the bits the attempt-at-a-time loop would.
    """
    if bound < 1 or count < 0:
        raise ParameterError("need bound >= 1 and count >= 0")
    n_bits = (bound - 1).bit_length()
    tail = int(tail_bit)
    stride = n_bits + tail
    lane = np.min_scalar_type((1 << n_bits) - 1)
    values = np.empty(count, dtype=lane)
    tails = np.zeros(count, dtype=np.uint8)
    exact = bound == 1 << n_bits  # every attempt is a draw
    done = 0
    while done < count:
        want = min(count - done, _DRAW_CHUNK)
        if exact:
            rows = gen.take(want * stride).reshape(want, stride)
            values[done:done + want] = _decode(rows, n_bits, lane) if n_bits else 0
            tails[done:done + want] = rows[:, n_bits] if tail else 0
            done += want
        elif not tail:
            # attempt i is row i: rows for `want` draws at the mean
            # acceptance rate, 1/32 to spare
            k = (want << n_bits) // bound
            k += k // 32 + 1
            v = _decode(gen.peek(k * n_bits).reshape(k, n_bits), n_bits, lane)
            hits = np.flatnonzero(v < bound)[:want]
            values[done:done + hits.size] = v[hits]
            gen.take(n_bits * (int(hits[-1]) + 1 if hits.size == want else k))
            done += hits.size
        else:
            # A tail bit follows only accepted attempts: the walk steps along
            # one lattice of offsets, `stride` apart, until a reject at q moves
            # it to q + n_bits, one lattice phase back.
            span = ((want * n_bits) << n_bits) // bound + want
            bits = gen.peek(span + span // 32 + stride)
            v = _decode(np.lib.stride_tricks.sliding_window_view(bits[:-1], n_bits), n_bits, lane)
            n_start = v.size  # offsets with room for a value and its tail bit
            # node 0 enters at offset 0, as if a reject sat at -n_bits; node
            # i > 0 is the i-th reject, linked to the first reject at or after
            # q + n_bits on its lattice: a suffix minimum down every lattice,
            # run forward over reversed offsets
            nodes = np.append(-n_bits, np.flatnonzero(v >= bound))
            top = -(-(n_start + n_bits) // stride) * stride - 1
            found = np.full(top + 1, nodes.size, dtype=np.int32)
            found[top - nodes[1:]] = np.arange(1, nodes.size)
            np.minimum.accumulate(found.reshape(-1, stride), axis=0, out=found.reshape(-1, stride))
            jump = np.append(found[top - n_bits - nodes], nodes.size)
            path = np.zeros(1, dtype=np.intp)  # the chain 0, jump[0], ... by pointer doubling
            while path[-1] < nodes.size:
                path = np.concatenate([path, jump[path]])
                jump = jump[jump]
            # the accepted attempts are the lattice runs between walked rejects
            run = nodes[path[path < nodes.size]] + n_bits
            runs = (np.append(run[1:] - n_bits, n_start) - run + n_bits) // stride
            ends = np.cumsum(runs)
            got = min(int(ends[-1]), want)
            at = np.repeat(run - stride * (ends - runs), runs)[:want] + stride * np.arange(got)
            values[done:done + got] = v[at]
            tails[done:done + got] = bits[at + n_bits]
            gen.take(int(at[-1] + stride if got == want else run[-1] + stride * runs[-1]))
            done += got
    return values, tails


def draw_symbol_frames(
    gen: KeystreamGenerator, m_bases: int, assignment: BasisAssignment, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """The keyed frames of ``count`` symbols: (basis[count], polarity
    uint8[count]), the basis in ``draw_uniform``'s narrowest unsigned dtype.

    Each symbol reads ceil(log2 M) bits per attempt, rejecting values >= M
    so the basis is uniform, then one polarity bit in OSK mode.
    """
    return draw_uniform(gen, m_bases, count, tail_bit=assignment.mode == "osk")


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
