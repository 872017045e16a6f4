"""Hot numeric kernels, written in numpy.

``lfsr_fill`` expands the Galois LFSR keystream by block jumps;
``_lfsr_fill_py`` is the bit-by-bit recurrence it must reproduce, kept as
the reference the tests compare against. ``decision_cuts`` turns Bob's
threshold decision into one cut per level, and the other kernels are the
Monte Carlo steps of the scenario runner.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def _lfsr_fill_py(state, mask, out):
    # right-shift Galois form; output bit is the bit shifted out
    s = int(state)
    m = int(mask)
    for i in range(out.shape[0]):
        lsb = s & 1
        s >>= 1
        if lsb:
            s ^= m
        out[i] = lsb
    return np.uint64(s)


_BLOCK = 64           # output bits per register state in lfsr_fill
_JUMP_LEVELS = 32     # jumps A^(64 * 2^k) for k < 32: fills of up to 2^38 bits


def _byte_tables(columns: np.ndarray) -> np.ndarray:
    """Lookup tables applying the GF(2) matrix with these columns (column i
    is the image of bit i) one state byte at a time."""
    n_bytes = columns.size // 8
    tables = np.zeros((n_bytes, 256), dtype=np.uint64)
    by_byte = columns.reshape(n_bytes, 8)
    for t in range(8):
        tables[:, 1 << t:2 << t] = tables[:, :1 << t] ^ by_byte[:, t:t + 1]
    return tables


def _apply(tables: np.ndarray, states: np.ndarray) -> np.ndarray:
    out = tables[0][states & 0xFF]
    for b in range(1, tables.shape[0]):
        out ^= tables[b][(states >> np.uint64(8 * b)) & 0xFF]
    return out


@lru_cache(maxsize=64)
def _lfsr_tables(mask: int, n_bytes: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """(words, jumps) of the register step A: s -> (s >> 1) ^ (mask if s & 1)
    on states of ``n_bytes`` bytes, a linear map on GF(2)^(8 n_bytes).

    Output bit j from state s is bit 0 of A^j s; words holds the byte tables
    of the map from s to its 64 output bits, bit j of the word being output
    bit j. jumps[k] holds the byte tables of A^(64 * 2^k).
    """
    width = 8 * n_bytes
    columns = np.uint64(1) << np.arange(width, dtype=np.uint64)  # A^j e_i, j = 0
    word_columns = np.zeros(width, dtype=np.uint64)
    for j in range(_BLOCK):
        word_columns |= (columns & np.uint64(1)) << np.uint64(j)
        columns = (columns >> np.uint64(1)) ^ np.where(columns & 1, np.uint64(mask), 0)
    jumps = [_byte_tables(columns)]
    unit_bytes = np.uint64(1) << np.arange(8, dtype=np.uint64)
    for _ in range(1, _JUMP_LEVELS):
        # the columns of a matrix are its tables at the one-bit bytes
        columns = jumps[-1][:, unit_bytes].ravel()
        jumps.append(_byte_tables(_apply(jumps[-1], columns)))
    words = _byte_tables(word_columns)
    for table in (words, *jumps):
        table.flags.writeable = False  # shared by every caller through the cache
    return words, tuple(jumps)


def lfsr_fill(state, mask, out):
    """Fill ``out`` (uint8) with the next output bits of the right-shift
    Galois LFSR starting at ``state``; return the state after them.

    Bit-identical to ``_lfsr_fill_py``. The step is linear over GF(2), so
    the states at stride 64 follow from the start by doubling with the jump
    matrices A^(64 * 2^k), and each state's 64 output bits are one more
    linear map, applied by byte tables as a 64-bit word (Haramoto et al.,
    "Efficient jump ahead for F2-linear random number generators", INFORMS
    J. Computing 20(3), 2008).
    """
    s, m = int(state), int(mask)
    # a register of this width never sets a higher bit
    words, jumps = _lfsr_tables(m, max(1, (max(s.bit_length(), m.bit_length()) + 7) // 8))
    blocks = out.shape[0] // _BLOCK
    states = np.array([s], dtype=np.uint64)
    for k in range(blocks.bit_length()):
        # states[i + 2^k] = A^(64 * 2^k) states[i]
        fresh = _apply(jumps[k], states[:blocks + 1 - states.size])
        states = np.concatenate([states, fresh])
    # little-endian bytes, least significant bit first: output bit j of a
    # state lands at offset j of its 64
    packed = _apply(words, states[:blocks]).astype("<u8", copy=False).view(np.uint8)
    out[:blocks * _BLOCK] = np.unpackbits(packed, bitorder="little")
    return _lfsr_fill_py(states[blocks], m, out[blocks * _BLOCK:])


_SIGN = np.uint64(1 << 63)


def _keys(x: np.ndarray) -> np.ndarray:
    """Order-preserving uint64 keys of float64 values: x < y exactly when
    key(x) < key(y), for non-NaN x and y other than a pair of zeros."""
    bits = np.asarray(x, dtype=np.float64).view(np.uint64)
    return np.where(bits & _SIGN, ~bits, bits | _SIGN)


def _floats(keys: np.ndarray) -> np.ndarray:
    return np.where(keys & _SIGN, keys ^ _SIGN, ~keys).view(np.float64)


_MAX = np.finfo(np.float64).max
_KEY_LOW, _KEY_HIGH = _keys(np.array([-_MAX, _MAX]))


def decision_cuts(mean_i, sigma_i, thr_level):
    """Per-level cut of the threshold decision: for every finite z,
    ``mean_i + sigma_i * z > thr_level`` (numpy float64) holds exactly when
    ``z > cut``.

    Both roundings are monotone and sigma >= 0, so the decision is
    nondecreasing in z and flips at most once. The cut is the largest finite
    z that fails, found by bisection over the order-preserving keys of all
    finite float64 values. The cut is -inf when every finite z passes and
    the largest float when none does (as on a noise-free link).
    """
    mean, sigma, thr = (np.asarray(a, dtype=np.float64) for a in (mean_i, sigma_i, thr_level))

    def passes(keys):
        return mean + sigma * _floats(keys) > thr

    with np.errstate(over="ignore"):  # sigma * +-max overflows to +-inf
        shape = np.broadcast_shapes(mean.shape, sigma.shape, thr.shape)
        lo, hi = np.full(shape, _KEY_LOW), np.full(shape, _KEY_HIGH)
        every, none = passes(lo), ~passes(hi)
        lo = np.where(every | none, hi - np.uint64(1), lo)  # nothing to search
        # invariant: lo fails and hi passes
        while True:
            mid = lo + ((hi - lo) >> np.uint64(1))
            if (mid == lo).all():
                break
            up = passes(mid)
            lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    return np.where(every, -np.inf, np.where(none, _MAX, _floats(lo)))


def bob_errors(level_idx, z, cut, high):
    """Bit errors of Bob's thresholded direct-detection decisions: the
    symbol sent on ``level_idx`` with noise ``z`` is decided high when
    z > cut[level], and is in error when that differs from ``high``."""
    return int(np.count_nonzero((z > cut[level_idx]) != high))


def block_tables(cut, patterns):
    """The (cuts, high flags) table ``coded_errors`` reads: row
    basis*6 + code*2 + b holds, for a block sent as ``patterns[code, b]``
    (3 codes x 2 bits x 3 high flags) on that basis, its 3 symbols' cuts
    and whether each is the basis's high level."""
    m = cut.size // 2
    high = np.broadcast_to(patterns.astype(bool), (m, 3, 2, 3)).reshape(6 * m, 3)
    level_idx = np.repeat(np.arange(m), 6)[:, None] + m * high
    return cut[level_idx], high


def coded_errors(basis, polarity, code_id, bits, z, block_cuts, block_high):
    """Block errors of keyed 3-symbol repetition blocks through the noisy
    link: a block is in error when at least 2 of its symbols are.

    Row basis*6 + code*2 + (bit ^ polarity) of ``block_tables`` holds the 3
    cuts and high flags of the pattern sent; the majority decoder errs
    exactly when 2 of the 3 hard decisions differ from it.
    """
    row = basis * 6 + code_id * 2 + (bits ^ polarity)
    # np.take gathers whole rows several times faster than fancy indexing
    wrong = (z > np.take(block_cuts, row, axis=0)) != np.take(block_high, row, axis=0)
    wrong = wrong.view(np.uint8)
    return int(np.count_nonzero(wrong[:, 0] + wrong[:, 1] + wrong[:, 2] >= 2))


def backend_name() -> str:
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"
