"""Hot numeric kernels, written in numpy.

``lfsr_fill`` expands the Galois LFSR keystream in 4096-bit super-blocks,
each one lane-table gather; ``_lfsr_fill_py`` is the bit-by-bit recurrence
it must reproduce, kept as the reference the tests compare against.
``decision_cuts`` turns Bob's threshold decision into one cut per level, and
the other kernels are the Monte Carlo steps of the scenario runner.
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


_BLOCK = 64           # output bits per lane word
_LANE_JUMPS = 6       # a super-block is 2^6 words: A^4096 is jumps[6]
SUPER_BLOCK = _BLOCK << _LANE_JUMPS  # output bits per lane-table gather
_JUMP_LEVELS = 32     # jumps A^(64 * 2^k) for k < 32: fills of up to 2^38 bits


def _tables(columns: np.ndarray, bits: int = 8) -> np.ndarray:
    """Lookup tables applying the GF(2) matrix with these columns (column i
    is the image of bit i, of any trailing shape) ``bits`` state bits at a time."""
    n = columns.shape[0] // bits
    tables = np.zeros((n, 1 << bits, *columns.shape[1:]), dtype=np.uint64)
    by_chunk = columns.reshape(n, bits, *columns.shape[1:])
    for t in range(bits):
        tables[:, 1 << t:2 << t] = tables[:, :1 << t] ^ by_chunk[:, t:t + 1]
    return tables


def _apply(tables: np.ndarray, states: np.ndarray) -> np.ndarray:
    low = tables.shape[1] - 1  # a chunk of low.bit_length() state bits
    out = tables[0][states & low]
    for b in range(1, tables.shape[0]):
        out ^= tables[b][(states >> np.uint64(b * low.bit_length())) & low]
    return out


@lru_cache(maxsize=64)
def _lfsr_tables(mask: int, n_bytes: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """(lanes, jumps) of the register step A: s -> (s >> 1) ^ (mask if s & 1)
    on states of ``n_bytes`` bytes, a linear map on GF(2)^(8 n_bytes).

    Output bit j from state s is bit 0 of A^j s. lanes holds the lookup tables
    of the map from s to its next 4096 output bits, bit j of word k being
    output bit 64 k + j; jumps[k] holds the byte tables of A^(64 * 2^k).
    """
    width = 8 * n_bytes
    columns = np.uint64(1) << np.arange(width, dtype=np.uint64)  # A^j e_i, j = 0
    word_columns = np.zeros(width, dtype=np.uint64)
    for j in range(_BLOCK):
        word_columns |= (columns & np.uint64(1)) << np.uint64(j)
        columns = (columns >> np.uint64(1)) ^ np.where(columns & 1, np.uint64(mask), 0)
    jumps = [_tables(columns)]
    unit_bytes = np.uint64(1) << np.arange(8, dtype=np.uint64)
    for _ in range(1, _JUMP_LEVELS):
        # the columns of a matrix are its tables at the one-bit bytes
        columns = jumps[-1][:, unit_bytes].ravel()
        jumps.append(_tables(_apply(jumps[-1], columns)))
    # lane k of e_i is the first word of A^(64 k) e_i, found by doubling
    starts = np.uint64(1) << np.arange(width, dtype=np.uint64)[None, :]
    for k in range(_LANE_JUMPS):
        starts = np.concatenate([starts, _apply(jumps[k], starts)])
    # nibble chunks keep a 32-bit register's lanes at 64 KB, not 512 KB
    lanes = _tables(_apply(_tables(word_columns), starts).T, 4)
    for table in (lanes, *jumps):
        table.flags.writeable = False  # shared by every caller through the cache
    return lanes, tuple(jumps)


def lfsr_fill(state, mask, out):
    """Fill ``out`` (uint8) with the next output bits of the right-shift
    Galois LFSR starting at ``state``; return the state after them.

    Bit-identical to ``_lfsr_fill_py``. The step is linear over GF(2), so
    the states at stride 4096 follow from the start by doubling with the
    jump matrices A^(4096 * 2^k), and one gather of the lane tables maps each
    to its 4096 output bits as 64 words (Haramoto et al., "Efficient jump
    ahead for F2-linear random number generators", INFORMS J. Computing
    20(3), 2008). A partial last super-block takes its words from the same
    gather, then a binary jump and the bit-by-bit recurrence for its end.
    """
    s, m = int(state), int(mask)
    # a register of this width never sets a higher bit
    lanes, jumps = _lfsr_tables(m, max(1, (max(s.bit_length(), m.bit_length()) + 7) // 8))
    supers, rest = divmod(out.shape[0], SUPER_BLOCK)
    states = np.array([s], dtype=np.uint64)
    for k in range(supers.bit_length()):
        # states[i + 2^k] = A^(4096 * 2^k) states[i]
        fresh = _apply(jumps[_LANE_JUMPS + k], states[:supers + 1 - states.size])
        states = np.concatenate([states, fresh])
    head = out.shape[0] - out.shape[0] % _BLOCK  # bits in whole words
    # little-endian bytes, least significant bit first: output bit j of a
    # word lands at offset j of its 64
    packed = _apply(lanes, states[:supers + (rest > 0)]).astype("<u8", copy=False)
    out[:head] = np.unpackbits(packed.view(np.uint8), bitorder="little")[:head]
    last = states[supers:]
    for k in range(_LANE_JUMPS):  # past the whole words of a partial super-block
        if rest // _BLOCK >> k & 1:
            last = _apply(jumps[k], last)
    return _lfsr_fill_py(last[0], m, out[head:])


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
