"""Hot numeric kernels, written in numpy.

``lfsr_fill`` expands the Galois LFSR keystream in whole 4096-bit
super-blocks, their states one state-grid gather and their bits one lane-table
gather. The other kernels are the Monte Carlo steps of the scenario runner.

The Monte Carlo kernels decide a symbol only where its draw can cross a
cut (``decision_reach``): at the default link, about 0.3% of Bob's draws
and 1e-5 of Eve's and of the blocks'. The counts are the full decision's.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


_BLOCK = 64           # output bits per lane word
_LANE_JUMPS = 6       # a super-block is 2^6 words: A^4096 is jumps[6]
_SUPER_BLOCK = _BLOCK << _LANE_JUMPS  # output bits per lane-table gather
_GRID_JUMPS = 6       # a grid row spans 2^6 super-blocks: A^(4096 * 64) is jumps[12]
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


def _orbit(jumps: tuple[np.ndarray, ...], level: int, start, n: int) -> np.ndarray:
    """Rows A^(64 * 2^level * i) start for i < n, by doubling."""
    rows = np.asarray(start, dtype=np.uint64)[None]
    for k in range((n - 1).bit_length()):
        # rows[i + 2^k] = A^(64 * 2^(level + k)) rows[i]
        rows = np.concatenate([rows, _apply(jumps[level + k], rows[:n - len(rows)])])
    return rows


@lru_cache(maxsize=64)
def _lfsr_tables(mask: int, n_bytes: int) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """(lanes, grid, jumps) of the register step A: s -> (s >> 1) ^ (mask if
    s & 1) on states of ``n_bytes`` bytes, a linear map on GF(2)^(8 n_bytes).

    Output bit j from state s is bit 0 of A^j s. lanes holds the lookup tables
    of the map from s to its next 4096 output bits, bit j of word k being
    output bit 64 k + j; grid those of the map from s to its states at stride
    4096, A^(4096 i) s for i <= 64; jumps[k] holds the byte tables of
    A^(64 * 2^k).
    """
    units = np.uint64(1) << np.arange(8 * n_bytes, dtype=np.uint64)
    columns = units  # A^j e_i, j = 0
    word_columns = np.zeros(units.size, dtype=np.uint64)
    for j in range(_BLOCK):
        word_columns |= (columns & np.uint64(1)) << np.uint64(j)
        columns = (columns >> np.uint64(1)) ^ np.where(columns & 1, np.uint64(mask), 0)
    jumps = [_tables(columns)]
    unit_bytes = np.uint64(1) << np.arange(8, dtype=np.uint64)
    for _ in range(1, _JUMP_LEVELS):
        # the columns of a matrix are its tables at the one-bit bytes
        columns = jumps[-1][:, unit_bytes].ravel()
        jumps.append(_tables(_apply(jumps[-1], columns)))
    # lane k of e_i is the first word of A^(64 k) e_i; nibble chunks keep a
    # 32-bit register's lanes at 64 KB, not 512 KB
    lanes = _tables(_apply(_tables(word_columns), _orbit(jumps, 0, units, _BLOCK)).T, 4)
    grid = _tables(_orbit(jumps, _LANE_JUMPS, units, (1 << _GRID_JUMPS) + 1).T, 4)
    for table in (lanes, grid, *jumps):
        table.flags.writeable = False  # shared by every caller through the cache
    return lanes, grid, tuple(jumps)


def lfsr_fill(state, mask, n_bits):
    """The next output bits of the right-shift Galois LFSR starting at
    ``state`` (s -> (s >> 1) ^ (mask if s & 1), emitting the bit shifted
    out), as (bits, state after them): bits is a uint8 array of whole
    4096-bit super-blocks, at least ``n_bits`` long.

    The step is linear over GF(2): one gather of the grid tables maps each
    state at stride 4096 * 64, which the jump matrices give by doubling, to
    the next 64 states at stride 4096 and the state after them (Haramoto et
    al., "Efficient jump ahead for F2-linear random number generators",
    INFORMS J. Computing 20(3), 2008), and one gather of the lane tables
    maps each of those to its 4096 output bits as 64 words.
    """
    s, m = int(state), int(mask)
    # a register of this width never sets a higher bit
    lanes, grid, jumps = _lfsr_tables(m, max(1, (max(s.bit_length(), m.bit_length()) + 7) // 8))
    supers = -(-n_bits // _SUPER_BLOCK)
    coarse = _orbit(jumps, _LANE_JUMPS + _GRID_JUMPS, s, max(1, -(-supers >> _GRID_JUMPS)))
    rows = _apply(grid, coarse)
    # grid row j ends on the state row j + 1 starts from
    states = np.append(rows[:, :-1], rows[-1, -1])
    # little-endian bytes, least significant bit first: output bit j of a
    # word lands at offset j of its 64
    packed = _apply(lanes, states[:supers]).astype("<u8", copy=False)
    return np.unpackbits(packed.view(np.uint8), bitorder="little"), states[supers]


def level_index(basis, high, m):
    """Level row of each symbol, basis + m * high, as np.intp: keyed draws
    come in the narrowest unsigned dtype, where that sum would wrap."""
    return basis + m * high.astype(np.intp)


def decision_reach(cut, m):
    """(top, floor) of a per-level cut table whose first m levels are the low
    halves: a draw x with top < x <= floor passes every high level's cut and
    no low level's, so it decides each level as its own half."""
    return cut[m:].max(), cut[:m].min()


def _checked_rows(draws, reach):
    """The rows that can decide other than their levels' halves: symbols
    whose draw lies outside ``reach``, or 3-symbol blocks (rows of 3 draws)
    with at least 2 such draws, as a block fails only when 2 of its symbols
    err."""
    top, floor = reach
    outside = draws <= top
    outside |= draws > floor
    if outside.ndim == 2:
        outside = outside.view(np.uint8)
        outside = outside[:, 0] + outside[:, 1] + outside[:, 2] >= 2
    return np.flatnonzero(outside)


def bob_errors(basis, polarity, bits, z, cut, reach):
    """Bit errors of Bob's thresholded direct-detection decisions: the
    symbol sent on level basis + M * (bit ^ polarity) with noise ``z`` is
    decided high when z > cut[level], and errs when that differs from the
    level's half, which no draw inside ``reach`` (``decision_reach``) does."""
    rows = _checked_rows(z, reach)
    high = bits[rows] ^ polarity[rows]
    passed = z[rows] > cut[level_index(basis[rows], high, cut.size // 2)]
    return int(np.count_nonzero(passed != high))


def eve_errors(basis, polarity, bits, u, cut, reach):
    """Bit errors of Eve's guesses: from the symbol's level she guesses 1
    when u > cut[level] (``scenario._eve_cuts``), and errs when that differs
    from the bit. Inside ``reach`` she guesses the level's half, bit ^
    polarity, so there she errs exactly where the polarity is 1."""
    rows = _checked_rows(u, reach)
    level = level_index(basis[rows], bits[rows] ^ polarity[rows], cut.size // 2)
    errs_inside = np.count_nonzero(polarity) - np.count_nonzero(polarity[rows])
    return int(errs_inside + np.count_nonzero((u[rows] > cut[level]) != bits[rows]))


def coded_errors(basis, polarity, code_id, bits, z, cut, reach, patterns):
    """Block errors of keyed 3-symbol repetition blocks through the noisy
    link: a block is in error when at least 2 of its symbols are.

    Only blocks with at least 2 draws outside Bob's ``reach`` can fail. Each
    of their symbols is decided as ``bob_errors`` decides one, its high flag
    read from row code*2 + (bit ^ polarity) of ``patterns``
    (``overlap_coding.pattern_array``) as 6 rows of 3; the majority decoder
    errs exactly when 2 of the 3 hard decisions differ from the flags.
    """
    blocks = _checked_rows(z, reach)
    row = code_id[blocks] * 2 + (bits[blocks] ^ polarity[blocks])
    high = np.take(patterns.reshape(6, 3), row, axis=0)
    # np.take and an intp basis: several times faster than z[blocks] and a mixed-dtype sum
    level = level_index(basis[blocks].astype(np.intp)[:, None], high, cut.size // 2)
    wrong = (np.take(z, blocks, axis=0) > np.take(cut, level)) != high
    wrong = wrong.view(np.uint8)
    return int(np.count_nonzero(wrong[:, 0] + wrong[:, 1] + wrong[:, 2] >= 2))


def backend_name() -> str:
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"
