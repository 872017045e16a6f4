"""Hot numeric kernels, written in numpy.

``lfsr_fill`` expands the Galois LFSR keystream by block jumps;
``_lfsr_fill_py`` is the bit-by-bit recurrence it must reproduce, kept as
the reference the tests compare against. The other kernels are the Monte
Carlo steps of the scenario runner. ``python -m y00sim.bench`` times them.
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
_OUT_STATES = 1024    # states expanded to output bits at a time (512 KiB scratch)


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
    """(rows, jumps) of the register step A: s -> (s >> 1) ^ (mask if s & 1)
    on states of ``n_bytes`` bytes, a linear map on GF(2)^(8 n_bytes).

    Output bit j from state s is bit 0 of A^j s, the parity of s & rows[j];
    jumps[k] holds the byte tables of A^(64 * 2^k).
    """
    width = 8 * n_bytes
    columns = np.uint64(1) << np.arange(width, dtype=np.uint64)  # A^j e_i, j = 0
    weights = columns.copy()
    rows = np.empty(_BLOCK, dtype=np.uint64)
    for j in range(_BLOCK):
        rows[j] = np.bitwise_or.reduce(np.where(columns & 1, weights, 0))
        columns = (columns >> np.uint64(1)) ^ np.where(columns & 1, np.uint64(mask), 0)
    jumps = [_byte_tables(columns)]
    unit_bytes = np.uint64(1) << np.arange(8, dtype=np.uint64)
    for _ in range(1, _JUMP_LEVELS):
        # the columns of a matrix are its tables at the one-bit bytes
        columns = jumps[-1][:, unit_bytes].ravel()
        jumps.append(_byte_tables(_apply(jumps[-1], columns)))
    for table in (rows, *jumps):
        table.flags.writeable = False  # shared by every caller through the cache
    return rows, tuple(jumps)


def lfsr_fill(state, mask, out):
    """Fill ``out`` (uint8) with the next output bits of the right-shift
    Galois LFSR starting at ``state``; return the state after them.

    Bit-identical to ``_lfsr_fill_py``. The step is linear over GF(2), so
    the states at stride 64 follow from the start by doubling with the jump
    matrices A^(64 * 2^k), and each state's 64 output bits are parities
    against fixed masks (Haramoto et al., "Efficient jump ahead for
    F2-linear random number generators", INFORMS J. Computing 20(3), 2008).
    """
    s, m = int(state), int(mask)
    # a register of this width never sets a higher bit
    rows, jumps = _lfsr_tables(m, max(1, (max(s.bit_length(), m.bit_length()) + 7) // 8))
    blocks = out.shape[0] // _BLOCK
    states = np.array([s], dtype=np.uint64)
    for k in range(blocks.bit_length()):
        # states[i + 2^k] = A^(64 * 2^k) states[i]
        fresh = _apply(jumps[k], states[:blocks + 1 - states.size])
        states = np.concatenate([states, fresh])
    for lo in range(0, blocks, _OUT_STATES):
        hi = min(lo + _OUT_STATES, blocks)
        parity = np.bitwise_count(states[lo:hi, None] & rows) & 1
        out[lo * _BLOCK:hi * _BLOCK] = parity.ravel()
    return _lfsr_fill_py(states[blocks], m, out[blocks * _BLOCK:])


def srm_sample(cdf, level_idx, u, out):
    """Per-symbol outcomes of the square-root-measurement receiver."""
    # outcome = number of cdf entries strictly below u, i.e. the first j
    # with u <= cdf[level, j]; clip guards u landing past the final entry
    hits = (u[:, None] > cdf[level_idx]).sum(axis=1)
    np.minimum(hits, cdf.shape[1] - 1, out=out)
    return out


def bob_errors(level_idx, basis, polarity, bits, z, mean_i, sigma_i, thr):
    """Bit errors of Bob's thresholded direct-detection decisions."""
    current = mean_i[level_idx] + sigma_i[level_idx] * z
    decided_high = current > thr[basis]
    bit_hat = decided_high.astype(np.uint8) ^ polarity
    return int(np.count_nonzero(bit_hat != bits))


def coded_errors(basis, polarity, code_id, bits, z, mean_i, sigma_i, thr, patterns, m_bases):
    """Block errors of keyed 3-symbol repetition blocks through the noisy link."""
    tx = patterns[code_id, bits ^ polarity]              # (n, 3) high flags
    level_idx = basis[:, None] + m_bases * tx.astype(np.int64)
    current = mean_i[level_idx] + sigma_i[level_idx] * z
    hard = (current > thr[basis][:, None]).astype(np.uint8)
    matches_one = (hard == patterns[code_id, 1]).sum(axis=1)
    table_side = (matches_one >= 2).astype(np.uint8)
    decoded = table_side ^ polarity
    return int(np.count_nonzero(decoded != bits))


def backend_name() -> str:
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"
