"""Keyed 3-symbol repetition code over a basis pair.

Three codeword pairs, each mapping bit 0/1 to complementary low/high
patterns at Hamming distance 3, so one symbol error per block is corrected.
Which code a block uses (and the polarity of the bit map) rides on the
running key; kernels.coded_errors makes the majority decision.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

LOW, HIGH = 0, 1

_PATTERNS = (
    ((LOW, LOW, HIGH), (HIGH, HIGH, LOW)),
    ((LOW, HIGH, LOW), (HIGH, LOW, HIGH)),
    ((HIGH, LOW, LOW), (LOW, HIGH, HIGH)),
)


def pattern_array() -> np.ndarray:
    """Patterns as a (3 codes, 2 bits, 3 symbols) uint8 array of high flags."""
    return np.array(_PATTERNS, dtype=np.uint8)


def analytic_block_error(p: float, one_sided: bool = False) -> float:
    """Block error of majority-of-3 at symbol error probability p: 3p^2 - 2p^3
    under symmetric symbol errors. On a one-sided link only the high level
    errs, with probability 2p, so only a two-high pattern (half the blocks)
    can fail, when both its highs err: (2p)^2 / 2."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"symbol error probability must lie in [0, 1], got {p}")
    if one_sided:
        return 2.0 * p * p
    return 3.0 * p * p - 2.0 * p * p * p
