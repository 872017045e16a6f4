"""Keyed 3-symbol repetition code over a basis pair.

Three codeword pairs, each mapping bit 0/1 to complementary low/high
patterns at Hamming distance 3, so one symbol error per block is corrected.
Which code a block uses (and the polarity of the bit map) rides on the
running key.
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


def encode_block(bit: int, code_id: int, polarity: int) -> tuple[int, int, int]:
    """Pattern for a data bit; polarity 1 encodes the complemented bit."""
    if bit not in (0, 1) or polarity not in (0, 1):
        raise ParameterError("bit and polarity must be 0 or 1")
    if not 0 <= code_id < len(_PATTERNS):
        raise ParameterError(f"code_id must be 0..2, got {code_id}")
    return _PATTERNS[code_id][bit ^ polarity]


def decode_block(received: tuple[int, int, int], code_id: int, polarity: int) -> int:
    """Nearest-pattern decision, then the polarity map undone.

    The two patterns are complements, so nearest-pattern decoding is a
    majority vote: any single symbol error is corrected.
    """
    if not 0 <= code_id < len(_PATTERNS):
        raise ParameterError(f"code_id must be 0..2, got {code_id}")
    if polarity not in (0, 1):
        raise ParameterError("polarity must be 0 or 1")
    if len(received) != 3 or any(s not in (LOW, HIGH) for s in received):
        raise ParameterError("received block must be 3 hard decisions over {LOW, HIGH}")
    matches_one = sum(r == p for r, p in zip(received, _PATTERNS[code_id][1]))
    table_side = 1 if matches_one >= 2 else 0
    return table_side ^ polarity


def analytic_block_error(p: float) -> float:
    """Block error of majority-of-3 under symmetric symbol errors: 3p^2 - 2p^3."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"symbol error probability must lie in [0, 1], got {p}")
    return 3.0 * p * p - 2.0 * p * p * p
