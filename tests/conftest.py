"""Shared test oracles."""

import numpy as np
import pytest

from y00sim.coherent_algebra import MultiModeState


def fock_overlap(a: MultiModeState, b: MultiModeState) -> complex:
    """Independent overlap oracle: truncated number-basis expansion.

    <alpha|beta> = exp(-(|a|^2+|b|^2)/2) sum_n (conj(a) b)^n / n!, truncated
    at n_max = max_photon + 10 sqrt(max_photon) + 20, per mode.
    """
    total = 1.0 + 0.0j
    for am, bm in zip(a.modes, b.modes):
        photons = max(abs(am) ** 2, abs(bm) ** 2)
        cutoff = int(photons + 10.0 * np.sqrt(photons) + 20.0)
        x = np.conj(am) * bm
        series = 0.0 + 0.0j
        term = 1.0 + 0.0j
        for n in range(cutoff + 1):
            if n > 0:
                term *= x / n
            series += term
        total *= np.exp(-(abs(am) ** 2 + abs(bm) ** 2) / 2.0) * series
    return complex(total)


def lfsr_reference(state: int, mask: int, n: int):
    """Independent bit-by-bit recurrence of the right-shift Galois LFSR: its
    first n output bits from ``state`` as a list, and the state after them."""
    out = []
    for _ in range(n):
        lsb = state & 1
        state >>= 1
        if lsb:
            state ^= mask
        out.append(lsb)
    return out, state


def per_draw_values(stream, bound, tail, count):
    """Independent attempt-at-a-time keyed draw loop over a list of stream
    bits: each attempt reads ceil(log2 bound) bits, first most significant,
    and is rejected if >= bound; with ``tail`` one more bit follows each
    accepted value. Returns (values, tail bits, bits read)."""
    n_bits = (bound - 1).bit_length()
    pos, values, tails = 0, [], []
    while len(values) < count:
        value = 0
        for bit in stream[pos:pos + n_bits]:
            value = 2 * value + bit
        pos += n_bits
        if value < bound:
            values.append(value)
            tails.append(stream[pos] if tail else 0)
            pos += tail
    return values, tails, pos


@pytest.fixture
def rng():
    return np.random.default_rng(123456789)
