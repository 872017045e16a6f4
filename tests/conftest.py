"""Shared test oracles."""

import numpy as np
import pytest

from y00sim.coherent_algebra import MultiModeState
from y00sim.y00_cipher import ConstellationSpec


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


# Both ladders at 2M levels and peak amplitude alpha, for the bit-identity
# checks against the references below; 2M = 128 and 130 sit on either side
# of the ladder size above which the commands take the Toeplitz split.
LADDER_CASES = [
    pytest.param(kind, two_m, alpha, id=f"{kind}-2M{two_m}-a{alpha:g}")
    for kind in ("intensity_ladder", "phase_ladder")
    for two_m in (2, 30, 32, 54, 128, 130, 256, 640)
    for alpha in (0.5, 3.0, 100.0)
]


def ladder(kind, two_m, alpha):
    return getattr(ConstellationSpec, kind)(two_m // 2, alpha).ensemble()


# Out-of-place forms of the Gram -> root -> SRM path. Each does the package's
# floating-point operations in the same order, each into a new array, so the
# package's in-place results must equal these bit for bit.
def gram_reference(ensemble) -> np.ndarray:
    amps = ensemble.amplitude_matrix()
    norms = np.sum(np.abs(amps) ** 2, axis=1)
    cross = np.conj(amps) @ amps.T
    g = np.exp(-(norms[:, None] + norms[None, :]) / 2 + cross)
    g = (g + g.conj().T) / 2
    np.fill_diagonal(g, 1.0)
    return g


def psd_sqrt_reference(matrix) -> np.ndarray:
    h = np.asarray(matrix)
    w, u = np.linalg.eigh(h)
    floor = max(w.max(), 0.0) * len(w) * np.finfo(float).eps
    w = np.where(w > floor, w, 0.0)
    return (u * np.sqrt(w)) @ u.conj().T


def confusion_reference(s) -> np.ndarray:
    p = np.abs(s.T) ** 2
    return p / p.sum(axis=1, keepdims=True)


@pytest.fixture
def rng():
    return np.random.default_rng(123456789)
