"""IMDD link budget for a repeatered fiber span.

The receiver sees five photocurrent-variance contributions: detector
thermal noise, signal shot noise, amplified spontaneous emission, and the
two beat terms (signal-spontaneous and spontaneous-spontaneous). With the
bracket X = kappa_r G_p N (G - 1) + (G_p - 1), G = 1/kappa_r:

    <I_sig^2>    = 2 e^2 G_p kappa_r <n> B
    <I_sp^2>     = 2 e^2 X n_sp B df
    <I_sig-sp^2> = 4 e^2 G_p X kappa_r <n> n_sp B
    <I_sp-sp^2>  = 2 e^2 X^2 n_sp^2 B df
    total(on)    = <I_th^2> + <I_sig^2> + 2 <I_sp^2> + <I_sig-sp^2> + 2 <I_sp-sp^2>

Note the signal-spontaneous beat carries G_p both in the prefactor and
inside X; that is implemented verbatim even though standard treatments use
a single overall G_p^2.

Units: <n> is a photon rate (1/s) at the transmitter, bandwidths in Hz,
currents in A, variances in A^2. A level with amplitude alpha at symbol
bandwidth B carries photon rate |alpha|^2 B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import helstrom_pure_pair
from .errors import ParameterError
from .y00_cipher import ConstellationSpec

ELECTRON_CHARGE = 1.602176634e-19  # C


@dataclass(frozen=True)
class LinkParams:
    """Physical parameters of the repeatered IMDD link.

    g_p: pre-amplifier gain (>= 1, dimensionless)
    kappa_r: per-span fiber transparency in (0, 1]; repeater gain is 1/kappa_r
    n_repeaters: number of in-line amplifiers (>= 0)
    n_mean: photon rate (1/s) at the transmitter for the top constellation level
    n_sp: spontaneous-emission factor (>= 1)
    bandwidth: electrical bandwidth B (Hz)
    delta_f: optical filter bandwidth (Hz)
    thermal_var: detector thermal-noise variance (A^2)
    """

    g_p: float = 1.0
    kappa_r: float = 1.0
    n_repeaters: int = 0
    n_mean: float = 1e12
    n_sp: float = 1.0
    bandwidth: float = 1e9
    delta_f: float = 1e11
    thermal_var: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            # a Python int is finite, however large
            if not (isinstance(value, int) or math.isfinite(value)):
                raise ParameterError(f"{name} must be finite, got {value}")
        # each check is written so that NaN fails it
        if not self.g_p >= 1.0:
            raise ParameterError(f"pre-amplifier gain must be >= 1, got {self.g_p}")
        if not 0.0 < self.kappa_r <= 1.0:
            raise ParameterError(f"span transparency must lie in (0, 1], got {self.kappa_r}")
        if not self.n_repeaters >= 0:
            raise ParameterError(f"repeater count must be >= 0, got {self.n_repeaters}")
        if not (self.n_mean >= 0 and self.n_sp >= 1.0):
            raise ParameterError("photon rate must be >= 0 and n_sp >= 1")
        if not (self.bandwidth > 0 and self.delta_f > 0):
            raise ParameterError("bandwidths must be positive")
        if not self.thermal_var >= 0:
            raise ParameterError(f"thermal variance must be >= 0, got {self.thermal_var}")

    @property
    def repeater_gain(self) -> float:
        """G = 1/kappa_r; each amplifier exactly undoes one span."""
        return 1.0 / self.kappa_r


@dataclass(frozen=True)
class NoiseBudget:
    """The five photocurrent-variance terms (A^2) and their weighted total;
    the rate-dependent ones are arrays when the rates were."""

    th: float
    sig: float
    sp: float
    sig_sp: float
    sp_sp: float
    total_on: float


def noise_budget(params: LinkParams, level_photon_rate) -> NoiseBudget:
    """Evaluate all variance terms at a photon rate, or at each of an
    array of rates. Raises ParameterError, naming the cause, when a term
    overflows or is not finite in double precision."""
    if np.any(level_photon_rate < 0):
        raise ParameterError(f"photon rate must be >= 0, got {level_photon_rate}")
    e2 = ELECTRON_CHARGE * ELECTRON_CHARGE
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            bracket = (params.kappa_r * params.g_p * params.n_repeaters
                       * (params.repeater_gain - 1.0) + (params.g_p - 1.0))
            sig = 2.0 * e2 * params.g_p * params.kappa_r * level_photon_rate * params.bandwidth
            sp = 2.0 * e2 * bracket * params.n_sp * params.bandwidth * params.delta_f
            sig_sp = (4.0 * e2 * params.g_p * bracket * params.kappa_r * level_photon_rate
                      * params.n_sp * params.bandwidth)
            sp_sp = 2.0 * e2 * bracket**2 * params.n_sp**2 * params.bandwidth * params.delta_f
            total = params.thermal_var + sig + 2.0 * sp + sig_sp + 2.0 * sp_sp
    except ArithmeticError as exc:
        # an OverflowError from a float ** carries (errno, message)
        raise ParameterError(exc.args[-1]) from exc
    # every term is >= 0, so the total is finite exactly when each term is
    if not np.isfinite(total).all():
        raise ParameterError("a noise term is not finite")
    return NoiseBudget(
        th=params.thermal_var, sig=sig, sp=sp, sig_sp=sig_sp, sp_sp=sp_sp, total_on=total
    )


def mean_photocurrent(params: LinkParams, photon_rate):
    """Mean detected current e G_p kappa_r <n> (responsivity folded in), per
    rate when given an array. Raises ParameterError when a rate is not
    finite or a current overflows double precision."""
    rate = np.asarray(photon_rate, dtype=float)
    if not np.isfinite(rate).all():
        raise ParameterError(f"photon rate must be finite, got {photon_rate}")
    with np.errstate(over="ignore"):
        current = ELECTRON_CHARGE * params.g_p * params.kappa_r * rate
    if not np.isfinite(current).all():
        raise ParameterError("the mean photocurrent overflows double precision")
    return current[()]


def decision_point(params: LinkParams, rate_on, rate_off):
    """Equal-error threshold between the two Gaussian current distributions,
    per pair of rates when given arrays (a scalar pair gives scalars).

    Returns (threshold, i_on, i_off, sigma_on, sigma_off). With unequal
    variances the threshold sits at i_off + sigma_off (i_on - i_off) /
    (sigma_on + sigma_off), which makes P(0|1) = P(1|0); a noise-free link
    decides at the midpoint. Raises ParameterError when a value is not
    finite in double precision, or a noise-free pair's threshold does not
    split its currents (they rounded together).
    """
    rates = np.array(np.broadcast_arrays(rate_on, rate_off), dtype=float)
    if not (np.isfinite(rates).all() and (rates >= 0).all()):
        raise ParameterError("rates must be finite and nonnegative")
    if np.any(rates[0] <= rates[1]):
        raise ParameterError("rate_on must exceed rate_off")
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            i_on, i_off = mean_photocurrent(params, rates)
            sigma_on, sigma_off = np.sqrt(noise_budget(params, rates).total_on)
            denom = sigma_on + sigma_off
            noisy = denom != 0.0
            equal_error = i_off + sigma_off * (i_on - i_off) / np.where(noisy, denom, 1.0)
            threshold = np.where(noisy, equal_error, (i_on + i_off) / 2.0)
    except ArithmeticError as exc:
        raise ParameterError(str(exc)) from exc
    if not (noisy | ((i_off <= threshold) & (threshold < i_on))).all():
        raise ParameterError("a noise-free pair's threshold does not split its currents")
    return threshold[()], i_on[()], i_off[()], sigma_on[()], sigma_off[()]


_erfc = np.vectorize(math.erfc, otypes=[float])


def ber_on_off(params: LinkParams, rate_on, rate_off):
    """Symmetric decision error of the direct-detection receiver, per pair
    of rates when given arrays (a scalar pair gives a scalar)."""
    return gaussian_ber(*decision_point(params, rate_on, rate_off)[1:])


def gaussian_ber(i_on, i_off, sigma_on, sigma_off):
    """The decision error at ``decision_point``'s threshold, from its
    currents and sigmas: Gaussian model with Q = (i_on - i_off) /
    (sigma_on + sigma_off), giving P(0|1) = P(1|0) = Phi(-Q). A noise-free
    link gives 0, and so does one whose Q overflows to +inf (Phi(-inf) is
    0). A one-sided link, sigma_off == 0 < sigma_on, has its threshold on
    i_off: P(1|0) = 0, and the error is Phi(-Q) / 2. Raises ParameterError
    when an input is not finite, a sigma is negative, or the current gap
    and the sigma sum both overflow."""
    i_on, i_off, sigma_on, sigma_off = np.broadcast_arrays(i_on, i_off, sigma_on, sigma_off)
    if not all(np.isfinite(v).all() for v in (i_on, i_off, sigma_on, sigma_off)):
        raise ParameterError("currents and sigmas must be finite")
    if (sigma_on < 0).any() or (sigma_off < 0).any():
        raise ParameterError("sigmas must be >= 0")
    with np.errstate(over="ignore", invalid="ignore"):
        denom = sigma_on + sigma_off
        noisy = denom != 0.0
        q = (i_on - i_off) / np.where(noisy, denom, 1.0)
    if np.isnan(q).any():  # inf / inf
        raise ParameterError("Q is inf / inf: the current gap and the sigma sum both overflow")
    ber = np.where(noisy, 0.5 * _erfc(q / math.sqrt(2.0)), 0.0)
    return np.where(one_sided(sigma_on, sigma_off), ber / 2, ber)[()]


def one_sided(sigma_on, sigma_off):
    """Whether a link's off level is noise-free and its on level is not: then
    only the on level errs. Every noise term grows with the rate, so
    sigma_on >= sigma_off, and this is the only one-sided case."""
    return (np.asarray(sigma_off) == 0.0) & (np.asarray(sigma_on) > 0.0)


def level_photon_rate(params: LinkParams, spec: ConstellationSpec, level_index):
    """Transmitter photon rate of a ladder level (0-based index), or an
    array of rates for an array of indices.

    Levels scale as (alpha_level / alpha_max)^2 of the configured top-level
    rate n_mean; with n_mean = alpha_max^2 B this is just |alpha_level|^2 B.
    """
    amps = spec.level_amplitudes()
    return params.n_mean * (amps[level_index] / spec.alpha_max) ** 2


def bob_practical_vs_optimal(
    params: LinkParams, spec: ConstellationSpec
) -> tuple[float, float]:
    """Direct-detection BER on the first basis pair next to the quantum
    optimum for the same pair; the practical receiver can never beat it.

    The optimum is taken for the states the link sends, coherent states of
    amplitude sqrt(rate / B), not for the ladder's own amplitudes: n_mean
    and alpha_max are set independently. Their squared overlap is exp(-d^2),
    d the amplitude gap."""
    rate_off = level_photon_rate(params, spec, 0)
    rate_on = level_photon_rate(params, spec, spec.m_bases)
    practical = ber_on_off(params, rate_on, rate_off)
    gap = (math.sqrt(rate_on) - math.sqrt(rate_off)) / math.sqrt(params.bandwidth)
    optimal = helstrom_pure_pair(math.exp(-gap * gap), 0.5)
    if practical < optimal - 1e-12:
        raise ParameterError(
            "practical BER fell below the quantum optimum; inconsistent parameters"
        )
    return practical, optimal
