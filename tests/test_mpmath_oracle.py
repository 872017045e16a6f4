"""40-digit mpmath references for the SRM error and the entangled fraction.

Where today's float64 digits miss a reference, the case is a strict xfail
whose reason carries the measured error: a cancellation-free SRM error with
a factor-based Gram root, and the closed-form lossy shared state, are to
turn those into passes.
"""

import mpmath
import pytest

from y00sim.coherent_algebra import entangled_fraction, lossy_shared_state
from y00sim.detection import srm_error
from y00sim.scenario import _ETA_SWEEP
from y00sim.y00_cipher import ConstellationSpec

DIGITS = 40


def gram_40(spec: ConstellationSpec) -> mpmath.matrix:
    """The ladder's Gram matrix at 40 digits. Both ladders' Grams are real:
    exp(-(a_i - a_j)^2 / 2) over the float64 intensity levels, and the phase
    ladder's Toeplitz exp(alpha^2 (cos(pi (k - l) / 2M) - 1))."""
    n = 2 * spec.m_bases
    if spec.kind == "intensity_ladder":
        a = [mpmath.mpf(float(x)) for x in spec.level_amplitudes()]
        rows = [[mpmath.exp(-((a[i] - a[j]) ** 2) / 2) for j in range(n)] for i in range(n)]
    else:
        alpha = mpmath.mpf(spec.alpha_max)
        rows = [[mpmath.exp(alpha**2 * (mpmath.cos(mpmath.pi * (i - j) / n) - 1))
                 for j in range(n)] for i in range(n)]
    return mpmath.matrix(rows)


def srm_error_40(spec: ConstellationSpec):
    """The SRM error 1 - mean S_ii^2 of the 40-digit Gram root S: the 40
    digits leave more than 20 past the cancellation, for errors down to 1e-18."""
    with mpmath.workdps(DIGITS):
        w, u = mpmath.eigsy(gram_40(spec))
        n = len(w)
        # a Gram is PSD: a negative eigenvalue is rounding at the 40th digit
        root = [mpmath.sqrt(max(x, 0)) for x in w]
        diag = [mpmath.fsum(u[i, k] ** 2 * root[k] for k in range(n)) for i in range(n)]
        return 1 - mpmath.fsum(d**2 for d in diag) / n


def _misses(measured: str):
    return pytest.mark.xfail(strict=True, reason=f"float64 digits miss: {measured}")


@pytest.mark.parametrize(
    "kind, m, alpha",
    [
        ("intensity_ladder", 1, 1.0),
        ("intensity_ladder", 2, 4.0),
        ("intensity_ladder", 4, 10.0),
        ("phase_ladder", 1, 1.0),
        ("phase_ladder", 4, 3.0),
        pytest.param("phase_ladder", 1, 3.0, marks=_misses(
            "1 - mean|S_ii|^2 cancels: relative error 1.3e-7 at a truth of 3.8e-9")),
        pytest.param("intensity_ladder", 8, 100.0, marks=_misses(
            "1 - mean|S_ii|^2 cancels: 1.3e-15 against a truth of 5.1e-18")),
        pytest.param("intensity_ladder", 16, 100.0, marks=_misses(
            "relative error 1.2e-12 (cancellation in 1 - mean|S_ii|^2)")),
        pytest.param("intensity_ladder", 16, 10.0, marks=_misses(
            "relative error 1.1e-8 (eigh root of a near-singular Gram)")),
        pytest.param("intensity_ladder", 16, 3.0, marks=_misses(
            "relative error 4.3e-9 (eigh root of a near-singular Gram)")),
        pytest.param("phase_ladder", 16, 3.0, marks=_misses(
            "relative error 3.4e-9 (eigh root of a near-singular Gram)")),
    ],
)
def test_srm_error_against_40_digits(kind, m, alpha):
    spec = getattr(ConstellationSpec, kind)(m, alpha)
    truth = srm_error_40(spec)
    error = srm_error(spec.ensemble()).error_probability
    assert abs(error - truth) <= 1e-13 * truth


def entangled_fraction_40(probe: float, eta: float):
    """(1 - k^2)(1 + L) / (2 (1 - L k^2)) at 40 digits, with k = exp(-2 a^2)
    the probe's overlap and L = exp(-2 (1 - eta) a^2 / eta) the loss mode's."""
    with mpmath.workdps(DIGITS):
        a, eta = mpmath.mpf(probe), mpmath.mpf(eta)
        k2 = mpmath.exp(-4 * a**2)
        loss = mpmath.exp(-2 * (1 - eta) * a**2 / eta)
        return (1 - k2) * (1 + loss) / (2 * (1 - loss * k2))


@pytest.mark.parametrize(
    "probe",
    [
        3.125,
        0.5,
        pytest.param(0.05, marks=_misses("4x4 embedding off by 3.3e-14")),
        pytest.param(0.02, marks=_misses("4x4 embedding off by 4.5e-13")),
    ],
)
def test_entangled_fraction_against_40_digits(probe):
    for eta in _ETA_SWEEP:
        fraction = entangled_fraction(lossy_shared_state(probe, eta)).fraction
        assert abs(fraction - entangled_fraction_40(probe, eta)) <= 2e-15, eta
