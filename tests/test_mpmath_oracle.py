"""40-digit mpmath references for the SRM error and per-state success, the
Helstrom error between the non_overlap bit mixtures, the attack suite's
neighbour-pair minimax error, and the entangled fraction.

Where today's float64 digits miss a reference, the case is a strict xfail
whose reason carries the measured error: cancellation-free SRM, Helstrom
and pure-pair forms with a factor-based Gram root, and the closed-form
lossy shared state, are to turn those into passes.
"""

from dataclasses import replace
from functools import lru_cache

import mpmath
import pytest

from y00sim.coherent_algebra import entangled_fraction, lossy_shared_state
from y00sim.detection import helstrom_mixed_pair, srm_error
from y00sim.scenario import _ETA_SWEEP, attack_suite, default_config
from y00sim.y00_cipher import BasisAssignment, ConstellationSpec, eve_bit_mixtures

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


@lru_cache(maxsize=None)
def root_40(kind: str, m: int, alpha: float) -> mpmath.matrix:
    """The 40-digit Gram root S of a ladder, built once per case."""
    with mpmath.workdps(DIGITS):
        w, u = mpmath.eigsy(gram_40(getattr(ConstellationSpec, kind)(m, alpha)))
        n = len(w)
        # a Gram is PSD: a negative eigenvalue is rounding at the 40th digit
        root = [mpmath.sqrt(max(x, 0)) for x in w]
        return mpmath.matrix([[mpmath.fsum(u[i, k] * u[j, k] * root[k] for k in range(n))
                               for j in range(n)] for i in range(n)])


def srm_error_40(kind: str, m: int, alpha: float):
    """(SRM error 1 - mean S_ii^2, per-state S_ii^2) of the 40-digit root:
    the 40 digits leave more than 20 past the cancellation, for errors down
    to 1e-18."""
    s = root_40(kind, m, alpha)
    with mpmath.workdps(DIGITS):
        per_state = [s[i, i] ** 2 for i in range(2 * m)]
        return 1 - mpmath.fsum(per_state) / (2 * m), per_state


def non_overlap_helstrom_40(kind: str, m: int, alpha: float):
    """(1 - ||rho_1 - rho_0||_1 / 2) / 2 for the lower and upper half-ladder
    mixtures: in the root's coordinates the signed operator is S C S, with C
    diagonal, -1/2M on the lower M levels and +1/2M on the upper M."""
    s = root_40(kind, m, alpha)
    n = 2 * m
    with mpmath.workdps(DIGITS):
        signed = mpmath.diag([mpmath.mpf(-1 if i < m else 1) / n for i in range(n)])
        trace_norm = mpmath.fsum(abs(x) for x in mpmath.eigsy(s * signed * s, eigvals_only=True))
        return (1 - trace_norm) / 2


def _misses(measured: str):
    return pytest.mark.xfail(strict=True, reason=f"float64 digits miss: {measured}")


# (kind, M, alpha) on both ladders, 2M <= 32
CASES = [
    ("intensity_ladder", 1, 1.0),
    ("intensity_ladder", 2, 4.0),
    ("intensity_ladder", 4, 10.0),
    ("phase_ladder", 1, 1.0),
    ("phase_ladder", 4, 3.0),
    ("phase_ladder", 1, 3.0),
    ("intensity_ladder", 8, 100.0),
    ("intensity_ladder", 16, 100.0),
    ("intensity_ladder", 16, 10.0),
    ("intensity_ladder", 16, 3.0),
    ("phase_ladder", 16, 3.0),
]


def _cases(misses: dict):
    """CASES, each miss a strict xfail carrying its measured error."""
    return [pytest.param(*case, marks=_misses(misses[case])) if case in misses else case
            for case in CASES]


@pytest.mark.parametrize("kind, m, alpha", _cases({
    ("phase_ladder", 1, 3.0):
        "1 - mean|S_ii|^2 cancels: relative error 1.3e-7 at a truth of 3.8e-9",
    ("intensity_ladder", 8, 100.0):
        "1 - mean|S_ii|^2 cancels: 1.3e-15 against a truth of 5.1e-18",
    ("intensity_ladder", 16, 100.0):
        "relative error 1.2e-12 (cancellation in 1 - mean|S_ii|^2)",
    ("intensity_ladder", 16, 10.0):
        "relative error 1.1e-8 (eigh root of a near-singular Gram)",
    ("intensity_ladder", 16, 3.0):
        "relative error 4.3e-9 (eigh root of a near-singular Gram)",
    ("phase_ladder", 16, 3.0):
        "relative error 3.4e-9 (eigh root of a near-singular Gram)",
}))
def test_srm_error_against_40_digits(kind, m, alpha):
    truth, _ = srm_error_40(kind, m, alpha)
    error = srm_error(getattr(ConstellationSpec, kind)(m, alpha).ensemble()).error_probability
    assert abs(error - truth) <= 1e-13 * truth


@pytest.mark.parametrize("kind, m, alpha", _cases({
    ("intensity_ladder", 16, 10.0):
        "relative error up to 8.7e-8 (eigh root of a near-singular Gram)",
    ("intensity_ladder", 16, 3.0):
        "relative error up to 1.2e-7 (eigh root of a near-singular Gram)",
    ("phase_ladder", 16, 3.0):
        "relative error up to 4.1e-8 (eigh root of a near-singular Gram)",
}))
def test_srm_per_state_against_40_digits(kind, m, alpha):
    _, truth = srm_error_40(kind, m, alpha)
    report = srm_error(getattr(ConstellationSpec, kind)(m, alpha).ensemble())
    for got, want in zip(report.per_state_correct, truth):
        assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("kind, m, alpha", _cases({
    ("phase_ladder", 1, 3.0):
        "1 - ||rho_1 - rho_0||_1 cancels: relative error 6.8e-8 at a truth of 3.8e-9",
    ("intensity_ladder", 8, 100.0):
        "1 - ||rho_1 - rho_0||_1 cancels: 6.1e-16 against a truth of 3.4e-19",
    ("intensity_ladder", 16, 100.0):
        "relative error 6.1e-11 at a truth of 9.0e-7 (cancellation)",
    ("intensity_ladder", 16, 10.0):
        "relative error 1.8e-13 (eigh root of a near-singular Gram)",
}))
def test_non_overlap_helstrom_against_40_digits(kind, m, alpha):
    spec = getattr(ConstellationSpec, kind)(m, alpha)
    truth = non_overlap_helstrom_40(kind, m, alpha)
    error = helstrom_mixed_pair(eve_bit_mixtures(spec, BasisAssignment("non_overlap")))
    assert abs(error.error_probability - truth) <= 1e-13 * truth


def minimax_error_40(kind: str, m: int, alpha: float):
    """The equal-prior Helstrom error of levels 1 and 2 at 40 digits. With x
    the square of the Gram's (0, 1) entry, x / (2 (1 + sqrt(1 - x))) is
    (1 - sqrt(1 - x)) / 2 without its cancellation, for x down to 1e-43."""
    with mpmath.workdps(DIGITS):
        x = gram_40(getattr(ConstellationSpec, kind)(m, alpha))[0, 1] ** 2
        return x / (2 * (1 + mpmath.sqrt(1 - x)))


# the four pinned attacks configs, and phase M=1
@pytest.mark.parametrize("kind, m, alpha", [
    pytest.param("intensity_ladder", 16, 100.0, marks=_misses(
        "(1 - sqrt(1 - x)) / 2 cancels: relative error 1.4e-12 at a truth of 1.4e-5")),
    pytest.param("intensity_ladder", 15, 100.0, marks=_misses(
        "(1 - sqrt(1 - x)) / 2 cancels: relative error 8.2e-12 at a truth of 3.7e-6")),
    pytest.param("phase_ladder", 16, 100.0, marks=_misses(
        "1 - x rounds to 1: prints 0 against a truth of 3.7e-43")),
    # relative error 2.8e-15
    ("phase_ladder", 15, 3.0),
    pytest.param("phase_ladder", 1, 3.0, marks=_misses(
        "(1 - sqrt(1 - x)) / 2 cancels: relative error 5.3e-9 at a truth of 3.8e-9")),
])
def test_minimax_error_against_40_digits(kind, m, alpha):
    truth = minimax_error_40(kind, m, alpha)
    config = replace(default_config(), kind=kind, m_bases=m, alpha_max=alpha)
    assert abs(attack_suite(config).worst_pair_error - truth) <= 1e-13 * truth


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
        # alpha_max 3e-2 and 2e-2 on the default ladder, below attacks' probe floor
        pytest.param(9.375e-4, marks=_misses("4x4 embedding off by 6.4e-11")),
        pytest.param(6.25e-4, marks=_misses("4x4 embedding off by 2.5e-11")),
    ],
)
def test_entangled_fraction_against_40_digits(probe):
    for eta in _ETA_SWEEP:
        fraction = entangled_fraction(lossy_shared_state(probe, eta)).fraction
        assert abs(fraction - entangled_fraction_40(probe, eta)) <= 2e-15, eta
