"""Exact overlap algebra for coherent-state ensembles.

Everything here works in the finite-dimensional span of the participating
kets rather than a truncated number basis: overlaps of coherent states have
a closed form, so a Gram matrix plus its Hermitian square root give exact
(machine-precision) embeddings for mixed-state computations at any photon
number. Also provides the entangled two-mode superpositions of +/-alpha
("quasi-Bell" pairs), the beam-splitter loss channel, and the surviving
entangled fraction of a shared pair after one arm passes a lossy link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, IllConditionedEnsembleError, ParameterError

#: A coherent amplitude is a plain complex number; |alpha|^2 is the mean
#: photon number of the mode.
CoherentAmplitude = complex

# Eigenvalues of a Gram matrix this far below zero are not rounding noise.
_GRAM_NEG_TOL = 1e-8


def _require_finite(value: complex, name: str) -> complex:
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class MultiModeState:
    """A product of coherent states, one amplitude per mode."""

    modes: tuple[complex, ...]

    def __post_init__(self):
        if len(self.modes) < 1:
            raise ParameterError("a state needs at least one mode")
        object.__setattr__(
            self, "modes", tuple(_require_finite(m, "mode amplitude") for m in self.modes)
        )

    @classmethod
    def single(cls, alpha: complex) -> "MultiModeState":
        return cls((complex(alpha),))

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def total_energy(self) -> float:
        """Total mean photon number, summed over modes."""
        return float(sum(abs(m) ** 2 for m in self.modes))


@dataclass(eq=False)
class StateEnsemble:
    """Pure states with prior probabilities."""

    states: tuple[MultiModeState, ...]
    priors: np.ndarray

    def __post_init__(self):
        self.states = tuple(self.states)
        if not self.states:
            raise ParameterError("ensemble must contain at least one state")
        n_modes = self.states[0].n_modes
        for s in self.states:
            if s.n_modes != n_modes:
                raise DimensionError("all ensemble states must have the same mode count")
        self.priors = np.asarray(self.priors, dtype=float)
        if self.priors.shape != (len(self.states),):
            raise ParameterError("need one prior per state")
        if np.any(self.priors < 0):
            raise ParameterError("priors must be nonnegative")
        if abs(self.priors.sum() - 1.0) > 1e-12:
            raise ParameterError("priors must sum to 1 within 1e-12")

    @classmethod
    def uniform(cls, states) -> "StateEnsemble":
        states = tuple(states)
        return cls(states, np.full(len(states), 1.0 / len(states)))

    def __len__(self) -> int:
        return len(self.states)

    def amplitude_matrix(self) -> np.ndarray:
        """(n_states, n_modes) complex array of amplitudes."""
        return np.array([s.modes for s in self.states], dtype=complex)


def inner_product(a: MultiModeState, b: MultiModeState) -> complex:
    """Overlap <a|b> = prod_m exp(-(|a_m|^2 + |b_m|^2)/2 + conj(a_m) b_m).

    The magnitude never exceeds 1; it equals 1 only for identical states.
    """
    if a.n_modes != b.n_modes:
        raise DimensionError(f"mode counts differ: {a.n_modes} vs {b.n_modes}")
    am = np.asarray(a.modes)
    bm = np.asarray(b.modes)
    exponent = np.sum(-(np.abs(am) ** 2 + np.abs(bm) ** 2) / 2 + np.conj(am) * bm)
    return complex(np.exp(exponent))


def gram_matrix(ensemble: StateEnsemble) -> np.ndarray:
    """Pairwise-overlap matrix G_ij = <psi_i|psi_j> of an ensemble, Hermitian
    with unit diagonal by construction (its PSD check is psd_matrix_sqrt's).

    The nonzero spectrum of this matrix coincides with that of the Gram
    operator sum_i |psi_i><psi_i| built from the same (unweighted) kets.
    """
    amps = ensemble.amplitude_matrix()
    norms = np.sum(np.abs(amps) ** 2, axis=1)
    cross = np.conj(amps) @ amps.T
    g = np.exp(-(norms[:, None] + norms[None, :]) / 2 + cross)
    g = (g + g.conj().T) / 2
    np.fill_diagonal(g, 1.0)
    return g


def psd_matrix_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix.

    Eigenvalues in [-1e-8, 0) and positive values below the relative
    rounding floor (max eigenvalue * n * eps) are treated as exact zeros;
    anything more negative raises, since a Gram matrix that far from PSD
    signals a numerically broken ensemble rather than rounding.
    """
    h = np.asarray(matrix)
    w, u = np.linalg.eigh(h)
    if w.min() < -_GRAM_NEG_TOL:
        raise IllConditionedEnsembleError(
            f"matrix has eigenvalue {w.min():.3e} below -{_GRAM_NEG_TOL:g}"
        )
    floor = max(w.max(), 0.0) * len(w) * np.finfo(float).eps
    w = np.where(w > floor, w, 0.0)
    return (u * np.sqrt(w)) @ u.conj().T


def orthonormal_embedding(ensemble: StateEnsemble) -> np.ndarray:
    """Coordinates V (one column per state) with V^dagger V = Gram matrix.

    Uses the Hermitian eigen square root, so an orthogonal pair embeds as
    standard basis vectors and duplicated states embed as equal columns.
    This is the one path from an ensemble to its Gram square root.
    """
    return psd_matrix_sqrt(gram_matrix(ensemble))


def quasi_bell_reduced_eigenvalues(kappa_a: float, kappa_b: float) -> tuple[float, float]:
    """Spectrum of either reduced density operator of an antisymmetric
    entangled pair whose local basis overlaps are kappa_a and kappa_b.

        lambda_1 = (1 + k_A)(1 - k_B) / (2 (1 - k_A k_B))
        lambda_2 = (1 - k_A)(1 + k_B) / (2 (1 - k_A k_B))

    The pair sums to 1; both equal 1/2 (maximal entanglement entropy)
    exactly when kappa_a == kappa_b.
    """
    for name, k in (("kappa_a", kappa_a), ("kappa_b", kappa_b)):
        if not 0.0 <= k < 1.0:
            raise ParameterError(f"{name} must lie in [0, 1), got {k}")
    denom = 2.0 * (1.0 - kappa_a * kappa_b)
    if denom == 0.0:
        raise ParameterError("kappa_a * kappa_b = 1 makes the state singular")
    lam1 = (1.0 + kappa_a) * (1.0 - kappa_b) / denom
    lam2 = (1.0 - kappa_a) * (1.0 + kappa_b) / denom
    return lam1, lam2


def apply_loss(alpha: CoherentAmplitude, eta: float) -> tuple[complex, complex]:
    """Beam-splitter loss: |alpha> -> kept sqrt(eta) alpha, lost sqrt(1-eta) alpha."""
    if not 0.0 <= eta <= 1.0:
        raise ParameterError(f"transparency must lie in [0, 1], got {eta}")
    alpha = _require_finite(alpha, "alpha")
    return math.sqrt(eta) * alpha, math.sqrt(1.0 - eta) * alpha


# kinds 1, 2 superpose |a>|-b> with |-a>|b>; kinds 3, 4 superpose |a>|b> with |-a>|-b>
_QUASI_BELL_SIGNS = {1: +1, 2: -1, 3: +1, 4: -1}


def quasi_bell_normalization(kind: int, kappa_a: float, kappa_b: float) -> float:
    """Closed-form normalization h for the four +/-alpha entangled pairs."""
    if kind not in _QUASI_BELL_SIGNS:
        raise ParameterError(f"kind must be 1..4, got {kind}")
    sign = _QUASI_BELL_SIGNS[kind]
    return 1.0 / math.sqrt(2.0 * (1.0 + sign * kappa_a * kappa_b))


@dataclass(frozen=True)
class QuasiBellState:
    """One of the four entangled superpositions of +/-alpha pairs.

    kind 1: h (|a>|-b> + |-a>|b>)      kind 2: h (|a>|-b> - |-a>|b>)
    kind 3: h (|a>|b>  + |-a>|-b>)     kind 4: h (|a>|b>  - |-a>|-b>)

    Kinds 2 and 4 are maximally entangled for every amplitude.
    """

    kind: int
    amplitude_a: complex
    amplitude_b: complex
    normalization: float

    def __post_init__(self):
        expected = quasi_bell_normalization(self.kind, self.kappa_a, self.kappa_b)
        if abs(self.normalization - expected) > 1e-12:
            raise ParameterError(
                f"normalization {self.normalization!r} does not match the "
                f"closed form {expected!r} for kind {self.kind}"
            )

    @classmethod
    def create(cls, kind: int, amplitude_a: complex, amplitude_b: complex) -> "QuasiBellState":
        amplitude_a = _require_finite(amplitude_a, "amplitude_a")
        amplitude_b = _require_finite(amplitude_b, "amplitude_b")
        ka = math.exp(-2.0 * abs(amplitude_a) ** 2)
        kb = math.exp(-2.0 * abs(amplitude_b) ** 2)
        return cls(kind, amplitude_a, amplitude_b, quasi_bell_normalization(kind, ka, kb))

    @property
    def kappa_a(self) -> float:
        """Overlap <alpha_A|-alpha_A> of the mode-A basis states."""
        return math.exp(-2.0 * abs(self.amplitude_a) ** 2)

    @property
    def kappa_b(self) -> float:
        return math.exp(-2.0 * abs(self.amplitude_b) ** 2)

    def reduced_eigenvalues(self) -> tuple[float, float]:
        return quasi_bell_reduced_eigenvalues(self.kappa_a, self.kappa_b)


@dataclass(eq=False)
class LossySharedState:
    """Two-party state left after one arm of an antisymmetric entangled
    pair crosses a channel of transparency eta.

    The sender prepares the pre-amplified pair h (|a>|-a/sqrt(eta)> -
    |-a>|a/sqrt(eta)>) so that the surviving arm lands on +/-alpha; tracing
    out the loss mode multiplies the cross terms by the loss-mode overlap
    ``loss_overlap`` = exp(-2 (1-eta) |alpha|^2 / eta). ``printed_loss``
    carries the commonly quoted decoherence factor exp(-4 (1-eta)
    |alpha|^2), retained for comparison because the two disagree away from
    eta = 1/2 (see ``entangled_fraction``).

    The density matrix lives in the 4-dimensional orthonormalized span of
    {|+/-alpha> x |+/-alpha>}, ordered (a,a), (a,-a), (-a,a), (-a,-a).
    """

    alpha: float
    eta: float
    matrix: np.ndarray
    kappa_a: float
    kappa_b: float
    loss_overlap: float
    printed_loss: float
    _psi2_coords: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if abs(np.trace(m).real - 1.0) > 1e-10 or abs(np.trace(m).imag) > 1e-10:
            raise IllConditionedEnsembleError("density matrix must have unit trace")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise IllConditionedEnsembleError("density matrix must be Hermitian")
        if np.linalg.eigvalsh(m).min() < -1e-10:
            raise IllConditionedEnsembleError("density matrix must be positive semidefinite")


def lossy_shared_state(alpha: float, eta: float) -> LossySharedState:
    """Build the shared two-party state after loss on the transmitted arm.

    Requires alpha > 0 and eta in (0, 1]; at eta = 0 the pre-amplified arm
    alpha/sqrt(eta) diverges and the channel is degenerate. At an alpha so
    small that <alpha|-alpha> rounds to 1 the two kets coincide.
    """
    if alpha <= 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if not 0.0 < eta <= 1.0:
        raise ParameterError(f"eta={eta} must lie in (0, 1]; the channel degenerates at eta=0")
    a = float(alpha)
    kappa_a = math.exp(-2.0 * a * a)
    if 1.0 - kappa_a**2 == 0.0:
        raise ParameterError(f"alpha={alpha} is too small: the overlap <alpha|-alpha> rounds to 1")
    kets = [
        MultiModeState((a, a)),
        MultiModeState((a, -a)),
        MultiModeState((-a, a)),
        MultiModeState((-a, -a)),
    ]
    v = orthonormal_embedding(StateEnsemble.uniform(kets))
    u_vec = v[:, 1]  # |alpha, -alpha>
    w_vec = v[:, 2]  # |-alpha, alpha>

    kappa_b = math.exp(-2.0 * a * a / eta)
    loss_overlap = math.exp(-2.0 * (1.0 - eta) * a * a / eta)
    printed_loss = math.exp(-4.0 * (1.0 - eta) * a * a)

    # trace over the loss mode leaves the two ket-kets intact and scales the
    # two cross ket-bras by the loss-mode overlap
    weight = 1.0 / (2.0 * (1.0 - loss_overlap * kappa_a**2))
    rho = weight * (
        np.outer(u_vec, u_vec.conj())
        + np.outer(w_vec, w_vec.conj())
        - loss_overlap * (np.outer(u_vec, w_vec.conj()) + np.outer(w_vec, u_vec.conj()))
    )
    psi2 = (u_vec - w_vec) / math.sqrt(2.0 * (1.0 - kappa_a**2))
    return LossySharedState(
        alpha=a,
        eta=float(eta),
        matrix=rho,
        kappa_a=kappa_a,
        kappa_b=kappa_b,
        loss_overlap=loss_overlap,
        printed_loss=printed_loss,
        _psi2_coords=psi2,
    )


class EntangledFraction(NamedTuple):
    """Overlap of the shared state with the maximally entangled reference.

    ``fraction`` is computed from the density matrix in the embedding and is
    the trustworthy number. ``closed_form`` evaluates the textbook closed
    formula with the quoted decoherence factor; it disagrees with
    ``fraction`` away from eta = 1 (it can even exceed 1), so it is exposed
    for comparison only.
    """

    fraction: float
    closed_form: float


def entangled_fraction(state: LossySharedState) -> EntangledFraction:
    """Fully entangled fraction <Psi_2|rho|Psi_2> of a lossy shared state."""
    psi2 = state._psi2_coords
    # rounding in the embedding can put it just above 1 at eta = 1
    fraction = min(max(float(np.real(psi2.conj() @ state.matrix @ psi2)), 0.0), 1.0)
    k2 = state.kappa_a**2
    loss = state.printed_loss
    closed = (1.0 - k2) / (1.0 - loss * k2) + (1.0 - loss) * (1.0 - k2) ** 2 / (1.0 - loss * k2)
    return EntangledFraction(fraction=fraction, closed_form=closed)


def phase_constellation(alpha: float, m_bases: int) -> StateEnsemble:
    """2M two-mode states with counter-rotated phases, uniform priors.

    State k is |e^{-i phi/2} alpha/sqrt(2)> x |e^{+i phi/2} alpha/sqrt(2)>
    with phi = 2 pi k / (2M), k = 0 .. 2M-1, so every state carries total
    energy |alpha|^2 and antipodal pairs (k, k+M) form the M bases.
    """
    if m_bases < 1:
        raise ParameterError(f"need at least one basis, got {m_bases}")
    alpha = complex(alpha)
    base = alpha / math.sqrt(2.0)
    states = []
    for k in range(2 * m_bases):
        phi = 2.0 * math.pi * k / (2 * m_bases)
        rot = complex(math.cos(phi / 2.0), math.sin(phi / 2.0))
        states.append(MultiModeState((base / rot, base * rot)))
    return StateEnsemble.uniform(states)
