"""Exact overlap algebra for coherent-state ensembles.

Everything here works in the finite-dimensional span of the participating
kets rather than a truncated number basis: overlaps of coherent states have
a closed form, so a Gram matrix plus its Hermitian square root give exact
(machine-precision) embeddings for mixed-state computations at any photon
number. A Gram that is real symmetric Toeplitz, as both ladders' are, also
takes its root from two half-size problems. Also provides the reduced
spectrum of an entangled +/-alpha pair and the surviving entangled
fraction of a shared pair after one arm passes a lossy link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, IllConditionedEnsembleError, ParameterError

# Eigenvalues of a Gram matrix this far below zero are not rounding noise.
_GRAM_NEG_TOL = 1e-8

# Overlaps below this magnitude, about 4.9e-32, are set to 0 before the
# even/odd split; _toeplitz_half_factors gives the reason.
_OVERLAP_FLUSH = np.finfo(float).eps ** 2


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
    am, bm = np.asarray(a.modes), np.asarray(b.modes)
    return complex(np.exp(np.sum(-(np.abs(am) ** 2 + np.abs(bm) ** 2) / 2 + np.conj(am) * bm)))


def gram_matrix(ensemble: StateEnsemble) -> np.ndarray:
    """Pairwise-overlap matrix G_ij = <psi_i|psi_j> of an ensemble, Hermitian
    with unit diagonal by construction (its PSD check is _eigen_factor's).

    The nonzero spectrum of this matrix coincides with that of the Gram
    operator sum_i |psi_i><psi_i| built from the same (unweighted) kets.
    """
    amps = ensemble.amplitude_matrix()
    norms = np.sum(np.abs(amps) ** 2, axis=1)
    # in place, so at most two n x n arrays are live at once
    g = np.conj(amps) @ amps.T
    g += (norms[:, None] + norms[None, :]) / -2
    np.exp(g, out=g)
    g += g.conj().T
    g /= 2
    np.fill_diagonal(g, 1.0)
    return g


def _eigen_factor(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(U, sqrt(w)) for the eigendecomposition U diag(w) U^dagger of a
    positive-semidefinite matrix, whose root is then U diag(sqrt(w)) U^dagger.

    Eigenvalues in [-1e-8, 0) and positive values below the relative
    rounding floor (max eigenvalue * n * eps) are treated as exact zeros;
    anything more negative raises, since a Gram matrix that far from PSD
    signals a numerically broken ensemble rather than rounding.
    """
    w, u = np.linalg.eigh(matrix)
    del matrix  # a temporary Gram matrix passed straight in is freed here
    if w.min() < -_GRAM_NEG_TOL:
        raise IllConditionedEnsembleError(
            f"matrix has eigenvalue {w.min():.3e} below -{_GRAM_NEG_TOL:g}"
        )
    floor = max(w.max(), 0.0) * len(w) * np.finfo(float).eps
    return u, np.sqrt(np.where(w > floor, w, 0.0))


def psd_matrix_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix, with
    _eigen_factor's treatment of negative and rounding-level eigenvalues."""
    u, root_w = _eigen_factor(matrix)
    # a caller's temporary goes before the scaled copy of u is made, so at
    # most three n x n arrays are live at once
    del matrix
    scaled = u * root_w
    return scaled @ np.conjugate(u, out=u).T


def orthonormal_embedding(ensemble: StateEnsemble) -> np.ndarray:
    """Coordinates V (one column per state) with V^dagger V = Gram matrix.

    Uses the Hermitian eigen square root, so an orthogonal pair embeds as
    standard basis vectors and duplicated states embed as equal columns.
    This is the one path from an ensemble to its Gram square root.
    """
    return psd_matrix_sqrt(gram_matrix(ensemble))


def embedding_diagonal(ensemble: StateEnsemble) -> np.ndarray:
    """The diagonal of orthonormal_embedding(ensemble), read off the same
    eigenvectors without the n x n product: S_ii = sum_k sqrt(w_k) |U_ik|^2,
    one row dot per state, so only the scaled copy of U is live beside U."""
    u, root_w = _eigen_factor(gram_matrix(ensemble))
    return np.vecdot(u, u * root_w)


def _toeplitz_half_factors(overlaps: np.ndarray) -> tuple[tuple, tuple]:
    """_eigen_factor of the even and the odd M x M half of the real
    symmetric Toeplitz Gram G_ij = g(|i - j|), i, j < 2M, of g = ``overlaps``.

    Such a G is centrosymmetric, JGJ = G with J the reversal, so the
    orthogonal Q = [[I, I], [J, -J]] / sqrt(2) turns it into diag(G_e, G_o)
    with G_e = G11 + G12 J and G_o = G11 - G12 J (Cantoni & Butler, Linear
    Algebra Appl. 13, 1976), where G11[i, j] = g(|i - j|) and (G12 J)[i, j]
    = g(2M - 1 - i - j). Each half gets its own negative-eigenvalue check
    and rounding floor. G11 and G12 J are strided views of g, so the only
    M x M arrays formed are the halves and their factors.

    Overlaps with |g(d)| < eps^2 (_OVERLAP_FLUSH) are set to exact 0 first.
    A ladder's g(d) decays like a Gaussian, so a large ladder's tail runs
    down through the subnormals, which x86 multiplies in slow microcode
    inside eigh's reduction. Dropping them moves G by at most 2M eps^2 in
    norm, far below eigh's backward error of order eps ||G||.
    """
    g = np.asarray(overlaps, dtype=float)
    if g.ndim != 1 or not g.size or g.size % 2:
        raise DimensionError(f"an overlap sequence needs an even length >= 2, got shape {g.shape}")
    if not np.isfinite(g).all():
        raise ParameterError("overlaps must be finite")
    g = np.where(np.abs(g) < _OVERLAP_FLUSH, 0.0, g)
    m = g.size // 2
    windows = np.lib.stride_tricks.sliding_window_view
    # row i of the reversed windows over g(m-1), .., g(1), g(0), .., g(m-1)
    # starts at g(i) and counts down to g(0), then up
    g11 = windows(np.concatenate([g[m - 1:0:-1], g[:m]]), m)[::-1]
    g12_j = windows(g[::-1], m)[:m]
    return _eigen_factor(g11 + g12_j), _eigen_factor(g11 - g12_j)


def toeplitz_embedding(overlaps: np.ndarray) -> np.ndarray:
    """The real root S of the Toeplitz Gram g[|i - j|] (2M rows), built from
    the roots S_e and S_o of its halves (_toeplitz_half_factors) as
    Q diag(S_e, S_o) Q^T = [[A, B J], [J B, J A J]], with A = (S_e + S_o)/2
    and B = (S_e - S_o)/2. It solves two M x M problems, not one 2M x 2M."""
    (u_e, root_e), (u_o, root_o) = _toeplitz_half_factors(overlaps)
    s_e = (u_e * root_e) @ u_e.T
    s_o = (u_o * root_o) @ u_o.T
    a = (s_e + s_o) / 2
    b = (s_e - s_o) / 2
    return np.block([[a, b[:, ::-1]], [b[::-1], a[::-1, ::-1]]])


def toeplitz_embedding_diagonal(overlaps: np.ndarray) -> np.ndarray:
    """The diagonal of toeplitz_embedding(overlaps) without the M x M
    products: S_ii = (S_e,ii + S_o,ii) / 2 for i < M, each half's diagonal
    read off its eigenvectors as in embedding_diagonal, and the upper half
    is the lower one reversed."""
    even, odd = (np.vecdot(u, u * root_w) for u, root_w in _toeplitz_half_factors(overlaps))
    lower = (even + odd) / 2
    return np.concatenate([lower, lower[::-1]])


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
    lam1 = (1.0 + kappa_a) * (1.0 - kappa_b) / denom
    lam2 = (1.0 - kappa_a) * (1.0 + kappa_b) / denom
    return lam1, lam2


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
    ``lossy_shared_states`` builds it and checks that it is a density matrix.
    """

    alpha: float
    eta: float
    matrix: np.ndarray
    kappa_a: float
    loss_overlap: float
    printed_loss: float
    _psi2_coords: np.ndarray


def lossy_shared_states(alpha: float, etas) -> tuple[LossySharedState, ...]:
    """The shared two-party state after loss on the transmitted arm, one per
    channel transparency in ``etas``, all at the probe amplitude ``alpha``.

    Requires alpha > 0 and each eta in (0, 1]; at eta = 0 the pre-amplified
    arm alpha/sqrt(eta) diverges and the channel is degenerate. At an alpha
    so small that <alpha|-alpha> rounds to 1 the two kets coincide. The
    density matrices are formed as one (n, 4, 4) stack and checked together
    for unit trace, Hermiticity and positivity (IllConditionedEnsembleError).
    """
    if alpha <= 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    etas = tuple(float(eta) for eta in etas)
    if not etas:
        raise ParameterError("need at least one eta")
    for eta in etas:
        if not 0.0 < eta <= 1.0:
            raise ParameterError(f"eta={eta} must lie in (0, 1]; the channel degenerates at eta=0")
    a = float(alpha)
    kappa_a = math.exp(-2.0 * a * a)
    if 1.0 - kappa_a**2 == 0.0:
        raise ParameterError(f"alpha={alpha} is too small: the overlap <alpha|-alpha> rounds to 1")
    direct, cross, psi2 = _four_ket_embedding(a)

    loss = [math.exp(-2.0 * (1.0 - eta) * a * a / eta) for eta in etas]
    # trace over the loss mode leaves the two ket-kets intact and scales the
    # two cross ket-bras by the loss-mode overlap; each element takes the
    # same operations as it would for one eta alone
    loss_col = np.array(loss)[:, None, None]
    weight = 1.0 / (2.0 * (1.0 - loss_col * kappa_a**2))
    rho = weight * (direct - loss_col * cross)

    trace = np.trace(rho, axis1=1, axis2=2)
    if (np.abs(trace.real - 1.0) > 1e-10).any() or (np.abs(trace.imag) > 1e-10).any():
        raise IllConditionedEnsembleError("density matrix must have unit trace")
    if np.max(np.abs(rho - rho.conj().swapaxes(1, 2))) > 1e-10:
        raise IllConditionedEnsembleError("density matrix must be Hermitian")
    if np.linalg.eigvalsh(rho).min() < -1e-10:
        raise IllConditionedEnsembleError("density matrix must be positive semidefinite")
    return tuple(
        LossySharedState(
            alpha=a,
            eta=eta,
            matrix=matrix,
            kappa_a=kappa_a,
            loss_overlap=loss_overlap,
            printed_loss=math.exp(-4.0 * (1.0 - eta) * a * a),
            _psi2_coords=psi2,
        )
        for eta, matrix, loss_overlap in zip(etas, rho, loss)
    )


def lossy_shared_state(alpha: float, eta: float) -> LossySharedState:
    """The shared two-party state at one channel transparency; see
    ``lossy_shared_states``."""
    return lossy_shared_states(alpha, (eta,))[0]


def _four_ket_embedding(a: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The parts of the shared states at probe amplitude ``a`` that do
    not depend on eta, in the embedding of ``LossySharedState``: with
    u = |a, -a> and w = |-a, a>, the ket-ket terms uu^dagger + ww^dagger, the
    cross terms uw^dagger + wu^dagger, and the reference state
    psi2 = (u - w) / sqrt(2 (1 - kappa_a^2))."""
    kets = [
        MultiModeState((a, a)),
        MultiModeState((a, -a)),
        MultiModeState((-a, a)),
        MultiModeState((-a, -a)),
    ]
    v = orthonormal_embedding(StateEnsemble.uniform(kets))
    u_vec, w_vec = v[:, 1], v[:, 2]
    return (
        np.outer(u_vec, u_vec.conj()) + np.outer(w_vec, w_vec.conj()),
        np.outer(u_vec, w_vec.conj()) + np.outer(w_vec, u_vec.conj()),
        (u_vec - w_vec) / math.sqrt(2.0 * (1.0 - math.exp(-2.0 * a * a) ** 2)),
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
