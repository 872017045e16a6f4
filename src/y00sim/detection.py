"""Quantum detection bounds: binary Helstrom limits, the square-root
measurement for M-ary ensembles, and the equal-prior minimax game.

Mixed-state computations embed the participating kets via the Gram matrix
square root, which is exact on the span of the ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coherent_algebra import (
    MultiModeState,
    StateEnsemble,
    inner_product,
    orthonormal_embedding,
)
from .errors import ParameterError


@dataclass(eq=False)
class DiscriminationProblem:
    """An ensemble split into two hypothesis mixtures by an index partition."""

    ensemble: StateEnsemble
    hypothesis_0: tuple[int, ...]
    hypothesis_1: tuple[int, ...]

    def __post_init__(self):
        self.hypothesis_0 = tuple(self.hypothesis_0)
        self.hypothesis_1 = tuple(self.hypothesis_1)
        if not self.hypothesis_0 or not self.hypothesis_1:
            raise ParameterError("both hypotheses need at least one state")
        combined = sorted(self.hypothesis_0 + self.hypothesis_1)
        if combined != list(range(len(self.ensemble))):
            raise ParameterError("hypotheses must partition the ensemble indices exactly")

    @classmethod
    def two_mixtures(cls, ensemble, idx0, idx1) -> "DiscriminationProblem":
        return cls(ensemble, tuple(idx0), tuple(idx1))


@dataclass(frozen=True, eq=False)
class DetectionReport:
    """Error probability, with the per-state success probabilities and the
    outcome distribution when the measurement has them."""

    error_probability: float
    per_state_correct: Optional[tuple[float, ...]] = None
    confusion: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 0.0 <= self.error_probability <= 1.0:
            raise ParameterError("error probability must lie in [0, 1]")
        if self.per_state_correct is not None:
            if any(not 0.0 <= c <= 1.0 for c in self.per_state_correct):
                raise ParameterError("per-state success probabilities must lie in [0, 1]")


def helstrom_pure_pair(overlap_sq: float, p1: float = 0.5) -> float:
    """Minimum error for two pure states with squared overlap ``overlap_sq``
    and prior p1 on the first: (1 - sqrt(1 - 4 p1 (1-p1) overlap_sq)) / 2."""
    if not 0.0 <= overlap_sq <= 1.0:
        raise ParameterError(f"overlap_sq must lie in [0, 1], got {overlap_sq}")
    if not 0.0 <= p1 <= 1.0:
        raise ParameterError(f"p1 must lie in [0, 1], got {p1}")
    inner = 1.0 - 4.0 * p1 * (1.0 - p1) * overlap_sq
    return 0.5 * (1.0 - math.sqrt(max(inner, 0.0)))


def helstrom_mixed_pair(problem: DiscriminationProblem) -> DetectionReport:
    """Minimum error between two mixtures: (1 - ||p1 rho1 - p0 rho0||_1) / 2.

    The signed operator is assembled in the span of the union ensemble;
    exactly identical kets are merged first (their signed weights add),
    which keeps degenerate problems such as identical mixtures exact.
    """
    ens = problem.ensemble
    signs = np.zeros(len(ens))
    signs[list(problem.hypothesis_1)] = 1.0
    signs[list(problem.hypothesis_0)] = -1.0
    merged: dict[MultiModeState, float] = {}
    for state, prior, sign in zip(ens.states, ens.priors, signs):
        merged[state] = merged.get(state, 0.0) + sign * prior
    states = tuple(merged.keys())
    coeffs = np.array(list(merged.values()))
    if len(states) == 1 or np.all(coeffs == 0.0):
        error = 0.5 * (1.0 - min(abs(coeffs.sum()), 1.0))
    else:
        error = helstrom_error(orthonormal_embedding(StateEnsemble.uniform(states)), coeffs)
    return DetectionReport(error_probability=error)


def helstrom_error(coordinates: np.ndarray, weights: np.ndarray) -> float:
    """Minimum error (1 - ||Delta||_1) / 2 between two mixtures given as
    kets in orthonormal ``coordinates``, one column per ket, and signed
    ``weights``: each ket's prior, negated under hypothesis 0, so that
    Delta = p1 rho1 - p0 rho0 = sum_k w_k |v_k><v_k|."""
    delta = (coordinates * weights) @ coordinates.conj().T
    trace_norm = float(np.abs(np.linalg.eigvalsh(delta)).sum())
    return max(0.5 * (1.0 - min(trace_norm, 1.0)), 0.0)


def srm_error(ensemble: StateEnsemble) -> DetectionReport:
    """Square-root-measurement error and outcome distribution for an
    equal-prior ensemble.

    With S the Hermitian square root of the Gram matrix, outcome j follows
    state i with probability |S_ji|^2, so state i is identified with
    probability |S_ii|^2 and the average error is 1 - (1/N) sum_i |S_ii|^2.
    For two symmetric pure states this equals the Helstrom limit; for N
    identical states it degrades to guessing, (N-1)/N, which also caps it
    (tr S >= sqrt(N), so sum_i |S_ii|^2 >= 1). ``confusion`` holds P[i, j] =
    |S_ji|^2 with rows renormalized to sum to exactly 1, which absorbs the
    rounding lost with near-singular Gram matrices.
    """
    n = len(ensemble)
    if np.max(np.abs(ensemble.priors - 1.0 / n)) > 1e-12:
        raise ParameterError("the square-root measurement here is defined for uniform priors")
    s = orthonormal_embedding(ensemble)
    per_state, error = srm_diagonal(np.diag(s))
    confusion = np.abs(s.T)
    np.square(confusion, out=confusion)
    confusion /= confusion.sum(axis=1, keepdims=True)
    return DetectionReport(
        error_probability=error,
        per_state_correct=tuple(float(c) for c in per_state),
        confusion=confusion,
    )


def srm_diagonal(diagonal: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-state success probabilities |S_ii|^2 and the capped average
    error of the square-root measurement whose Gram root S has the given
    ``diagonal``; see srm_error, which adds the outcome distribution."""
    n = len(diagonal)
    # |S_ii|^2 overshoots 1 by rounding for nearly orthogonal ensembles
    per_state = np.clip(np.abs(diagonal) ** 2, 0.0, 1.0)
    error = 1.0 - float(per_state.mean())
    return per_state, min(max(error, 0.0), (n - 1) / n)


def minimax_pair(psi0: MultiModeState, psi1: MultiModeState) -> tuple[float, float]:
    """Worst-case-prior error for two pure states.

    The prior-dependent Helstrom value is maximized at the equalizing prior
    1/2, so the game value is the symmetric Helstrom error. Returns
    (worst_prior, value).
    """
    overlap_sq = abs(inner_product(psi0, psi1)) ** 2
    return 0.5, helstrom_pure_pair(min(overlap_sq, 1.0), 0.5)


def guess_baseline(n_states: int) -> float:
    """Error probability of guessing uniformly among n states: (n-1)/n."""
    if n_states < 1:
        raise ParameterError(f"need at least one state, got {n_states}")
    return (n_states - 1) / n_states
