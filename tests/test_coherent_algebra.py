import math

import numpy as np
import pytest
from scipy.special import ive

from y00sim.coherent_algebra import (
    MultiModeState,
    StateEnsemble,
    embedding_diagonal,
    entangled_fraction,
    gram_matrix,
    inner_product,
    lossy_shared_state,
    orthonormal_embedding,
    psd_matrix_sqrt,
    quasi_bell_reduced_eigenvalues,
    toeplitz_embedding,
    toeplitz_embedding_diagonal,
)
from y00sim.errors import DimensionError, IllConditionedEnsembleError, ParameterError
from y00sim.y00_cipher import ConstellationSpec

from conftest import (
    LADDER_CASES,
    fock_overlap,
    gram_reference,
    ladder,
    psd_sqrt_reference,
)


def single(alpha):
    return MultiModeState.single(alpha)


def grid_root_diagonal(two_m, alpha, h=0.2):
    """Diagonal of the Gram root of the intensity ladder (2M levels up to
    alpha), from a factor instead of an eigensolve: G = A^T A with A's
    columns the level wavefunctions pi^(-1/4) exp(-(x - sqrt2 alpha_i)^2/2)
    sqrt(h) on a step-h grid, where the trapezoid rule converges
    exponentially. With A = U Sigma V^T the root is V Sigma V^T, whose
    diagonal carries errors near eps, not eigh's sqrt(eps)."""
    levels = alpha * np.arange(1, two_m + 1) / two_m
    x = np.arange(-9.0, math.sqrt(2.0) * alpha + 9.0 + h, h)
    a = np.pi**-0.25 * math.sqrt(h) * np.exp(-((x[:, None] - math.sqrt(2.0) * levels) ** 2) / 2)
    _, sigma, vt = np.linalg.svd(a, full_matrices=False)
    return (vt.T**2) @ sigma


def jacobi_anger_root_diagonal(two_m, alpha):
    """Diagonal of the Gram root of the phase ladder (2M levels of amplitude
    alpha), from a factor as in grid_root_diagonal. By the Jacobi-Anger
    expansion g(d) = sum_n w_n cos(n pi d / 2M), with w_0 = e^-z I_0(z) and
    w_n = 2 e^-z I_n(z), z = alpha^2, so G = A^T A with A's rows
    sqrt(w_n) cos(n theta_k) and sqrt(w_n) sin(n theta_k), theta_k = pi k / 2M;
    12 alpha + 10 orders leave w below 1e-27."""
    n = np.arange(int(12 * alpha) + 11)
    w = ive(n, alpha**2)
    w[1:] *= 2
    angle = np.outer(n, np.pi * np.arange(two_m) / two_m)
    a = np.concatenate([np.cos(angle), np.sin(angle)]) * np.tile(np.sqrt(w), 2)[:, None]
    _, sigma, vt = np.linalg.svd(a, full_matrices=False)
    return (vt.T**2) @ sigma


ROOT_DIAGONAL_REFERENCES = {
    "intensity_ladder": grid_root_diagonal,
    "phase_ladder": jacobi_anger_root_diagonal,
}


# Two-mode ensembles on either side of gram_matrix's test for imaginary
# parts that are all +0.0; the mixed ones need its symmetrising step.
GRAM_CASES = [
    pytest.param(kind, two_m, 3.0, id=f"{kind}-2M{two_m}-a3")
    for kind in ("imag_minus_zero", "real_and_complex", "real_two_mode")
    for two_m in (30, 130)
]


def gram_case(kind, two_m, alpha):
    if kind in ("intensity_ladder", "phase_ladder"):
        return ladder(kind, two_m, alpha)
    x = np.random.default_rng(two_m).normal(scale=alpha, size=(two_m, 2))
    if kind == "imag_minus_zero":
        rows = [[complex(v, -0.0) for v in row] for row in x]
    elif kind == "real_and_complex":
        rows = [row + 1j * x[-1 - i] if i % 2 else row for i, row in enumerate(x)]
    else:
        rows = x
    return StateEnsemble.uniform([MultiModeState(tuple(row)) for row in rows])


class TestInnerProduct:
    def test_self_overlap_is_one(self):
        assert inner_product(single(1.3 + 0.2j), single(1.3 + 0.2j)) == pytest.approx(1.0, abs=1e-12)

    def test_antipodal_overlap(self):
        # <alpha|-alpha> = exp(-2 alpha^2); squared it matches the full-loss
        # decoherence factor exp(-4 alpha^2)
        alpha = 0.8
        value = inner_product(single(alpha), single(-alpha))
        assert value.real == pytest.approx(math.exp(-2 * alpha**2), rel=1e-12)
        assert abs(value) ** 2 == pytest.approx(math.exp(-4 * alpha**2), rel=1e-12)

    def test_displaced_pair_squared_overlap(self):
        a1, a2 = 0.7, 1.9
        value = abs(inner_product(single(a1), single(a2))) ** 2
        assert value == pytest.approx(math.exp(-abs(a2 - a1) ** 2), rel=1e-12)

    def test_against_truncated_number_basis(self, rng):
        for _ in range(20):
            a = MultiModeState(tuple(rng.normal(size=2) @ np.array([1, 1j]) for _ in range(2)))
            b = MultiModeState(tuple(rng.normal(size=2) @ np.array([1, 1j]) for _ in range(2)))
            assert inner_product(a, b) == pytest.approx(fock_overlap(a, b), abs=1e-12)

    def test_magnitude_bounded(self, rng):
        for _ in range(50):
            a = single(complex(*rng.normal(scale=3, size=2)))
            b = single(complex(*rng.normal(scale=3, size=2)))
            assert abs(inner_product(a, b)) <= 1 + 1e-12

    def test_mode_count_mismatch(self):
        with pytest.raises(DimensionError):
            inner_product(single(1.0), MultiModeState((1.0, 0.5)))


class TestGramMatrix:
    def test_far_separated_states_give_identity(self):
        # overlaps underflow to exactly zero at 100-amplitude separation
        ens = StateEnsemble.uniform([single(0.0), single(100.0), single(-100.0)])
        assert np.array_equal(gram_matrix(ens), np.eye(3))

    def test_duplicate_state_is_rank_deficient(self):
        ens = StateEnsemble.uniform([single(0.5), single(0.5)])
        eigs = np.linalg.eigvalsh(gram_matrix(ens))
        assert abs(eigs[0]) < 1e-12

    def test_ladder_is_psd(self):
        levels = [single(2.0 * i / 12) for i in range(1, 13)]
        eigs = np.linalg.eigvalsh(gram_matrix(StateEnsemble.uniform(levels)))
        assert eigs.min() > -1e-10

    def test_matrix_and_operator_share_nonzero_spectrum(self):
        ens = StateEnsemble.uniform([single(0.2), single(0.9), single(-0.4)])
        g = gram_matrix(ens)
        v = orthonormal_embedding(ens)
        operator = v @ v.conj().T  # sum_i |psi_i><psi_i| in the embedding
        w_matrix = np.sort(np.linalg.eigvalsh(g))
        w_operator = np.sort(np.linalg.eigvalsh(operator))
        assert np.allclose(w_matrix, w_operator, atol=1e-10)

    @pytest.mark.parametrize("kind, two_m, alpha", LADDER_CASES + GRAM_CASES)
    def test_bit_identical_to_reference(self, kind, two_m, alpha):
        ens = gram_case(kind, two_m, alpha)
        assert gram_matrix(ens).tobytes() == gram_reference(ens).tobytes()

    def test_leaves_ensemble_unchanged(self, rng):
        modes = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        states = [MultiModeState(tuple(row)) for row in modes]
        ens = StateEnsemble.uniform(states)
        amps, priors = ens.amplitude_matrix(), ens.priors.copy()
        gram_matrix(ens)
        assert ens.states == tuple(states)
        assert np.array_equal(ens.amplitude_matrix(), amps)
        assert np.array_equal(ens.priors, priors)


class TestPsdMatrixSqrt:
    ROTATION = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)

    def test_rejects_eigenvalue_below_tolerance(self):
        h = self.ROTATION @ np.diag([1.0, -2e-8]) @ self.ROTATION.T
        with pytest.raises(IllConditionedEnsembleError):
            psd_matrix_sqrt(h)

    def test_rounding_level_negative_eigenvalue_is_zeroed(self):
        h = self.ROTATION @ np.diag([4.0, -5e-9]) @ self.ROTATION.T
        s = psd_matrix_sqrt(h)
        assert np.allclose(s, self.ROTATION @ np.diag([2.0, 0.0]) @ self.ROTATION.T, atol=1e-12)

    @pytest.mark.parametrize("kind, two_m, alpha", LADDER_CASES)
    def test_bit_identical_to_reference(self, kind, two_m, alpha):
        g = gram_matrix(ladder(kind, two_m, alpha))
        assert np.array_equal(psd_matrix_sqrt(g), psd_sqrt_reference(g))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_leaves_input_unchanged(self, dtype, rng):
        a = rng.normal(size=(6, 6))
        if dtype is complex:
            a = a + 1j * rng.normal(size=(6, 6))
        h = a @ a.conj().T
        before = h.copy()
        s = psd_matrix_sqrt(h)
        assert h.dtype == before.dtype and np.array_equal(h, before)
        assert np.allclose(s @ s, h, atol=1e-10)


class TestOrthonormalEmbedding:
    def test_orthogonal_pair_embeds_as_standard_basis(self):
        ens = StateEnsemble.uniform([single(0.0), single(60.0)])
        assert np.allclose(orthonormal_embedding(ens), np.eye(2), atol=1e-12)

    def test_identical_pair_embeds_as_equal_columns(self):
        ens = StateEnsemble.uniform([single(1.1), single(1.1)])
        v = orthonormal_embedding(ens)
        assert np.allclose(v[:, 0], v[:, 1], atol=1e-12)

    def test_reconstructs_overlaps(self, rng):
        states = [single(complex(*rng.normal(size=2))) for _ in range(6)]
        ens = StateEnsemble.uniform(states)
        v = orthonormal_embedding(ens)
        g = gram_matrix(ens)
        assert np.max(np.abs(v.conj().T @ v - g)) < 1e-10


class TestEmbeddingDiagonal:
    """embedding_diagonal reads the root's diagonal off the eigenvectors; it
    sums in another order than the product, so it agrees to rounding."""

    @staticmethod
    def off_root_diagonal(ens) -> float:
        root = psd_matrix_sqrt(gram_matrix(ens))
        return float(np.max(np.abs(embedding_diagonal(ens) - np.diag(root))))

    @pytest.mark.parametrize("kind", ["intensity_ladder", "phase_ladder"])
    @pytest.mark.parametrize("alpha", [1e-6, 0.5, 3.0, 30.0, 100.0])
    def test_matches_the_roots_diagonal_on_ladders(self, kind, alpha):
        for m in range(1, 65):
            assert self.off_root_diagonal(ladder(kind, 2 * m, alpha)) <= 1e-14, m

    @pytest.mark.parametrize("kind, two_m, alpha", GRAM_CASES + LADDER_CASES)
    def test_matches_the_roots_diagonal_on_gram_cases(self, kind, two_m, alpha):
        assert self.off_root_diagonal(gram_case(kind, two_m, alpha)) <= 1e-14

    def test_matches_the_roots_diagonal_on_random_ensembles(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 48))
            scale = float(rng.choice([0.1, 1.0, 5.0]))
            states = [single(complex(*rng.normal(scale=scale, size=2))) for _ in range(n)]
            states += states[: int(rng.integers(0, 3))]  # repeated kets: a singular Gram
            assert self.off_root_diagonal(StateEnsemble.uniform(states)) <= 1e-14

    def test_rejects_what_the_root_rejects(self, monkeypatch):
        # one eigen-factor step, so one negative-eigenvalue check
        ens = StateEnsemble.uniform([single(0.0), single(1.0)])
        rotation = TestPsdMatrixSqrt.ROTATION
        monkeypatch.setattr("y00sim.coherent_algebra.gram_matrix",
                            lambda _: rotation @ np.diag([1.0, -2e-8]) @ rotation.T)
        with pytest.raises(IllConditionedEnsembleError):
            embedding_diagonal(ens)


class TestToeplitzEmbedding:
    """The root of a ladder's Gram from the even and odd halves of its
    overlap sequence, as the commands take it above 128 levels."""

    @staticmethod
    def toeplitz(g) -> np.ndarray:
        i = np.arange(len(g))
        return g[abs(i[:, None] - i)]

    @pytest.mark.parametrize("kind, two_m, alpha", LADDER_CASES)
    def test_squares_to_the_toeplitz_gram(self, kind, two_m, alpha):
        g = getattr(ConstellationSpec, kind)(two_m // 2, alpha).overlaps()
        s = toeplitz_embedding(g)
        assert s.dtype == float and np.max(np.abs(s - s.T)) <= 1e-14
        assert np.max(np.abs(s @ s - self.toeplitz(g))) <= 1e-13 + 1e-15 * two_m
        assert np.max(np.abs(toeplitz_embedding_diagonal(g) - np.diag(s))) <= 1e-14

    @pytest.mark.parametrize("kind", ["intensity_ladder", "phase_ladder"])
    @pytest.mark.parametrize("two_m", [256, 640])
    @pytest.mark.parametrize("alpha", [0.5, 3.0, 30.0, 100.0, 300.0])
    def test_as_accurate_as_the_full_root(self, kind, two_m, alpha):
        # both roots sit at eigh's sqrt(eps) floor on near-singular Grams;
        # the split must not lose digits against the 2M x 2M root
        spec = getattr(ConstellationSpec, kind)(two_m // 2, alpha)
        truth = ROOT_DIAGONAL_REFERENCES[kind](two_m, alpha) ** 2

        def state_error(diagonal):
            return np.max(np.abs(np.abs(diagonal) ** 2 - truth))

        full = np.diag(psd_matrix_sqrt(gram_matrix(spec.ensemble())))
        split = toeplitz_embedding_diagonal(spec.overlaps())
        assert state_error(split) <= 1.5 * state_error(full) + 1e-12

    @pytest.mark.parametrize("g", [[1.0, 1.0 + 1e-6], [1.0, -1.0 - 1e-6]], ids=["odd", "even"])
    @pytest.mark.parametrize("embed", [toeplitz_embedding, toeplitz_embedding_diagonal])
    def test_rejects_a_half_below_tolerance(self, g, embed):
        # G_o = g(0) - g(1) and G_e = g(0) + g(1) each reach -1e-6 in turn
        with pytest.raises(IllConditionedEnsembleError):
            embed(np.array(g))


class TestQuasiBell:
    def test_equal_overlaps_maximize_entanglement(self):
        assert quasi_bell_reduced_eigenvalues(0.3, 0.3) == pytest.approx((0.5, 0.5))
        assert quasi_bell_reduced_eigenvalues(0.0, 0.0) == pytest.approx((0.5, 0.5))

    def test_asymmetric_overlaps(self):
        lam1, lam2 = quasi_bell_reduced_eigenvalues(0.9, 0.0)
        assert (lam1, lam2) == pytest.approx((0.95, 0.05), rel=1e-12)

    def test_against_partial_trace(self, rng):
        # independent oracle: build the pair in a 4-dim product embedding and
        # trace out mode B numerically
        for _ in range(10):
            kappa_a, kappa_b = rng.uniform(0.05, 0.95, size=2)
            ga = psd_matrix_sqrt(np.array([[1.0, kappa_a], [kappa_a, 1.0]]))
            gb = psd_matrix_sqrt(np.array([[1.0, kappa_b], [kappa_b, 1.0]]))
            h = 1.0 / math.sqrt(2.0 * (1.0 - kappa_a * kappa_b))
            psi = h * (np.kron(ga[:, 0], gb[:, 1]) - np.kron(ga[:, 1], gb[:, 0]))
            rho_a = np.trace(np.outer(psi, psi).reshape(2, 2, 2, 2), axis1=1, axis2=3)
            oracle = np.sort(np.linalg.eigvalsh(rho_a))[::-1]
            lam = quasi_bell_reduced_eigenvalues(kappa_a, kappa_b)
            assert np.allclose(sorted(lam, reverse=True), oracle, atol=1e-10)

    def test_eigenvalue_sum_and_entropy_peak_on_grid(self):
        kappas = np.linspace(0.0, 0.95, 10)
        for ka in kappas:
            for kb in kappas:
                lam1, lam2 = quasi_bell_reduced_eigenvalues(ka, kb)
                assert lam1 + lam2 == pytest.approx(1.0, abs=1e-12)
                both_half = abs(lam1 - 0.5) < 1e-12 and abs(lam2 - 0.5) < 1e-12
                assert both_half == (abs(ka - kb) < 1e-12)

    def test_singular_product_rejected(self):
        with pytest.raises(ParameterError):
            quasi_bell_reduced_eigenvalues(1.0, 1.0)


class TestLossySharedState:
    def test_transparent_channel_is_pure_reference(self):
        for alpha in (0.5, 1.0, 2.0):
            state = lossy_shared_state(alpha, 1.0)
            assert entangled_fraction(state).fraction == pytest.approx(1.0, abs=1e-10)

    def test_density_matrix_properties(self, rng):
        for _ in range(20):
            state = lossy_shared_state(rng.uniform(0.2, 2.5), rng.uniform(0.01, 1.0))
            assert np.trace(state.matrix).real == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.eigvalsh(state.matrix).min() > -1e-10

    def test_degenerate_channel_rejected(self):
        with pytest.raises(ParameterError):
            lossy_shared_state(1.0, 0.0)

    def test_against_tripartite_trace_oracle(self):
        # expand all three modes in nonorthogonal 2-dim bases, apply the
        # trick-state + beam-splitter construction term by term, and trace
        # out the loss mode numerically
        alpha, eta = 1.0, 0.5
        gamma = math.sqrt((1.0 - eta) / eta) * alpha
        kappa = math.exp(-2.0 * alpha * alpha)
        kappa_l = math.exp(-2.0 * gamma * gamma)
        va = psd_matrix_sqrt(np.array([[1.0, kappa], [kappa, 1.0]]))
        vl = psd_matrix_sqrt(np.array([[1.0, kappa_l], [kappa_l, 1.0]]))
        kappa_b_trick = math.exp(-2.0 * alpha * alpha / eta)
        h = 1.0 / math.sqrt(2.0 * (1.0 - kappa * kappa_b_trick))
        # basis order per mode: (+, -); loss-mode kets are |-gamma>, |+gamma>
        branch1 = np.kron(np.kron(va[:, 0], va[:, 1]), vl[:, 1])
        branch2 = np.kron(np.kron(va[:, 1], va[:, 0]), vl[:, 0])
        psi = h * (branch1 - branch2)
        rho_abl = np.outer(psi, psi).reshape(2, 2, 2, 2, 2, 2)
        rho_ab = np.trace(rho_abl, axis1=2, axis2=5).reshape(4, 4)

        state = lossy_shared_state(alpha, eta)
        # same product basis: the builder orders (a,a),(a,-a),(-a,a),(-a,-a)
        ens = StateEnsemble.uniform(
            [
                MultiModeState((alpha, alpha)),
                MultiModeState((alpha, -alpha)),
                MultiModeState((-alpha, alpha)),
                MultiModeState((-alpha, -alpha)),
            ]
        )
        v4 = orthonormal_embedding(ens)
        # express the oracle matrix in the same coordinates: both live in the
        # kron(2,2) product embedding, map product-basis index -> kron index
        kron_coords = np.empty((4, 4))
        order = [(0, 0), (0, 1), (1, 0), (1, 1)]
        for idx, (ia, ib) in enumerate(order):
            kron_coords[:, idx] = np.kron(va[:, ia], va[:, ib])
        # change of basis: columns of kron_coords vs columns of v4 describe
        # the same kets, so compare matrix elements between all ket pairs
        lhs = kron_coords.T @ rho_ab @ kron_coords
        rhs = v4.conj().T @ state.matrix @ v4
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestEntangledFraction:
    def test_weak_channel_lower_bound(self):
        for alpha in (0.5, 1.0, 2.0):
            state = lossy_shared_state(alpha, 1e-6)
            bound = state.kappa_a**2 * (1.0 - state.kappa_a**2)
            assert entangled_fraction(state).fraction >= bound

    def test_monotone_in_transparency(self):
        etas = np.linspace(1e-4, 1.0, 20)
        fractions = [entangled_fraction(lossy_shared_state(1.0, eta)).fraction for eta in etas]
        assert all(b >= a - 1e-12 for a, b in zip(fractions, fractions[1:]))

    def test_fraction_always_physical(self, rng):
        for _ in range(30):
            state = lossy_shared_state(rng.uniform(0.2, 2.5), rng.uniform(0.001, 1.0))
            fraction = entangled_fraction(state).fraction
            assert -1e-12 <= fraction <= 1.0 + 1e-12

    def test_closed_form_disagrees_away_from_transparent(self):
        # the quoted closed form overshoots (it can exceed 1); keep the
        # discrepancy visible rather than asserting it away
        report = entangled_fraction(lossy_shared_state(1.0, 0.5))
        assert abs(report.closed_form - report.fraction) > 1e-9
        assert report.closed_form == pytest.approx(1.8194753964, rel=1e-9)


class TestPhaseConstellation:
    def test_pair_overlap_matches_inner_product(self):
        ens = ConstellationSpec.phase_ladder(1, 1.0).ensemble()
        direct = inner_product(ens.states[0], ens.states[1])
        # phi separation pi: exp(-|alpha|^2 (1 - cos(pi/2)))
        assert abs(direct) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_energy_preserved(self):
        ens = ConstellationSpec.phase_ladder(4, 1.7).ensemble()
        for state in ens.states:
            assert sum(abs(m) ** 2 for m in state.modes) == pytest.approx(1.7**2, rel=1e-12)

    def test_zero_phase_state_unmodulated(self):
        ens = ConstellationSpec.phase_ladder(3, 2.0).ensemble()
        reference = MultiModeState((2.0 / math.sqrt(2), 2.0 / math.sqrt(2)))
        assert abs(inner_product(ens.states[0], reference)) == pytest.approx(1.0, abs=1e-12)


ONE, TWO = MultiModeState.single(1.0), MultiModeState((1.0, 2.0))


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: MultiModeState((math.nan,)), ParameterError, "mode amplitude must be finite"),
        (lambda: MultiModeState(()), ParameterError, "at least one mode"),
        (lambda: StateEnsemble((), []), ParameterError, "at least one state"),
        (lambda: StateEnsemble((ONE, TWO), [0.5, 0.5]), DimensionError, "same mode count"),
        (lambda: StateEnsemble((ONE, ONE), [1.0]), ParameterError, "one prior per state"),
        (lambda: StateEnsemble((ONE, ONE), [-0.5, 1.5]), ParameterError, "nonnegative"),
        (lambda: StateEnsemble((ONE, ONE), [0.5, 0.6]), ParameterError, "sum to 1"),
        (lambda: lossy_shared_state(0.0, 1.0), ParameterError, "alpha must be positive"),
    ],
)
def test_argument_checks(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
