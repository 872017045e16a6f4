import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from y00sim.detection import helstrom_pure_pair
from y00sim.errors import ParameterError
from y00sim.fiber_link import (
    ELECTRON_CHARGE,
    LinkParams,
    ber_on_off,
    bob_practical_vs_optimal,
    decision_point,
    gaussian_ber,
    level_photon_rate,
    mean_photocurrent,
    noise_budget,
)
from y00sim.scenario import default_config
from y00sim.y00_cipher import ConstellationSpec


def reference_budget(g_p, kappa_r, n_rep, n_sp, bandwidth, delta_f, thermal, rate):
    """Independently written evaluator for the variance terms (kept
    deliberately different in structure from the implementation)."""
    e = 1.602176634e-19
    gain = 1.0 / kappa_r
    x = kappa_r * g_p * n_rep * (gain - 1.0) + (g_p - 1.0)
    sig = 2.0 * (e**2) * g_p * kappa_r * rate * bandwidth
    sp = 2.0 * (e**2) * x * n_sp * bandwidth * delta_f
    sig_sp = 4.0 * (e**2) * g_p * x * kappa_r * rate * n_sp * bandwidth
    sp_sp = 2.0 * (e**2) * (x**2) * (n_sp**2) * bandwidth * delta_f
    return {
        "sig": sig,
        "sp": sp,
        "sig_sp": sig_sp,
        "sp_sp": sp_sp,
        "total": thermal + sig + 2.0 * sp + sig_sp + 2.0 * sp_sp,
    }


def random_params(rng):
    return dict(
        g_p=rng.uniform(1.0, 300.0),
        kappa_r=rng.uniform(0.05, 1.0),
        n_rep=int(rng.integers(0, 40)),
        n_sp=rng.uniform(1.0, 4.0),
        bandwidth=10 ** rng.uniform(6, 10),
        delta_f=10 ** rng.uniform(9, 12),
        thermal=10 ** rng.uniform(-18, -10),
        rate=10 ** rng.uniform(6, 14),
    )


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["g_p", "kappa_r", "n_repeaters", "n_mean", "n_sp",
                                   "bandwidth", "delta_f", "thermal_var"])
def test_link_params_reject_a_non_finite_field(field, value):
    with pytest.raises(ParameterError, match=f"^{field} must be finite"):
        LinkParams(**{field: value})


class TestNoiseBudget:
    def test_no_amplifiers_leaves_thermal_plus_shot(self):
        params = LinkParams(g_p=1.0, kappa_r=0.4, n_repeaters=0, thermal_var=1e-14)
        budget = noise_budget(params, 1e12)
        assert budget.sp == 0.0
        assert budget.sig_sp == 0.0
        assert budget.sp_sp == 0.0
        assert budget.total_on == pytest.approx(budget.th + budget.sig, rel=1e-15)

    def test_shot_noise_linear_in_photon_rate(self):
        params = LinkParams(g_p=10.0, kappa_r=0.5, n_repeaters=3)
        one = noise_budget(params, 1e11).sig
        two = noise_budget(params, 2e11).sig
        assert two == pytest.approx(2.0 * one, rel=1e-15)

    def test_spot_case_against_reference(self):
        params = LinkParams(
            g_p=100.0, kappa_r=0.5, n_repeaters=10, n_sp=1.5,
            bandwidth=1e9, delta_f=1e11, thermal_var=0.0,
        )
        budget = noise_budget(params, 1e12)
        ref = reference_budget(100.0, 0.5, 10, 1.5, 1e9, 1e11, 0.0, 1e12)
        assert budget.sig == pytest.approx(ref["sig"], rel=1e-12)
        assert budget.sp == pytest.approx(ref["sp"], rel=1e-12)
        assert budget.sig_sp == pytest.approx(ref["sig_sp"], rel=1e-12)
        assert budget.sp_sp == pytest.approx(ref["sp_sp"], rel=1e-12)
        assert budget.total_on == pytest.approx(ref["total"], rel=1e-12)

    def test_all_terms_nonnegative_at_random_parameters(self, rng):
        for _ in range(1000):
            draw = random_params(rng)
            params = LinkParams(
                g_p=draw["g_p"], kappa_r=draw["kappa_r"], n_repeaters=draw["n_rep"],
                n_sp=draw["n_sp"], bandwidth=draw["bandwidth"], delta_f=draw["delta_f"],
                thermal_var=draw["thermal"],
            )
            budget = noise_budget(params, draw["rate"])
            assert min(budget.th, budget.sig, budget.sp, budget.sig_sp, budget.sp_sp) >= 0.0

    def test_total_combines_terms_with_doubled_beats(self, rng):
        draw = random_params(rng)
        params = LinkParams(
            g_p=draw["g_p"], kappa_r=draw["kappa_r"], n_repeaters=draw["n_rep"],
            n_sp=draw["n_sp"], bandwidth=draw["bandwidth"], delta_f=draw["delta_f"],
            thermal_var=draw["thermal"],
        )
        b = noise_budget(params, draw["rate"])
        assert b.total_on == pytest.approx(
            b.th + b.sig + 2 * b.sp + b.sig_sp + 2 * b.sp_sp, rel=1e-15
        )

    def test_negative_rate_rejected(self):
        with pytest.raises(ParameterError):
            noise_budget(LinkParams(), -1.0)
        with pytest.raises(ParameterError):
            noise_budget(LinkParams(), np.array([1.0, -1.0]))

    def test_array_of_rates_matches_scalar_calls_exactly(self, rng):
        params = LinkParams(g_p=100.0, kappa_r=0.5, n_repeaters=10, n_sp=1.5, thermal_var=1e-13)
        rates = 10 ** rng.uniform(6, 14, size=32)
        budget = noise_budget(params, rates)
        for name in ("sig", "sig_sp", "total_on"):
            expected = [getattr(noise_budget(params, float(r)), name) for r in rates]
            assert np.array_equal(getattr(budget, name), expected)
        assert np.array_equal(
            mean_photocurrent(params, rates), [mean_photocurrent(params, float(r)) for r in rates]
        )

    def test_repeater_gain_inverts_transparency(self):
        params = LinkParams(kappa_r=0.25)
        assert params.repeater_gain * params.kappa_r == pytest.approx(1.0, rel=1e-15)


class TestBerOnOff:
    def test_vanishing_noise_gives_zero_error(self):
        # with g_p = 1, no repeaters, and no thermal noise only shot noise
        # remains; at a wide-open eye the Gaussian tail underflows to 0.0
        zero_noise = LinkParams(g_p=1.0, kappa_r=1.0, n_repeaters=0, thermal_var=0.0)
        assert ber_on_off(zero_noise, 1e14, 0.0) == 0.0

    def test_vanishing_eye_approaches_half(self):
        params = LinkParams(g_p=10.0, kappa_r=0.5, n_repeaters=5, thermal_var=1e-13)
        assert ber_on_off(params, 1.0000001e10, 1e10) == pytest.approx(0.5, abs=1e-4)

    def test_monotone_in_eye_opening(self):
        params = LinkParams(g_p=50.0, kappa_r=0.5, n_repeaters=10, thermal_var=1e-14)
        rate_off = 1e10
        previous = 0.6
        for spacing in np.linspace(1e10, 5e11, 50):
            error = ber_on_off(params, rate_off + spacing, rate_off)
            assert error <= previous + 1e-15
            previous = error

    def test_matches_gaussian_tail_formula(self):
        params = LinkParams(g_p=20.0, kappa_r=0.5, n_repeaters=4, thermal_var=1e-15)
        rate_on, rate_off = 3e11, 5e10
        _, i_on, i_off, s_on, s_off = decision_point(params, rate_on, rate_off)
        q = (i_on - i_off) / (s_on + s_off)
        assert ber_on_off(params, rate_on, rate_off) == pytest.approx(
            0.5 * math.erfc(q / math.sqrt(2)), rel=1e-12
        )

    def test_decision_point_equalizes_errors(self):
        params = LinkParams(g_p=20.0, kappa_r=0.5, n_repeaters=4, thermal_var=1e-15)
        thr, i_on, i_off, s_on, s_off = decision_point(params, 3e11, 5e10)
        assert (i_on - thr) / s_on == pytest.approx((thr - i_off) / s_off, rel=1e-10)

    def test_rejects_closed_eye(self):
        with pytest.raises(ParameterError):
            ber_on_off(LinkParams(), 1e10, 1e10)

    def test_mean_current_scaling(self):
        params = LinkParams(g_p=7.0, kappa_r=0.25)
        assert mean_photocurrent(params, 1e12) == pytest.approx(
            ELECTRON_CHARGE * 7.0 * 0.25 * 1e12, rel=1e-15
        )


class TestPracticalVsOptimal:
    def test_quantum_optimum_always_dominates(self, rng):
        for _ in range(25):
            m = int(rng.integers(1, 9))
            alpha_max = rng.uniform(0.5, 20.0)
            spec = ConstellationSpec.intensity_ladder(m, alpha_max)
            params = LinkParams(
                g_p=rng.uniform(1.0, 100.0),
                kappa_r=rng.uniform(0.1, 1.0),
                n_repeaters=int(rng.integers(0, 20)),
                n_mean=alpha_max**2 * 1e9,
                thermal_var=10 ** rng.uniform(-18, -13),
            )
            practical, optimal = bob_practical_vs_optimal(params, spec)
            assert practical >= optimal - 1e-12

    def test_shot_limited_link_still_dominated(self):
        spec = ConstellationSpec.intensity_ladder(2, 3.0)
        params = LinkParams(
            g_p=1.0, kappa_r=1.0, n_repeaters=0, n_mean=9.0 * 1e9, thermal_var=0.0
        )
        practical, optimal = bob_practical_vs_optimal(params, spec)
        assert practical >= optimal
        assert practical < 0.5

    def test_noisy_chain_is_far_from_optimal(self):
        spec = ConstellationSpec.intensity_ladder(4, 8.0)
        params = LinkParams(
            g_p=100.0, kappa_r=0.5, n_repeaters=20, n_mean=64.0 * 1e9, thermal_var=1e-13
        )
        practical, optimal = bob_practical_vs_optimal(params, spec)
        assert practical > 10.0 * max(optimal, 1e-300)

    def test_deterministic(self):
        spec = ConstellationSpec.intensity_ladder(4, 8.0)
        params = LinkParams(g_p=10.0, kappa_r=0.5, n_repeaters=5, n_mean=64e9)
        assert bob_practical_vs_optimal(params, spec) == bob_practical_vs_optimal(params, spec)

    def test_level_rates_follow_squared_amplitudes(self):
        spec = ConstellationSpec.intensity_ladder(2, 4.0)
        params = LinkParams(n_mean=16.0 * 1e9)
        rates = [level_photon_rate(params, spec, i) for i in range(4)]
        assert rates == pytest.approx([1e9, 4e9, 9e9, 16e9], rel=1e-12)

    def test_helstrom_side_uses_basis_pair_overlap(self):
        spec = ConstellationSpec.intensity_ladder(4, 6.0)
        params = LinkParams(g_p=10.0, kappa_r=0.5, n_repeaters=5, n_mean=36e9)
        _, optimal = bob_practical_vs_optimal(params, spec)
        separation = 6.0 / 2.0  # alpha_(M+1) - alpha_(1) = alpha_max / 2
        assert optimal == pytest.approx(
            helstrom_pure_pair(math.exp(-(separation**2)), 0.5), rel=1e-12
        )

    @pytest.mark.parametrize("alpha_max", [0.05, 1.0, 100.0, 1e4])
    @pytest.mark.parametrize("n_mean", [1e13, 16e9])
    def test_optimum_is_for_the_states_the_link_sends(self, alpha_max, n_mean):
        # n_mean and alpha_max are set independently, and the link sends
        # amplitudes sqrt(rate / B) whatever the ladder's: the first basis
        # pair is 1/32 and 17/32 of sqrt(n_mean / B), at every alpha_max
        config = replace(default_config(), alpha_max=alpha_max, n_mean=n_mean)
        practical, optimal = bob_practical_vs_optimal(config.link_params(),
                                                      config.constellation())
        assert practical >= optimal
        gap = math.sqrt(n_mean / config.bandwidth) / 2
        assert optimal == pytest.approx(helstrom_pure_pair(math.exp(-gap**2), 0.5), rel=1e-12)


# links that build but whose budget double precision cannot hold: a
# subnormal kappa_r makes the gain 1/kappa_r infinite and, with no
# repeaters, the bracket 0 * inf; the other two overflow a float **
UNEVALUABLE_LINKS = [
    LinkParams(kappa_r=5e-324, n_repeaters=0),
    LinkParams(kappa_r=1e-300, g_p=1e300, n_repeaters=10**6),
    LinkParams(n_sp=1e200),
]
LINK_CALLS = {
    "noise_budget": lambda params, on, off: noise_budget(params, on),
    "decision_point": decision_point,
    "ber_on_off": ber_on_off,
    "bob_practical_vs_optimal": lambda params, on, off: bob_practical_vs_optimal(
        params, ConstellationSpec.intensity_ladder(4, 8.0)
    ),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call", list(LINK_CALLS))
@pytest.mark.parametrize("params", UNEVALUABLE_LINKS, ids=["subnormal_kappa_r", "huge_bracket",
                                                           "huge_n_sp"])
def test_a_budget_out_of_double_precision_raises(params, call):
    with pytest.raises(ParameterError) as info:
        LINK_CALLS[call](params, 4e9, 1e9)
    # the cause alone, not an OverflowError's (errno, message)
    assert not str(info.value).startswith("(")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call", ["noise_budget", "decision_point", "ber_on_off"])
@pytest.mark.parametrize("rate", [math.nan, math.inf])
def test_a_rate_that_is_not_finite_raises(call, rate):
    with pytest.raises(ParameterError, match="finite"):
        LINK_CALLS[call](LinkParams(), rate, 1e9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("args, fragment", [
    ((math.nan, 0.0, 1.0, 1.0), "finite"),
    ((1.0, 0.0, math.inf, 1.0), "finite"),
    ((1.0, -math.inf, 1.0, 1.0), "finite"),
    ((np.array([1.0, math.nan]), 0.0, 1.0, 1.0), "finite"),
    ((1.0, 0.0, -1.0, 1.0), "sigmas must be >= 0"),
    ((1.0, 0.0, 1.0, np.array([1.0, -1e-300])), "sigmas must be >= 0"),
    ((1e308, -1e308, 1e308, 1e308), "inf / inf"),
], ids=["nan_current", "inf_sigma", "inf_current", "nan_in_array", "negative_sigma",
        "negative_in_array", "gap_and_sigma_sum_overflow"])
def test_gaussian_ber_rejects_what_it_cannot_evaluate(args, fragment):
    with pytest.raises(ParameterError, match=fragment):
        gaussian_ber(*args)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("args, ber", [
    ((1e308, -1e308, 1.0, 1.0), 0.0),
    ((1.0, 0.0, 5e-324, 0.0), 0.0),
    ((-1e308, 1e308, 1.0, 1.0), 1.0),
    ((1.0, 0.0, np.array([1.0, 5e-324]), 0.0), np.array([gaussian_ber(1.0, 0.0, 1.0, 0.0), 0.0])),
], ids=["gap_overflows", "quotient_overflows", "negative_q_overflows", "overflow_in_array"])
def test_gaussian_ber_takes_the_limit_where_q_overflows(args, ber):
    # Q = +-inf, and Phi(-Q) is its limit 0 or 1
    assert np.array_equal(gaussian_ber(*args), ber)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("params, rate, fragment", [
    (LinkParams(), math.nan, "finite"),
    (LinkParams(), -math.inf, "finite"),
    (LinkParams(), np.array([1e9, math.inf]), "finite"),
    (LinkParams(g_p=1e300), 1e300, "overflows"),
    (LinkParams(g_p=1e300), np.array([1.0, 1e300]), "overflows"),
], ids=["nan_rate", "inf_rate", "inf_in_array", "current_overflows", "overflow_in_array"])
def test_mean_photocurrent_rejects_what_it_cannot_evaluate(params, rate, fragment):
    with pytest.raises(ParameterError, match=fragment):
        mean_photocurrent(params, rate)


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: LinkParams(n_repeaters=-1), ParameterError, "repeater count must be >= 0"),
        (lambda: decision_point(LinkParams(), 1.0, -1.0), ParameterError, "nonnegative"),
        # noise-free (shot noise underflows to 0) with both currents rounding to 0
        (lambda: decision_point(LinkParams(), 1.5e-305, 1e-305), ParameterError,
         "does not split its currents"),
    ],
)
def test_argument_checks(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


def two_sided_ber(i_on, i_off, sigma_on, sigma_off):
    """gaussian_ber as it read before one-sided links were split off: the
    reference for every link whose off level is noisy, or whose levels are
    both noise-free."""
    with np.errstate(over="ignore", invalid="ignore"):
        denom = sigma_on + sigma_off
        noisy = denom != 0.0
        q = (i_on - i_off) / np.where(noisy, denom, 1.0)
    return np.where(noisy, 0.5 * np.vectorize(math.erfc)(q / math.sqrt(2.0)), 0.0)[()]


def powers(low, high):
    return st.floats(low, high).map(lambda e: 10.0 ** e)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    g_p=powers(0, 4), kappa_r=powers(-3, 0), n_repeaters=st.integers(0, 50),
    n_sp=powers(0, 2), bandwidth=powers(-3, 12), delta_f=powers(-3, 12),
    thermal_var=st.one_of(st.just(0.0), powers(-30, -5)),
    rate_off=st.one_of(st.just(0.0), powers(-300, 20)), gap=powers(-300, 20),
)
def test_gaussian_ber_is_unchanged_on_two_sided_links(rate_off, gap, **fields):
    try:
        _, i_on, i_off, s_on, s_off = decision_point(LinkParams(**fields), rate_off + gap, rate_off)
    except ParameterError:
        assume(False)
    assume(s_off > 0.0 or s_on == 0.0)
    expected = two_sided_ber(i_on, i_off, s_on, s_off)
    assert np.float64(gaussian_ber(i_on, i_off, s_on, s_off)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("sigma_on", [1.0, 0.25, np.array([1.0, 3.0])])
def test_a_one_sided_link_errs_only_on_its_on_level(sigma_on):
    # the threshold sits on the noise-free i_off, so P(1|0) = 0 and the
    # error is half the on level's Phi(-Q)
    ber = gaussian_ber(1.0, 0.0, sigma_on, 0.0)
    q = 1.0 / np.asarray(sigma_on)
    assert np.array_equal(ber, 0.25 * np.vectorize(math.erfc)(q / math.sqrt(2.0)))
