"""Analytic-layer tests: POVM, postselected probabilities, weak values."""

import math

import numpy as np
import pytest

from weakpol import (
    MeterSetting,
    Polarization,
    PostselectionImpossibleError,
    expectation_decomposition,
    expectation_s1,
    postselect_state,
    postselected_probs,
    povm_elements,
    weak_value_analytic,
)
from weakpol.weak_values import antidiagonal, diagonal, horizontal, vertical

PSI_42 = Polarization.from_degrees(42.0)
COS84 = math.cos(math.radians(84.0))  # = |alpha|^2 - |beta|^2 of the 42 degree state


def meter_k(k):
    return MeterSetting.from_strength(k)


# --- POVM --------------------------------------------------------------------

def test_povm_projective_limit():
    povm = povm_elements(meter_k(1.0))
    assert np.allclose(povm.pi_h, np.diag([1.0, 0.0]), atol=1e-15)
    assert np.allclose(povm.pi_v, np.diag([0.0, 1.0]), atol=1e-15)


def test_povm_zero_strength_limit():
    povm = povm_elements(meter_k(0.0))
    assert np.allclose(povm.pi_h, np.eye(2) / 2.0, atol=1e-12)
    assert np.allclose(povm.pi_v, np.eye(2) / 2.0, atol=1e-12)


def test_povm_half_strength():
    povm = povm_elements(meter_k(0.5))
    assert np.allclose(povm.pi_h, np.diag([0.75, 0.25]), atol=1e-12)


def test_povm_completeness_and_positivity_across_strengths():
    for k in np.linspace(-1.0, 1.0, 41):
        povm = povm_elements(meter_k(k))
        assert np.max(np.abs(povm.pi_h + povm.pi_v - np.eye(2))) < 1e-12
        for op in (povm.pi_h, povm.pi_v):
            assert np.min(np.linalg.eigvalsh(op)) > -1e-12


# --- expectation of s1 --------------------------------------------------------

def test_expectation_basics():
    assert expectation_s1(horizontal()) == 1.0
    assert abs(expectation_s1(diagonal())) < 1e-15
    assert abs(expectation_s1(PSI_42) - COS84) < 1e-12
    assert abs(expectation_s1(PSI_42) - 0.10452846326765346) < 1e-12


# --- postselected probabilities ----------------------------------------------

def test_rare_postselection_probability_weak_limit():
    # P(A) at zero strength = (alpha - beta)^2 / 2 ~ 0.0027
    _, _, p_a = postselected_probs(PSI_42, meter_k(0.0), antidiagonal())
    a, b = math.cos(math.radians(42)), math.sin(math.radians(42))
    assert abs(p_a - 0.5 * (a - b) ** 2) < 1e-12
    assert abs(p_a - 0.00273905) < 5e-7


def test_diagonal_signal_gives_even_conditionals():
    for k in (0.006, 0.3, 1.0):
        p_h, p_v, _ = postselected_probs(diagonal(), meter_k(k), antidiagonal())
        assert abs(p_h - 0.5) < 1e-12
        assert abs(p_h + p_v - 1.0) < 1e-12


def test_diagonal_signal_at_zero_strength_is_flagged_impossible():
    with pytest.raises(PostselectionImpossibleError):
        postselected_probs(diagonal(), meter_k(0.0), antidiagonal())


def test_projective_conditional_is_population_ratio():
    p_h, _, _ = postselected_probs(PSI_42, MeterSetting(1.0), antidiagonal())
    assert abs(p_h - math.cos(math.radians(42)) ** 2) < 1e-12  # alpha^2/(alpha^2+beta^2)
    assert abs(p_h - 0.5522642316338268) < 1e-12


def test_postselected_probs_returns_python_floats():
    # as channel_postselected_probs does; the two conditionals used to be np.float64
    got = postselected_probs(horizontal(), meter_k(0.05), antidiagonal())
    assert [type(x) for x in got] == [float] * 3
    assert got == (0.525, 0.475, 0.4999999999999999)


def test_postselection_probabilities_consistent_with_gate_output():
    from weakpol import run_device

    rng = np.random.default_rng(9)
    for _ in range(25):
        theta, phase = rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi)
        psi = Polarization(math.cos(theta), math.sin(theta) * np.exp(1j * phase))
        meter = MeterSetting(rng.uniform(1 / math.sqrt(2), 1.0))
        p_h, p_v, p_post = postselected_probs(psi, meter, antidiagonal())
        out = run_device(psi, meter)
        post = antidiagonal().ket()
        amps = post.conj() @ out.amplitudes  # meter amplitudes given postselection
        p_post_fock = float(np.sum(np.abs(amps) ** 2))
        assert abs(p_post - p_post_fock) < 1e-12
        assert abs(p_h - abs(amps[0]) ** 2 / p_post_fock) < 1e-12


# --- weak values ---------------------------------------------------------------

def test_weak_limit_value_42deg():
    wv = weak_value_analytic(PSI_42, meter_k(0.0), antidiagonal())
    a, b = math.cos(math.radians(42)), math.sin(math.radians(42))
    assert abs(wv - (a + b) / (a - b)) < 1e-9
    assert abs(wv - 19.08113668772821) < 1e-9  # = cot(3 deg)


def test_weak_value_at_smallest_measured_strength():
    wv = weak_value_analytic(PSI_42, meter_k(0.006), antidiagonal())
    assert abs(wv - 19.018985734711585) < 1e-9
    assert round(wv, 2) == 19.02


def test_strong_limit_equals_expectation():
    wv = weak_value_analytic(PSI_42, meter_k(1.0), antidiagonal())
    assert abs(wv - COS84) < 1e-12
    rng = np.random.default_rng(21)
    for _ in range(50):
        psi = Polarization.from_angle(rng.uniform(0, math.pi))
        assert abs(weak_value_analytic(psi, meter_k(1.0), antidiagonal())
                   - expectation_s1(psi)) < 1e-12


def test_diagonal_input_weak_value_zero():
    for k in (0.006, 0.4, 1.0):
        assert abs(weak_value_analytic(diagonal(), meter_k(k), antidiagonal())) < 1e-12


def test_orthogonal_weak_limit_diverges_with_typed_error():
    with pytest.raises(PostselectionImpossibleError):
        weak_value_analytic(diagonal(), meter_k(0.0), antidiagonal())
    # an input orthogonal to the postselection leaves 0 over 0 at every strength
    for psi, post in ((horizontal(), vertical()), (vertical(), horizontal())):
        for k in (0.0, 0.006, 0.5, 1.0):
            with pytest.raises(PostselectionImpossibleError):
                weak_value_analytic(psi, meter_k(k), post)


def test_probability_route_matches_closed_form():
    rng = np.random.default_rng(17)
    for random_phase in (False, True):
        for _ in range(1000):
            psi = Polarization.from_angle(rng.uniform(0, math.pi))
            if random_phase:
                psi = Polarization(psi.alpha, psi.beta * np.exp(1j * rng.uniform(0, 2 * math.pi)))
            k = rng.uniform(1e-4, 1.0)
            try:
                p_h, p_v, _ = postselected_probs(psi, meter_k(k), antidiagonal())
            except PostselectionImpossibleError:
                continue
            via_probs = (p_h - p_v) / k
            closed = weak_value_analytic(psi, meter_k(k), antidiagonal())
            # 1e-10 absolute for in-spectrum values, relative once the weak
            # value blows up and cancellation limits the probability route
            assert abs(via_probs - closed) < 1e-10 * max(1.0, abs(closed))


def test_complex_inputs_route_through_probabilities():
    psi = Polarization(0.6, 0.8j)
    meter = meter_k(0.3)
    wv = weak_value_analytic(psi, meter, antidiagonal())
    p_h, p_v, _ = postselected_probs(psi, meter, antidiagonal())
    assert abs(wv - (p_h - p_v) / 0.3) < 1e-12
    # Re(A conj(B)) = 0 here, so the weak value is <s1> at every strength, K = 0 included
    assert weak_value_analytic(psi, meter_k(0.0), antidiagonal()) == pytest.approx(-0.28)


# --- decomposition over complementary postselections -----------------------------

def test_decomposition_recovers_expectation_42deg():
    term_a, term_d, total = expectation_decomposition(PSI_42, meter_k(0.006))
    assert abs(total - COS84) < 1e-10
    # each term individually equals half the expectation for real states
    assert abs(term_a - COS84 / 2.0) < 1e-10
    assert abs(term_d - COS84 / 2.0) < 1e-10


def test_decomposition_eigenstates():
    _, _, total_h = expectation_decomposition(horizontal(), meter_k(0.5))
    _, _, total_v = expectation_decomposition(vertical(), meter_k(0.5))
    assert abs(total_h - 1.0) < 1e-12
    assert abs(total_v + 1.0) < 1e-12


def test_decomposition_identity_holds_at_zero_strength():
    # each term w P(X) is finite at K = 0, where the meter extracts nothing
    rng = np.random.default_rng(5)
    phased = [Polarization(math.cos(t), math.sin(t) * np.exp(1j * phi))
              for t, phi in rng.uniform(0.0, math.pi / 2.0, (10, 2)) * (1.0, 4.0)]
    for psi in [PSI_42, horizontal(), vertical(), *phased]:
        term_a, term_d, total = expectation_decomposition(psi, meter_k(0.0))
        assert abs(term_a + term_d - expectation_s1(psi)) < 1e-12
        assert total == term_a + term_d
    # a D input is orthogonal to the A post at K = 0, and an A input to the D post
    for psi in (diagonal(), antidiagonal()):
        with pytest.raises(PostselectionImpossibleError):
            expectation_decomposition(psi, meter_k(0.0))


def test_decomposition_identity_over_random_states():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        theta = rng.uniform(0.02, math.pi / 2 - 0.02)
        psi = Polarization.from_angle(theta)
        k = rng.uniform(1e-4, 1.0)
        _, _, total = expectation_decomposition(psi, meter_k(k))
        assert abs(total - expectation_s1(psi)) < 1e-10


# --- extra-spectral behavior ------------------------------------------------------

def test_weak_value_monotone_decreasing_in_strength():
    ks = np.linspace(1e-6, 1.0, 100)
    vals = [weak_value_analytic(PSI_42, meter_k(k), antidiagonal()) for k in ks]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_extra_spectral_region_boundary():
    # the postselected value leaves the spectrum at the closed form sqrt(1 - tan^2(42 deg))
    k_star = math.sqrt(1.0 - math.tan(math.radians(42.0)) ** 2)
    assert abs(weak_value_analytic(PSI_42, meter_k(k_star), antidiagonal()) - 1.0) < 1e-12
    assert abs(k_star - 0.4350546597981609) < 1e-9
    for k in np.linspace(1e-6, k_star - 1e-9, 200):
        assert weak_value_analytic(PSI_42, meter_k(k), antidiagonal()) > 1.0
    assert weak_value_analytic(PSI_42, meter_k(k_star + 1e-9), antidiagonal()) < 1.0


def test_postselect_state_labels():
    assert postselect_state("A").beta == pytest.approx(-1.0 / math.sqrt(2.0))
    assert postselect_state("D").beta == pytest.approx(1.0 / math.sqrt(2.0))
    with pytest.raises(ValueError):
        postselect_state("Q")


def test_polarization_rejects_nan_amplitudes():
    for alpha, beta in ((math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan)):
        with pytest.raises(ValueError, match="not normalized"):
            Polarization(alpha, beta)
    with pytest.raises(ValueError, match="not normalized"):
        Polarization.from_degrees(math.nan)
