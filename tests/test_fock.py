"""Fock-engine tests against brute-force two-mode oracles."""

import math

import numpy as np
import pytest

from weakpol import (
    BeamSplitterSpec,
    FockState,
    ModeRegistry,
    PhotonCapError,
    Polarization,
    TwoQubitState,
    UnknownModeError,
    ZeroNormError,
    apply_beam_splitter,
    create_photon,
    expectation_s1,
    number_expectation,
    project_coincidence,
    vacuum,
)
from weakpol.device import (
    DeviceConfig,
    METER_MODES,
    SIGNAL_MODES,
    device_registry,
    input_state,
    network_steps,
)
from weakpol.fock import apply_network
from weakpol.weak_values import MeterSetting, diagonal


def two_mode_registry():
    return ModeRegistry(["a", "b"])


def fock_11(reg):
    state = vacuum(reg)
    state = create_photon(state, {"a": 1.0})
    return create_photon(state, {"b": 1.0})


def brute_force_two_photon(u, occ_in):
    """Independent oracle: expand (sum_i u[i,p] a_i)(sum_j u[j,q] a_j)|0>.

    Returns amplitudes on the normalized two-photon basis of two modes.
    """
    if occ_in == (1, 1):
        p, q, norm_in = 0, 1, 1.0
    elif occ_in == (2, 0):
        p, q, norm_in = 0, 0, math.sqrt(2.0)
    else:
        p, q, norm_in = 1, 1, math.sqrt(2.0)
    out = {}
    for i in range(2):
        for j in range(2):
            key = (min(i, j), max(i, j))
            out[key] = out.get(key, 0.0) + u[i, p] * u[j, q] / norm_in
    amps = {}
    for (i, j), c in out.items():
        if i == j:
            c *= math.sqrt(2.0)
        amps[(i, j)] = c
    return amps  # keys (0,0)=|2,0>, (0,1)=|1,1>, (1,1)=|0,2>


def splitter_matrix(eta):
    t, r = math.sqrt(eta), math.sqrt(1 - eta)
    return np.array([[t, r], [-r, t]])


def test_hom_null_at_half():
    reg = two_mode_registry()
    out = apply_beam_splitter(fock_11(reg), BeamSplitterSpec("a", "b", 0.5))
    assert out.amplitude((1, 1)) == 0  # exact interference null, not just small


def test_one_third_splitter_coincidence_amplitude():
    reg = two_mode_registry()
    out = apply_beam_splitter(fock_11(reg), BeamSplitterSpec("a", "b", 1.0 / 3.0))
    oracle = brute_force_two_photon(splitter_matrix(1.0 / 3.0), (1, 1))
    assert abs(out.amplitude((1, 1)) - (2.0 / 3.0 - 1.0)) < 1e-15  # 2*eta - 1
    assert abs(out.amplitude((1, 1)) - oracle[(0, 1)]) < 1e-15
    assert abs(out.amplitude((1, 1)) + 1.0 / 3.0) < 1e-15


def test_identity_splitter():
    reg = two_mode_registry()
    state = create_photon(vacuum(reg), {"a": 0.6, "b": 0.8})
    out = apply_beam_splitter(state, BeamSplitterSpec("a", "b", 1.0))
    assert out.terms == pytest.approx(state.terms)


def test_two_photon_bunching():
    reg = two_mode_registry()
    state = FockState(reg, {(2, 0): 1.0})  # normalized |2,0>
    out = apply_beam_splitter(state, BeamSplitterSpec("a", "b", 0.5))
    oracle = brute_force_two_photon(splitter_matrix(0.5), (2, 0))
    for occ, key in (((2, 0), (0, 0)), ((1, 1), (0, 1)), ((0, 2), (1, 1))):
        assert abs(out.amplitude(occ) - oracle[key]) < 1e-14
    assert abs(abs(out.amplitude((1, 1))) ** 2 - 0.5) < 1e-14


@pytest.mark.parametrize("eta", [0.0, 0.17, 1.0 / 3.0, 0.5, 0.9, 1.0])
def test_single_photon_matches_matrix(eta):
    reg = two_mode_registry()
    u = splitter_matrix(eta)
    for col, weights in enumerate(({"a": 1.0}, {"b": 1.0})):
        out = apply_beam_splitter(create_photon(vacuum(reg), weights),
                                  BeamSplitterSpec("a", "b", eta))
        got = np.array([out.amplitude((1, 0)), out.amplitude((0, 1))])
        assert np.allclose(got, u[:, col], atol=1e-15)


def test_splitter_inverse_by_swapped_roles():
    reg = two_mode_registry()
    state = fock_11(reg)
    state = apply_beam_splitter(state, BeamSplitterSpec("a", "b", 0.3))
    state = apply_beam_splitter(state, BeamSplitterSpec("b", "a", 0.3))
    assert abs(state.amplitude((1, 1)) - 1.0) < 1e-12
    assert abs(state.norm_sq() - 1.0) < 1e-12


def test_unitarity_over_random_networks():
    rng = np.random.default_rng(11)
    reg = ModeRegistry(["a", "b", "c", "d"])
    for _ in range(50):
        state = create_photon(vacuum(reg), {"a": 0.6, "b": 0.8j})
        state = create_photon(state, {"c": 1 / math.sqrt(2), "d": 1j / math.sqrt(2)})
        start = state.norm_sq()
        for _ in range(6):
            i, j = rng.choice(4, size=2, replace=False)
            state = apply_beam_splitter(
                state, BeamSplitterSpec(reg.labels[i], reg.labels[j], rng.uniform())
            )
        assert abs(state.norm_sq() - start) < 1e-12


def test_photon_cap_enforced():
    reg = two_mode_registry()
    state = fock_11(reg)
    with pytest.raises(PhotonCapError):
        create_photon(state, {"a": 1.0})


def test_unknown_mode_and_bad_eta():
    reg = two_mode_registry()
    with pytest.raises(UnknownModeError):
        create_photon(vacuum(reg), {"nope": 1.0})
    with pytest.raises(ValueError):
        BeamSplitterSpec("a", "b", 1.5)


def test_super_normalized_states_rejected():
    reg = two_mode_registry()
    with pytest.raises(ValueError):
        FockState(reg, {(1, 0): 1.0, (0, 1): 1.0})
    # stacking a photon into an occupied mode needs scaled weights
    one = create_photon(vacuum(reg), {"a": 1.0})
    with pytest.raises(ValueError):
        create_photon(one, {"a": 1.0})
    two = create_photon(one, {"a": 1.0 / math.sqrt(2.0)})
    assert abs(two.norm_sq() - 1.0) < 1e-12


def test_two_qubit_state_rejects_nan_amplitudes():
    for amps in (np.full((2, 2), np.nan), np.array([[np.nan, 0.0], [0.0, 0.0]])):
        with pytest.raises(ValueError, match="not normalized"):
            TwoQubitState(amps, 0.5)


def test_two_qubit_state_rejects_inf_and_unnormalized_amplitudes():
    inf, nan = math.inf, math.nan
    for amps in ([[inf, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, -inf]], [[inf, nan], [0.0, 0.0]],
                 [[complex(inf, inf), 0.0], [0.0, 0.0]], [[1.0, 1.0], [0.0, 0.0]]):  # last: norm 2
        with pytest.raises(ValueError, match="not normalized"):
            TwoQubitState(amps, 0.5)


def test_prune_keeps_interference_nulls_clean():
    reg = two_mode_registry()
    out = apply_beam_splitter(fock_11(reg), BeamSplitterSpec("a", "b", 0.5))
    assert (1, 1) not in out.terms


# --- coincidence projection -------------------------------------------------

def test_project_ideal_device_bell_output():
    meter = MeterSetting(1.0)
    state = input_state(diagonal(), meter)
    state = apply_network(state, network_steps(DeviceConfig()))
    amps = project_coincidence(state, SIGNAL_MODES, METER_MODES)
    assert amps.shape == (2, 2) and amps.dtype == complex
    # unnormalized: the Bell state scaled by the 1/3 amplitude of the 1/9 gate
    want = np.array([[1, 0], [0, 1]]) / math.sqrt(2.0)
    assert np.allclose(amps, want / 3.0, atol=1e-12)


def test_project_all_photons_lost_keeps_zero_amplitudes():
    reg = device_registry()
    state = create_photon(vacuum(reg), {"lossS": 1.0})
    state = create_photon(state, {"lossM": 1.0})
    amps = project_coincidence(state, SIGNAL_MODES, METER_MODES)
    assert np.array_equal(amps, np.zeros((2, 2)))


def test_project_identity_network_returns_product():
    cfg = DeviceConfig(interfering_eta=1.0, balance_eta=1.0, hadamard_eta=0.5)
    signal = Polarization.from_degrees(30.0)
    meter = MeterSetting(0.8)
    state = apply_network(input_state(signal, meter), network_steps(cfg))
    amps = project_coincidence(state, SIGNAL_MODES, METER_MODES)
    # every photon survives an eta=1 network, so the kept amplitudes are the input's
    want = np.outer([signal.alpha, signal.beta], [meter.gamma, meter.gammabar])
    assert np.allclose(amps, want, atol=1e-12)


def test_coincidence_patterns_plus_complement_sum_to_one():
    signal = Polarization.from_degrees(23.0)
    meter = MeterSetting(0.85)
    state = apply_network(input_state(signal, meter), network_steps(DeviceConfig()))
    assert abs(state.norm_sq() - 1.0) < 1e-12
    amps = project_coincidence(state, SIGNAL_MODES, METER_MODES)
    kept = np.vdot(amps, amps).real
    rejected = sum(
        abs(a) ** 2 for occ, a in state.terms.items()
        if not (occ[0] + occ[1] == 1 and occ[2] + occ[3] == 1)
    )
    assert abs(kept + rejected - 1.0) < 1e-12


# --- number expectations ----------------------------------------------------

def test_number_expectation_dual_rail():
    reg = ModeRegistry(["H", "V"])
    a, b = math.cos(math.radians(42)), math.sin(math.radians(42))
    state = create_photon(vacuum(reg), {"H": a, "V": b})
    n_h = number_expectation(state, "H")
    assert abs(n_h - math.cos(math.radians(42)) ** 2) < 1e-12  # = 0.5522642...
    assert abs(n_h - 0.5522642316338268) < 1e-12


def test_number_expectation_vacuum_and_zero_norm():
    reg = ModeRegistry(["H", "V"])
    assert number_expectation(vacuum(reg), "H") == 0.0
    empty = FockState(reg)
    with pytest.raises(ZeroNormError):
        number_expectation(empty, "H")


def test_number_expectation_renormalizes_subnormalized_states():
    reg = ModeRegistry(["H", "V"])
    state = FockState(reg, {(1, 0): 0.3, (0, 1): 0.4})
    assert abs(number_expectation(state, "H") - 0.09 / 0.25) < 1e-12


def test_mode_occupation_difference_equals_s1_expectation():
    # bridge between the mode picture and the qubit picture
    rng = np.random.default_rng(5)
    reg = ModeRegistry(["H", "V"])
    for _ in range(40):
        theta = rng.uniform(0, math.pi / 2)
        phase = rng.uniform(0, 2 * math.pi)
        alpha, beta = math.cos(theta), math.sin(theta) * np.exp(1j * phase)
        state = create_photon(vacuum(reg), {"H": alpha, "V": beta})
        diff = number_expectation(state, "H") - number_expectation(state, "V")
        assert abs(diff - expectation_s1(Polarization(alpha, beta))) < 1e-12
