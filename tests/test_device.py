"""Entangling-device tests: gate contract, statistics, entanglement."""

import math

import numpy as np
import pytest

from weakpol import (
    DeviceConfig,
    MeterSetting,
    Polarization,
    ZeroNormError,
    concurrence,
    device_meter_distribution,
    equivalence_fidelity,
    povm_elements,
    run_device,
)
from weakpol import fock
from weakpol.device import (
    ALL_MODES,
    METER_MODES,
    SIGNAL_MODES,
    coincidence_operator,
    device_registry,
    input_state,
    local_phase_fidelity,
    network_steps,
    target_state,
    transfer_matrix,
)
from weakpol.weak_values import circular_right, diagonal, horizontal, vertical

GAMMA_GRID = (1.0 / math.sqrt(2.0), 0.75, 0.8, 0.9, 1.0)


def random_signal(rng):
    theta = rng.uniform(0.0, math.pi / 2.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return Polarization(math.cos(theta), math.sin(theta) * np.exp(1j * phase))


def test_projective_limit_h_input():
    out = run_device(horizontal(), MeterSetting(1.0))
    assert abs(out.success_prob - 1.0 / 9.0) < 1e-10
    assert abs(abs(out.amplitudes[0, 0]) - 1.0) < 1e-12


def test_projective_limit_d_input_is_bell():
    out = run_device(diagonal(), MeterSetting(1.0))
    want = np.array([[1, 0], [0, 1]]) / math.sqrt(2.0)
    assert np.allclose(out.amplitudes, want, atol=1e-12)
    assert abs(out.success_prob - 1.0 / 9.0) < 1e-10


def test_gate_equivalence_over_grid_and_random_signals():
    rng = np.random.default_rng(42)
    for gamma in GAMMA_GRID:
        meter = MeterSetting(gamma)
        for _ in range(20):
            signal = random_signal(rng)
            out = run_device(signal, meter)
            assert equivalence_fidelity(out, signal, meter) >= 1.0 - 1e-10
            assert abs(out.success_prob - 1.0 / 9.0) < 1e-10


def test_gate_amplitudes_gamma_09_42deg():
    signal = Polarization.from_degrees(42.0)
    meter = MeterSetting(0.9)
    out = run_device(signal, meter)
    # direct substitution into the contract state
    want = target_state(signal, meter).reshape(4)
    assert np.allclose(out.amplitudes.reshape(4), want, atol=1e-10)
    got = np.real(out.amplitudes.reshape(4))  # (HH, HV, VH, VV)
    a, b = math.cos(math.radians(42.0)), math.sin(math.radians(42.0))
    g, gb = 0.9, math.sqrt(0.19)
    assert got == pytest.approx([a * g, a * gb, b * gb, b * g], abs=1e-10)
    assert got == pytest.approx([0.6688303, 0.3239293, 0.2916673, 0.6022175], abs=1e-6)


def test_success_probability_input_independent():
    rng = np.random.default_rng(7)
    meter = MeterSetting(0.83)
    probs = [run_device(random_signal(rng), meter).success_prob for _ in range(100)]
    assert max(probs) - min(probs) < 1e-10


def test_meter_marginal_unbiased_at_zero_strength():
    meter = MeterSetting(1.0 / math.sqrt(2.0))
    for signal in (horizontal(), vertical(), Polarization.from_degrees(42.0)):
        p = device_meter_distribution(run_device(signal, meter))
        p_meter_h = p[0] + p[2]
        assert abs(p_meter_h - 0.5) < 1e-12


@pytest.mark.parametrize(
    "gamma,want",
    [
        (1.0, (0.5, 0.0, 0.0, 0.5)),
        (1.0 / math.sqrt(2.0), (0.25, 0.25, 0.25, 0.25)),
        (math.sqrt(0.75), (0.375, 0.125, 0.125, 0.375)),
    ],
)
def test_meter_distribution_for_diagonal_input(gamma, want):
    p = device_meter_distribution(run_device(diagonal(), MeterSetting(gamma)))
    assert p == pytest.approx(want, abs=1e-12)


def test_device_knowledge_zero_at_symmetric_meter():
    p = device_meter_distribution(run_device(diagonal(), MeterSetting(1.0 / math.sqrt(2.0))))
    assert abs((p[0] + p[3]) - (p[1] + p[2])) < 1e-12


def test_device_statistics_reproduce_povm():
    # tomographically complete probes against the measurement operators
    probes = (horizontal(), vertical(), diagonal(), circular_right())
    for gamma in GAMMA_GRID:
        meter = MeterSetting(gamma)
        povm = povm_elements(meter)
        for signal in probes:
            p = device_meter_distribution(run_device(signal, meter))
            p_meter_h = p[0] + p[2]
            ket = signal.ket()
            want = float(np.real(ket.conj() @ povm.pi_h @ ket))
            assert abs(p_meter_h - want) < 1e-10


def test_entangling_witness_nonzero_concurrence():
    signal = Polarization.from_degrees(42.0)
    for gamma in (0.75, 0.8, 0.9, 0.95):
        out = run_device(signal, MeterSetting(gamma))
        assert concurrence(out) > 1e-3
    # strength zero or eigenstate input: no entanglement
    assert concurrence(run_device(signal, MeterSetting(1.0 / math.sqrt(2.0)))) < 1e-12
    assert concurrence(run_device(horizontal(), MeterSetting(0.9))) < 1e-12


def test_concurrence_matches_closed_form():
    # for the contract state, concurrence = 2 |alpha beta| K
    signal = Polarization.from_degrees(27.0)
    meter = MeterSetting(0.88)
    out = run_device(signal, meter)
    want = 2.0 * abs(signal.alpha * signal.beta) * meter.strength
    assert abs(concurrence(out) - want) < 1e-10


def test_local_phase_fidelity_quotients_per_qubit_phases():
    rng = np.random.default_rng(3)
    base = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    base /= np.linalg.norm(base)
    for a, b, g in [(0.3, 1.1, 0.7), (2.0, -0.4, 0.0)]:
        phases = np.exp(1j * np.array([[g, g + b], [g + a, g + a + b]]))
        assert local_phase_fidelity(base * phases, base) > 1.0 - 1e-11
    # and it does not quotient genuine differences
    other = np.array([[1, 0], [0, 0]], dtype=complex)
    assert local_phase_fidelity(other, np.eye(2, dtype=complex) / math.sqrt(2)) < 0.9


def test_fidelity_of_a_zero_norm_state_is_a_typed_error():
    # no balancing transmission: an H signal photon never reaches a coincidence
    empty = run_device(horizontal(), MeterSetting(1.0), DeviceConfig(balance_eta=0.0))
    assert empty.empty
    with pytest.raises(ZeroNormError, match="got"):
        equivalence_fidelity(empty, horizontal(), MeterSetting(1.0))
    with pytest.raises(ZeroNormError, match="got"):
        local_phase_fidelity(np.zeros((2, 2)), np.eye(2) / math.sqrt(2.0))
    with pytest.raises(ZeroNormError, match="want"):
        local_phase_fidelity(np.eye(2) / math.sqrt(2.0), np.zeros((2, 2)))


def linspace_phase_fidelity(got, want):
    """Reference: the zoom search with each round's grid and phasors computed afresh."""
    got = np.asarray(got, dtype=complex).reshape(2, 2)
    want = np.asarray(want, dtype=complex).reshape(2, 2)
    t = want.conj() * got
    centre, half_width, best = np.pi, np.pi, 0.0
    for _ in range(3):
        grid = centre + np.linspace(-half_width, half_width, 1025)
        e = np.exp(1j * grid)
        vals = np.abs(t[0, 0] + t[0, 1] * e) + np.abs(t[1, 0] + t[1, 1] * e)
        k = int(np.argmax(vals))
        centre, best = grid[k], max(best, float(vals[k]))
        half_width = 2.0 * half_width / 1024
    return best**2 / float(np.sum(np.abs(got) ** 2) * np.sum(np.abs(want) ** 2))


def test_fixed_phasor_search_matches_linspace_search():
    rng = np.random.default_rng(17)
    for n in range(1200):
        got, want = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        if n % 4 == 1:
            got[rng.integers(2)] = 0.0
        elif n % 4 == 2:
            want[rng.integers(2)] = 0.0
        assert abs(local_phase_fidelity(got, want) - linspace_phase_fidelity(got, want)) < 1e-14


def test_meter_negative_strength_is_flagged_not_rejected():
    meter = MeterSetting(0.5)  # gamma < 1/sqrt(2)
    assert meter.negative_strength
    assert meter.strength < 0.0
    out = run_device(diagonal(), meter)
    assert abs(out.success_prob - 1.0 / 9.0) < 1e-10


def test_non_normalized_inputs_rejected():
    with pytest.raises(ValueError):
        Polarization(1.0, 1.0)
    with pytest.raises(ValueError):
        MeterSetting(1.2)


def test_transfer_matrix_unitary_and_balanced():
    u = transfer_matrix(DeviceConfig())
    assert np.allclose(u.conj().T @ u, np.eye(6), atol=1e-12)
    # kept-block survival amplitudes all 1/sqrt(3): the balancing at work
    for i in range(4):
        assert abs(abs(u[i, i]) - 1.0 / math.sqrt(3.0)) < 1e-12


def test_coincidence_operator_is_controlled_not_over_three():
    op = coincidence_operator(DeviceConfig())
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    assert np.allclose(op, cnot / 3.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Fock engine as the independent oracle for the transfer-matrix kernel
# ---------------------------------------------------------------------------

ORACLE_CONFIGS = (
    DeviceConfig(),
    DeviceConfig(interfering_eta=0.25, balance_eta=0.4, hadamard_eta=0.6),
    DeviceConfig(interfering_eta=0.7, balance_eta=0.2, hadamard_eta=0.35),
)


def fock_transfer_matrix(cfg):
    """Propagate one photon per mode through the Fock engine."""
    reg = device_registry()
    u = np.zeros((reg.size, reg.size), dtype=complex)
    for j in range(reg.size):
        occ = [0] * reg.size
        occ[j] = 1
        state = fock.apply_network(fock.FockState(reg, {tuple(occ): 1.0}), network_steps(cfg))
        for occ_out, amp in state.terms.items():
            u[occ_out.index(1), j] = amp
    return u


def fock_run(signal, meter, cfg):
    state = fock.apply_network(input_state(signal, meter), network_steps(cfg))
    out, _ = fock.project_coincidence(state, SIGNAL_MODES, METER_MODES)
    return out


def fock_coincidence_operator(cfg):
    """Two-photon propagation of the four product basis inputs."""
    op = np.zeros((4, 4), dtype=complex)
    for col, (s, m) in enumerate((s, m) for s in (horizontal(), vertical())
                                 for m in (MeterSetting(1.0), MeterSetting(0.0))):
        out = fock_run(s, m, cfg)
        op[:, col] = out.amplitudes.reshape(4) * math.sqrt(out.success_prob)
    return op


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS)
def test_kernel_matches_fock_oracle(cfg):
    u, want_u = transfer_matrix(cfg), fock_transfer_matrix(cfg)
    assert np.max(np.abs(u - want_u)) < 1e-12
    # interference nulls are exact zeros on both paths, as counting runs rely on
    assert np.array_equal(u == 0, want_u == 0)
    assert np.max(np.abs(coincidence_operator(cfg) - fock_coincidence_operator(cfg))) < 1e-12
    rng = np.random.default_rng(11)
    for _ in range(50):
        signal = random_signal(rng)
        meter = MeterSetting(rng.uniform(0.0, 1.0))
        got, want = run_device(signal, meter, cfg), fock_run(signal, meter, cfg)
        assert not got.empty and not want.empty
        assert abs(got.success_prob - want.success_prob) < 1e-12
        assert np.max(np.abs(got.amplitudes - want.amplitudes)) < 1e-12


def numpy_row_update_transfer_matrix(cfg):
    """Reference: the complex numpy row update the scalar walk replaced."""
    u = np.eye(len(ALL_MODES), dtype=complex)
    index = {label: i for i, label in enumerate(ALL_MODES)}
    for bs in network_steps(cfg):
        i, j = index[bs.mode_a], index[bs.mode_b]
        t, r = math.sqrt(bs.eta), math.sqrt(1.0 - bs.eta)
        u[i], u[j] = t * u[i] + r * u[j], t * u[j] - r * u[i]
    u[np.abs(u) < fock.PRUNE_TOL] = 0.0
    return u


def test_scalar_walk_matches_numpy_row_update_bitwise():
    rng = np.random.default_rng(12)
    random_configs = [DeviceConfig(*rng.uniform(0.0, 1.0, 3)) for _ in range(200)]
    edge_configs = [DeviceConfig(0.0, 0.0, 0.0), DeviceConfig(1.0, 1.0, 1.0),
                    DeviceConfig(interfering_eta=1.0, balance_eta=0.0)]
    for cfg in (*ORACLE_CONFIGS, *random_configs, *edge_configs):
        u, want = transfer_matrix(cfg), numpy_row_update_transfer_matrix(cfg)
        assert u.dtype == want.dtype and u.tobytes() == want.tobytes()
        assert np.array_equal(u == 0, want == 0)


def test_kernel_and_fock_oracle_flag_zero_coincidence_weight():
    # no balancing transmission and no interference: an H signal photon is
    # always lost, so no coincidence is possible
    cfg = DeviceConfig(interfering_eta=1.0, balance_eta=0.0)
    for meter in (MeterSetting(1.0), MeterSetting(0.8)):
        for out in (run_device(horizontal(), meter, cfg), fock_run(horizontal(), meter, cfg)):
            assert out.empty
            assert out.success_prob == 0.0
