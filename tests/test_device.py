"""Entangling-device tests: gate contract, statistics, entanglement."""

import functools
import math
import operator

import numpy as np
import pytest

from weakpol import (
    DeviceConfig,
    MeterSetting,
    Polarization,
    PostselectionImpossibleError,
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
    _scaled_entries,
    _squared_norm,
    device_registry,
    input_state,
    local_phase_fidelity,
    network_steps,
    target_state,
    transfer_matrix,
)
from weakpol.weak_values import circular_right, diagonal, horizontal, nonzero_weight, vertical

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


def test_fidelity_norm_product_is_bitwise_the_prod_of_sums():
    # local_phase_fidelity's norm product, bit for bit the expression
    # math.prod(sum(abs(v) ** 2 for v in x) for x in (got, want)). Up to Python 3.11 that sum
    # adds left to right from 0 (3.12's compensates rounding), spelled out here with reduce,
    # and math.prod's leading 1 * a is exactly a.
    rng = np.random.default_rng(30)
    for _ in range(20_000):
        scale = 10.0 ** rng.uniform(-8, 8, size=(2, 4, 2))
        got, want = (_scaled_entries(name, v[:, 0] + 1j * v[:, 1])
                     for name, v in zip(("got", "want"), scale * rng.normal(size=(2, 4, 2))))
        old = math.prod(functools.reduce(operator.add, (abs(v) ** 2 for v in x), 0)
                        for x in (got, want))
        assert _squared_norm(got) * _squared_norm(want) == old


def test_fidelity_of_a_zero_norm_state_is_a_typed_error():
    # no balancing transmission: an H signal photon never reaches a coincidence, so the
    # device has no state to hand to the fidelity
    with pytest.raises(PostselectionImpossibleError, match="zero"):
        run_device(horizontal(), MeterSetting(1.0), DeviceConfig(balance_eta=0.0))
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


def brute_force_phase_fidelity(got, want):
    """Reference: the best of a dense phase grid, each top peak polished by dense local grids."""
    got = np.asarray(got, dtype=complex).reshape(2, 2)
    want = np.asarray(want, dtype=complex).reshape(2, 2)
    t = want.conj() * got

    def overlap(phi):
        e = np.exp(1j * phi)
        return np.abs(t[0, 0] + t[0, 1] * e) + np.abs(t[1, 0] + t[1, 1] * e)

    grid = np.linspace(0.0, 2.0 * np.pi, 2**14, endpoint=False)
    vals = overlap(grid)
    peaks = np.flatnonzero((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1)))
    best = 0.0
    for k in peaks[np.argsort(vals[peaks])[-3:]]:
        centre, width = grid[k], grid[1]
        for _ in range(3):
            fine = centre + np.linspace(-width, width, 801)
            v = overlap(fine)
            j = int(np.argmax(v))
            centre, width, best = fine[j], width / 400, max(best, float(v[j]))
    return best**2 / float(np.sum(np.abs(got) ** 2) * np.sum(np.abs(want) ** 2))


def phase_fidelity_cases(rng):
    """Random pairs with zero rows and entries, local-phase copies, a diagonal pair, cusp rows."""
    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    for n in range(160):
        got, want = cplx(2, 2), cplx(2, 2)
        if n % 4 == 1:
            (got, want)[n % 8 // 4][rng.integers(2)] = 0.0
        elif n % 4 == 2:
            got[tuple(rng.integers(2, size=2))] = 0.0
            want[tuple(rng.integers(2, size=2))] = 0.0
        yield got, want
    for _ in range(20):
        want, (a, b, g) = cplx(2, 2), rng.uniform(0.0, 2.0 * np.pi, 3)
        yield want * np.exp(1j * np.array([[g, g + b], [g + a, g + a + b]])), want
    yield np.diag(cplx(2)), np.diag(cplx(2))
    for _ in range(40):
        # |t_s0| = |t_s1| in both rows: each row's overlap reaches zero at one phase
        mags = rng.uniform(0.1, 2.0, size=(2, 2, 1))
        got, want = mags * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(2, 2, 2)))
        yield got, want


def test_phase_fidelity_matches_brute_force_maximum():
    rng = np.random.default_rng(29)
    for got, want in phase_fidelity_cases(rng):
        assert abs(local_phase_fidelity(got, want) - brute_force_phase_fidelity(got, want)) < 1e-14


@pytest.mark.parametrize("conj", [False, True])
def test_phase_fidelity_bisects_where_the_objective_is_convex(conj):
    # row 0's overlap peaks at the meter phase -1 (mod 2 pi), where row 1's nearly vanishes
    # (|t_10| and |t_11| differ by 0.1%): f dips there into a convex notch between two
    # maxima, so f'' > 0 at the best grid point, Newton has no step and the search bisects;
    # the conjugate input mirrors the phase, so the other side of the bracket is taken
    got = np.array([1.0, np.exp(1j), 1e-3, -0.999e-3 * np.exp(1j)])
    got = got.conj() if conj else got
    want = np.ones(4)
    assert abs(local_phase_fidelity(got, want) - brute_force_phase_fidelity(got, want)) < 1e-14


# 1.7e308: the parts' magnitudes sum past the largest double, yet every entry is finite
@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e-100, 1.0, 1e150, 1e160, 1e300, 1.7e308])
def test_local_phase_fidelity_does_not_depend_on_scale(scale):
    eye = np.eye(2, dtype=complex)
    assert abs(local_phase_fidelity(scale * eye, scale * eye) - 1.0) < 1e-15
    assert abs(local_phase_fidelity(scale * eye, eye / math.sqrt(2.0)) - 1.0) < 1e-15
    assert abs(local_phase_fidelity(eye, scale * np.array([[1.0, 0.0], [0.0, 0.0]])) - 0.5) < 1e-15


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_local_phase_fidelity_rejects_non_finite_entries(bad):
    # in every entry: a bad part behind a finite largest part must still be found
    eye = np.eye(2, dtype=complex)
    for entry in range(4):
        broken = eye.copy()
        broken.flat[entry] = bad
        with pytest.raises(ValueError, match="got has a non-finite entry"):
            local_phase_fidelity(broken, eye)
        with pytest.raises(ValueError, match="want has a non-finite entry"):
            local_phase_fidelity(eye, broken)


def test_local_phase_fidelity_takes_non_contiguous_input():
    # every fourth float of a ramp: the complex entries are a strided view, which the
    # fidelity reads as given (the value below is that of the contiguous copy)
    got = (np.arange(8) + 1j * np.arange(8)[::-1])[::2]
    assert not got.flags.c_contiguous
    assert local_phase_fidelity(got, np.ones(4)) == local_phase_fidelity(got.copy(), np.ones(4))
    assert local_phase_fidelity(got, np.ones(4)) == pytest.approx(0.9828918645575847, abs=1e-15)
    assert local_phase_fidelity(np.ones(4), got) == pytest.approx(0.9828918645575847, abs=1e-15)


def test_meter_negative_strength_is_legal_not_rejected():
    meter = MeterSetting(0.5)  # gamma < 1/sqrt(2)
    assert meter.strength < 0.0
    out = run_device(diagonal(), meter)
    assert abs(out.success_prob - 1.0 / 9.0) < 1e-10


@pytest.mark.parametrize("name", ["interfering_eta", "balance_eta", "hadamard_eta"])
@pytest.mark.parametrize("eta", [-0.1, 1.5, math.nan])
def test_device_config_rejects_eta_outside_the_unit_interval(name, eta):
    with pytest.raises(ValueError, match=rf"{name} must lie in \[0, 1\]"):
        DeviceConfig(**{name: eta})


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


def test_gate_is_controlled_not_over_three():
    op = DeviceConfig().gate
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
    """The Fock engine's kept coincidence amplitudes, unnormalized."""
    state = fock.apply_network(input_state(signal, meter), network_steps(cfg))
    return fock.project_coincidence(state, SIGNAL_MODES, METER_MODES)


def fock_gate(cfg):
    """Two-photon propagation of the four product basis inputs."""
    op = np.zeros((4, 4), dtype=complex)
    for col, (s, m) in enumerate((s, m) for s in (horizontal(), vertical())
                                 for m in (MeterSetting(1.0), MeterSetting(0.0))):
        op[:, col] = fock_run(s, m, cfg).reshape(4)
    return op


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS)
def test_kernel_matches_fock_oracle(cfg):
    u, want_u = transfer_matrix(cfg), fock_transfer_matrix(cfg)
    assert np.max(np.abs(u - want_u)) < 1e-12
    # interference nulls are exact zeros on both paths, as counting runs rely on
    assert np.array_equal(u == 0, want_u == 0)
    assert np.max(np.abs(cfg.gate - fock_gate(cfg))) < 1e-12
    rng = np.random.default_rng(11)
    for _ in range(50):
        signal = random_signal(rng)
        meter = MeterSetting(rng.uniform(0.0, 1.0))
        got, want = run_device(signal, meter, cfg), fock_run(signal, meter, cfg)
        prob = np.vdot(want, want).real
        assert abs(got.success_prob - prob) < 1e-12
        assert np.max(np.abs(got.amplitudes - want / math.sqrt(prob))) < 1e-12


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


def kron_reference_parts(cfg):
    """Reference: the Kronecker-product parts that the index patterns replaced."""
    u = numpy_row_update_transfer_matrix(cfg)

    def kron(a, b):
        return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)

    direct = kron(u[:2, :2], u[2:4, 2:4])
    # right-multiplying by SWAP (|s, m> -> |m, s>) exchanges the HV and VH columns
    exchange = kron(u[:2, 2:4], u[2:4, :2])[:, [0, 2, 1, 3]]
    return direct, exchange


def test_gate_build_matches_kron_reference_bitwise():
    rng = np.random.default_rng(12)
    random_configs = [DeviceConfig(*rng.uniform(0.0, 1.0, 3)) for _ in range(200)]
    edge_configs = [DeviceConfig(0.0, 0.0, 0.0), DeviceConfig(1.0, 1.0, 1.0),
                    DeviceConfig(interfering_eta=1.0, balance_eta=0.0)]
    inputs, raised = np.random.default_rng(13), 0
    for cfg in (*ORACLE_CONFIGS, *random_configs, *edge_configs):
        want = kron_reference_parts(cfg)
        for got, part in zip(cfg.parts, want):
            assert got.dtype == part.dtype and got.tobytes() == part.tobytes()
        gate = want[0] + want[1]
        assert cfg.gate.tobytes() == gate.tobytes()
        # two random inputs, then an H signal, which a device without balancing never passes
        pairs = [(random_signal(inputs), MeterSetting(inputs.uniform(0.0, 1.0))) for _ in range(2)]
        for signal, meter in (*pairs, (horizontal(), MeterSetting(1.0))):
            amps = gate @ (signal.ket()[:, None] * meter.ket()).reshape(4)
            prob = float(np.sum(np.abs(amps) ** 2))
            try:
                nonzero_weight(prob, "coincidence probability is zero")
            except PostselectionImpossibleError:
                raised += 1
                with pytest.raises(PostselectionImpossibleError):
                    run_device(signal, meter, cfg)
                continue
            out = run_device(signal, meter, cfg)
            assert out.success_prob == prob
            assert out.amplitudes.tobytes() == (amps / math.sqrt(prob)).reshape(2, 2).tobytes()
    assert raised == 2  # the two edge configs with balance_eta = 0


def test_device_config_keeps_its_value_semantics_and_carries_a_read_only_gate():
    import copy
    import dataclasses
    import pickle

    cfg = DeviceConfig(interfering_eta=0.3, balance_eta=0.4, hadamard_eta=0.45)
    assert [f.name for f in dataclasses.fields(cfg)] == ["interfering_eta", "balance_eta",
                                                         "hadamard_eta"]
    assert dataclasses.asdict(cfg) == {"interfering_eta": 0.3, "balance_eta": 0.4,
                                       "hadamard_eta": 0.45}
    assert repr(cfg) == "DeviceConfig(interfering_eta=0.3, balance_eta=0.4, hadamard_eta=0.45)"
    assert cfg == DeviceConfig(0.3, 0.4, 0.45) and cfg != DeviceConfig()
    assert hash(cfg) == hash((0.3, 0.4, 0.45))  # the generated hash of the three fields
    moved, fresh = dataclasses.replace(cfg, balance_eta=0.3), DeviceConfig(0.3, 0.3, 0.45)
    assert moved.parts.tobytes() != cfg.parts.tobytes()
    for got, want in ((moved.parts, fresh.parts), (moved.gate, fresh.gate)):
        assert got.tobytes() == want.tobytes()
    assert (cfg.parts.shape, cfg.gate.shape) == ((2, 4, 4), (4, 4))
    assert cfg.gate.tobytes() == (cfg.parts[0] + cfg.parts[1]).tobytes()
    for twin in (copy.copy(cfg), copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
        assert twin == cfg
        for got, want in ((twin.parts, cfg.parts), (twin.gate, cfg.gate)):
            assert not got.flags.writeable
            assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        cfg.parts[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        cfg.gate[0, 0] = 1.0
    for name in ("parts", "gate"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, np.zeros((4, 4)))


def test_kernel_and_fock_oracle_flag_zero_coincidence_weight():
    # no balancing transmission and no interference: an H signal photon is
    # always lost, so no coincidence is possible; the kernel refuses to condition
    # on it, and the oracle keeps exact zeros
    cfg = DeviceConfig(interfering_eta=1.0, balance_eta=0.0)
    for meter in (MeterSetting(1.0), MeterSetting(0.8)):
        with pytest.raises(PostselectionImpossibleError, match="coincidence probability is zero"):
            run_device(horizontal(), meter, cfg)
        assert np.array_equal(fock_run(horizontal(), meter, cfg), np.zeros((2, 2)))
