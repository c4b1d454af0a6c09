"""Imperfect-device model and process-tomography tests."""

import math

import numpy as np
import pytest

from weakpol import (
    ChiMatrix,
    DeviceConfig,
    ImperfectionParams,
    InfeasibleTargetError,
    MeterSetting,
    Polarization,
    PostselectionImpossibleError,
    RunPlan,
    TwoQubitChannel,
    ZeroStrengthError,
    distinguishable_device,
    fit_visibility,
    imperfect_channel,
    invert_s1,
    model_weak_value_curve,
    process_tomography,
    read_chi_csv,
    run_device,
    run_fig2,
    weak_value_analytic,
)
from weakpol.counting import _write_atomic
from weakpol.errors import InversionRangeError
from weakpol.imperfection import (
    _PREP_KETS,
    PAULI_2,
    TRACE_TOL,
    _INPUT_FREE_TOL,
    _MISS_TOL,
    _at_strength,
    _check_trace,
    _grid_strengths,
    _mixture,
    _model_harmonics,
    channel_joint_distribution,
    channel_postselected_probs,
    format_chi_csv,
)
from weakpol.weak_values import (
    antidiagonal,
    circular_right,
    diagonal,
    horizontal,
    postselected_probs,
    vertical,
)

PSI_42 = Polarization.from_degrees(42.0)
S1_42 = math.cos(math.radians(84.0))
K_SMALL = MeterSetting.from_strength(0.006)

# fitted visibility matching the observed rare-postselection probability
# 0.012 at the smallest strength (regression pin; recomputed in the tests)
V_FITTED = 0.962787411012

# (v, p) of the reference models; (0, 0) is the v = 0 end point itself
REFERENCE_MODELS = ((1.0, 0.0), (0.96, 0.0), (0.9, 0.02), (0.5, 0.3), (0.0, 1.0), (0.0, 0.0))
# two splitter settings off the balanced 1/9 gate, each succeeding at every input
OFF_BALANCE = (DeviceConfig(interfering_eta=0.3, balance_eta=0.4, hadamard_eta=0.45),
               DeviceConfig(interfering_eta=0.4, balance_eta=0.25, hadamard_eta=0.6))


def channel_output(channel, signal, meter):
    """(success probability, conditioned output) from the density-matrix action of the channel."""
    ket = np.kron(signal.ket(), meter.ket())
    rho = channel.apply(np.outer(ket, ket.conj()))
    prob = float(np.trace(rho).real)
    return prob, rho / prob


def random_product_input(rng):
    theta, phase = rng.uniform(0, math.pi / 2), rng.uniform(0, 2 * math.pi)
    psi = Polarization(math.cos(theta), math.sin(theta) * np.exp(1j * phase))
    meter = MeterSetting(rng.uniform(0.0, 1.0))
    return psi, meter


def random_polarization(rng):
    ket = rng.normal(size=2) + 1j * rng.normal(size=2)
    return Polarization(*(ket / np.linalg.norm(ket)))


# --- distinguishable propagation ------------------------------------------------

def test_parts_sum_to_the_coherent_gate():
    direct, exchange = DeviceConfig().parts
    assert np.allclose(direct + exchange, DeviceConfig().gate, atol=1e-12)


def test_distinguishable_h_input_projective_meter_matches_ideal():
    # only one interfering path is populated, so removing interference changes nothing
    out = distinguishable_device(horizontal(), MeterSetting(1.0))
    ideal = run_device(horizontal(), MeterSetting(1.0))
    assert abs(out.success_prob - 1.0 / 9.0) < 1e-12
    assert np.allclose(out.rho, ideal.density_matrix(), atol=1e-12)


def test_distinguishable_success_probability_is_input_dependent():
    # a V-polarized signal with a projective meter feeds both assignments
    out = distinguishable_device(Polarization(0.0, 1.0), MeterSetting(1.0))
    assert abs(out.success_prob - 1.0 / 3.0) < 1e-12
    assert abs(sum(out.joint_hv) - 1.0) < 1e-12


def test_distinguishable_output_is_valid_density():
    rng = np.random.default_rng(12)
    for _ in range(20):
        psi, meter = random_product_input(rng)
        out = distinguishable_device(psi, meter)
        assert abs(np.trace(out.rho).real - 1.0) < 1e-12
        assert np.min(np.linalg.eigvalsh(out.rho)) > -1e-12


# --- the imperfect channel -------------------------------------------------------

def test_ideal_params_reproduce_the_gate_statistics():
    rng = np.random.default_rng(4)
    channel = imperfect_channel(None, ImperfectionParams())
    for _ in range(100):
        psi, meter = random_product_input(rng)
        prob, rho = channel_output(channel, psi, meter)
        ideal = run_device(psi, meter)
        assert abs(prob - ideal.success_prob) < 1e-10
        assert np.max(np.abs(rho - ideal.density_matrix())) < 1e-10


def test_fully_mixed_has_no_population_coherence():
    channel = imperfect_channel(None, ImperfectionParams(visibility=0.0))
    _, rho = channel_output(channel, diagonal(), MeterSetting(1.0))
    assert abs(rho[0, 3]) < 1e-14  # no HH-VV coherence left


def test_mixture_raises_rare_postselection_probability():
    channel = imperfect_channel(None, ImperfectionParams(visibility=0.95))
    meter = MeterSetting.from_strength(0.01)
    _, _, p_a = channel_postselected_probs(channel, PSI_42, meter, antidiagonal())
    _, _, p_a_ideal = channel_postselected_probs(
        imperfect_channel(None, ImperfectionParams()), PSI_42, meter, antidiagonal()
    )
    assert p_a > p_a_ideal


def test_channel_is_cp_and_trace_nonincreasing_on_grid():
    rng = np.random.default_rng(8)
    for v in np.linspace(0.0, 1.0, 5):
        for p in np.linspace(0.0, 1.0, 5):
            channel = imperfect_channel(None, ImperfectionParams(visibility=v, depol=p))
            total = sum(k.conj().T @ k for k in channel.kraus)
            assert np.max(np.linalg.eigvalsh(total)) <= 1.0 + 1e-12
            for _ in range(20):
                psi, meter = random_product_input(rng)
                ket = np.kron(psi.ket(), meter.ket())
                rho_out = channel.apply(np.outer(ket, ket.conj()))
                assert np.trace(rho_out).real <= 1.0 + 1e-12
                assert np.min(np.linalg.eigvalsh(rho_out)) > -1e-12


def test_rejects_trace_increasing_kraus():
    with pytest.raises(ValueError):
        TwoQubitChannel([np.eye(4) * 1.2])


def test_trace_guard_verdict_matches_the_full_spectrum():
    # the reference forms every effect and reads its whole spectrum; the guard reads the
    # traces first, so stacks are scaled to put their largest trace in [0.5, 3]: below 1,
    # and above 1 with a top eigenvalue on either side of 1 + TRACE_TOL
    rng = np.random.default_rng(3030)
    verdicts = {(True, True): 0, (True, False): 0, (False, True): 0}
    for _ in range(600):
        n, r = rng.integers(1, 9), rng.integers(1, 4)
        ops = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
        sq = rng.uniform(0.0, 1.0, size=(r, n))
        effects = np.einsum("rk,kji,kjl->ril", sq, ops.conj(), ops)
        ops *= math.sqrt(rng.uniform(0.5, 3.0) / np.trace(effects, axis1=1, axis2=2).real.max())
        effects = np.einsum("rk,kji,kjl->ril", sq, ops.conj(), ops)
        accepted = np.linalg.eigvalsh(effects).max() <= 1.0 + TRACE_TOL
        try:
            _check_trace(ops, sq)
        except ValueError:
            assert not accepted
        else:
            assert accepted
        over = np.trace(effects, axis1=1, axis2=2).real.max() > 1.0
        verdicts[accepted, over] += 1
    # every branch is taken: traces below 1, and above 1 both accepted and refused
    assert min(verdicts.values()) > 50, verdicts


def test_mixture_dephasing_operators_equal_the_gate_after_each_projector():
    projectors = np.einsum("ai,aj->aij", np.eye(4), np.eye(4)).astype(complex)
    rng = np.random.default_rng(3031)
    configs = [DeviceConfig(), *(DeviceConfig(**{eta: end}) for end in (0.0, 1.0)
                                 for eta in ("interfering_eta", "balance_eta", "hadamard_eta")),
               *(DeviceConfig(*rng.uniform(0.0, 1.0, 3)) for _ in range(200))]
    for cfg in configs:
        ops, _ = _mixture(cfg, [0.5])
        assert np.array_equal(ops[:3], [cfg.gate, *cfg.parts])
        assert np.array_equal(ops[3:], cfg.gate @ projectors)


def test_channel_keeps_a_non_contiguous_kraus_stack():
    k = np.random.default_rng(3032).normal(size=(3, 4, 4)) * (1.0 + 0.5j) / 8.0
    transposed = k.transpose(0, 2, 1)
    assert not transposed.flags.c_contiguous
    channel = TwoQubitChannel(transposed)
    assert np.array_equal(channel.kraus, transposed)
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    want = sum(t @ rho @ t.conj().T for t in transposed)
    assert np.max(np.abs(channel.apply(rho) - want)) < 1e-16


def test_channel_needs_an_effect_operator():
    with pytest.raises(ValueError, match="at least one effect operator"):
        TwoQubitChannel([])


def test_meter_argument_validated_but_map_independent():
    with pytest.raises(TypeError):
        imperfect_channel("not a meter", ImperfectionParams())
    a = imperfect_channel(K_SMALL, ImperfectionParams(visibility=0.9))
    b = imperfect_channel(MeterSetting(1.0), ImperfectionParams(visibility=0.9))
    assert all(np.allclose(x, y) for x, y in zip(a.kraus, b.kraus))


def test_postselection_probability_monotone_in_visibility():
    vals = []
    for v in np.linspace(0.0, 1.0, 21):
        channel = imperfect_channel(None, ImperfectionParams(visibility=v))
        vals.append(channel_postselected_probs(channel, PSI_42, K_SMALL, antidiagonal())[2])
    assert all(x > y for x, y in zip(vals, vals[1:]))


# --- visibility fitting -----------------------------------------------------------

def test_fit_recovers_exact_ideal_target():
    _, _, p_ideal = channel_postselected_probs(
        imperfect_channel(None, ImperfectionParams()), PSI_42, K_SMALL, antidiagonal()
    )
    params = fit_visibility(p_ideal, PSI_42, K_SMALL)
    assert params.visibility == pytest.approx(1.0, abs=1e-9)
    assert params.depol == 0.0


def test_fit_hits_observed_anomaly():
    params = fit_visibility(0.012, PSI_42, K_SMALL)
    channel = imperfect_channel(None, params)
    _, _, p_a = channel_postselected_probs(channel, PSI_42, K_SMALL, antidiagonal())
    assert abs(p_a - 0.012) < 1e-6
    assert params.visibility == pytest.approx(V_FITTED, abs=1e-9)
    # independent bisection on the same model, away from the solver path
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        ch = imperfect_channel(None, ImperfectionParams(visibility=mid))
        if channel_postselected_probs(ch, PSI_42, K_SMALL, antidiagonal())[2] > 0.012:
            lo = mid
        else:
            hi = mid
    assert abs(params.visibility - 0.5 * (lo + hi)) < 1e-9


def test_fit_builds_the_gate_once(monkeypatch):
    import weakpol.device as device
    import weakpol.imperfection as imperfection

    builds, channels, build = [], [], device.transfer_matrix

    def counted(cfg):
        builds.append(cfg)
        return build(cfg)

    class CountedChannel(TwoQubitChannel):
        def __init__(self, kraus):
            channels.append(len(kraus))
            super().__init__(kraus)

    monkeypatch.setattr(device, "transfer_matrix", counted)
    monkeypatch.setattr(imperfection, "TwoQubitChannel", CountedChannel)
    cfg = DeviceConfig()
    assert (builds, channels) == ([cfg], [])  # the one build: constructing the config
    params = fit_visibility(0.012, PSI_42, K_SMALL, cfg)
    assert params.visibility == pytest.approx(V_FITTED, abs=1e-9)
    for model in (params, ImperfectionParams(visibility=0.9, depol=0.02)):
        assert -1.0 <= invert_s1(0.5, 0.012, model, K_SMALL, cfg) <= 1.0
        # the Fig. 2 sweep and the model curve read the same kernel on two grids
        run_fig2(RunPlan(seed=3), PSI_42, model, [0.006, 0.5, 1.0], cfg)
        model_weak_value_curve(model, PSI_42, [0.006, 0.5, 1.0], cfg)
    assert (builds, channels) == ([cfg], [])
    imperfect_channel(None, params, cfg)  # the channel path itself is counted
    assert (builds, channels) == ([cfg], [7])
    with pytest.raises(TypeError, match="meter must be a MeterSetting"):
        fit_visibility(0.012, PSI_42, None)


def test_a_config_builds_its_gate_once_and_every_call_reads_it(monkeypatch):
    import weakpol.device as device

    cfg, calls, build = OFF_BALANCE[0], [], device.transfer_matrix

    def counted(c):
        calls.append(c)
        return build(c)

    monkeypatch.setattr(device, "transfer_matrix", counted)
    meter, model = MeterSetting.from_strength(0.2), ImperfectionParams(visibility=0.9, depol=0.02)
    run_device(PSI_42, meter, cfg)
    distinguishable_device(PSI_42, meter, cfg)
    p_h, p_v, p_a = channel_postselected_probs(
        imperfect_channel(None, model, cfg), PSI_42, meter, antidiagonal()
    )
    target = channel_postselected_probs(
        imperfect_channel(None, ImperfectionParams(visibility=0.9), cfg), PSI_42, meter,
        antidiagonal(),
    )[2]
    assert fit_visibility(target, PSI_42, meter, cfg).visibility == pytest.approx(0.9, abs=1e-12)
    assert invert_s1((p_h - p_v) / 0.2, p_a, model, meter, cfg) == pytest.approx(S1_42, abs=1e-9)
    run_fig2(RunPlan(seed=3), PSI_42, model, [0.006, 0.5, 1.0], cfg)
    model_weak_value_curve(model, PSI_42, [0.006, 0.5, 1.0], cfg)
    assert calls == []
    built = DeviceConfig(balance_eta=0.3)
    assert calls == [built]


def test_fit_and_inversion_keep_the_trace_guard(monkeypatch):
    import weakpol.device as device

    # without balancing loss the gate's largest effect eigenvalue is exactly 1,
    # so gate parts scaled by 1.5 make a trace-increasing model
    cfg = DeviceConfig(balance_eta=1.0)
    meter = MeterSetting.from_strength(0.2)
    params = ImperfectionParams(visibility=0.5, depol=0.3)
    p_h, p_v, p_a = channel_postselected_probs(
        imperfect_channel(None, params, cfg), PSI_42, meter, antidiagonal()
    )
    assert invert_s1((p_h - p_v) / 0.2, p_a, params, meter, cfg) == pytest.approx(S1_42, abs=1e-9)
    target = channel_postselected_probs(
        imperfect_channel(None, ImperfectionParams(visibility=0.5), cfg), PSI_42, meter,
        antidiagonal(),
    )[2]
    assert fit_visibility(target, PSI_42, meter, cfg).visibility == pytest.approx(0.5, abs=1e-12)
    # every array a config carries is a product of two transfer-matrix entries, so the
    # config built below carries gate parts scaled by 1.5
    build = device.transfer_matrix
    monkeypatch.setattr(device, "transfer_matrix", lambda c: math.sqrt(1.5) * build(c))
    cfg = DeviceConfig(balance_eta=1.0)
    with pytest.raises(ValueError, match="channel increases trace"):
        fit_visibility(target, PSI_42, meter, cfg)
    for model in (ImperfectionParams(), params):
        with pytest.raises(ValueError, match="channel increases trace"):
            invert_s1((p_h - p_v) / 0.2, p_a, model, meter, cfg)


def test_fit_below_ideal_floor_is_infeasible():
    with pytest.raises(InfeasibleTargetError):
        fit_visibility(0.001, PSI_42, K_SMALL)  # ideal floor is ~0.00275


def test_fit_above_the_model_ceiling_is_infeasible():
    with pytest.raises(InfeasibleTargetError, match="above the model ceiling"):
        fit_visibility(0.5, PSI_42, K_SMALL)


def test_inversion_refuses_a_strength_that_rounds_to_zero():
    meter = MeterSetting(math.sqrt(0.5))  # gamma^2 - gammabar^2 is about 2e-16
    assert 0.0 < abs(meter.strength) < 1e-15
    # an unbalanced Hadamard biases the meter: (W_H - W_V) / K divides a nonzero dc0 by K
    with pytest.raises(ZeroStrengthError, match="weak value undefined") as excinfo:
        invert_s1(1.0, 0.01, ImperfectionParams(), meter, DeviceConfig(hadamard_eta=0.4))
    assert excinfo.value.code == "weak_value_unbounded"


def test_fit_rejects_non_finite_target():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="target_p_a must be finite"):
            fit_visibility(bad, PSI_42, K_SMALL)


def test_fit_rejects_input_blind_to_visibility():
    # P(A) of an H input is 1/2 at every visibility, so v is not identifiable
    for k in (1.0, 0.5):
        with pytest.raises(InfeasibleTargetError):
            fit_visibility(0.5, horizontal(), MeterSetting.from_strength(k))


def test_fit_with_a_never_succeeding_input_raises_typed_error():
    # without balancing loss an H input never succeeds at v = 1, so its
    # success weight is 0; this used to leak a bare ZeroDivisionError
    with pytest.raises(PostselectionImpossibleError):
        fit_visibility(0.5, horizontal(), MeterSetting(1.0), DeviceConfig(balance_eta=0.0))


# --- model curve ------------------------------------------------------------------

def test_ideal_curve_matches_analytic_everywhere():
    ks = list(np.linspace(0.006, 1.0, 60))
    curve = model_weak_value_curve(ImperfectionParams(), PSI_42, ks)
    for k, wv in curve:
        want = weak_value_analytic(PSI_42, MeterSetting.from_strength(k), antidiagonal())
        assert abs(wv - want) < 1e-10


def test_ideal_curve_reference_points():
    curve = dict(model_weak_value_curve(ImperfectionParams(), PSI_42, [0.006, 0.125, 1.0]))
    assert curve[0.006] == pytest.approx(19.018985734711330, abs=1e-9)
    assert curve[0.125] == pytest.approx(7.8720695653454072, abs=1e-9)
    assert curve[1.0] == pytest.approx(0.10452846326765347, abs=1e-9)


def test_fitted_model_suppressed_below_strong_value():
    params = fit_visibility(0.012, PSI_42, K_SMALL)
    (_, wv), = model_weak_value_curve(params, PSI_42, [1.0])
    assert wv < S1_42


def test_diagonal_input_curve_identically_zero():
    # exact zero by symmetry; the numerical residue is rounding noise
    # amplified by the tiny postselection weight at small strength
    for v in (0.0, 0.7, V_FITTED, 1.0):
        curve = model_weak_value_curve(
            ImperfectionParams(visibility=v), diagonal(), [0.006, 0.3, 1.0]
        )
        for _, wv in curve:
            assert abs(wv) < 1e-10


def test_postselected_probs_match_closed_form_for_complex_posts():
    # real posts cannot tell a post ket projected without its conjugate
    rng = np.random.default_rng(31)
    channel = imperfect_channel(None, ImperfectionParams())
    for _ in range(50):
        psi, post = random_polarization(rng), random_polarization(rng)
        meter = MeterSetting.from_strength(rng.uniform(-1.0, 1.0))
        got = channel_postselected_probs(channel, psi, meter, post)
        want = postselected_probs(psi, meter, post)
        assert np.max(np.abs(np.subtract(got, want))) < 1e-12


@pytest.mark.parametrize("v, p", [(1.0, 0.0), (0.96, 0.0), (0.9, 0.02), (0.0, 1.0)])
def test_complementary_decomposition_holds_under_every_channel(v, p):
    # sum_X P(X | ok) (p_H - p_V | X) over a complete pair of posts X is the
    # unpostselected meter imbalance: term_A + term_D = K <s1> for the ideal gate
    channel = imperfect_channel(None, ImperfectionParams(visibility=v, depol=p))
    ks = [0.006, -0.3, 0.7, 1.0]
    circular_left = Polarization(*circular_right().ket().conj())
    rng = np.random.default_rng(17)
    for _ in range(20):
        psi = random_polarization(rng)
        for meter in map(MeterSetting.from_strength, ks):
            p_hh, p_hv, p_vh, p_vv = channel_joint_distribution(channel, psi, meter)
            imbalance = p_hh - p_hv + p_vh - p_vv
            for pair in ((antidiagonal(), diagonal()), (circular_right(), circular_left)):
                probs = [channel_postselected_probs(channel, psi, meter, post) for post in pair]
                total = sum(p_post * (p_h - p_v) for p_h, p_v, p_post in probs)
                assert abs(total - imbalance) < 1e-14


def test_grid_kernel_matches_per_point_loop():
    # the per-point density-matrix form the grid kernel replaced, kept as the reference
    def per_point(channel, signal, meter, post):
        _, rho = channel_output(channel, signal, meter)
        proj_post = np.outer(post.ket(), post.ket().conj())
        meter_probs = [float(np.trace(np.kron(proj_post, np.diag([1.0 - m, m])) @ rho).real)
                       for m in (0, 1)]
        p_post = sum(meter_probs)
        return rho.diagonal().real, [meter_probs[0] / p_post, meter_probs[1] / p_post, p_post]

    rng = np.random.default_rng(83)
    strengths = [-1.0, -0.6, -0.05, -0.006, 0.001, 0.006, 0.05, 0.125, 0.5, 0.9, 1.0]
    inputs = [random_product_input(rng)[0] for _ in range(10)]
    for v, depol in ((1.0, 0.0), (0.96, 0.0), (0.9, 0.02)):
        channel = imperfect_channel(None, ImperfectionParams(v, depol))
        for psi in inputs:
            for post in (antidiagonal(), diagonal()):
                for meter in map(MeterSetting.from_strength, strengths):
                    want_joint, want_cond = per_point(channel, psi, meter, post)
                    assert np.max(np.abs(np.subtract(
                        channel_joint_distribution(channel, psi, meter), want_joint))) < 1e-14
                    assert np.max(np.abs(np.subtract(
                        channel_postselected_probs(channel, psi, meter, post), want_cond))) < 1e-14


def test_zero_weight_anywhere_in_the_grid_raises():
    # the channel keeps only |H,H>: an H signal never succeeds with a V meter
    # (K = -1), and its output is never postselected on V
    keep_hh = TwoQubitChannel(np.diag([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(PostselectionImpossibleError, match="zero weight"):
        channel_postselected_probs(keep_hh, horizontal(), MeterSetting(0.0), antidiagonal())
    with pytest.raises(PostselectionImpossibleError, match="postselection probability is zero"):
        channel_postselected_probs(keep_hh, horizontal(), MeterSetting(1.0), vertical())


def test_zero_strength_in_grid_rejected():
    from weakpol import ZeroStrengthError

    # on a biased meter (an unbalanced Hadamard) K = 0 has no weak limit
    with pytest.raises(ZeroStrengthError):
        model_weak_value_curve(ImperfectionParams(), PSI_42, [0.0, 0.5],
                               DeviceConfig(hadamard_eta=0.4))


# inputs -89.5, -88.5, ..., 89.5 degrees, and meter Hadamards balanced (on and off the
# default splitters) and not (down to one ulp off 0.5)
SWEEP_ANGLES = np.arange(-89.5, 90.0).tolist()
BALANCED_METERS = (DeviceConfig(), DeviceConfig(interfering_eta=0.3))
UNBALANCED_METERS = (DeviceConfig(hadamard_eta=0.4), DeviceConfig(hadamard_eta=0.49999999999999994))


@pytest.mark.parametrize("cfg", BALANCED_METERS)
def test_a_balanced_meter_hadamard_gives_the_weak_limit_at_zero_strength(cfg):
    # no meter bias to divide by K, whatever a float dc0 rounds to: every input returns
    # at K = 0 the value the curve reads at K = 1e-9, and invert_s1 takes it back to <s1>
    for v in (1.0, 0.99, 0.96, 0.9):
        for t in SWEEP_ANGLES:
            (_, at_zero), (_, at_1e9) = model_weak_value_curve(
                ImperfectionParams(v), Polarization.from_degrees(t), [0.0, 1e-9], cfg)
            assert abs(at_zero - at_1e9) <= 1e-10 * abs(at_1e9), (v, t)
    model, meter = ImperfectionParams(0.96), MeterSetting.from_strength(0.0)
    for t in (42.0, -83.5, 35.5):
        psi = Polarization.from_degrees(t)
        p_a = channel_postselected_probs(imperfect_channel(None, model, cfg), psi, meter,
                                         antidiagonal())[2]
        value = model_weak_value_curve(model, psi, [0.0], cfg)[0][1]
        assert abs(invert_s1(value, p_a, model, meter, cfg) - math.cos(math.radians(2 * t))) <= 1e-12


@pytest.mark.parametrize("cfg", UNBALANCED_METERS)
def test_any_other_meter_hadamard_refuses_zero_strength(cfg):
    # every input and post, post H included, though its bias is 0 on hadamard_eta = 0.4
    model, meter = ImperfectionParams(0.96), MeterSetting.from_strength(9.9e-15)
    for post in (antidiagonal(), diagonal(), horizontal(), vertical()):
        with pytest.raises(ZeroStrengthError):
            invert_s1(1.0, 0.01, model, meter, cfg, post)
        for t in SWEEP_ANGLES:
            with pytest.raises(ZeroStrengthError):
                model_weak_value_curve(model, Polarization.from_degrees(t), [9.9e-15], cfg, post)


def test_no_meter_encodes_an_exact_zero_strength():
    # _imbalance_over_k multiplies a balanced meter's dc0 = 0 by 1 / K, so an exact
    # K = 0 would give NaN: no gamma within 3 ulps of sqrt(1/2) and no grid 0 encodes it
    gammas = [math.sqrt(0.5)]
    for _ in range(3):
        gammas = [math.nextafter(gammas[0], 0.0), *gammas, math.nextafter(gammas[-1], 1.0)]
    assert len(set(gammas)) == 7
    assert all(MeterSetting(g).strength != 0.0 for g in gammas)
    assert np.all(_grid_strengths([0.0, -0.0]) != 0.0)


def test_grid_strengths_equal_the_meter_setting_strengths_bit_for_bit():
    # the grid path and the one-strength path square gamma alike, so a meter reads back,
    # as its strength, the K that the grid's zero rule judges and its weights are read at
    ks = np.concatenate([np.random.default_rng(0).uniform(-1.0, 1.0, 20_000),
                         np.geomspace(1e-3, 1.0, 400)])
    meters = [MeterSetting.from_strength(k) for k in ks.tolist()]
    assert np.array_equal(_grid_strengths(ks), np.array([m.strength for m in meters]))


# --- process tomography -----------------------------------------------------------

def random_channel(rng, n_kraus=3):
    ks = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(n_kraus)]
    total = sum(k.conj().T @ k for k in ks)
    scale = math.sqrt(np.max(np.linalg.eigvalsh(total)).real) * (1.0 + 1e-12)
    return TwoQubitChannel([k / scale for k in ks])


def random_density(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def test_identity_channel_chi_is_a_single_unit_entry():
    chi = process_tomography(TwoQubitChannel([np.eye(4)]))
    want = np.zeros((16, 16))
    want[0, 0] = 1.0
    assert np.max(np.abs(chi.matrix - want)) < 1e-12


def test_ideal_device_chi_rank_one_trace_ninth():
    chi = process_tomography(imperfect_channel(None, ImperfectionParams()))
    assert abs(chi.trace() - 1.0 / 9.0) < 1e-8
    evals = np.sort(chi.eigenvalues())
    assert evals[-1] > 1e-3
    assert abs(evals[-2]) < 1e-10  # a pure process
    assert np.sum(np.abs(evals) > 1e-9) == 1


def test_mixed_device_chi_rank_above_one():
    chi = process_tomography(imperfect_channel(None, ImperfectionParams(visibility=0.9)))
    assert np.sum(np.abs(chi.eigenvalues()) > 1e-9) >= 2
    assert chi.hermiticity_defect() < 1e-10
    assert np.min(chi.eigenvalues()) > -1e-8


def test_chi_roundtrip_on_random_channels():
    rng = np.random.default_rng(77)
    for _ in range(10):
        channel = random_channel(rng)
        chi = process_tomography(channel)
        for _ in range(5):
            rho = random_density(rng)
            assert np.max(np.abs(chi.apply(rho) - channel.apply(rho))) < 1e-8


@pytest.mark.parametrize("cfg", (DeviceConfig(),) + OFF_BALANCE)
@pytest.mark.parametrize("v, p", [(0.93, 0.02), (1.0, 0.0), (0.0, 1.0)])
def test_chi_roundtrip_on_device_channel_many_states(v, p, cfg):
    rng = np.random.default_rng(78)
    channel = imperfect_channel(None, ImperfectionParams(visibility=v, depol=p), cfg)
    chi = process_tomography(channel)
    for _ in range(50):
        rho = random_density(rng)
        assert np.max(np.abs(chi.apply(rho) - channel.apply(rho))) < 1e-8


def test_chi_trace_equals_mean_success_weight():
    # trace of chi = tr(sum K^dag K)/4 for any operator-sum map
    rng = np.random.default_rng(79)
    channel = random_channel(rng)
    chi = process_tomography(channel)
    want = float(np.trace(sum(k.conj().T @ k for k in channel.kraus)).real / 4.0)
    assert abs(chi.trace() - want) < 1e-10


def test_stacked_kernel_matches_per_operator_loops():
    # the loop forms the stacked expressions replaced, kept as the reference
    rng = np.random.default_rng(82)
    channel = imperfect_channel(None, ImperfectionParams(visibility=0.9, depol=0.02))
    rhos = np.array([random_density(rng) for _ in range(3)])
    for rho, out in zip(rhos, channel.apply(rhos)):
        want = np.zeros((4, 4), dtype=complex)
        for k in channel.kraus:
            want += k @ rho @ k.conj().T
        assert np.array_equal(channel.apply(rho), want)
        assert np.array_equal(out, want)


def pauli_white_noise_channel(visibility, depol, cfg=DeviceConfig()):
    """Reference: white noise as 16 Pauli Kraus operators after each mixture operator."""
    mixture = imperfect_channel(None, ImperfectionParams(visibility=visibility), cfg).kraus
    paulis = np.concatenate([
        math.sqrt(1.0 - depol + depol / 16.0) * PAULI_2[:1],
        math.sqrt(depol) / 4.0 * PAULI_2[1:],
    ])
    return TwoQubitChannel((paulis[:, None] @ mixture).reshape(-1, 4, 4))


@pytest.mark.parametrize("visibility, depol, cfg", [
    (0.96, 0.02, DeviceConfig()),
    (0.9, 0.02, DeviceConfig()),
    (0.5, 0.3, DeviceConfig()),
    (0.0, 1.0, DeviceConfig()),
    (1.0, 0.5, DeviceConfig()),
    (0.96, 0.02, DeviceConfig(balance_eta=0.0)),
    # singular M for which eigh returns a negative rounding eigenvalue (about -1e-18)
    (0.9, 0.02, DeviceConfig(interfering_eta=0.5, balance_eta=0.0, hadamard_eta=1.0 / 3.0)),
])
def test_white_noise_matches_pauli_composition(visibility, depol, cfg):
    channel = imperfect_channel(None, ImperfectionParams(visibility, depol), cfg)
    want = pauli_white_noise_channel(visibility, depol, cfg)
    rng = np.random.default_rng(85)
    rhos = np.array([random_density(rng) for _ in range(4)])
    assert np.max(np.abs(channel.apply(rhos) - want.apply(rhos))) < 1e-15
    chi, want_chi = process_tomography(channel), process_tomography(want)
    assert np.max(np.abs(chi.matrix - want_chi.matrix)) < 1e-15


def test_white_noise_channel_holds_23_operators():
    assert len(imperfect_channel(None, ImperfectionParams(0.96, 0.02)).kraus) == 23
    # without balancing loss sum_k k^dag k is singular: its square root must stay real-valued
    mixture = imperfect_channel(None, ImperfectionParams(0.96), DeviceConfig(balance_eta=0.0)).kraus
    effect = (mixture.conj().swapaxes(-1, -2) @ mixture).sum(axis=0)
    assert np.linalg.matrix_rank(effect, tol=1e-12) == 2


# the 16 product preparations over {H, V, D, R} per qubit, which span the operator space
_TOMO_KETS = np.array([[1, 0], [0, 1], [1, 1], [1, 1j]]) / np.sqrt([1, 1, 2, 2])[:, None]
_TOMO_PRODUCTS = np.einsum("ai,bj->abij", _TOMO_KETS, _TOMO_KETS).reshape(16, 4)
PREPARATIONS = np.einsum("ai,aj->aij", _TOMO_PRODUCTS, _TOMO_PRODUCTS.conj())


def vec(m):
    """Column-stacking vectors of a stack of 4x4 matrices, one per row."""
    return m.swapaxes(-1, -2).reshape(-1, 16)


def apply_einsum_chi(channel):
    """Reference: linear-inversion tomography, a solve for the superoperator, einsum to chi."""
    outputs = channel.apply(PREPARATIONS)
    s = np.linalg.solve(vec(PREPARATIONS), vec(outputs)).T
    return np.einsum("nba,mij,aibj->mn", PAULI_2.conj(), PAULI_2.conj(),
                     s.reshape(4, 4, 4, 4)) / 16.0


def einsum_superoperator(chi):
    """Reference: column-stacking superoperator of chi, sum_mn chi_mn kron(P_n^T, P_m)."""
    return np.einsum("mn,nba,mij->aibj", chi, PAULI_2, PAULI_2).reshape(16, 16)


def reference_channels():
    rng = np.random.default_rng(86)
    yield TwoQubitChannel([np.eye(4)])
    for visibility, depol in ((1.0, 0.0), (0.96, 0.0), (0.9, 0.02)):
        yield imperfect_channel(None, ImperfectionParams(visibility, depol))
    yield pauli_white_noise_channel(0.96, 0.02)
    for n_kraus in (1, 2, 3, 5, 8):
        yield random_channel(rng, n_kraus)


def test_tomography_matches_apply_einsum_reference():
    channels = list(reference_channels())
    assert len(channels[4].kraus) == 112
    for channel in channels:
        chi = process_tomography(channel)
        assert np.max(np.abs(chi.matrix - apply_einsum_chi(channel))) < 1e-15


def test_chi_apply_matches_superoperator_form():
    rng = np.random.default_rng(84)
    chi = process_tomography(imperfect_channel(None, ImperfectionParams(visibility=0.9, depol=0.02)))
    s = einsum_superoperator(chi.matrix)
    rhos = np.array([random_density(rng) for _ in range(6)])
    want = np.array([(s @ rho.reshape(16, order="F")).reshape(4, 4, order="F") for rho in rhos])
    assert np.max(np.abs(chi.apply(rhos[0]) - want[0])) < 1e-15
    assert np.max(np.abs(chi.apply(rhos) - want)) < 1e-15
    assert np.max(np.abs(chi.apply(rhos.reshape(2, 3, 4, 4)) - want.reshape(2, 3, 4, 4))) < 1e-15


def _format_chi_csv_per_value(chi):
    """Reference chi writer: one format() call per real and imaginary part."""
    lines = []
    for row in chi.matrix:
        flat = []
        for z in row:
            flat.append(format(float(z.real), ".17g"))
            flat.append(format(float(z.imag), ".17g"))
        lines.append(",".join(flat))
    return "\n".join(lines) + "\n"


def test_format_chi_csv_matches_the_per_value_writer():
    rng = np.random.default_rng(18)
    planted = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.0 / 3.0]
    for _ in range(300):
        scale = 10.0 ** rng.uniform(-20, 20, size=(2, 16, 16))
        m = rng.standard_normal((16, 16)) * scale[0] + 1j * rng.standard_normal((16, 16)) * scale[1]
        flat = m.reshape(-1)
        at = rng.choice(256, size=12, replace=False)
        flat[at[:6]] = rng.choice(planted, size=6) + 0j
        flat[at[6:]] = 1j * rng.choice(planted, size=6) + rng.choice(planted, size=6)
        # as given, transposed and reversed (both non-contiguous views) and real-only
        for variant in (m, m.T, m[::-1, ::-1], m.real):
            chi = ChiMatrix(variant)
            assert format_chi_csv(chi) == _format_chi_csv_per_value(chi)


def test_chi_csv_roundtrip(tmp_path):
    chi = process_tomography(imperfect_channel(None, ImperfectionParams(visibility=0.9)))
    path = tmp_path / "chi.csv"
    _write_atomic({str(path): format_chi_csv(chi)})
    back = read_chi_csv(path)
    assert np.max(np.abs(back.matrix - chi.matrix)) < 1e-15
    with open(path) as fh:
        first = fh.readline().strip().split(",")
    assert len(first) == 32  # real/imag interleaved


def test_failed_chi_write_leaves_old_file(tmp_path, monkeypatch):
    import weakpol.counting as counting

    chi = process_tomography(imperfect_channel(None, ImperfectionParams(visibility=0.9)))
    path = tmp_path / "chi.csv"
    _write_atomic({str(path): format_chi_csv(chi)})
    before = path.read_bytes()

    def fail(_src, _dst):
        raise OSError("disk full")

    # the new text reaches its temp file; the rename into place then fails
    monkeypatch.setattr(counting.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        _write_atomic({str(path): format_chi_csv(process_tomography(imperfect_channel(
            None, ImperfectionParams(visibility=0.5))))})
    assert path.read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))


def _write_rows(path, rows):
    path.write_text("".join(",".join(str(x) for x in row) + "\n" for row in rows))


def test_read_chi_csv_rejects_malformed_shapes(tmp_path):
    path = tmp_path / "chi.csv"
    cases = [
        ("row 1:", [[0.0] * 64] * 8),  # 8 x 64 values used to reshape into 16 x 16
        ("row 1:", [[0.0] * 33] * 16),  # an odd count used to drop the last value
        ("row 16:", [[0.0] * 32] * 15 + [[0.0] * 34]),
        ("row 4:", [[0.0] * 32] * 3 + [[0.0] * 30] + [[0.0] * 32] * 12),
        ("row 16:", [[0.0] * 32] * 15),
        ("row 17:", [[0.0] * 32] * 17),
    ]
    for message, rows in cases:
        _write_rows(path, rows)
        with pytest.raises(ValueError, match=message):
            read_chi_csv(path)


def test_read_chi_csv_rejects_non_finite_values(tmp_path):
    path = tmp_path / "chi.csv"
    _write_rows(path, [["nan"] * 32] * 16)
    with pytest.raises(ValueError, match="row 1:"):
        read_chi_csv(path)
    rows = [[0.0] * 32 for _ in range(16)]
    rows[5][7] = "inf"
    _write_rows(path, rows)
    with pytest.raises(ValueError, match="row 6:"):
        read_chi_csv(path)
    rows[5][7] = "x"
    _write_rows(path, rows)
    with pytest.raises(ValueError, match="row 6:"):
        read_chi_csv(path)


def test_pauli_basis_is_orthogonal():
    for m, p in enumerate(PAULI_2):
        for n, q in enumerate(PAULI_2):
            want = 4.0 if m == n else 0.0
            assert abs(np.trace(p.conj().T @ q) - want) < 1e-12


# --- inversion --------------------------------------------------------------------

def test_invert_ideal_reduces_to_complementary_decomposition():
    wv = weak_value_analytic(PSI_42, K_SMALL, antidiagonal())
    from weakpol import postselected_probs

    _, _, p_a = postselected_probs(PSI_42, K_SMALL, antidiagonal())
    got = invert_s1(wv, p_a, ImperfectionParams(), K_SMALL)
    assert abs(got - S1_42) < 1e-12


def test_curve_and_inversion_hold_at_the_smallest_nonzero_strengths():
    # between the zero rule's 1e-14 and 3e-12 a W_H - W_V scaled by 1 / K read 4.016, 4.050
    # and 4.042 here, and invert_s1 refused its own model's value as input-free; the meter
    # harmonics cancel K by hand, so value and inversion hold at every K, down to the weak
    # limit at K = 0, where the balanced gate's meter has no bias to divide by K
    params, values = ImperfectionParams(0.96), []
    for k in (0.0, 1e-15, -1e-15, 2e-14, 1e-13, 1e-12):
        meter = MeterSetting.from_strength(k)
        wv = model_weak_value_curve(params, PSI_42, [k])[0][1]
        p_a = channel_postselected_probs(imperfect_channel(None, params), PSI_42, meter,
                                         antidiagonal())[2]
        assert abs(invert_s1(wv, p_a, params, meter) - S1_42) < 1e-12
        values.append(wv)
    assert max(values) - min(values) <= 1e-13 * values[0]


def test_inversion_of_the_model_curve_returns_s1_on_the_default_gate():
    # a balanced meter's probes H, V and D carry no meter bias, so no rounding dc0 / K
    # enters the quadratic that the inversion solves
    for post in (antidiagonal(), diagonal()):
        for v in (1.0, 0.99, 0.96, 0.9):
            params = ImperfectionParams(v)
            channel = imperfect_channel(None, params)
            for k in (0.006, 0.05, 0.5, 1.0):
                meter = MeterSetting.from_strength(k)
                for t in np.arange(-89.5, 90.0, 3.0).tolist():
                    psi = Polarization.from_degrees(t)
                    wv = model_weak_value_curve(params, psi, [k], post=post)[0][1]
                    p_a = channel_postselected_probs(channel, psi, meter, post)[2]
                    got = invert_s1(wv, p_a, params, meter, post=post)
                    assert abs(got - math.cos(math.radians(2.0 * t))) <= 1e-13, (v, k, t)


def test_invert_roundtrip_through_fitted_model():
    params = fit_visibility(0.012, PSI_42, K_SMALL)
    channel = imperfect_channel(None, params)
    p_h, p_v, p_a = channel_postselected_probs(channel, PSI_42, K_SMALL, antidiagonal())
    measured_wv = (p_h - p_v) / K_SMALL.strength
    got = invert_s1(measured_wv, p_a, params, K_SMALL)
    assert abs(got - S1_42) < 1e-6


def test_invert_roundtrip_other_strengths_and_states():
    params = ImperfectionParams(visibility=0.95, depol=0.01)
    for k in (0.1, 0.5, 1.0):
        meter = MeterSetting.from_strength(k)
        channel = imperfect_channel(None, params)
        for deg in (35.0, -30.0, -60.0):
            psi = Polarization.from_degrees(deg)
            p_h, p_v, p_a = channel_postselected_probs(channel, psi, meter, antidiagonal())
            got = invert_s1((p_h - p_v) / k, p_a, params, meter)
            assert abs(got - math.cos(math.radians(2.0 * deg))) < 1e-6


def test_invert_out_of_range_raises():
    from weakpol import InversionRangeError

    params = ImperfectionParams(visibility=0.9)
    with pytest.raises(InversionRangeError):
        invert_s1(1e6, 0.012, params, K_SMALL)


def test_invert_rejects_non_finite_measurement():
    # a NaN P(A) used to pick the first root silently: 0.7687 for a true 0.342
    params = ImperfectionParams(visibility=0.96)
    meter = MeterSetting.from_strength(0.5)
    psi = Polarization.from_degrees(35.0)
    p_h, p_v, p_a = channel_postselected_probs(
        imperfect_channel(None, params), psi, meter, antidiagonal()
    )
    wv = (p_h - p_v) / 0.5
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="measured_p_a must be finite"):
            invert_s1(wv, bad, params, meter)
        with pytest.raises(ValueError, match="measured_weak_value must be finite"):
            invert_s1(bad, p_a, params, meter)
    with pytest.raises(TypeError, match="meter must be a MeterSetting"):
        invert_s1(1.0, 0.5, ImperfectionParams(), None)


def test_invert_horizontal_postselection_is_degenerate():
    # postselecting on H gives the same value for every input: nothing to invert
    from weakpol import InversionRangeError

    meter = MeterSetting.from_strength(0.2)
    psi = Polarization.from_degrees(30.0)
    for params in (ImperfectionParams(), ImperfectionParams(visibility=0.9)):
        channel = imperfect_channel(None, params)
        p_h, p_v, p_h_post = channel_postselected_probs(channel, psi, meter, horizontal())
        with pytest.raises(InversionRangeError):
            invert_s1((p_h - p_v) / 0.2, p_h_post, params, meter, post=horizontal())


def _real_quadratic_forms(channel, meter):
    """Meter imbalance and postselection weight as 2x2 forms in (cos t, sin t).

    Taken from the forward channel at the inputs 0, 90 and 45 degrees.
    """
    vals = {}
    for deg in (0.0, 90.0, 45.0):
        psi = Polarization.from_degrees(deg)
        prob, _ = channel_output(channel, psi, meter)
        p_h, p_v, p_a = channel_postselected_probs(channel, psi, meter, antidiagonal())
        vals[deg] = np.array([p_h - p_v, 1.0]) * prob * p_a
    q01 = vals[45.0] - (vals[0.0] + vals[90.0]) / 2.0
    return [np.array([[vals[0.0][i], q01[i]], [q01[i], vals[90.0][i]]]) for i in range(2)]


def test_invert_at_the_model_maximum_and_beyond():
    from weakpol import InversionRangeError

    for params, k in ((ImperfectionParams(), 0.2),
                      (ImperfectionParams(visibility=0.9, depol=0.02), 0.2),
                      (ImperfectionParams(visibility=V_FITTED), 0.006)):
        meter = MeterSetting.from_strength(k)
        channel = imperfect_channel(None, params)
        imbalance, weight = _real_quadratic_forms(channel, meter)
        # the largest weak value sits at the top generalized eigenvector,
        # where the two roots of the inversion merge
        vals, vecs = np.linalg.eig(np.linalg.solve(weight, imbalance))
        top = vecs[:, int(np.argmax(vals.real))].real
        theta = math.atan2(top[1], top[0])
        psi = Polarization.from_angle(theta)
        p_h, p_v, p_a = channel_postselected_probs(channel, psi, meter, antidiagonal())
        wv_max = (p_h - p_v) / k
        assert abs(invert_s1(wv_max, p_a, params, meter) - math.cos(2.0 * theta)) < 1e-6
        with pytest.raises(InversionRangeError):
            invert_s1(wv_max * 1.001, p_a, params, meter)


def test_invert_root_choice_follows_the_measured_p_a():
    # the two roots differ by 0.11 in <s1> but by only 10.5% in P(A), so a
    # P(A) 6% low silently picks the other root; pinned so that a change of
    # the inversion cannot move which root wins
    params = ImperfectionParams(visibility=0.9, depol=0.02)
    meter = MeterSetting.from_strength(0.9)
    psi = Polarization.from_degrees(80.3)
    p_h, p_v, p_a = channel_postselected_probs(
        imperfect_channel(None, params), psi, meter, antidiagonal()
    )
    wv = (p_h - p_v) / 0.9
    assert p_a == pytest.approx(0.43175220012509, abs=1e-12)
    assert invert_s1(wv, p_a, params, meter) == pytest.approx(math.cos(math.radians(160.6)),
                                                              abs=1e-12)
    assert invert_s1(wv, p_a * 0.94, params, meter) == pytest.approx(-0.83272802826764,
                                                                     abs=1e-12)


def channel_weights(params, cfg, signals, meter, post):
    """The six event weights of the product kets |a> (x) |m> from the Kraus stack of
    ``imperfect_channel``, each |<e|k|a, m>|^2 summed over the stack: (S, 6).

    No meter harmonics: the ket is built and every amplitude squared. White
    noise enters as the channel's sqrt(M) operators, not through the noise
    rule of the model kernel.
    """
    bras = np.concatenate([np.kron(post.ket().conj()[None], np.eye(2)), np.eye(4)])
    amps = np.einsum("ei,kij,sj->kse", bras, imperfect_channel(None, params, cfg).kraus,
                     np.kron(signals, meter.ket()))
    return (amps.real ** 2 + amps.imag ** 2).sum(axis=0)


def reference_invert(wv, p_a, params, meter, cfg, post):
    """The inversion on channel-path weights, with the harmonics as 3-vectors."""
    weights = channel_weights(params, cfg, _PREP_KETS, meter, post)
    w_h, w_v, w_ok = weights[:, 0], weights[:, 1], weights[:, 2:].sum(axis=1)
    to_harmonics = np.array([[0.5, 0.5, 0.0], [0.5, -0.5, 0.0], [-0.5, -0.5, 1.0]])
    d, s, ok = to_harmonics @ (w_h - w_v), to_harmonics @ (w_h + w_v), to_harmonics @ w_ok
    d /= meter.strength  # the harmonics of (W_H - W_V) / K, at the paper's strengths
    if np.linalg.norm(np.cross(d, s)) <= _INPUT_FREE_TOL * float(s @ s):
        raise InversionRangeError("nothing to invert")
    c0, c1, c2 = d - wv * s
    amp = math.hypot(c1, c2)
    if abs(c0) > amp + _MISS_TOL * float(np.linalg.norm(s)):
        raise InversionRangeError("out of range")
    centre, spread = math.atan2(c2, c1), math.acos(min(1.0, max(-1.0, -c0 / amp)))
    roots = np.array([centre - spread, centre + spread])
    u = np.stack([np.ones(2), np.cos(roots), np.sin(roots)])
    return math.cos(roots[np.argmin(np.abs(s @ u / (ok @ u) - p_a))])


def outcome(call):
    """A call's value, or InversionRangeError if it raised one."""
    try:
        return call()
    except InversionRangeError:
        return InversionRangeError


@pytest.mark.parametrize("cfg", (DeviceConfig(),) + OFF_BALANCE)
def test_endpoint_weights_match_the_channel_path(cfg, monkeypatch):
    import weakpol.counting as counting

    # the probability grids run_fig2 turns into Poisson means, in call order
    fed, poisson_means = [], counting._poisson_means
    monkeypatch.setattr(counting, "_poisson_means",
                        lambda probs, *rest: fed.append(probs) or poisson_means(probs, *rest))
    rng = np.random.default_rng(87)
    posts = (antidiagonal(), horizontal(), Polarization.from_degrees(17.0),
             random_polarization(rng))
    signals = (Polarization.from_degrees(35.0), Polarization.from_degrees(-60.0))
    inputs = np.concatenate([_PREP_KETS, [PSI_42.ket(), random_polarization(rng).ket()]])
    grid = [0.006, 0.2, 0.9, -0.5, 1.0, -1.0]
    for v, p in REFERENCE_MODELS:
        params = ImperfectionParams(v, p)
        channel = imperfect_channel(None, params, cfg)
        for psi in signals:
            fed.clear()
            run_fig2(RunPlan(seed=5), psi, params, grid, cfg)
            cal, meter_probs = fed
            for k, cal_k, meter_k in zip(grid, cal, meter_probs):
                meter = MeterSetting.from_strength(k)
                want = channel_joint_distribution(channel, diagonal(), meter)
                assert np.max(np.abs(cal_k - want)) < 1e-15
                want = channel_postselected_probs(channel, psi, meter, antidiagonal())[:2]
                assert np.max(np.abs(meter_k - want)) < 1e-15
    inverted, refused = 0, set()
    for k in (0.006, 0.2, 0.9, -0.5):
        meter = MeterSetting.from_strength(k)
        for post in posts:
            for v, p in REFERENCE_MODELS:
                params = ImperfectionParams(v, p)
                want = channel_weights(params, cfg, inputs, meter, post)
                got = _at_strength(_model_harmonics([params], inputs, post, cfg)[0],
                                   meter.strength)
                assert np.max(np.abs(got - want)) < 1e-15  # all six events, the joint four included
                for psi in signals:
                    p_h, p_v, p_a = channel_postselected_probs(
                        imperfect_channel(None, params, cfg), psi, meter, post)
                    got = outcome(lambda: invert_s1((p_h - p_v) / k, p_a, params, meter, cfg, post))
                    ref = outcome(lambda: reference_invert((p_h - p_v) / k, p_a, params, meter, cfg,
                                                           post))
                    if ref is InversionRangeError:
                        assert got is ref
                    else:
                        assert abs(got - ref) < 1e-10
                        inverted += 1
                if p == 0.0:
                    # the fit, against the linear-fractional solution on channel-path weights
                    target = channel_postselected_probs(
                        imperfect_channel(None, params, cfg), PSI_42, meter, post)[2]
                    psi_ends = [channel_weights(ImperfectionParams(e), cfg, PSI_42.ket()[None],
                                                meter, post)[0] for e in (1.0, 0.0)]
                    (a1, s1), (a0, s0) = ((w[0] + w[1], w[2:].sum()) for w in psi_ends)
                    want_v = (target * s0 - a0) / ((a1 - a0) - target * (s1 - s0))
                    if abs(a1 / s1 - a0 / s0) <= 1e-4 * max(a1 / s1, a0 / s0):
                        with pytest.raises(InfeasibleTargetError, match="at every visibility"):
                            fit_visibility(target, PSI_42, meter, cfg, post)
                        refused.add((k, post))
                        continue
                    got = fit_visibility(target, PSI_42, meter, cfg, post).visibility
                    # within 1e-15 in P(post): v carries the rounding of P(post)
                    # over the end-point spread, down to 8.7e-3 relative here
                    assert abs(got - min(max(want_v, 0.0), 1.0)) * abs(a1 / s1 - a0 / s0) < 1e-15
    assert inverted >= 120  # of 192: the rest raise the same error on both paths
    # an H post at K = 0.006 moves P(post) by 4.45e-6 of 0.5523 on the balanced gate
    assert refused == ({(0.006, horizontal())} if cfg == DeviceConfig() else set())


def test_joint_distribution_matches_gate_for_ideal_params():
    channel = imperfect_channel(None, ImperfectionParams())
    from weakpol import device_meter_distribution

    meter = MeterSetting(math.sqrt(0.75))
    got = channel_joint_distribution(channel, diagonal(), meter)
    want = device_meter_distribution(run_device(diagonal(), meter))
    assert np.allclose(got, want, atol=1e-12)
