"""The edge contract of the public API: one row per public function and degenerate input.

Each row states one expectation. Either a named error is raised, or the
value is finite and is held to an independent derivation. A degenerate
input that has no row yet is a decision still to be written down.
"""

import cmath
import math
from unittest import mock

import numpy as np
import pytest

from weakpol import (
    ChiMatrix,
    DeviceConfig,
    FockState,
    ImperfectionParams,
    InfeasibleTargetError,
    InversionRangeError,
    MeterSetting,
    ModeRegistry,
    Polarization,
    PostselectionImpossibleError,
    RunPlan,
    TwoQubitChannel,
    TwoQubitState,
    ZeroStrengthError,
    antidiagonal,
    create_photon,
    diagonal,
    expectation_decomposition,
    expectation_s1,
    fit_visibility,
    horizontal,
    imperfect_channel,
    invert_s1,
    model_weak_value_curve,
    postselected_probs,
    run_device,
    run_fig2,
    vacuum,
    vertical,
    weak_value_analytic,
)
from weakpol import device
from weakpol.counting import _poisson_means
from weakpol.device import device_meter_distribution
from weakpol.imperfection import channel_joint_distribution, channel_postselected_probs
from weakpol.weak_values import target_state

PSI_42 = Polarization.from_degrees(42.0)
K_005 = MeterSetting.from_strength(0.05)
V_096 = ImperfectionParams(visibility=0.96)
V_1 = ImperfectionParams(visibility=1.0)
NOISE_ONLY = ImperfectionParams(visibility=0.96, depol=1.0)
# the postselected value of PSI_42 at K = 0.05 and v = 0.96, whose P(A) is 0.0132923
WV_42 = 3.8573258213873007
# the default device's P(A) at PSI_42, K = 0.05 and v = 0.96
P_A_42 = 0.013292260460991408
# with no balancing transmission the gate never succeeds on HH or HV
NO_BALANCE = DeviceConfig(balance_eta=0.0)
# balancing transmissions whose HH success weight, eta / 6, lies just above and below 1e-24
WEIGHT_IN, WEIGHT_OUT = DeviceConfig(balance_eta=1e-23), DeviceConfig(balance_eta=1e-25)
# without interfering or balancing reflection: (curve, success probability, fit floor)
FULL_TRANSMISSION = {"interfering_eta": (1.4630769541293898, 0.21087137320492721, "0.0456111"),
                     "balance_eta": (1.7087396364120733, 0.7012170092225111, "0.0909193")}


# meters biased at K = 0, dc0 = c0(meter H) - c0(meter V) not 0: any unbalanced Hadamard,
# down to one ulp off 0.5, where dc0 is 6.2e-16 of c0(meter H) + c0(meter V) at 42 degrees
BIASED = {"hadamard_eta=0.4": DeviceConfig(hadamard_eta=0.4),
          "hadamard_eta=0.49999999999999994": DeviceConfig(hadamard_eta=0.49999999999999994)}
# a balanced meter Hadamard off the default splitters: no bias, whatever the rounding
BALANCED = {"interfering_eta=0.3": DeviceConfig(interfering_eta=0.3)}
# the v = 0.96 curve of PSI_42 at K = 1e-6 on DeviceConfig(interfering_eta=0.3)
WV_42_INTERFERING = 4.845588731998378


def channel_42(cfg, k):
    """(P_H, P_V, P(A | success)) of PSI_42 at v = 0.96 on the channel of ``cfg``, at ``k``."""
    return channel_postselected_probs(imperfect_channel(None, V_096, cfg), PSI_42,
                                      MeterSetting.from_strength(k), antidiagonal())


def p_a_42(v, k=0.05, post=antidiagonal()):
    """P(post | success) of PSI_42 on the default device's channel at visibility ``v``."""
    return channel_postselected_probs(imperfect_channel(None, ImperfectionParams(v)), PSI_42,
                                      MeterSetting.from_strength(k), post)[2]


def newton_steps(offset):
    """Meter-phase Newton iterations of local_phase_fidelity, counted by its cmath.exp calls,
    for an optimum ``offset`` rad past a grid point, from which the first step is ``offset``."""
    got = np.array([1.0, cmath.exp(-1j * (256 * device._PHASE_CELL + offset)), 0.0, 0.0])
    with mock.patch.object(cmath, "exp", wraps=cmath.exp) as exp:
        device.local_phase_fidelity(got, np.ones(4))
    return exp.call_count


def curve_over_channel(cfg, k):
    """The model curve at ``k`` over (P_H - P_V) / K of the channel view, the reference."""
    p_h, p_v, _ = channel_42(cfg, k)
    return (model_weak_value_curve(V_096, PSI_42, [k], cfg)[0][1]
            / ((p_h - p_v) / MeterSetting.from_strength(k).strength))


# the s1 eigenstates and the input orthogonal to post A, with their <s1>
EDGE_INPUTS = (("H", horizontal(), 1.0), ("V", vertical(), -1.0), ("D", diagonal(), 0.0))


def forward_096(psi):
    """(model value, P(A | success)) of ``psi`` at v = 0.96 and K = 0.05: what is measured."""
    return (model_weak_value_curve(V_096, psi, [0.05])[0][1],
            channel_postselected_probs(imperfect_channel(None, V_096), psi, K_005,
                                       antidiagonal())[2])


def largest_gap(got, want):
    """The largest entrywise |got - want| of two sequences of probabilities."""
    return max(abs(g - w) for g, w in zip(got, want, strict=True))


# the product state |HH> as TwoQubitState amplitudes, and totals just inside and outside NORM_TOL
H_H = np.array([[1.0, 0.0], [0.0, 0.0]])
NORM_IN, NORM_OUT = 1.0 + 0.9e-9, 1.0 + 1.1e-9
# one mode, for a one-photon FockState of a given squared norm
ONE_MODE = ModeRegistry(["a"])
# top effect eigenvalues just inside and outside the trace guard's 1 + 1e-10
TRACE_IN, TRACE_OUT = 1.0 + 5e-11, 1.0 + 2e-10


# K_005's encoded strength and sqrt(1 - K^2); at v = 1 the model's value ranges over [-1/K, 1/K]
K, ROOT = K_005.strength, math.sqrt(1.0 - K_005.strength ** 2)


def beyond_extreme(miss):
    """A value past the coherent model's extreme 1/K whose equation misses by ``miss`` |s|.

    At v = 1 and post A the harmonics of (W_H - W_V) / K and W_H + W_V are
    d = N (0, 1, 0) and s = N (1, 0, -ROOT), so a value w misses by
    N (w - sqrt(1 + w^2 ROOT^2)) = miss |s|, solved for w.
    """
    t = miss * math.sqrt(1.0 + ROOT ** 2)
    return (t + math.sqrt(t * t * ROOT ** 2 + K * K)) / (K * K)


def with_entry(shape, value):
    """Zeros of ``shape`` with ``value`` in the first entry."""
    out = np.zeros(shape, dtype=complex)
    out.flat[0] = value
    return out


# row id -> (call, expectation): an (error, message pattern) pair, or the value to hold to
ROWS = {
    **{f"invert_s1-p_a={p_a}": (lambda p_a=p_a: invert_s1(WV_42, p_a, V_096, K_005),
                                (ValueError, "measured_p_a"))
       for p_a in (-3.0, 7.0, 1e9, math.nan)},
    # each term w P(X) stays finite at K = 0: 0.0522642 for A and D at 42 degrees
    "expectation_decomposition-K=0": (
        lambda: sum(expectation_decomposition(PSI_42, MeterSetting.from_strength(0.0))[:2]),
        expectation_s1(PSI_42)),
    # projective in either meter basis, the postselected value is <s1> = 0.1045285
    **{f"weak_value_analytic-K={k}": (
        lambda k=k: weak_value_analytic(PSI_42, MeterSetting.from_strength(k), antidiagonal()),
        expectation_s1(PSI_42)) for k in (1.0, -1.0)},
    **{f"expectation_decomposition-K={k}": (
        lambda k=k: expectation_decomposition(PSI_42, MeterSetting.from_strength(k))[2],
        expectation_s1(PSI_42)) for k in (1.0, -1.0)},
    # at depol = 1 every output is proportional to I/4: the meter outcomes are even for any input
    "model_weak_value_curve-depol=1": (
        lambda: model_weak_value_curve(NOISE_ONLY, PSI_42, [0.05])[0][1], 0.0),
    "invert_s1-depol=1": (lambda: invert_s1(WV_42, 0.25, NOISE_ONLY, K_005),
                          (InversionRangeError, "does not depend on the input")),
    # the balanced gate has no meter bias to divide by K: K = 0 gives the weak limit, the
    # value the curve reads at every K up to 1e-9, bit for bit
    "model_weak_value_curve-K=0": (lambda: model_weak_value_curve(V_096, PSI_42, [0.0])[0][1],
                                   4.0423077493282245),
    # on the default gate K = 0 returns for the H, V and 45 degree inputs too: 1 and -v, and
    # the diagonal-input symmetry's 0 (7.9e-15 here); at v = 1, 45 degrees never passes post A
    **{f"model_weak_value_curve-{name},K=0": (
        lambda psi=psi: model_weak_value_curve(V_096, psi, [0.0])[0][1], want)
       for name, psi, want in (("H", horizontal(), 1.0), ("V", vertical(), -0.96),
                               ("45deg", Polarization.from_degrees(45.0), 0.0))},
    "model_weak_value_curve-45deg,v=1,K=0": (
        lambda: model_weak_value_curve(V_1, Polarization.from_degrees(45.0), [0.0]),
        (PostselectionImpossibleError, "zero")),
    # ZERO_STRENGTH_TOL (1e-14) on both sides, on biased meters: below it the curve and the
    # inversion refuse K = 0, post H too, whose bias is 0 on hadamard_eta = 0.4; above it
    # the curve is the channel's (P_H - P_V) / K, 4.5e13 for the Hadamard's real bias, and
    # the inversion takes the curve back to <s1>
    **{f"model_weak_value_curve-{name},K=9.9e-15": (
        lambda cfg=cfg: model_weak_value_curve(V_096, PSI_42, [9.9e-15], cfg),
        (ZeroStrengthError, "K = 0")) for name, cfg in BIASED.items()},
    **{f"invert_s1-{name},K=9.9e-15": (
        lambda cfg=cfg: invert_s1(4.0, 0.01, V_096, MeterSetting.from_strength(9.9e-15), cfg),
        (ZeroStrengthError, "K = 0")) for name, cfg in BIASED.items()},
    "model_weak_value_curve-hadamard_eta=0.4,post=H,K=9.9e-15": (
        lambda: model_weak_value_curve(V_096, PSI_42, [9.9e-15], BIASED["hadamard_eta=0.4"],
                                       horizontal()),
        (ZeroStrengthError, "K = 0")),
    "model_weak_value_curve-hadamard_eta=0.4,K=1.1e-14": (
        lambda: curve_over_channel(BIASED["hadamard_eta=0.4"], 1.1e-14), 1.0),
    # a balanced Hadamard off the default splitters has no bias either: its weak limit on
    # both sides of ZERO_STRENGTH_TOL, with no rounding bias divided by K
    **{f"model_weak_value_curve-interfering_eta=0.3,K={k}": (
        lambda k=k: model_weak_value_curve(V_096, PSI_42, [k], BALANCED["interfering_eta=0.3"])[0][1],
        4.845588732140953) for k in (9.9e-15, 1.1e-14)},
    "invert_s1-hadamard_eta=0.4,K=1.1e-14": (
        lambda: invert_s1(model_weak_value_curve(V_096, PSI_42, [1.1e-14],
                                                 BIASED["hadamard_eta=0.4"])[0][1],
                          channel_42(BIASED["hadamard_eta=0.4"], 1.1e-14)[2], V_096,
                          MeterSetting.from_strength(1.1e-14), BIASED["hadamard_eta=0.4"]),
        expectation_s1(PSI_42)),
    # and the inversion of its K = 1e-6 value gives the same <s1> on both sides, 1.5e-11
    # off cos 84 degrees as that value is 1.4e-10 off the weak limit
    **{f"invert_s1-interfering_eta=0.3,K={k}": (
        lambda k=k: invert_s1(WV_42_INTERFERING, channel_42(BALANCED["interfering_eta=0.3"], k)[2],
                              V_096, MeterSetting.from_strength(k),
                              BALANCED["interfering_eta=0.3"]),
        0.10452846325272569) for k in (9.9e-15, 1.1e-14)},
    **{f"model_weak_value_curve-K={k}": (lambda k=k: model_weak_value_curve(V_096, PSI_42, [k]),
                                         (ValueError, "strength must lie in"))
       for k in (math.nan, math.inf)},
    "model_weak_value_curve-k_grid=empty": (lambda: model_weak_value_curve(V_096, PSI_42, []),
                                            (ValueError, "grid is empty")),
    # the coherent model at v = 1 is the closed form, and so is its inversion
    "model_weak_value_curve-v=1": (lambda: model_weak_value_curve(V_1, PSI_42, [0.05])[0][1],
                                   weak_value_analytic(PSI_42, K_005, antidiagonal())),
    "invert_s1-v=1": (lambda: invert_s1(weak_value_analytic(PSI_42, K_005, antidiagonal()),
                                        postselected_probs(PSI_42, K_005, antidiagonal())[2],
                                        V_1, K_005),
                      expectation_s1(PSI_42)),
    # the channel's own P(A | success) at either end point fits back to that end point
    **{f"fit_visibility-v={v}": (
        lambda v=v: fit_visibility(channel_postselected_probs(
            imperfect_channel(None, ImperfectionParams(v)), PSI_42, K_005, antidiagonal())[2],
            PSI_42, K_005).visibility, v) for v in (1.0, 0.0)},
    # the s1 eigenstates at K = 0.05, post A: the closed form reads +-1, the meter outcomes
    # (1 +- s1 K) / 2 with P(A) = 1/2, and P(A) is 1/2 at every visibility, so no target fixes v
    **{f"weak_value_analytic-{name},K=0.05": (
        lambda psi=psi: weak_value_analytic(psi, K_005, antidiagonal()), s1)
       for name, psi, s1 in EDGE_INPUTS[:2]},
    **{f"postselected_probs-{name},K=0.05": (
        lambda psi=psi, s1=s1: largest_gap(postselected_probs(psi, K_005, antidiagonal()),
                                           ((1.0 + s1 * K) / 2.0, (1.0 - s1 * K) / 2.0, 0.5)), 0.0)
       for name, psi, s1 in EDGE_INPUTS[:2]},
    **{f"fit_visibility-{name},K=0.05": (lambda psi=psi: fit_visibility(0.5, psi, K_005),
                                         (InfeasibleTargetError, "at every visibility"))
       for name, psi, _ in EDGE_INPUTS[:2]},
    # at v = 1 the channel view of H, V and D is the closed form: the postselected triple
    # of postselected_probs, and the joint outcomes |target_state|^2 in (signal, meter) order
    **{f"channel_postselected_probs-{name},v=1,K=0.05": (
        lambda psi=psi: largest_gap(
            channel_postselected_probs(imperfect_channel(None, V_1), psi, K_005, antidiagonal()),
            postselected_probs(psi, K_005, antidiagonal())), 0.0)
       for name, psi, _ in EDGE_INPUTS},
    **{f"channel_joint_distribution-{name},v=1,K=0.05": (
        lambda psi=psi: largest_gap(
            channel_joint_distribution(imperfect_channel(None, V_1), psi, K_005),
            (abs(target_state(psi, K_005)) ** 2).ravel().tolist()), 0.0)
       for name, psi, _ in EDGE_INPUTS},
    # at v = 0.96 each one's own forward values invert to its <s1>, and D's P(A) fits v back
    **{f"invert_s1-{name},v=0.96,K=0.05": (
        lambda psi=psi: invert_s1(*forward_096(psi), V_096, K_005), s1)
       for name, psi, s1 in EDGE_INPUTS},
    "fit_visibility-D,v=0.96,K=0.05": (
        lambda: fit_visibility(forward_096(diagonal())[1], diagonal(), K_005).visibility, 0.96),
    # a diagonal input meets post A only through K: at K = 0 the ideal channel leaves
    # rounding residue (1.7e-32), not a probability to condition on
    "channel_postselected_probs-diagonal,post=A,K=0": (
        lambda: channel_postselected_probs(imperfect_channel(None, V_1), diagonal(),
                                           MeterSetting.from_strength(0.0), antidiagonal()),
        (PostselectionImpossibleError, "zero")),
    # the same input at small K: equal meter weights, with no 1e-16 / K residue, until
    # P(post) = K^2 / 4 falls under the 1e-24 that reads a weight as an exact zero
    **{f"model_weak_value_curve-diagonal,post=A,K={k}": (
        lambda k=k: model_weak_value_curve(V_1, diagonal(), [k])[0][1], 0.0)
       for k in (1e-7, 1e-9, 1e-11)},
    **{f"channel_postselected_probs-diagonal,post=A,K={k}": (
        lambda k=k: channel_postselected_probs(imperfect_channel(None, V_1), diagonal(),
                                               MeterSetting.from_strength(k), antidiagonal())[0],
        0.5) for k in (1e-7, 1e-9, 1e-11)},
    "channel_postselected_probs-diagonal,post=A,K=1e-12": (
        lambda: channel_postselected_probs(imperfect_channel(None, V_1), diagonal(),
                                           MeterSetting.from_strength(1e-12), antidiagonal()),
        (PostselectionImpossibleError, "zero")),
    # the closed-form routes on the same input: d = 0 exactly, with P(post) = K^2 / 4 judged
    # by the one zero-weight rule, so they read 0 (and 1/2) where the model does, and
    # refuse at K = 1e-12 as it does
    **{f"weak_value_analytic-diagonal,post=A,K={k}": (
        lambda k=k: weak_value_analytic(diagonal(), MeterSetting.from_strength(k), antidiagonal()),
        0.0) for k in (1e-7, 1e-9, 1e-11)},
    **{f"expectation_decomposition-diagonal,K={k}": (
        lambda k=k: expectation_decomposition(diagonal(), MeterSetting.from_strength(k))[0], 0.0)
       for k in (1e-7, 1e-9, 1e-11)},
    **{f"postselected_probs-diagonal,post=A,K={k}": (
        lambda k=k: postselected_probs(diagonal(), MeterSetting.from_strength(k),
                                       antidiagonal())[0], 0.5) for k in (1e-7, 1e-9, 1e-11)},
    **{f"{name}-diagonal,post=A,K=1e-12": (call, (PostselectionImpossibleError, "zero"))
       for name, call in (
           ("weak_value_analytic", lambda: weak_value_analytic(
               diagonal(), MeterSetting.from_strength(1e-12), antidiagonal())),
           ("postselected_probs", lambda: postselected_probs(
               diagonal(), MeterSetting.from_strength(1e-12), antidiagonal())),
           ("expectation_decomposition", lambda: expectation_decomposition(
               diagonal(), MeterSetting.from_strength(1e-12))),
           ("model_weak_value_curve", lambda: model_weak_value_curve(V_1, diagonal(), [1e-12])))},
    # invert_s1's _MISS_TOL (1e-12 of |s|): a value whose equation misses by half of it
    # inverts to the merged root cos phi = 1 / sqrt(1 + w^2 ROOT^2); twice it is refused
    "invert_s1-miss=0.5e-12": (
        lambda: invert_s1(beyond_extreme(0.5e-12), 0.5, V_1, K_005),
        1.0 / math.hypot(1.0, beyond_extreme(0.5e-12) * ROOT)),
    "invert_s1-miss=2e-12": (lambda: invert_s1(beyond_extreme(2e-12), 0.5, V_1, K_005),
                             (InversionRangeError, "outside the model's range")),
    # and its _INPUT_FREE_TOL (1e-12): post H at v = 1 gives the value 1 for every input
    # until white noise p adds p W_ok / 2 to W_H + W_V, so |d x s| / |s|^2 = p / 2; at
    # p = 1e-12 that is refused, and at 4e-12 the value 1/2, met only near the V input,
    # where W_H + W_V is that noise alone, inverts to cos phi = p / (1 + p) - 1
    "invert_s1-input_free=0.5e-12": (
        lambda: invert_s1(0.5, 0.5, ImperfectionParams(1.0, 1e-12), K_005, post=horizontal()),
        (InversionRangeError, "does not depend on the input")),
    "invert_s1-input_free=2e-12": (
        lambda: invert_s1(0.5, 0.5, ImperfectionParams(1.0, 4e-12), K_005, post=horizontal()),
        4e-12 / (1.0 + 4e-12) - 1.0),
    "run_fig2-k_grid=nan": (lambda: run_fig2(RunPlan(seed=1), PSI_42, V_096, [math.nan]),
                            (ValueError, "strength must lie in")),
    "run_fig2-k_grid=empty": (lambda: run_fig2(RunPlan(seed=1), PSI_42, V_096, []),
                              (ValueError, "grid is empty")),
    # run_fig2 at the input's edges, seed 1. D is orthogonal to the A post, so at v = 1 and
    # K = 0 there is nothing to postselect; at v = 0.96 there is, and K = 0 is drawn like
    # any other strength. H and V are eigenstates of s1: their rows read about +1 and -1.
    "run_fig2-D,v=1,K=0": (lambda: run_fig2(RunPlan(seed=1), diagonal(), V_1, [0.0]),
                           (PostselectionImpossibleError, "postselection probability is zero")),
    "run_fig2-D,v=0.96,K=0": (
        lambda: run_fig2(RunPlan(seed=1), diagonal(), V_096, [0.0]).rows[0].wv, 3.4006132756132756),
    **{f"run_fig2-{name},v=1,K=0.5": (
        lambda psi=psi: run_fig2(RunPlan(seed=1), psi, V_1, [0.5]).rows[0].wv, wv)
       for name, psi, wv in (("H", horizontal(), 0.9092451367187852),
                             ("V", vertical(), -1.1379935058600557))},
    # an H post at K = 0.006 moves P(post) by 4.45e-6 of 0.5523 over v in [0, 1]:
    # a target error of 1e-7 would move the fitted v by 0.02
    "fit_visibility-post=H,K=0.006": (
        lambda: fit_visibility(0.552262, PSI_42, MeterSetting.from_strength(0.006),
                               post=horizontal()),
        (InfeasibleTargetError, r"P\(post\) is 0.55226 at every visibility")),
    # _FLAT_ENDS_TOL (1e-4) on both sides: the H post's end points lie 0.997e-4 of the top
    # apart at K = 0.0211, refused, and 1.006e-4 at 0.0212, where a target 1e-12 past the
    # ceiling (the v = 1 end) fits v = 1
    "fit_visibility-post=H,K=0.0211": (
        lambda: fit_visibility(p_a_42(1.0, 0.0211, horizontal()), PSI_42,
                               MeterSetting.from_strength(0.0211), post=horizontal()),
        (InfeasibleTargetError, "at every visibility")),
    "fit_visibility-post=H,K=0.0212": (
        lambda: fit_visibility(p_a_42(1.0, 0.0212, horizontal()) + 1e-12, PSI_42,
                               MeterSetting.from_strength(0.0212), post=horizontal()).visibility,
        1.0),
    # _END_SLACK (1e-9) on both sides of each end point of PSI_42 at K = 0.05 under post A:
    # a target 0.9e-9 past it fits that end (v = 1 is the floor), 1.1e-9 past it is refused
    **{f"fit_visibility-{side}{past:+g}": (
        lambda v=v, past=past: fit_visibility(p_a_42(v) + past, PSI_42, K_005).visibility, v)
       for side, v, past in (("floor", 1.0, -0.9e-9), ("ceiling", 0.0, 0.9e-9))},
    **{f"fit_visibility-{side}{past:+g}": (
        lambda v=v, past=past: fit_visibility(p_a_42(v) + past, PSI_42, K_005),
        (InfeasibleTargetError, f"{word} the model {side}"))
       for side, v, past, word in (("floor", 1.0, -1.1e-9, "below"),
                                   ("ceiling", 0.0, 1.1e-9, "above"))},
    # with either splitter at 0 no target fixes v
    **{f"fit_visibility-{eta}=0": (lambda eta=eta: fit_visibility(0.3, PSI_42, K_005,
                                                                  DeviceConfig(**{eta: 0.0})),
                                   (InfeasibleTargetError, r"P\(post\) is 0.5 at every visibility"))
       for eta in ("balance_eta", "interfering_eta")},
    # a non-finite entry is refused by name, before any spectrum or product is taken
    **{f"TwoQubitChannel-entry={bad}": (lambda bad=bad: TwoQubitChannel(with_entry((1, 4, 4), bad)),
                                        (ValueError, "finite"))
       for bad in (math.nan, math.inf)},
    "ChiMatrix-entry=nan": (lambda: ChiMatrix(with_entry((16, 16), math.nan)),
                            (ValueError, "finite")),
    # the DeviceConfig eta end points: an H signal never gives a coincidence, so it
    # has no conditional state; what does succeed carries no input dependence
    "run_device-H,balance_eta=0": (
        lambda: run_device(horizontal(), MeterSetting(1.0), NO_BALANCE),
        (PostselectionImpossibleError, "coincidence probability is zero")),
    # the one zero-weight rule on both sides of 1e-24: the device and the channel view
    # condition on a success weight of 1.7e-24 alike (P_HH = 0.5 + 5.5e-12) and both
    # refuse one of 1.7e-26
    "run_device-H,balance_eta=1e-23": (
        lambda: run_device(horizontal(), MeterSetting(1.0), WEIGHT_IN).success_prob / (1e-23 / 6),
        1.0),
    "channel_joint_distribution-H,balance_eta=1e-23": (
        lambda: channel_joint_distribution(imperfect_channel(None, V_1, WEIGHT_IN), horizontal(),
                                           MeterSetting(1.0))[0]
        - device_meter_distribution(run_device(horizontal(), MeterSetting(1.0), WEIGHT_IN))[0],
        0.0),
    "run_device-H,balance_eta=1e-25": (
        lambda: run_device(horizontal(), MeterSetting(1.0), WEIGHT_OUT),
        (PostselectionImpossibleError, "coincidence probability is zero")),
    "channel_joint_distribution-H,balance_eta=1e-25": (
        lambda: channel_joint_distribution(imperfect_channel(None, V_1, WEIGHT_OUT), horizontal(),
                                           MeterSetting(1.0)),
        (PostselectionImpossibleError, "zero weight")),
    "model_weak_value_curve-balance_eta=0": (
        lambda: model_weak_value_curve(V_096, PSI_42, [0.05], NO_BALANCE)[0][1], 0.0),
    "channel_postselected_probs-balance_eta=0": (
        lambda: channel_postselected_probs(imperfect_channel(None, V_096, NO_BALANCE), PSI_42,
                                           K_005, antidiagonal())[2], 0.49999999999999967),
    "invert_s1-balance_eta=0": (lambda: invert_s1(0.0, 0.5, V_096, K_005, NO_BALANCE),
                                (InversionRangeError, "does not depend on the input")),
    **{f"model_weak_value_curve-hadamard_eta={eta}": (
        lambda eta=eta: model_weak_value_curve(V_096, PSI_42, [0.05],
                                               DeviceConfig(hadamard_eta=eta))[0][1], want)
       for eta, want in ((0.0, 19.53948157416521), (1.0, -19.438859294945114))},
    # at the other end point every value is finite, but the default device's target lies
    # below the model floor and its weak value outside the model's range
    **{f"model_weak_value_curve-{eta}=1": (lambda eta=eta: model_weak_value_curve(
        V_096, PSI_42, [0.05], DeviceConfig(**{eta: 1.0}))[0][1], curve)
       for eta, (curve, _, _) in FULL_TRANSMISSION.items()},
    **{f"run_device-{eta}=1": (
        lambda eta=eta: run_device(PSI_42, K_005, DeviceConfig(**{eta: 1.0})).success_prob, prob)
       for eta, (_, prob, _) in FULL_TRANSMISSION.items()},
    **{f"fit_visibility-{eta}=1": (
        lambda eta=eta: fit_visibility(P_A_42, PSI_42, K_005, DeviceConfig(**{eta: 1.0})),
        (InfeasibleTargetError, f"below the model floor {floor}$"))
       for eta, (_, _, floor) in FULL_TRANSMISSION.items()},
    **{f"invert_s1-{eta}=1": (
        lambda eta=eta: invert_s1(WV_42, P_A_42, V_096, K_005, DeviceConfig(**{eta: 1.0})),
        (InversionRangeError, "outside the model's range"))
       for eta in FULL_TRANSMISSION},
    # each constructor refuses a non-finite field by name
    "Polarization-alpha=nan": (lambda: Polarization(math.nan, 0.0),
                               (ValueError, "not normalized")),
    "MeterSetting-gamma=nan": (lambda: MeterSetting(math.nan),
                               (ValueError, r"gamma must lie in \[0, 1\]")),
    "DeviceConfig-balance_eta=nan": (lambda: DeviceConfig(balance_eta=math.nan),
                                     (ValueError, r"balance_eta must lie in \[0, 1\]")),
    "ImperfectionParams-depol=nan": (lambda: ImperfectionParams(depol=math.nan),
                                     (ValueError, r"depol must lie in \[0, 1\]")),
    "RunPlan-duration_wv=inf": (lambda: RunPlan(duration_wv=math.inf),
                                (ValueError, "duration_wv must be finite")),
    # a success probability may exceed 1 by _SUCCESS_ROUNDING (1e-12) and be exactly 0
    **{f"TwoQubitState-success_prob={p}": (lambda p=p: TwoQubitState(H_H, p).success_prob, p)
       for p in (1.0 + 5e-13, 1.0 + 0.9e-12, 0.0)},
    **{f"TwoQubitState-success_prob={p}": (lambda p=p: TwoQubitState(H_H, p),
                                           (ValueError, "success probability out of range"))
       for p in (1.0 + 1.1e-12, 1.0 + 2e-12, -1e-300, math.nan)},
    # _poisson_means' _NEGATIVE_ROUNDING (1e-12): a probability just above -1e-12 is rounding
    # and counts as a zero mean, one just below is refused
    "_poisson_means-entry=-0.9e-12": (
        lambda: _poisson_means([[-0.9e-12, 1.0]], ("H", "V"), 1.0, 1.0)[0, 0], 0.0),
    "_poisson_means-entry=-1.1e-12": (
        lambda: _poisson_means([[-1.1e-12, 1.0]], ("H", "V"), 1.0, 1.0),
        (ValueError, "negative probability")),
    # NORM_TOL, each site: a total probability 0.9e-9 off 1 is rounding, 1.1e-9 off is refused
    "Polarization-norm=1+0.9e-9": (lambda: abs(Polarization(math.sqrt(NORM_IN), 0.0).alpha) ** 2,
                                   NORM_IN),
    "Polarization-norm=1+1.1e-9": (lambda: Polarization(math.sqrt(NORM_OUT), 0.0),
                                   (ValueError, "not normalized")),
    "TwoQubitState-norm=1+0.9e-9": (
        lambda: np.sum(abs(TwoQubitState(math.sqrt(NORM_IN) * H_H, 0.5).amplitudes) ** 2), NORM_IN),
    "TwoQubitState-norm=1+1.1e-9": (lambda: TwoQubitState(math.sqrt(NORM_OUT) * H_H, 0.5),
                                    (ValueError, "not normalized")),
    "FockState-norm=1+0.9e-9": (
        lambda: FockState(ONE_MODE, {(1,): math.sqrt(NORM_IN)}).norm_sq(), NORM_IN),
    "FockState-norm=1+1.1e-9": (lambda: FockState(ONE_MODE, {(1,): math.sqrt(NORM_OUT)}),
                                (ValueError, "exceeds 1")),
    "create_photon-norm=1+0.9e-9": (
        lambda: create_photon(vacuum(ONE_MODE), {"a": math.sqrt(NORM_IN)}).norm_sq(), NORM_IN),
    "create_photon-norm=1+1.1e-9": (
        lambda: create_photon(vacuum(ONE_MODE), {"a": math.sqrt(NORM_OUT)}),
        (ValueError, "exceeds 1")),
    "_poisson_means-total=1+0.9e-9": (
        lambda: _poisson_means([[NORM_IN, 0.0]], ("H", "V"), 1.0, 1.0).sum(), NORM_IN),
    "_poisson_means-total=1+1.1e-9": (
        lambda: _poisson_means([[NORM_OUT, 0.0]], ("H", "V"), 1.0, 1.0),
        (ValueError, "must sum to 1")),
    # the trace guard: one operator whose effect has a top eigenvalue 5e-11 above 1 is
    # rounding, 2e-10 above is refused; 0.6 I has trace 1.44, so its spectrum is read,
    # and its top eigenvalue 0.36 passes
    "TwoQubitChannel-top_eigenvalue=1+5e-11": (
        lambda: abs(TwoQubitChannel(np.diag([math.sqrt(TRACE_IN), 0, 0, 0])).kraus[0, 0, 0]) ** 2,
        TRACE_IN),
    "TwoQubitChannel-top_eigenvalue=1+2e-10": (
        lambda: TwoQubitChannel(np.diag([math.sqrt(TRACE_OUT), 0, 0, 0])),
        (ValueError, "channel increases trace")),
    "TwoQubitChannel-0.6I": (lambda: TwoQubitChannel(0.6 * np.eye(4)).kraus[0, 3, 3].real, 0.6),
    # local_phase_fidelity's _NEWTON_TOL (1e-9 rad): a first Newton step of 0.9e-9 ends the
    # search, one of 1.1e-9 is taken and a second, rounding-sized step ends it
    **{f"local_phase_fidelity-first_step={offset}": (lambda offset=offset: newton_steps(offset),
                                                     steps)
       for offset, steps in ((0.9e-9, 1), (-0.9e-9, 1), (1.1e-9, 2), (-1.1e-9, 2))},
}


@pytest.mark.parametrize("row", ROWS)
def test_edge_contract(row):
    call, expect = ROWS[row]
    if isinstance(expect, tuple):
        with pytest.raises(expect[0], match=expect[1]):
            call()
    else:
        got = call()
        assert math.isfinite(got) and abs(got - expect) < 1e-12
