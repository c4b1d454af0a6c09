"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Expected values tagged as derived were recomputed from their stated
independent oracles (closed forms, brute-force propagation, root-finding,
Monte Carlo over frozen seed sets) before being pinned here.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from weakpol import (
    ImperfectionParams,
    MeterSetting,
    Polarization,
    RunPlan,
    ZeroStrengthError,
    equivalence_fidelity,
    estimate_knowledge,
    estimate_weak_value,
    fit_visibility,
    imperfect_channel,
    invert_s1,
    model_weak_value_curve,
    postselected_probs,
    povm_elements,
    process_tomography,
    run_device,
    run_fig2,
    sample_counts,
    weak_value_analytic,
)
from weakpol.counting import format_fig2_csv, stream_for
from weakpol.imperfection import TwoQubitChannel, channel_postselected_probs
from weakpol.weak_values import antidiagonal, circular_right, diagonal, horizontal, vertical

PSI_42 = Polarization.from_degrees(42.0)
GAMMA_GRID = (1.0 / math.sqrt(2.0), 0.75, 0.8, 0.9, 1.0)
STRONG_VALUE = math.cos(math.radians(84.0))  # 0.10452846326765346


def report(number, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {verdict}  {name}  {detail}")
    assert ok, f"criterion {number}: {name} {detail}"


def random_signal(rng):
    theta = rng.uniform(0.0, math.pi / 2.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return Polarization(math.cos(theta), math.sin(theta) * np.exp(1j * phase))


def test_criterion_01_gate_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst_fid = 1.0
    worst_prob = 0.0
    for gamma in GAMMA_GRID:
        meter = MeterSetting(gamma)
        for _ in range(20):
            signal = random_signal(rng)
            out = run_device(signal, meter)
            worst_fid = min(worst_fid, equivalence_fidelity(out, signal, meter))
            worst_prob = max(worst_prob, abs(out.success_prob - 1.0 / 9.0))
    elapsed = time.perf_counter() - start
    ok = worst_fid >= 1.0 - 1e-10 and worst_prob <= 1e-10 and elapsed < 1.0
    report(1, "gate reproduces the two-qubit contract at 1/9",
           ok, f"min_fid={worst_fid:.3e} max_dP={worst_prob:.2e} t={elapsed:.2f}s")


def test_criterion_02_povm_extraction():
    worst = 0.0
    completeness = 0.0
    probes = (horizontal(), vertical(), diagonal(), circular_right())
    for gamma in GAMMA_GRID:
        meter = MeterSetting(gamma)
        povm = povm_elements(meter)
        completeness = max(
            completeness, float(np.max(np.abs(povm.pi_h + povm.pi_v - np.eye(2))))
        )
        # reconstruct pi_H from device statistics on the probe set
        p = {}
        for name, sig in zip("HVDR", probes):
            dist = np.abs(run_device(sig, meter).amplitudes.reshape(4)) ** 2
            p[name] = dist[0] + dist[2]  # meter H
        rec = np.zeros((2, 2), dtype=complex)
        rec[0, 0] = p["H"]
        rec[1, 1] = p["V"]
        re_off = p["D"] - 0.5 * (p["H"] + p["V"])
        im_off = p["R"] - 0.5 * (p["H"] + p["V"])
        rec[0, 1] = re_off + 1j * im_off
        rec[1, 0] = np.conj(rec[0, 1])
        worst = max(worst, float(np.max(np.abs(rec - povm.pi_h))))
    ok = worst <= 1e-10 and completeness <= 1e-12
    report(2, "device statistics reproduce the measurement operators",
           ok, f"max_err={worst:.2e} completeness={completeness:.2e}")


def test_criterion_03_analytic_curve():
    wv0 = weak_value_analytic(PSI_42, MeterSetting.from_strength(0.0), antidiagonal())
    # oracle: (cos42 + sin42)/(cos42 - sin42), i.e. cot(3 degrees)
    a, b = math.cos(math.radians(42.0)), math.sin(math.radians(42.0))
    oracle0 = (a + b) / (a - b)
    wv1 = weak_value_analytic(PSI_42, MeterSetting.from_strength(1.0), antidiagonal())
    ks = np.linspace(1e-9, 1.0, 100)
    vals = [weak_value_analytic(PSI_42, MeterSetting.from_strength(k), antidiagonal())
            for k in ks]
    monotone = all(x > y for x, y in zip(vals, vals[1:]))
    ok = (abs(wv0 - oracle0) <= 0.001
          and abs(oracle0 - 19.08113668772821) < 1e-9
          and abs(wv1 - 0.104528) <= 1e-6
          and monotone)
    report(3, "analytic curve: weak limit 19.081, strong limit 0.104528, decreasing",
           ok, f"wv(0)={wv0:.5f} wv(1)={wv1:.8f} monotone={monotone}")


def test_criterion_04_extra_spectral_at_desk_scale():
    wv = weak_value_analytic(PSI_42, MeterSetting.from_strength(0.006), antidiagonal())
    ideal_ok = abs(wv - 19.019) < 0.005 and wv > 10.0  # > an order of magnitude out
    # Monte Carlo at the experimental counting scale over frozen seeds 0..499
    meter = MeterSetting.from_strength(0.006)
    g2, gb2 = meter.gamma**2, meter.gammabar**2
    joint = {"HH": g2 / 2, "HV": gb2 / 2, "VH": gb2 / 2, "VV": g2 / 2}
    p_h, p_v, _ = postselected_probs(PSI_42, meter, antidiagonal())
    n_over40 = 0
    n_seeds = 500
    for seed in range(n_seeds):
        k_est = estimate_knowledge(sample_counts(joint, 44.6, 100.0, stream_for(seed, 0, 0)))
        try:
            est = estimate_weak_value(
                sample_counts({"H": p_h, "V": p_v}, 0.52, 1000.0, stream_for(seed, 0, 1)),
                k_est,
            )
        except ZeroStrengthError:
            continue
        if est.value > 40.0:
            n_over40 += 1
    frac = n_over40 / n_seeds
    mc_ok = n_over40 > 0 and n_over40 == 32  # frozen fixture for this stream layout
    report(4, "extra-spectral values: ideal 19.02 at K=0.006; seeds beyond 40 occur",
           ideal_ok and mc_ok, f"wv={wv:.4f} fraction_over_40={frac:.3f}")


def test_criterion_05_complementary_decomposition_identity():
    from weakpol import expectation_decomposition, expectation_s1

    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(1000):
        psi = Polarization.from_angle(rng.uniform(0.02, math.pi / 2 - 0.02))
        k = rng.uniform(1e-4, 1.0)
        _, _, total = expectation_decomposition(psi, MeterSetting.from_strength(k))
        worst = max(worst, abs(total - expectation_s1(psi)))
    ok = worst <= 1e-10
    report(5, "complementary postselections recombine to the expectation",
           ok, f"max_err={worst:.2e}")


def test_criterion_06_calibration_error_scale():
    start = time.perf_counter()
    meter = MeterSetting.from_strength(0.006)
    g2, gb2 = meter.gamma**2, meter.gammabar**2
    joint = {"HH": g2 / 2, "HV": gb2 / 2, "VH": gb2 / 2, "VV": g2 / 2}
    khats = [
        estimate_knowledge(sample_counts(joint, 44.6, 100.0, stream_for(s, 0, 0))).value
        for s in range(1000)
    ]
    sd = float(np.std(khats))
    elapsed = time.perf_counter() - start
    ok = abs(sd - 0.015) <= 0.003 and elapsed < 10.0
    report(6, "calibration runs reproduce the 0.015 strength error",
           ok, f"sd={sd:.4f} t={elapsed:.2f}s")


def test_criterion_07_unbounded_flag_and_hyperbola():
    from weakpol import Estimate

    meter = MeterSetting.from_strength(0.006)
    p_h, p_v, _ = postselected_probs(PSI_42, meter, antidiagonal())
    flag_ok = True
    hyper_ok = True
    for seed in range(200):
        counts = sample_counts({"H": p_h, "V": p_v}, 0.52, 1000.0, stream_for(seed, 1, 1))
        for k_hat, k_sigma in ((0.006, 0.015), (0.02, 0.015), (0.05, 0.015)):
            k_est = Estimate(value=k_hat, sigma=k_sigma,
                             lower=k_hat - k_sigma, upper=k_hat + k_sigma)
            try:
                est = estimate_weak_value(counts, k_est)
            except ZeroStrengthError:
                continue
            want_flag = k_hat - k_sigma <= 0.0
            flag_ok &= est.unbounded_above == want_flag
            asym = est.value * k_hat
            shifted = k_hat + math.copysign(k_sigma, k_hat)
            hyper_ok &= abs(est.worst_case * shifted - asym) <= 1e-12 * max(1.0, abs(asym))
    ok = flag_ok and hyper_ok
    report(7, "unbounded-error flag and hyperbola-correlated worst case",
           ok, f"flags={flag_ok} hyperbola={hyper_ok}")


def test_criterion_08_imperfection_model():
    meter = MeterSetting.from_strength(0.006)
    params = fit_visibility(0.012, PSI_42, meter)
    channel = imperfect_channel(None, params)
    _, _, p_a = channel_postselected_probs(channel, PSI_42, meter, antidiagonal())
    fit_ok = abs(p_a - 0.012) <= 1e-6

    (_, wv_strong), = model_weak_value_curve(params, PSI_42, [1.0])
    drop_ok = wv_strong < 0.104528

    p_h, p_v, p_a_model = channel_postselected_probs(channel, PSI_42, meter, antidiagonal())
    measured_wv = (p_h - p_v) / meter.strength
    inverted = invert_s1(measured_wv, p_a_model, params, meter)
    invert_ok = abs(inverted - STRONG_VALUE) <= 1e-6

    ok = fit_ok and drop_ok and invert_ok
    report(8, "imperfection model: fit 0.012, strong-value drop, inversion round-trip",
           ok,
           f"P(A)={p_a:.7f} v={params.visibility:.6f} wv(1)={wv_strong:.6f} "
           f"inverted={inverted:.8f}")


def test_criterion_09_tomography_roundtrip():
    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(10):
        ks = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(3)]
        total = sum(k.conj().T @ k for k in ks)
        scale = math.sqrt(float(np.max(np.linalg.eigvalsh(total)))) * (1 + 1e-12)
        channel = TwoQubitChannel([k / scale for k in ks])
        chi = process_tomography(channel)
        for _ in range(5):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = m @ m.conj().T
            rho /= np.trace(rho)
            worst = max(worst, float(np.max(np.abs(chi.apply(rho) - channel.apply(rho)))))
    chi_ideal = process_tomography(imperfect_channel(None, ImperfectionParams()))
    trace_ok = abs(chi_ideal.trace() - 1.0 / 9.0) <= 1e-8
    ok = worst <= 1e-8 and trace_ok
    report(9, "process-matrix round trip and ideal trace 1/9",
           ok, f"max_action_err={worst:.2e} trace={chi_ideal.trace():.10f}")


def test_criterion_10_deterministic_output(tmp_path):
    plan = RunPlan(seed=1234)
    grid = [0.006, 0.125, 0.5, 1.0]
    texts = set()
    for workers in (1, 2, 5):
        result = run_fig2(plan, PSI_42, ImperfectionParams(), grid, workers=workers)
        texts.add(format_fig2_csv(result))
        texts.add(format_fig2_csv(run_fig2(plan, PSI_42, ImperfectionParams(), grid,
                                           workers=workers)))
    ok = len(texts) == 1
    # and the CSV writer emits those same bytes plus a metadata sidecar
    from weakpol import write_fig2_csv

    result = run_fig2(plan, PSI_42, ImperfectionParams(), grid)
    path = tmp_path / "fig2.csv"
    meta_path = write_fig2_csv(result, path)
    ok = ok and path.read_text() == next(iter(texts))
    ok = ok and json.loads(Path(meta_path).read_text())["seed"] == 1234
    report(10, "strength-sweep table byte-identical across runs and workers",
           ok, f"distinct_outputs={len(texts)}")
