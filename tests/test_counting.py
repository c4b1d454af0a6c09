"""Counting statistics, estimators, and the strength-sweep table."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from weakpol import (
    CountSample,
    Estimate,
    ImperfectionParams,
    MeterSetting,
    Polarization,
    RunPlan,
    ZeroCountsError,
    ZeroStrengthError,
    estimate_knowledge,
    estimate_weak_value,
    model_weak_value_curve,
    postselected_probs,
    run_fig2,
    sample_counts,
    weak_value_analytic,
    write_fig2_csv,
)
from weakpol.counting import (
    CSV_HEADER,
    K_RUN,
    WV_RUN,
    _philox_keys,
    _rekey,
    format_fig2_csv,
    stream_for,
)
from weakpol.imperfection import channel_joint_grid, channel_postselected_grid, imperfect_channel
from weakpol.weak_values import antidiagonal, diagonal

PSI_42 = Polarization.from_degrees(42.0)


def calibration_probs(k):
    meter = MeterSetting.from_strength(k)
    g2, gb2 = meter.gamma**2, meter.gammabar**2
    return {"HH": g2 / 2, "HV": gb2 / 2, "VH": gb2 / 2, "VV": g2 / 2}


# --- sampling -----------------------------------------------------------------

def test_fixed_seed_reproduces_counts():
    probs = calibration_probs(0.3)
    a = sample_counts(probs, 44.6, 100.0, 123)
    b = sample_counts(probs, 44.6, 100.0, 123)
    assert a.counts == b.counts


def test_zero_duration_gives_zero_counts():
    sample = sample_counts(calibration_probs(0.3), 44.6, 0.0, 1)
    assert sample.total() == 0


def test_poisson_moments_at_calibration_scale():
    # mean 4460, sd sqrt(4460) ~ 66.8 for the total count
    totals = np.array([
        sample_counts(calibration_probs(0.0), 44.6, 100.0, s).total()
        for s in range(10_000)
    ])
    mean, sd = totals.mean(), totals.std()
    # 3 sigma bands for the sample mean and sample sd of 10^4 draws
    assert abs(mean - 4460.0) < 3.0 * 66.8 / 100.0
    assert abs(sd - math.sqrt(4460.0)) < 3.0 * 66.8 / math.sqrt(2.0 * 10_000)


def test_sample_counts_validates_distribution():
    with pytest.raises(ValueError):
        sample_counts({"H": 0.4, "V": 0.4}, 1.0, 1.0, 0)
    with pytest.raises(ValueError):
        sample_counts({"H": -0.2, "V": 1.2}, 1.0, 1.0, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sample_counts_rejects_non_finite_rate_or_duration(bad):
    probs = {"H": 0.5, "V": 0.5}
    for rate, duration in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(ValueError, match="rate and duration must be finite and non-negative"):
            sample_counts(probs, rate, duration, 0)


# --- knowledge estimator --------------------------------------------------------

def test_knowledge_point_estimate_and_sigma():
    sample = CountSample(counts={"HH": 300, "VV": 290, "HV": 200, "VH": 210}, duration=100.0)
    est = estimate_knowledge(sample)
    assert est.value == pytest.approx(0.18)
    assert est.sigma == pytest.approx(math.sqrt((1 - 0.18**2) / 1000), rel=1e-12)
    assert est.sigma == pytest.approx(0.031106, abs=1e-5)


def test_knowledge_sigma_against_bootstrap():
    counts = {"HH": 300, "VV": 290, "HV": 200, "VH": 210}
    est = estimate_knowledge(CountSample(counts=counts, duration=100.0))
    rng = np.random.default_rng(55)
    khats = []
    for _ in range(10_000):
        re = {k: rng.poisson(v) for k, v in counts.items()}
        n = sum(re.values())
        khats.append((re["HH"] + re["VV"] - re["HV"] - re["VH"]) / n)
    assert abs(np.std(khats) - est.sigma) / est.sigma < 0.05


def test_knowledge_at_paper_calibration_scale():
    # ~4460 total counts puts the strength error near 0.015
    sample = sample_counts(calibration_probs(0.006), 44.6, 100.0, 3)
    est = estimate_knowledge(sample)
    assert abs(est.sigma - 1.0 / math.sqrt(sample.total())) < 1e-4
    assert 0.012 < est.sigma < 0.018


def test_knowledge_pure_correlation_counts():
    est = estimate_knowledge(CountSample(counts={"HH": 814, "VV": 0, "HV": 0, "VH": 0}, duration=1.0))
    assert est.value == 1.0
    assert est.sigma == 0.0


def test_knowledge_rejects_empty_sample():
    with pytest.raises(ZeroCountsError):
        estimate_knowledge(CountSample(counts={"HH": 0, "VV": 0, "HV": 0, "VH": 0}, duration=1.0))


# --- weak-value estimator ---------------------------------------------------------

def k_estimate(value, sigma):
    return Estimate(value=value, sigma=sigma, lower=value - sigma, upper=value + sigma)


def test_weak_value_point_estimate():
    sample = CountSample(counts={"H": 270, "V": 250}, duration=1000.0)
    est = estimate_weak_value(sample, k_estimate(0.1, 0.001))
    assert est.value == pytest.approx((20 / 520) / 0.1)
    assert est.value == pytest.approx(0.3846, abs=1e-4)
    assert not est.unbounded_above


def test_weak_value_unbounded_flag_when_interval_reaches_zero():
    sample = CountSample(counts={"H": 290, "V": 230}, duration=1000.0)
    est = estimate_weak_value(sample, k_estimate(0.006, 0.015))
    assert est.unbounded_above
    assert est.upper == math.inf
    est2 = estimate_weak_value(sample, k_estimate(0.05, 0.015))
    assert not est2.unbounded_above
    assert est2.upper < math.inf


def test_weak_value_worst_case_moves_along_hyperbola():
    sample = CountSample(counts={"H": 290, "V": 230}, duration=1000.0)
    k_est = k_estimate(0.05, 0.012)
    est = estimate_weak_value(sample, k_est)
    asym = (290 - 230) / 520
    assert est.value * k_est.value == pytest.approx(asym, rel=1e-12)
    assert est.worst_case * (k_est.value + k_est.sigma) == pytest.approx(asym, rel=1e-12)
    assert abs(est.worst_case) < abs(est.value)


def test_weak_value_worst_case_negative_branch():
    sample = CountSample(counts={"H": 230, "V": 290}, duration=1000.0)
    k_est = k_estimate(-0.05, 0.012)
    est = estimate_weak_value(sample, k_est)
    assert est.value > 0  # negative asymmetry over negative strength
    assert abs(est.worst_case) < abs(est.value)


def test_weak_value_estimator_rejects_degenerate_inputs():
    with pytest.raises(ZeroCountsError):
        estimate_weak_value(CountSample(counts={"H": 0, "V": 0}, duration=1.0),
                            k_estimate(0.1, 0.01))
    with pytest.raises(ZeroStrengthError):
        estimate_weak_value(CountSample(counts={"H": 5, "V": 3}, duration=1.0),
                            k_estimate(0.0, 0.01))


def test_weak_value_sigma_poisson_only():
    sample = CountSample(counts={"H": 270, "V": 250}, duration=1000.0)
    est = estimate_weak_value(sample, k_estimate(0.1, 0.05))
    n = 520
    want = math.sqrt(4 * 270 * 250 / n**3) / 0.1
    assert est.sigma == pytest.approx(want, rel=1e-12)


# --- strength-sweep table ---------------------------------------------------------

@pytest.mark.parametrize("field", ["unpostselected_rate", "postselected_rate",
                                   "duration_k", "duration_wv"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
def test_run_plan_rejects_non_finite_or_negative(field, value):
    with pytest.raises(ValueError, match=field):
        RunPlan(**{field: value})


def test_run_fig2_deterministic_and_worker_independent():
    plan = RunPlan(seed=99)
    grid = [0.006, 0.125, 0.5, 1.0]
    a = run_fig2(plan, PSI_42, ImperfectionParams(), grid, workers=1)
    b = run_fig2(plan, PSI_42, ImperfectionParams(), grid, workers=4)
    c = run_fig2(plan, PSI_42, ImperfectionParams(), grid, workers=1)
    assert format_fig2_csv(a) == format_fig2_csv(b) == format_fig2_csv(c)


def test_run_fig2_zero_weak_value_duration_flags_no_data():
    plan = RunPlan(duration_wv=0.0, seed=5)
    result = run_fig2(plan, PSI_42, ImperfectionParams(), [0.125, 0.5])
    assert all(r.no_data for r in result.rows)
    text = format_fig2_csv(result)
    assert "no_data" in text


def test_run_fig2_rejects_bad_grids():
    with pytest.raises(ValueError):
        run_fig2(RunPlan(), PSI_42, ImperfectionParams(), [])
    with pytest.raises(ZeroStrengthError):
        run_fig2(RunPlan(), PSI_42, ImperfectionParams(), [0.0, 0.5])


@pytest.mark.parametrize("bad", [1.5, math.nan])
def test_strength_grid_outside_the_meter_range_rejected(bad):
    # sqrt((1 + K)/2) of a whole grid at once must not let K = 1.5 through
    # as a plausible row, nor hand NaN to the Poisson sampler
    grid = [0.5, bad, 1.0]
    with pytest.raises(ValueError, match=r"strength must lie in \[-1, 1\]"):
        run_fig2(RunPlan(), PSI_42, ImperfectionParams(visibility=0.96), grid)
    with pytest.raises(ValueError, match=r"strength must lie in \[-1, 1\]"):
        model_weak_value_curve(ImperfectionParams(visibility=0.96), PSI_42, grid)


def test_strength_grid_end_points_give_finite_rows():
    params = ImperfectionParams(visibility=0.96, depol=0.02)
    result = run_fig2(RunPlan(seed=4), PSI_42, params, [-1.0, 1.0])
    for row in result.rows:
        assert not row.no_data
        assert all(math.isfinite(x) for x in (row.k_hat, row.k_sigma, row.wv, row.wv_sigma))
    for _, wv in model_weak_value_curve(params, PSI_42, [-1.0, 1.0]):
        assert math.isfinite(wv)


def test_run_fig2_converges_to_the_analytic_curve():
    # crank durations up and require agreement within 3 sigma everywhere;
    # the total error combines the Poisson bar with the strength-induced
    # hyperbola scatter |wv| sigma_K / K
    plan = RunPlan(duration_k=100.0 * 1e6, duration_wv=1000.0 * 1e6, seed=17)
    grid = [0.006, 0.125, 0.5, 1.0]
    result = run_fig2(plan, PSI_42, ImperfectionParams(), grid)
    for row in result.rows:
        want = weak_value_analytic(PSI_42, MeterSetting.from_strength(row.k_true), antidiagonal())
        assert abs(row.k_hat - row.k_true) <= 4.0 * row.k_sigma + 1e-12
        total_sigma = math.hypot(row.wv_sigma, row.wv * row.k_sigma / row.k_hat)
        assert abs(row.wv - want) < 3.0 * max(total_sigma, 1e-9)


def test_run_fig2_metadata_records_provenance():
    plan = RunPlan(seed=7)
    result = run_fig2(plan, PSI_42, ImperfectionParams(visibility=0.9), [0.5])
    meta = result.metadata
    assert meta["seed"] == 7
    assert meta["rng"] == "philox4x64"
    assert meta["model"]["visibility"] == 0.9
    assert meta["plan"]["duration_wv"] == 1000.0
    assert meta["k_grid"] == [0.5]


def test_fig2_csv_format_and_sidecar(tmp_path):
    plan = RunPlan(seed=3)
    result = run_fig2(plan, PSI_42, ImperfectionParams(), [0.006, 0.5])
    path = tmp_path / "out.csv"
    meta_path = write_fig2_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    meta = json.loads(open(meta_path).read())
    assert meta["seed"] == 3
    first = lines[1].split(",")
    assert first[-1] in ("true", "false", "no_data")
    float(first[3])  # wv column parses


# --- statistical behavior at the experimental scales --------------------------------

def test_sigma_k_reproduces_the_reported_scale():
    probs = calibration_probs(0.006)
    khats = [
        estimate_knowledge(sample_counts(probs, 44.6, 100.0, stream_for(s, 0, 0))).value
        for s in range(1000)
    ]
    assert abs(np.std(khats) - 0.015) < 0.003


def test_small_strength_runs_produce_extreme_estimates():
    # at the experimental scale a sizable fraction of seeds lands beyond 40;
    # frozen fraction over seeds 0..499 for this stream layout: 32/500
    probs = calibration_probs(0.006)
    p_h, p_v, _ = postselected_probs(PSI_42, MeterSetting.from_strength(0.006), antidiagonal())
    n_over40 = 0
    n_sigma_gt5 = 0
    for seed in range(500):
        k_est = estimate_knowledge(sample_counts(probs, 44.6, 100.0, stream_for(seed, 0, 0)))
        try:
            est = estimate_weak_value(
                sample_counts({"H": p_h, "V": p_v}, 0.52, 1000.0, stream_for(seed, 0, 1)),
                k_est,
            )
        except ZeroStrengthError:
            continue
        if est.value > 40.0:
            n_over40 += 1
        if est.sigma > 5.0:
            n_sigma_gt5 += 1
    assert n_over40 > 0
    assert n_over40 == 32
    # the reported error exceeds 5 in a large fraction of runs (frozen: 190/500)
    assert n_sigma_gt5 == 190


def test_one_sigma_interval_coverage():
    # Poisson ~ normal at these counts: coverage should sit near 0.68
    k_true = 0.5
    probs = calibration_probs(k_true)
    meter = MeterSetting.from_strength(k_true)
    p_h, p_v, _ = postselected_probs(PSI_42, meter, antidiagonal())
    wv_true = weak_value_analytic(PSI_42, meter, antidiagonal())
    cov_k = cov_wv = 0
    for seed in range(1000):
        k_est = estimate_knowledge(sample_counts(probs, 44.6, 100.0, stream_for(seed, 0, 0)))
        if k_est.lower <= k_true <= k_est.upper:
            cov_k += 1
        est = estimate_weak_value(
            sample_counts({"H": p_h, "V": p_v}, 0.52, 1000.0, stream_for(seed, 0, 1)),
            k_est,
        )
        if abs(est.value - wv_true) <= est.sigma:
            cov_wv += 1
    assert 0.62 <= cov_k / 1000 <= 0.75
    assert 0.62 <= cov_wv / 1000 <= 0.75


def test_error_model_calibrated_over_many_runs():
    # a quoted sigma must match the spread of its estimate over repeated runs,
    # which no single-run test can show; bands are Z standard errors of the
    # sample statistic for N_RUNS runs, fixed before looking at the data
    N_RUNS, Z = 2000, 4.0
    ONE_SIGMA = math.erf(1.0 / math.sqrt(2.0))
    spread_band = Z / math.sqrt(2.0 * (N_RUNS - 1))  # relative error of a sample sd
    coverage_band = Z * math.sqrt(ONE_SIGMA * (1.0 - ONE_SIGMA) / N_RUNS)
    plan = RunPlan()
    channel = imperfect_channel(None, ImperfectionParams(visibility=0.96))
    strengths = [0.006, 0.125, 0.5, 1.0]
    joint = channel_joint_grid(channel, diagonal(), strengths)
    cond = channel_postselected_grid(channel, PSI_42, strengths, antidiagonal())
    for i in range(len(strengths)):
        cal_probs = dict(zip(("HH", "HV", "VH", "VV"), joint[i]))
        k_model = joint[i, 0] - joint[i, 1] - joint[i, 2] + joint[i, 3]
        meter_probs = {"H": cond[i, 0], "V": cond[i, 1]}
        cal_rng, wv_rng = stream_for(2024, i, K_RUN), stream_for(2024, i, WV_RUN)
        k_hats, k_sigmas, asyms, asym_sigmas = [], [], [], []
        for _ in range(N_RUNS):
            k_est = estimate_knowledge(sample_counts(
                cal_probs, plan.unpostselected_rate, plan.duration_k, cal_rng))
            k_hats.append(k_est.value)
            k_sigmas.append(k_est.sigma)
            wv_sample = sample_counts(meter_probs, plan.postselected_rate, plan.duration_wv, wv_rng)
            try:
                est = estimate_weak_value(wv_sample, k_est)
            except ZeroStrengthError:
                # K_hat exactly 0 gives no weak value; the meter counts do not
                # depend on K_hat, so dropping the run leaves their sample fair
                continue
            asyms.append(est.value * k_est.value)
            asym_sigmas.append(est.sigma * abs(k_est.value))
        k_hats, k_sigmas = np.array(k_hats), np.array(k_sigmas)
        assert np.std(k_hats, ddof=1) / np.mean(k_sigmas) == pytest.approx(1.0, abs=spread_band)
        coverage = np.mean(np.abs(k_hats - k_model) <= k_sigmas)
        assert coverage == pytest.approx(ONE_SIGMA, abs=coverage_band)
        assert len(asyms) > 0.95 * N_RUNS
        assert np.std(asyms, ddof=1) / np.mean(asym_sigmas) == pytest.approx(1.0, abs=spread_band)


# --- golden Fig. 2 tables -------------------------------------------------------------

DATA = Path(__file__).resolve().parent / "data"
SIGNED_GRID = [-0.5, -0.05, 0.001, 0.006, 0.05, 0.125, 0.3, 0.5, 0.9, 1.0]
# file name -> (seed, model, strength grid); the 42 degree input throughout
GOLDEN_FIG2 = {
    "fig2_v0.96_depol0.02_seed7.csv": (7, ImperfectionParams(0.96, depol=0.02), SIGNED_GRID),
    # without white noise some counting means are exact zeros of the gate,
    # so a rounding residual left where an interference null belongs shows here
    "fig2_v0.96_depol0_seed7.csv": (7, ImperfectionParams(visibility=0.96), SIGNED_GRID),
    # the defaults of `weakpol fig2`
    "fig2_cli_default.csv": (0, ImperfectionParams(), [0.006, 0.125, 0.25, 0.5, 0.75, 1.0]),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_FIG2))
def test_fig2_csv_matches_golden_bytes(name):
    seed, params, grid = GOLDEN_FIG2[name]
    got = format_fig2_csv(run_fig2(RunPlan(seed=seed), PSI_42, params, grid))
    assert got.encode() == (DATA / name).read_bytes()


def test_run_plan_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed must be non-negative"):
        RunPlan(seed=-1)


@pytest.mark.parametrize("seed", [True, False, 1.5, 3.0, "3", None])
def test_run_plan_rejects_non_integer_seed(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        RunPlan(seed=seed)


def test_run_plan_accepts_numpy_integer_seed(tmp_path):
    plan = RunPlan(seed=np.int64(3))
    assert plan.seed == 3 and type(plan.seed) is int
    # the sidecar is JSON, which a numpy integer would break
    result = run_fig2(plan, PSI_42, ImperfectionParams(), [0.5])
    meta = json.loads(Path(write_fig2_csv(result, tmp_path / "t.csv")).read_text())
    assert meta["seed"] == meta["plan"]["seed"] == 3


# --- batched stream keys ----------------------------------------------------------------

KEY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**70]
KEY_INDICES = [0, 1, 399, 2**32 - 1]


@pytest.mark.parametrize("seed", KEY_SEEDS)
@pytest.mark.parametrize("run_type", [K_RUN, WV_RUN])
def test_philox_keys_match_seed_sequence(seed, run_type):
    got = _philox_keys(seed, KEY_INDICES, run_type)
    assert got.shape == (len(KEY_INDICES), 2) and got.dtype == np.uint64
    for i, key in zip(KEY_INDICES, got):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(i, run_type))
        assert key.tolist() == ss.generate_state(2, np.uint64).tolist()


@pytest.mark.parametrize("bad", [2**32, -1])
def test_philox_keys_reject_indices_outside_one_word(bad):
    with pytest.raises(ValueError, match="grid indices"):
        _philox_keys(0, [0, bad], K_RUN)


def test_rekeyed_generator_draws_like_a_fresh_stream():
    rng = stream_for(5, 0, K_RUN)
    for i, run_type in ((3, WV_RUN), (0, K_RUN), (2**32 - 1, WV_RUN)):
        # leave a part-used Philox block and a cached 32-bit half behind
        rng.random(3)
        state = {}
        while not (state.get("has_uint32") and state["buffer_pos"] < 4):
            rng.integers(0, 2**16, dtype=np.uint32)
            state = rng.bit_generator.state
        _rekey(rng, _philox_keys(5, [i], run_type)[0].tolist())
        fresh = stream_for(5, i, run_type)
        for draw in (lambda g: g.integers(0, 2**16, size=3, dtype=np.uint32),
                     lambda g: g.random(5), lambda g: g.poisson(4460.0, size=4)):
            assert draw(rng).tolist() == draw(fresh).tolist()
