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
    Fig2Result,
    Fig2Row,
    _philox_keys,
    _poisson_means,
    _rekeyed,
    format_fig2_csv,
    stream_for,
    write_with_sidecar,
)
from weakpol.imperfection import (
    channel_joint_distribution,
    channel_postselected_probs,
    imperfect_channel,
)
from weakpol.weak_values import antidiagonal, diagonal

PSI_42 = Polarization.from_degrees(42.0)
# strengths whose %.17g text is easy to get wrong: a signed zero, the smallest subnormal, the
# double below 1, sums and ratios that no short decimal states, and the end points
AWKWARD_GRID = [-0.0, 5e-324, math.nextafter(1.0, 0.0), 0.1 + 0.2, 1 / 3, -1.0, 1.0]


def k_true_hex(csv_text):
    """``float.hex`` of each K_true field of a Fig. 2 CSV, so -0.0 and 0.0 stay apart."""
    return [float(line.split(",")[0]).hex() for line in csv_text.splitlines()[1:]]


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
    assert sum(sample.counts.values()) == 0


def test_poisson_moments_at_calibration_scale():
    # mean 4460, sd sqrt(4460) ~ 66.8 for the total count
    totals = np.array([
        sum(sample_counts(calibration_probs(0.0), 44.6, 100.0, s).counts.values())
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
    assert abs(est.sigma - 1.0 / math.sqrt(sum(sample.counts.values()))) < 1e-4
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


_GOOD_CAL = {"HH": 300, "VV": 290, "HV": 200, "VH": 210}


@pytest.mark.parametrize("outcome, count", [
    ("HV", -40), ("HV", 2.5), ("HV", True), ("VV", np.True_), ("HH", math.nan),
    ("HH", math.inf), ("VH", "5"), ("VH", None), ("VV", -1.0)])
def test_knowledge_rejects_impossible_counts(outcome, count):
    counts = dict(_GOOD_CAL, **{outcome: count})
    with pytest.raises(ValueError, match=f"calibration.*{outcome}"):
        estimate_knowledge(CountSample(counts=counts, duration=1.0))


@pytest.mark.parametrize("outcome, count", [
    ("V", -10), ("H", 2.5), ("V", True), ("H", math.nan), ("V", -math.inf), ("H", 3j)])
def test_weak_value_rejects_impossible_counts(outcome, count):
    counts = dict({"H": 30, "V": 10}, **{outcome: count})
    with pytest.raises(ValueError, match=f"weak-value.*{outcome}"):
        estimate_weak_value(CountSample(counts=counts, duration=1.0), k_estimate(0.1, 0.01))


@pytest.mark.parametrize("run, counts, outcome", [
    ("weak-value", {"H": 10**120, "V": 5}, "H"), ("weak-value", {"H": 1e120, "V": 5}, "H"),
    ("weak-value", {"H": 5, "V": 2**53 - 4}, "V"), ("weak-value", {"H": 2.0**53, "V": 1}, "V"),
    ("calibration", dict(_GOOD_CAL, HH=10**400), "HH"),
    ("calibration", dict(_GOOD_CAL, VH=1e300), "VH"),
    ("calibration", {"HH": 2**51, "HV": 2**51, "VH": 2**51, "VV": 2**51 + 1}, "VV")])
def test_estimators_refuse_a_total_past_float64_exactness(run, counts, outcome):
    # the estimators compute in float64, which holds every integer only up to 2**53
    sample = CountSample(counts=counts, duration=1.0)
    with pytest.raises(ValueError, match=f"{run} sample: {outcome!r} .*2\\*\\*53"):
        if run == "calibration":
            estimate_knowledge(sample)
        else:
            estimate_weak_value(sample, k_estimate(0.1, 0.01))


def test_estimators_take_a_total_of_exactly_2_to_the_53():
    cal = {"HH": 2**51, "HV": 2**51, "VH": 2**51, "VV": 2**51}
    assert estimate_knowledge(CountSample(counts=cal, duration=1.0)).value == 0.0
    est = estimate_weak_value(CountSample(counts={"H": 2**52, "V": 2**52}, duration=1.0),
                              k_estimate(0.1, 0.01))
    assert est.value == 0.0 and est.sigma == pytest.approx(2.0**-26.5 / 0.1, rel=1e-15)


def test_estimators_name_a_missing_outcome():
    with pytest.raises(ValueError, match="calibration sample missing outcome 'VH'"):
        estimate_knowledge(CountSample(counts={"HH": 3, "HV": 1, "VV": 2}, duration=1.0))
    with pytest.raises(ValueError, match="weak-value sample missing outcome 'V'"):
        estimate_weak_value(CountSample(counts={"H": 3}, duration=1.0), k_estimate(0.1, 0.01))


@pytest.mark.parametrize("value, sigma", [
    (math.nan, 0.1), (math.inf, 0.1), (0.1, math.nan), (0.1, math.inf), (0.1, -0.01)])
def test_weak_value_rejects_an_unusable_strength_estimate(value, sigma):
    sample = CountSample(counts={"H": 30, "V": 10}, duration=1.0)
    with pytest.raises(ValueError, match="strength estimate"):
        estimate_weak_value(sample, Estimate(value, sigma, value - sigma, value + sigma))


def test_estimators_take_numpy_and_integral_float_counts():
    want = estimate_knowledge(CountSample(counts=_GOOD_CAL, duration=1.0))
    for convert in (np.int64, np.uint16, float, np.float64):
        counts = {k: convert(v) for k, v in _GOOD_CAL.items()}
        assert estimate_knowledge(CountSample(counts=counts, duration=1.0)) == want
    k_est = k_estimate(0.1, 0.01)
    want = estimate_weak_value(CountSample(counts={"H": 270, "V": 250}, duration=1.0), k_est)
    got = estimate_weak_value(CountSample(counts={"H": 270.0, "V": np.int32(250)}, duration=1.0),
                              k_est)
    assert got == want


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
    # K = 0 is no bad grid point: the weak limit is drawn like any other strength
    assert [r.k_true for r in run_fig2(RunPlan(), PSI_42, ImperfectionParams(), [0.0, 0.5]).rows] \
        == [0.0, 0.5]


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
    # the CSV's K_true column is the grid's one record; a new sidecar key is a contract change
    assert sorted(meta) == ["input_state", "model", "no_data_rows", "numpy_version", "package",
                            "plan", "rng", "seed"]
    assert k_true_hex(format_fig2_csv(result)) == [(0.5).hex()]


def test_fig2_csv_format_and_sidecar(tmp_path):
    for grid in ([0.006, 0.5], AWKWARD_GRID):
        result = run_fig2(RunPlan(seed=3), PSI_42, ImperfectionParams(), grid)
        path = tmp_path / "out.csv"
        meta_path = write_fig2_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(grid) + 1
        assert k_true_hex(path.read_text()) == [k.hex() for k in grid]
        meta = json.loads(Path(meta_path).read_text())
        assert meta["seed"] == 3
        assert "k_grid" not in meta
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


@pytest.mark.parametrize("k", [0.006, 0.125])
def test_unbounded_share_matches_the_one_sigma_interval_reaching_zero(k):
    # a row's 1-sigma strength interval reaches 0 with probability
    # P(|K_hat| <= s) = Phi(1 - K/s) - Phi(-1 - K/s) for K_hat ~ N(K, s^2),
    # s = sqrt((1 - K^2)/N): 0.645 at K = 0.006 and 0 at K = 0.125. Such a
    # row is flagged unbounded, or no_data when K_hat is exactly 0 (about
    # 0.7% of rows at K = 0.006). The grid repeats K and each row draws from
    # its own substream, so the rows are independent runs. The normal
    # approximation reads about 0.01 high at K = 0.006 (0.633-0.639 over
    # seeds 0-2); the band, 4 binomial standard errors at p = 1/2 (0.045),
    # covers that bias.
    n_runs = 2000
    plan = RunPlan(seed=0)
    sigma = math.sqrt((1.0 - k * k) / (plan.unpostselected_rate * plan.duration_k))

    def phi(x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    predicted = phi(1.0 - k / sigma) - phi(-1.0 - k / sigma)
    result = run_fig2(plan, PSI_42, ImperfectionParams(), [k] * n_runs)
    zero_k = result.metadata["no_data_rows"]["zero_strength_estimate"]
    assert [i for i, r in enumerate(result.rows) if r.no_data] == zero_k
    share = (sum(r.unbounded for r in result.rows) + len(zero_k)) / n_runs
    assert abs(share - predicted) <= 4.0 * math.sqrt(0.25 / n_runs)


def test_write_with_sidecar_names_the_sidecar_after_any_path(tmp_path):
    for name, meta_name in (("t.csv", "t.meta.json"), ("t.dat", "t.dat.meta.json"),
                            ("t", "t.meta.json")):
        meta_path = write_with_sidecar(tmp_path / name, "x\n", {"seed": 1})
        assert meta_path == str(tmp_path / meta_name)
        assert (tmp_path / name).read_text() == "x\n"
        assert json.loads(Path(meta_path).read_text()) == {"seed": 1}


def test_a_write_failing_with_any_exception_leaves_no_temp_file(tmp_path):
    # a lone surrogate cannot be encoded, so the CSV's open temp file fails mid-write
    path = tmp_path / "t.csv"
    path.write_bytes(b"old\n")
    with pytest.raises(UnicodeEncodeError):
        write_with_sidecar(path, "x\ud800", {})
    assert path.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


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
    for i, meter in enumerate(map(MeterSetting.from_strength, strengths)):
        joint = channel_joint_distribution(channel, diagonal(), meter)
        cond = channel_postselected_probs(channel, PSI_42, meter, antidiagonal())
        cal_probs = dict(zip(("HH", "HV", "VH", "VV"), joint))
        k_model = joint[0] - joint[1] - joint[2] + joint[3]
        meter_probs = {"H": cond[0], "V": cond[1]}
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

KEY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**70, 2**96, 2**128, 2**200 - 1]
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
    chain = ((3, WV_RUN), (0, K_RUN), (2**32 - 1, WV_RUN), (7, K_RUN))
    rng = stream_for(5, 0, K_RUN)
    rekeyed = _rekeyed(rng, [_philox_keys(5, [i], run_type)[0].tolist() for i, run_type in chain])
    for i, run_type in chain:
        # leave a part-used Philox block and a cached 32-bit half behind
        rng.random(3)
        state = {}
        while not (state.get("has_uint32") and state["buffer_pos"] < 4):
            rng.integers(0, 2**16, dtype=np.uint32)
            state = rng.bit_generator.state
        assert next(rekeyed) is rng
        fresh = stream_for(5, i, run_type)
        for draw in (lambda g: g.integers(0, 2**16, size=3, dtype=np.uint32),
                     lambda g: g.random(5), lambda g: g.poisson(4460.0, size=4)):
            assert draw(rng).tolist() == draw(fresh).tolist()
    assert next(rekeyed, None) is None


def test_sample_counts_draws_a_callers_generator_as_it_stands():
    # a caller's PCG64 cannot be re-keyed: its one row is drawn from it in outcome order
    probs = calibration_probs(0.3)
    rng, twin = np.random.default_rng(3), np.random.default_rng(3)
    sample = sample_counts(probs, 44.6, 100.0, rng)
    assert list(sample.counts) == list(probs)
    assert list(sample.counts.values()) == [twin.poisson(44.6 * 100.0 * p) for p in probs.values()]
    assert rng.bit_generator.state == twin.bit_generator.state


# --- grid counting kernels against the scalar reference ---------------------------------
#
# The per-run code that the grid kernels replaced, kept as the reference:
# plain Python on one run at a time, drawn from a fresh ``stream_for``
# generator per run.

def ref_sample_counts(true_probs, rate, duration, rng):
    probs = {k: float(v) for k, v in true_probs.items()}
    if any(p < -1e-12 for p in probs.values()):
        raise ValueError(f"negative probability in {probs}")
    total = sum(probs.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"outcome probabilities must sum to 1, got {total}")
    return {k: int(rng.poisson(rate * duration * max(p, 0.0))) for k, p in probs.items()}


def ref_estimate_knowledge(counts):
    n_hh, n_hv, n_vh, n_vv = (counts[k] for k in ("HH", "HV", "VH", "VV"))
    n = n_hh + n_hv + n_vh + n_vv
    if n <= 0:
        raise ZeroCountsError("no calibration counts recorded")
    k_hat = (n_hh + n_vv - n_hv - n_vh) / n
    return k_hat, math.sqrt(max(1.0 - k_hat**2, 0.0) / n)


def ref_estimate_weak_value(counts, k_hat, k_sigma):
    n_h, n_v = counts["H"], counts["V"]
    n = n_h + n_v
    if n <= 0:
        raise ZeroCountsError("no postselected counts recorded")
    if k_hat == 0.0:
        raise ZeroStrengthError("estimated strength is exactly zero")
    asym = (n_h - n_v) / n
    sigma = math.sqrt(4.0 * n_h * n_v / n**3) / abs(k_hat)
    worst = asym / (k_hat + math.copysign(k_sigma, k_hat))
    return asym / k_hat, sigma, worst, abs(k_hat) - k_sigma <= 0.0


def ref_fig2(plan, params, grid):
    """(rows, no_data reasons, largest meter count) as the per-run code made them."""
    channel = imperfect_channel(None, params)
    meters = [MeterSetting.from_strength(k) for k in grid]
    joint = [channel_joint_distribution(channel, diagonal(), meter) for meter in meters]
    cond = [channel_postselected_probs(channel, PSI_42, meter, antidiagonal()) for meter in meters]
    rows, reasons, max_meter = [], {}, 0
    for i, k_true in enumerate(grid):
        row = [k_true] + [math.nan] * 5 + [False, True]
        try:
            cal = ref_sample_counts(dict(zip(("HH", "HV", "VH", "VV"), joint[i])),
                                    plan.unpostselected_rate, plan.duration_k,
                                    stream_for(plan.seed, i, K_RUN))
            k_hat, k_sigma = ref_estimate_knowledge(cal)
            row[1:3] = k_hat, k_sigma
            meter = ref_sample_counts({"H": cond[i][0], "V": cond[i][1]},
                                      plan.postselected_rate, plan.duration_wv,
                                      stream_for(plan.seed, i, WV_RUN))
            max_meter = max(max_meter, *meter.values())
            row[3:7] = ref_estimate_weak_value(meter, k_hat, k_sigma)
            row[7] = False
        except ZeroCountsError as exc:
            reasons[i] = ("no_calibration_counts" if "calibration" in str(exc)
                          else "no_postselected_counts")
        except ZeroStrengthError:
            reasons[i] = "zero_strength_estimate"
        rows.append(row)
    return rows, reasons, max_meter


def bitwise(row):
    """A row's fields with every float as its exact bits (NaN, -0.0 and all)."""
    return tuple(x.hex() if isinstance(x, float) else x for x in row)


DENSE_GRID = [float(k) for k in np.geomspace(1e-3, 1.0, 400)]
EQUIVALENCE_PLANS = {
    "default": {},
    # counts beyond 2**17, so n**3 passes 2**53 and rounds once or twice
    "high_rate": dict(duration_k=1e6, postselected_rate=1e5),
    # every row no_data for want of postselected counts
    "no_meter_run": dict(duration_wv=0.0),
    # a few counts per run: all three no_data reasons occur
    "sparse": dict(duration_k=0.05, duration_wv=2.0),
    # no row has meter counts, and some also lack calibration counts or read K_hat = 0:
    # each such row is listed under its first reason alone
    "sparse_no_meter": dict(duration_k=0.05, duration_wv=0.0),
}


@pytest.mark.parametrize("plan_name", sorted(EQUIVALENCE_PLANS))
@pytest.mark.parametrize("model", [(1.0, 0.0), (0.96, 0.0), (0.9, 0.02)])
@pytest.mark.parametrize("seed", [0, 7, 2**63 - 1])
def test_grid_counting_matches_scalar_reference(seed, model, plan_name):
    plan = RunPlan(seed=seed, **EQUIVALENCE_PLANS[plan_name])
    params = ImperfectionParams(model[0], depol=model[1])
    seen, largest, overlaps = set(), 0, [0, 0]
    for grid in (DENSE_GRID, SIGNED_GRID):
        want, reasons, max_meter = ref_fig2(plan, params, grid)
        result = run_fig2(plan, PSI_42, params, grid)
        got = [[r.k_true, r.k_hat, r.k_sigma, r.wv, r.wv_sigma, r.wv_worst, r.unbounded,
                r.no_data] for r in result.rows]
        assert [bitwise(r) for r in got] == [bitwise(r) for r in want]
        assert result.metadata["no_data_rows"] == {
            key: [i for i, why in sorted(reasons.items()) if why == key]
            for key in ("no_calibration_counts", "no_postselected_counts",
                        "zero_strength_estimate")}
        seen.update(reasons.values())
        largest = max(largest, max_meter)
        if plan_name == "no_meter_run":
            assert reasons == {i: "no_postselected_counts" for i in range(len(grid))}
        if plan_name == "sparse_no_meter":
            listed = result.metadata["no_data_rows"]
            no_cal = [i for i, r in enumerate(result.rows) if math.isnan(r.k_hat)]
            zero_k = [i for i, r in enumerate(result.rows) if r.k_hat == 0.0]
            assert listed["no_calibration_counts"] == no_cal
            assert set(zero_k) <= set(listed["no_postselected_counts"])
            assert listed["zero_strength_estimate"] == []
            overlaps = [overlaps[0] + len(no_cal), overlaps[1] + len(zero_k)]
    if plan_name == "high_rate":
        assert largest > 2**18
    if plan_name == "sparse":
        assert len(seen) == 3
    if plan_name == "sparse_no_meter":
        assert min(overlaps) > 0  # both overlaps occur


def test_sidecar_names_why_rows_are_no_data(tmp_path):
    result = run_fig2(RunPlan(duration_wv=0.0, seed=5), PSI_42, ImperfectionParams(),
                      [0.125, 0.5, 1.0])
    meta = json.loads(Path(write_fig2_csv(result, tmp_path / "t.csv")).read_text())
    assert meta["no_data_rows"] == {"no_calibration_counts": [],
                                    "no_postselected_counts": [0, 1, 2],
                                    "zero_strength_estimate": []}


def test_fig2_csv_rows_format_like_format_17g():
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308,
                -1.7976931348623157e308, 1.0, -3.0, 2.0**60, 0.1, 1 / 3]
    rows = []
    for i, x in enumerate(specials):
        fields = [specials[(i + j) % len(specials)] for j in range(6)]
        rows.append(Fig2Row(*fields, unbounded=i % 2 == 0, no_data=i % 3 == 0))
    want = [CSV_HEADER]
    for r in rows:
        flag = "no_data" if r.no_data else ("true" if r.unbounded else "false")
        want.append(",".join([format(float(x), ".17g") for x in (
            r.k_true, r.k_hat, r.k_sigma, r.wv, r.wv_sigma, r.wv_worst)] + [flag]))
    assert format_fig2_csv(Fig2Result(rows=rows)) == "\n".join(want) + "\n"


@pytest.mark.parametrize("probs", [{"a": math.nan}, {"H": math.nan, "V": 1.0},
                                   {"H": 0.5, "V": math.inf}])
def test_sample_counts_rejects_non_finite_probability(probs):
    with pytest.raises(ValueError, match="non-finite probability"):
        sample_counts(probs, 1.0, 1.0, 0)


def test_grid_validation_rejects_non_finite_probability():
    probs = np.full((3, 4), 0.25)
    probs[1, 2] = math.nan
    with pytest.raises(ValueError, match="non-finite probability"):
        _poisson_means(probs, ("HH", "HV", "VH", "VV"), 1.0, 1.0)


def test_non_finite_rate_times_duration_rejected():
    with pytest.raises(ValueError, match=r"rate \* duration must be finite"):
        sample_counts({"H": 0.5, "V": 0.5}, 1e300, 1e300, 0)
    plan = RunPlan(unpostselected_rate=1e300, duration_k=1e300)
    with pytest.raises(ValueError, match=r"rate \* duration must be finite"):
        run_fig2(plan, PSI_42, ImperfectionParams(), [0.5])


def test_mean_count_beyond_the_bound_rejected():
    # finite products past numpy's Poisson limit (about 9.2e18) used to leak
    # numpy's "lam value too large"
    with pytest.raises(ValueError, match=r"mean count .* exceeds 1e\+15"):
        sample_counts({"H": 1.0}, 1e10, 1e10, 0)
    plan = RunPlan(unpostselected_rate=1e10, duration_k=1e10)
    with pytest.raises(ValueError, match=r"mean count .* exceeds 1e\+15"):
        run_fig2(plan, PSI_42, ImperfectionParams(), [0.5])
    # below the limit numpy accepts, but counts past 2**53 are not exact floats
    with pytest.raises(ValueError, match=r"mean count .* exceeds 1e\+15"):
        sample_counts({"H": 0.5, "V": 0.5}, 1e16, 1.0, 0)


def test_mean_count_at_the_bound_gives_exact_counts():
    counts = sample_counts({"H": 0.5, "V": 0.5}, 2e15, 1.0, 0).counts
    assert all(abs(n - 1e15) < 10 * math.sqrt(1e15) for n in counts.values())
    # the estimators see every count and their sum as exact float64 integers
    total = counts["H"] + counts["V"]
    assert total < 2**53 and float(total) == float(counts["H"]) + float(counts["V"])


# K_hat = a/n for which Python's k**2 (libm pow) and k*k differ, and the
# difference survives into sqrt((1 - K_hat**2)/n)
POW_TRAP_COUNTS = [
    {"HH": 6, "VV": 6, "HV": 55, "VH": 56},            # K_hat = -99/123
    {"HH": 640, "VV": 645, "HV": 94, "VH": 94},        # K_hat = 1097/1473
    {"HH": 87, "VV": 88, "HV": 1336, "VH": 1336},      # K_hat = -2497/2847
    {"HH": 1800, "VV": 1799, "HV": 245, "VH": 246},    # K_hat = 3108/4090
]


@pytest.mark.parametrize("counts", POW_TRAP_COUNTS)
def test_knowledge_sigma_squares_k_hat_as_python_does(counts):
    k_hat, sigma = ref_estimate_knowledge(counts)
    n = sum(counts.values())
    assert math.sqrt(max(1.0 - k_hat * k_hat, 0.0) / n) != sigma  # the case is a trap
    est = estimate_knowledge(CountSample(counts=counts, duration=1.0))
    assert (est.value.hex(), est.sigma.hex()) == (k_hat.hex(), sigma.hex())
