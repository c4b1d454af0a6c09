"""Monte Carlo photon-counting runs and their error analysis.

Coincidence counts are independent Poisson draws at the configured rates
and durations. The strength estimate comes from a separate unpostselected
calibration run with a diagonal input; its delta-method error is what
makes small-strength weak values so fragile: the estimate is c/K_hat, so
an error in K_hat slides the point along a hyperbola, and once the
1-sigma interval of K_hat reaches zero the upward error is unbounded and
reported as a flag rather than a number.

A strength sweep is counted on the whole grid at once. The model
probabilities come as arrays (see
:func:`weakpol.imperfection.channel_postselected_grid`) and are validated
once per grid, the Poisson means are one array expression, and the
estimators are array expressions whose masks mark the rows with nothing
to estimate from. Only the draws loop: each run re-keys one Philox
generator and draws its outcomes with scalar ``poisson`` calls. The
calibration run of grid point ``i`` is exactly ``stream_for(seed, i,
K_RUN)`` and its postselected run ``stream_for(seed, i, WV_RUN)``, so
tables are reproducible bit for bit. A Philox stream is fixed by its
128-bit key, so :func:`run_fig2` derives the keys of all its streams in
one batch (numpy's ``SeedSequence`` hash replayed on arrays) instead of
building a ``SeedSequence`` and a ``Philox`` per stream.
:func:`sample_counts`, :func:`estimate_knowledge` and
:func:`estimate_weak_value` are one-row views of the same kernels. The
sweep runs serially: a thread pool over grid points was measured slower
than the plain loop, so the ``workers`` argument of :func:`run_fig2` is
accepted and ignored.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__ as _pkg_version
from .device import DeviceConfig
from .errors import ZeroCountsError, ZeroStrengthError
from .imperfection import (
    ImperfectionParams,
    channel_joint_grid,
    channel_postselected_grid,
    imperfect_channel,
)
from .weak_values import ZERO_STRENGTH_TOL, Polarization, antidiagonal, diagonal

RNG_ALGORITHM = "philox4x64"

K_RUN = 0
WV_RUN = 1


@dataclass(frozen=True)
class RunPlan:
    """Counting rates and durations; defaults are the experimental ones."""

    unpostselected_rate: float = 44.6
    postselected_rate: float = 0.52
    duration_k: float = 100.0
    duration_wv: float = 1000.0
    seed: int = 0

    def __post_init__(self):
        for name in ("unpostselected_rate", "postselected_rate", "duration_k", "duration_wv"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))  # JSON-safe in the sidecar


@dataclass
class CountSample:
    """Raw coincidence counts per outcome class for one run."""

    counts: dict
    duration: float

    def total(self) -> int:
        return int(sum(self.counts.values()))


@dataclass
class Estimate:
    """Value with 1-sigma error and the strength-correlated worst case.

    ``upper`` is +inf when the error is unbounded above; ``worst_case``
    is the value recomputed with the strength shifted one sigma in the
    direction that shrinks it.
    """

    value: float
    sigma: float
    lower: float
    upper: float
    worst_case: float | None = None
    unbounded_above: bool = False


def make_rng(seed) -> np.random.Generator:
    """Philox generator from an int seed, SeedSequence, or Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.Philox(seed))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def stream_for(master_seed: int, grid_index: int, run_type: int) -> np.random.Generator:
    """Independent substream for one (grid point, run type) pair."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(grid_index, run_type))
    return np.random.Generator(np.random.Philox(ss))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) with its
# default pool of four 32-bit words
_POOL_SIZE = 4
_INIT_A = np.uint32(0x43B0D7E5)
_MULT_A = np.uint32(0x931E8875)
_INIT_B = np.uint32(0x8B51F9DD)
_MULT_B = np.uint32(0x58F38DED)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_WORD = 2**32


def _hashmix(value, hash_const):
    """One hashmix step; returns the mixed value and the next hash constant."""
    value = value ^ hash_const
    hash_const = hash_const * _MULT_A
    value = value * hash_const
    return value ^ (value >> _XSHIFT), hash_const


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _philox_keys(master_seed: int, indices, run_type: int) -> np.ndarray:
    """Philox keys of ``stream_for(master_seed, i, run_type)`` for every ``i``.

    Row ``j`` equals ``SeedSequence(entropy=master_seed, spawn_key=(i_j,
    run_type)).generate_state(2, np.uint64)``. The entropy is the seed's
    32-bit words, zero-padded to the pool size, then one word for the
    index and one for the run type. The pool fill and the full pool mix
    depend on the seed alone and run once on scalars; only the rounds that
    mix in the index, the run-type round and the output hash act on arrays.
    An index of 2**32 or more would take two words, so it is rejected.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and not (idx.min() >= 0 and idx.max() < _WORD):
        raise ValueError(f"grid indices must lie in [0, 2**32), got {idx.min()}..{idx.max()}")
    seed = int(master_seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = [seed % _WORD]
    while seed >= _WORD:
        seed //= _WORD
        words.append(seed % _WORD)
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [np.uint32(w) for w in words] + [idx.astype(np.uint32), np.uint32(run_type)]
    with np.errstate(over="ignore"):
        hash_const = _INIT_A
        pool = []
        for word in entropy[:_POOL_SIZE]:
            value, hash_const = _hashmix(word, hash_const)
            pool.append(value)
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    value, hash_const = _hashmix(pool[src], hash_const)
                    pool[dst] = _mix(pool[dst], value)
        for word in entropy[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                value, hash_const = _hashmix(word, hash_const)
                pool[dst] = _mix(pool[dst], value)
        hash_const = _INIT_B
        state = []
        for word in pool:
            value = word ^ hash_const
            hash_const = hash_const * _MULT_B
            value = value * hash_const
            state.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    # little-endian pairs of 32-bit words, as generate_state(2, np.uint64)
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=-1)


def _rekey(rng: np.random.Generator, key) -> np.random.Generator:
    """Put ``rng``'s Philox at the start of the stream with ``key``.

    Counter, output buffer and cached 32-bit half are cleared, as in a
    newly built ``Philox(key=key)``, so the draws that follow do not
    depend on what ``rng`` drew before.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


# largest Poisson mean per outcome: four such counts sum to about 4e15, below
# 2**53 (about 9.0e15), so the float64 estimators see every count and total
# exactly; numpy's own Poisson limit (about 9.2e18) is far above
MAX_MEAN_COUNT = 1e15

_CAL_OUTCOMES = ("HH", "HV", "VH", "VV")
_METER_OUTCOMES = ("H", "V")


def _poisson_means(probs, outcomes, rate, duration) -> np.ndarray:
    """Poisson means ``rate * duration * max(p, 0)`` of a (G, n) probability grid.

    Each row is a distribution over ``outcomes``: finite, no entry below
    -1e-12 and a sum within 1e-9 of 1. ``rate`` and ``duration`` must be
    finite and non-negative, and so must their product; no mean may
    exceed ``MAX_MEAN_COUNT``.
    """
    probs = np.asarray(probs, dtype=float)
    for bad, what in ((~np.isfinite(probs).all(axis=1), "non-finite"),
                      ((probs < -1e-12).any(axis=1), "negative")):
        if bad.any():
            row = dict(zip(outcomes, probs[bad][0].tolist()))
            raise ValueError(f"{what} probability in {row}")
    total = probs.sum(axis=1)
    bad = np.abs(total - 1.0) > 1e-9
    if bad.any():
        raise ValueError(f"outcome probabilities must sum to 1, got {total[bad][0]}")
    if not (math.isfinite(rate) and rate >= 0 and math.isfinite(duration) and duration >= 0):
        raise ValueError("rate and duration must be finite and non-negative")
    scale = rate * duration
    if not math.isfinite(scale):
        raise ValueError(f"rate * duration must be finite, got {rate} * {duration}")
    means = scale * np.maximum(probs, 0.0)
    top = float(means.max())
    if top > MAX_MEAN_COUNT:
        raise ValueError(f"mean count {top:.6g} exceeds {MAX_MEAN_COUNT:g}: "
                         f"counts would stop being exact in float64")
    return means


def _draw(means: np.ndarray, streams) -> np.ndarray:
    """Integer Poisson counts: row ``i`` of ``means`` from the ``i``-th generator of ``streams``.

    The outcomes of a row are drawn in order, one scalar ``poisson`` call
    each: numpy validates an array mean with Python-level reductions, so a
    vector call costs more than the scalar calls it replaces.
    """
    return np.array([[rng.poisson(lam) for lam in row]
                     for row, rng in zip(means.tolist(), streams)], dtype=np.int64)


def _knowledge_columns(counts):
    """K_hat and its delta-method sigma per row of (G, 4) counts (HH, HV, VH, VV).

    Returns ``(k_hat, k_sigma, empty)``; rows without counts are marked in
    ``empty`` and hold NaN.
    """
    c = np.asarray(counts, dtype=float)
    n = c[:, 0] + c[:, 1] + c[:, 2] + c[:, 3]
    empty = n <= 0
    n[empty] = 1.0
    k_hat = (c[:, 0] + c[:, 3] - c[:, 1] - c[:, 2]) / n
    # Python's k**2 (libm pow) and numpy's k*k round apart in the last bit
    k_sq = np.array([k**2 for k in k_hat.tolist()])
    sigma = np.sqrt(np.maximum(1.0 - k_sq, 0.0) / n)
    k_hat[empty] = sigma[empty] = np.nan
    return k_hat, sigma, empty


def _weak_value_columns(counts, k_hat, k_sigma):
    """Postselected values per row of (G, 2) meter counts (H, V) and strength estimates.

    Returns ``(value, sigma, worst_case, unbounded, empty)``; rows without
    counts are marked in ``empty``. Those rows and rows with ``k_hat``
    exactly 0 hold NaN and are never unbounded.
    """
    c = np.asarray(counts, dtype=float)
    n_h, n_v = c[:, 0], c[:, 1]
    n = n_h + n_v
    empty = n <= 0
    valid = ~empty & (k_hat != 0.0)
    n[empty] = 1.0
    k = np.where(valid, k_hat, 1.0)
    asym = (n_h - n_v) / n
    value = asym / k
    # n**3 of the integer counts, rounded once as Python rounds it; the
    # float cube rounds twice, which shows once n**3 passes 2**53
    cube = np.array([float((h + v) ** 3) for h, v in counts.tolist()])
    cube[empty] = 1.0
    sigma = np.sqrt(4.0 * n_h * n_v / cube) / np.abs(k)
    worst = asym / (k + np.copysign(k_sigma, k))
    unbounded = valid & (np.abs(k) - k_sigma <= 0.0)
    value[~valid] = sigma[~valid] = worst[~valid] = np.nan
    return value, sigma, worst, unbounded, empty


def sample_counts(true_probs: dict, rate: float, duration: float, seed) -> CountSample:
    """Independent Poisson counts with means rate * duration * p_i.

    One row of the grid kernels that :func:`run_fig2` uses, drawn from
    ``make_rng(seed)``.
    """
    outcomes = tuple(true_probs)
    means = _poisson_means([[true_probs[k] for k in outcomes]], outcomes, rate, duration)
    counts = _draw(means, [make_rng(seed)])[0].tolist()
    return CountSample(counts=dict(zip(outcomes, counts)), duration=duration)


def _count_row(sample: CountSample, outcomes, run: str) -> np.ndarray:
    try:
        return np.array([[sample.counts[k] for k in outcomes]])
    except KeyError as exc:
        raise ValueError(f"{run} sample missing outcome {exc}") from None


def estimate_knowledge(sample: CountSample) -> Estimate:
    """Strength estimate from an unpostselected four-outcome run.

    K_hat = (N_HH + N_VV - N_HV - N_VH) / N with the delta-method error
    sqrt((1 - K_hat^2)/N) for independent Poisson counts; near zero
    strength this is 1/sqrt(N).
    """
    k_hat, sigma, empty = _knowledge_columns(_count_row(sample, _CAL_OUTCOMES, "calibration"))
    if empty[0]:
        raise ZeroCountsError("no calibration counts recorded")
    k_hat, sigma = float(k_hat[0]), float(sigma[0])
    return Estimate(value=k_hat, sigma=sigma, lower=k_hat - sigma, upper=k_hat + sigma)


def estimate_weak_value(sample: CountSample, k_est: Estimate) -> Estimate:
    """Postselected-value estimate from meter counts plus a strength estimate.

    value = ((N_H - N_V)/(N_H + N_V)) / K_hat. The quoted sigma carries
    only the Poisson error of the meter counts (the plotted bars); the
    strength error is reported separately through ``worst_case`` and,
    when the 1-sigma strength interval reaches zero, the
    ``unbounded_above`` flag.
    """
    counts = _count_row(sample, _METER_OUTCOMES, "weak-value")
    value, sigma, worst, unbounded, empty = _weak_value_columns(
        counts, np.array([k_est.value], dtype=float), np.array([k_est.sigma], dtype=float))
    if empty[0]:
        raise ZeroCountsError("no postselected counts recorded")
    if k_est.value == 0.0:  # exact: the estimate is a ratio of integers
        raise ZeroStrengthError("estimated strength is exactly zero")
    value, sigma, unbounded = float(value[0]), float(sigma[0]), bool(unbounded[0])
    return Estimate(
        value=value,
        sigma=sigma,
        lower=value - sigma,
        upper=math.inf if unbounded else value + sigma,
        worst_case=float(worst[0]),
        unbounded_above=unbounded,
    )


@dataclass
class Fig2Row:
    """One grid point of the strength-sweep table."""

    k_true: float
    k_hat: float = math.nan
    k_sigma: float = math.nan
    wv: float = math.nan
    wv_sigma: float = math.nan
    wv_worst: float = math.nan
    unbounded: bool = False
    no_data: bool = False


@dataclass
class Fig2Result:
    rows: list
    metadata: dict = field(default_factory=dict)


def run_fig2(plan: RunPlan, psi: Polarization, params: ImperfectionParams, k_grid,
             cfg: DeviceConfig = DeviceConfig(), workers: int = 1) -> Fig2Result:
    """Simulate calibration and weak-value runs over a strength grid.

    The model probabilities come first, for the whole grid at once: the
    joint distribution of a diagonal input (calibration, no
    postselection) and the meter probabilities of ``psi`` postselected
    on A. Grid point ``i`` then draws its calibration counts and its
    postselected meter counts from its two substreams of the master
    seed, ``stream_for(plan.seed, i, K_RUN)`` and ``stream_for(plan.seed,
    i, WV_RUN)``, so the table depends on the seed alone. The keys of all
    those streams are derived in one batch, one generator is re-keyed for
    each run, and the estimators run on the whole grid.
    ``workers`` is accepted for compatibility and ignored: the runs are
    drawn serially. Rows where an estimator has nothing to work with are
    flagged ``no_data`` instead of carrying sentinel numbers; the
    metadata's ``no_data_rows`` lists them under the first reason that
    applies: no calibration counts, no postselected counts, or a
    strength estimate of exactly 0.
    """
    k_grid = [float(k) for k in k_grid]
    if not k_grid:
        raise ValueError("strength grid is empty")
    if any(abs(k) < ZERO_STRENGTH_TOL for k in k_grid):
        raise ZeroStrengthError("strength K = 0 in grid: weak value undefined")
    channel = imperfect_channel(None, params, cfg)
    cal_means = _poisson_means(channel_joint_grid(channel, diagonal(), k_grid), _CAL_OUTCOMES,
                               plan.unpostselected_rate, plan.duration_k)
    meter_means = _poisson_means(
        channel_postselected_grid(channel, psi, k_grid, antidiagonal())[:, :2], _METER_OUTCOMES,
        plan.postselected_rate, plan.duration_wv)
    points = np.arange(len(k_grid))
    rng = make_rng(plan.seed)

    def streams(run_type):
        return (_rekey(rng, key) for key in _philox_keys(plan.seed, points, run_type).tolist())

    cal = _draw(cal_means, streams(K_RUN))
    meter = _draw(meter_means, streams(WV_RUN))
    k_hat, k_sigma, no_cal = _knowledge_columns(cal)
    wv, wv_sigma, wv_worst, unbounded, no_meter = _weak_value_columns(meter, k_hat, k_sigma)
    no_meter &= ~no_cal
    zero_k = (k_hat == 0.0) & ~no_meter
    no_data = no_cal | no_meter | zero_k
    rows = [Fig2Row(*fields) for fields in zip(
        k_grid, k_hat.tolist(), k_sigma.tolist(), wv.tolist(), wv_sigma.tolist(),
        wv_worst.tolist(), unbounded.tolist(), no_data.tolist())]

    metadata = {
        "seed": plan.seed,
        "plan": asdict(plan),
        "model": asdict(params),
        "input_state": {
            "alpha": [float(np.real(psi.alpha)), float(np.imag(psi.alpha))],
            "beta": [float(np.real(psi.beta)), float(np.imag(psi.beta))],
        },
        "k_grid": k_grid,
        "rng": RNG_ALGORITHM,
        "package": {"name": "weakpol", "version": _pkg_version},
        "numpy_version": np.__version__,
        "no_data_rows": {
            "no_calibration_counts": np.flatnonzero(no_cal).tolist(),
            "no_postselected_counts": np.flatnonzero(no_meter).tolist(),
            "zero_strength_estimate": np.flatnonzero(zero_k).tolist(),
        },
    }
    return Fig2Result(rows=rows, metadata=metadata)


CSV_HEADER = "K_true,K_hat,K_sigma,wv,wv_sigma,wv_worst,unbounded"
_ROW_FORMAT = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s"


def format_fig2_csv(result: Fig2Result) -> str:
    lines = [CSV_HEADER]
    for r in result.rows:
        if r.no_data:
            flag = "no_data"
        else:
            flag = "true" if r.unbounded else "false"
        lines.append(_ROW_FORMAT % (
            r.k_true, r.k_hat, r.k_sigma, r.wv, r.wv_sigma, r.wv_worst, flag))
    return "\n".join(lines) + "\n"


def write_fig2_csv(result: Fig2Result, path) -> str:
    """Write the table plus a JSON metadata sidecar; returns the sidecar path."""
    return write_with_sidecar(path, format_fig2_csv(result), result.metadata)


def write_with_sidecar(path, text: str, metadata: dict) -> str:
    """Write ``text`` to ``path`` and ``metadata`` to its JSON sidecar.

    Both go to temp files that are renamed into place only once both are
    written; on an OSError the temp files are removed and the error is
    re-raised, so a failed write leaves no partial output. Returns the
    sidecar path.
    """
    path = str(path)
    meta_path = _meta_path_for(path)
    files = {path: text, meta_path: json.dumps(metadata, indent=2, sort_keys=True) + "\n"}
    tmps = []
    try:
        for target, body in files.items():
            tmps.append(target + ".tmp")
            with open(tmps[-1], "w", newline="") as fh:
                fh.write(body)
        for target, tmp in zip(files, tmps):
            os.replace(tmp, target)
    except OSError:
        for tmp in tmps:
            try:
                os.remove(tmp)
            except OSError:
                pass
        raise
    return meta_path


def _meta_path_for(path: str) -> str:
    if path.endswith(".csv"):
        return path[: -len(".csv")] + ".meta.json"
    return path + ".meta.json"
