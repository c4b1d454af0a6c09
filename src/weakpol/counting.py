"""Monte Carlo photon-counting runs and their error analysis.

Coincidence counts are independent Poisson draws at the configured rates
and durations. The strength estimate comes from a separate unpostselected
calibration run with a diagonal input; its delta-method error is what
makes small-strength weak values so fragile: the estimate is c/K_hat, so
an error in K_hat slides the point along a hyperbola, and once the
1-sigma interval of K_hat reaches zero the upward error is unbounded and
reported as a flag rather than a number.

The model probabilities of a whole strength sweep are computed for the
whole grid at once (see
:func:`weakpol.imperfection.channel_postselected_grid`); only the counting
runs point by point. Randomness uses the counter-based Philox generator
with one stream per (grid point, run type): the stream of grid point ``i``
is exactly ``stream_for(seed, i, K_RUN)`` for its calibration run and
``stream_for(seed, i, WV_RUN)`` for its postselected run, so tables are
reproducible bit for bit. A Philox stream is fixed by its 128-bit key,
so :func:`run_fig2` derives the keys of all its streams in one batch
(numpy's ``SeedSequence`` hash replayed on arrays) and re-keys a single
generator before each run instead of building a ``SeedSequence`` and a
``Philox`` per stream. The sweep runs serially: a thread pool over grid
points was measured slower than the plain loop, so the ``workers``
argument of :func:`run_fig2` is accepted and ignored.
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


def sample_counts(true_probs: dict, rate: float, duration: float, seed) -> CountSample:
    """Independent Poisson counts with means rate * duration * p_i."""
    probs = {k: float(v) for k, v in true_probs.items()}
    if any(p < -1e-12 for p in probs.values()):
        raise ValueError(f"negative probability in {probs}")
    total = sum(probs.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"outcome probabilities must sum to 1, got {total}")
    if not (math.isfinite(rate) and rate >= 0 and math.isfinite(duration) and duration >= 0):
        raise ValueError("rate and duration must be finite and non-negative")
    rng = make_rng(seed)
    counts = {
        k: int(rng.poisson(rate * duration * max(p, 0.0))) for k, p in probs.items()
    }
    return CountSample(counts=counts, duration=duration)


def estimate_knowledge(sample: CountSample) -> Estimate:
    """Strength estimate from an unpostselected four-outcome run.

    K_hat = (N_HH + N_VV - N_HV - N_VH) / N with the delta-method error
    sqrt((1 - K_hat^2)/N) for independent Poisson counts; near zero
    strength this is 1/sqrt(N).
    """
    try:
        n_hh, n_hv, n_vh, n_vv = (sample.counts[k] for k in ("HH", "HV", "VH", "VV"))
    except KeyError as exc:
        raise ValueError(f"calibration sample missing outcome {exc}") from None
    n = n_hh + n_hv + n_vh + n_vv
    if n <= 0:
        raise ZeroCountsError("no calibration counts recorded")
    k_hat = (n_hh + n_vv - n_hv - n_vh) / n
    sigma = math.sqrt(max(1.0 - k_hat**2, 0.0) / n)
    return Estimate(value=k_hat, sigma=sigma, lower=k_hat - sigma, upper=k_hat + sigma)


def estimate_weak_value(sample: CountSample, k_est: Estimate) -> Estimate:
    """Postselected-value estimate from meter counts plus a strength estimate.

    value = ((N_H - N_V)/(N_H + N_V)) / K_hat. The quoted sigma carries
    only the Poisson error of the meter counts (the plotted bars); the
    strength error is reported separately through ``worst_case`` and,
    when the 1-sigma strength interval reaches zero, the
    ``unbounded_above`` flag.
    """
    try:
        n_h, n_v = sample.counts["H"], sample.counts["V"]
    except KeyError as exc:
        raise ValueError(f"weak-value sample missing outcome {exc}") from None
    n = n_h + n_v
    if n <= 0:
        raise ZeroCountsError("no postselected counts recorded")
    k_hat = k_est.value
    if k_hat == 0.0:  # exact: the estimate is a ratio of integers
        raise ZeroStrengthError("estimated strength is exactly zero")
    asym = (n_h - n_v) / n
    value = asym / k_hat
    sigma = math.sqrt(4.0 * n_h * n_v / n**3) / abs(k_hat)
    k_shifted = k_hat + math.copysign(k_est.sigma, k_hat)
    worst = asym / k_shifted
    unbounded = abs(k_hat) - k_est.sigma <= 0.0
    return Estimate(
        value=value,
        sigma=sigma,
        lower=value - sigma,
        upper=math.inf if unbounded else value + sigma,
        worst_case=worst,
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
    on A. Each grid point then draws its calibration
    counts and its postselected meter counts from its two substreams of
    the master seed, ``stream_for(plan.seed, i, K_RUN)`` and
    ``stream_for(plan.seed, i, WV_RUN)``, so the table depends on the seed
    alone. The keys of all those streams are derived in one batch, and one
    generator is re-keyed for each run.
    ``workers`` is accepted for compatibility and ignored: the points run
    serially. Rows where an estimator has nothing to work with are
    flagged ``no_data`` instead of carrying sentinel numbers.
    """
    k_grid = [float(k) for k in k_grid]
    if not k_grid:
        raise ValueError("strength grid is empty")
    if any(abs(k) < ZERO_STRENGTH_TOL for k in k_grid):
        raise ZeroStrengthError("strength K = 0 in grid: weak value undefined")
    channel = imperfect_channel(None, params, cfg)
    joint = channel_joint_grid(channel, diagonal(), k_grid).tolist()
    cond = channel_postselected_grid(channel, psi, k_grid, antidiagonal()).tolist()
    points = np.arange(len(k_grid))
    cal_keys = _philox_keys(plan.seed, points, K_RUN).tolist()
    wv_keys = _philox_keys(plan.seed, points, WV_RUN).tolist()
    rng = make_rng(plan.seed)

    def one_point(i: int) -> Fig2Row:
        row = Fig2Row(k_true=k_grid[i])
        try:
            cal = sample_counts(
                dict(zip(("HH", "HV", "VH", "VV"), joint[i])),
                plan.unpostselected_rate, plan.duration_k,
                _rekey(rng, cal_keys[i]),
            )
            k_est = estimate_knowledge(cal)
        except ZeroCountsError:
            row.no_data = True
            return row
        row.k_hat, row.k_sigma = k_est.value, k_est.sigma
        try:
            wv_sample = sample_counts(
                {"H": cond[i][0], "V": cond[i][1]},
                plan.postselected_rate, plan.duration_wv,
                _rekey(rng, wv_keys[i]),
            )
            wv_est = estimate_weak_value(wv_sample, k_est)
        except (ZeroCountsError, ZeroStrengthError):
            row.no_data = True
            return row
        row.wv, row.wv_sigma = wv_est.value, wv_est.sigma
        row.wv_worst = wv_est.worst_case
        row.unbounded = wv_est.unbounded_above
        return row

    rows = [one_point(i) for i in range(len(k_grid))]

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
    }
    return Fig2Result(rows=rows, metadata=metadata)


CSV_HEADER = "K_true,K_hat,K_sigma,wv,wv_sigma,wv_worst,unbounded"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def format_fig2_csv(result: Fig2Result) -> str:
    lines = [CSV_HEADER]
    for r in result.rows:
        if r.no_data:
            flag = "no_data"
        else:
            flag = "true" if r.unbounded else "false"
        lines.append(",".join([
            _fmt(r.k_true), _fmt(r.k_hat), _fmt(r.k_sigma),
            _fmt(r.wv), _fmt(r.wv_sigma), _fmt(r.wv_worst), flag,
        ]))
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
