"""Imperfect-device model, two-qubit channels, and process tomography.

The ideal gate is a rank-one process (a single operator on the kept
subspace). The real device decoheres slightly; this module models that
with a visibility-weighted mixture

    channel = v * (coherent gate) + (1 - v) * (decohered propagation)

optionally followed by white noise of weight ``p``. The decohered branch
averages two walk-off mechanisms of equal weight:

  * photon-distinguishable propagation: the two photons carry hidden
    labels, so amplitudes interfere per label while the direct and
    exchanged assignments add as probabilities at the interfering
    splitter (no two-photon interference);
  * rail-dephased propagation: birefringent walk-off makes the H and V
    input rails distinguishable, so the joint input decoheres in the
    H/V basis before the (otherwise coherent) gate acts.

The first mechanism alone is second order in (gamma - gammabar) and
cannot move the rare-postselection probability at small strength; the
second supplies exactly that while preserving the diagonal-input
symmetry that keeps the weak value of a diagonal signal at zero. Both
reduce to the ideal gate at v = 1. White noise, rho -> (1-p) rho + p
tr(rho) I/4, follows the mixture.

A channel is one stack of Kraus operators, shape (n, 4, 4); its action
and its chi matrix are derived from it. A stored superoperator would
cancel the rare-postselection interference in probabilities rather than
amplitudes, which moved the weak value of a diagonal input at v = 1,
K = 0.006 from 8e-12 to 5e-10.

Every probability comes from one kernel, the meter harmonics of six events
e (post and meter H, post and meter V, HH, HV, VH, VV). With u_k = <e|k|a, H>
and w_k = <e|k|a, V> for operator k and signal a, c0 = sum_k |u_k + w_k|^2 / 2,
c1 = sum_k (|u_k|^2 - |w_k|^2) / 2 and c2 = sum_k Re(u_k conj w_k). A meter
encoding strength K weighs e by c0 + K c1 - q c2, q = 1 - sqrt(1 - K^2) taken
as K^2 / (1 + sqrt(1 - K^2)); (W_H - W_V) / K = dc0 / K + dc1 - (q / K) dc2
divides no difference by K. A balanced meter Hadamard (hadamard_eta = 0.5) has no
bias, so there the model sets dc0 = 0: the K = 0 meter photon meets the inverse
Hadamard on one rail (mH, which meets only its loss port, or mV for the A half of
the dephased I/2), and it splits that rail evenly. The weak limit at K = 0 is then
dc1 / (W_H + W_V); any other Hadamard refuses |K| < 1e-14. c0 adds u + w before
squaring, so the interference cancels in amplitudes. The channel views
read the kernel on a channel's Kraus stack; the model (the Fig. 2 sweep, the
model curve, the fit and the inversion) on the seven mixture operators (gate,
direct, exchange, gate P_0..P_3) of one gate build, weighted v and (1-v)/2,
with white noise W -> (1-p) W + (p/4) W_ok for every event and harmonic.
``imperfect_channel`` adds the same noise as Kraus operators.

Process tomography gives the chi matrix of any such channel in closed
form from its Kraus stack: each operator k is sum_m c_km P_m over the
16 Pauli products, and chi = C^T conj(C) (Nielsen & Chuang, section
8.4.2), the matrix that tomography on exact outputs reconstructs. No
superoperator is formed. ``ChiMatrix.apply`` acts with chi itself,
sum_mn chi_mn P_m rho P_n^dag.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .device import DeviceConfig
from .errors import InfeasibleTargetError, InversionRangeError, ZeroStrengthError
from .weak_values import MeterSetting, Polarization, antidiagonal, nonzero_weight


# H, V and D, the inputs whose weights fix a quadratic form's harmonics in invert_s1
_PREP_KETS = np.array([[1, 0], [0, 1], [1, 1]], dtype=complex) / np.sqrt([1, 1, 2])[:, None]
# (u, w) -> (u + w, u - w, u) and (u + w, u + w, w) / 2, whose products give the meter harmonics
_METER_MAPS = np.array([[[1, 1], [1, -1], [1, 0]], [[0.5, 0.5], [0.5, 0.5], [0, 1]]])

_PAULI_1 = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)
# II, IX, ..., ZZ: kron(P_a, P_b), a-major
PAULI_2 = np.einsum("aij,bkl->abikjl", _PAULI_1, _PAULI_1).reshape(16, 4, 4)
_EYE_4 = np.eye(4)
# P_m^dag as the columns of one matrix: a Kraus row times it gives 4 x the Pauli coefficients
_PAULI_COLUMNS = PAULI_2.reshape(16, 16).conj().T


@dataclass(frozen=True)
class ImperfectionParams:
    """Mixture weights: visibility of the coherent branch, extra white noise."""

    visibility: float = 1.0
    depol: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must lie in [0, 1], got {self.visibility}")
        if not 0.0 <= self.depol <= 1.0:
            raise ValueError(f"depol must lie in [0, 1], got {self.depol}")


TRACE_TOL = 1e-10  # the rounding an effect's top eigenvalue may show above 1


def _check_trace(ops: np.ndarray, sq: np.ndarray) -> None:
    """Raise where an effect sum_k sq[r, k] ops_k^dag ops_k, one per row of squared weights, has
    an eigenvalue above 1 + TRACE_TOL. An effect is positive semidefinite, so effects and their
    spectrum are formed only where its trace, sum_k sq[r, k] |ops_k|_F^2 from the norms, passes 1.
    """
    if (sq @ np.einsum("kij,kij->k", ops.conj(), ops).real).max() > 1.0:
        effects = sq @ (ops.conj().swapaxes(-1, -2) @ ops).reshape(len(ops), 16)
        top = float(np.linalg.eigvalsh(effects.reshape(-1, 4, 4)).max())
        if top > 1.0 + TRACE_TOL:
            raise ValueError(f"channel increases trace: max effect eigenvalue {top}")


class TwoQubitChannel:
    """Completely positive, trace-nonincreasing map in operator-sum form.

    ``kraus`` is the stack of Kraus operators, shape (n, 4, 4).
    """

    def __init__(self, kraus):
        self.kraus = np.asarray(kraus, dtype=complex).reshape(-1, 4, 4)
        if not len(self.kraus):
            raise ValueError("a channel needs at least one effect operator")
        if not np.isfinite(self.kraus).all():
            raise ValueError("Kraus operators must be finite")
        _check_trace(self.kraus, np.ones((1, len(self.kraus))))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """E(rho) for one 4x4 density matrix, or for each of a stack (..., 4, 4)."""
        rho = np.asarray(rho, dtype=complex)[..., None, :, :]
        return (self.kraus @ rho @ self.kraus.conj().swapaxes(-1, -2)).sum(axis=-3)


def _grid_strengths(strengths) -> np.ndarray:
    """The strengths the meters of ``MeterSetting.from_strength`` encode, bit for bit, one per K.

    The one strength-grid check: an empty grid, or a point outside [-1, 1] or NaN, raises
    ValueError."""
    k = np.asarray(strengths, dtype=float)
    if not k.size:
        raise ValueError("strength grid is empty")
    outside = ~(np.abs(k) <= 1.0)  # written so that NaN is outside
    if outside.any():
        raise ValueError(f"strength must lie in [-1, 1], got {k[outside][0]}")
    gamma = np.sqrt((1.0 + k) / 2.0)
    return 2.0 * gamma * gamma - 1.0


def _harmonics(ops: np.ndarray, signals: np.ndarray, post: Polarization | None = None,
               sq: np.ndarray | None = None) -> np.ndarray:
    """Meter harmonics of the six events (module docstring), shape (R, S, 3, 6), over R rows of
    squared weights ``sq`` of ``ops`` (one row of 1 by default) and S ``signals``."""
    post = post if post is not None else antidiagonal()
    sq = np.ones((1, len(ops))) if sq is None else sq
    n = len(ops)
    # the event rows <post, x| k and <ab| k, then their amplitudes on |a, x>, meter x first
    rows = np.concatenate([(post.ket().conj() @ ops.reshape(n, 2, 8)).reshape(n, 2, 4), ops], 1)
    amps = rows.reshape(n, 6, 2, 2).transpose(3, 0, 1, 2).reshape(-1, 2) @ signals.T
    left, right = _METER_MAPS @ amps.view(float).reshape(2, -1)  # real and imaginary parts apart
    h = (sq @ (left * right).reshape(3, n, -1)).reshape(3, len(sq), 6, len(signals), 2)
    return (h[..., 0] + h[..., 1]).transpose(1, 3, 0, 2)


def _at_strength(h: np.ndarray, k) -> np.ndarray:
    """Weights c0 + K c1 - q c2 at a strength ``k``: (..., 6), or (..., M, 6) for an array of M."""
    return np.array([k ** 0, k, -k * k / (1.0 + np.sqrt(1.0 - k * k))]).T @ h


ZERO_STRENGTH_TOL = 1e-14  # |K| under this is K = 0: sqrt(1/2) squares back 2.2e-16 off 0.5


def _imbalance_over_k(h: np.ndarray, k, cfg: DeviceConfig):
    """(W_H - W_V) / K as dc0 / K + dc1 - (q / K) dc2, from the two meter events' differences.

    The one zero-strength rule, read from the device: a balanced meter Hadamard has no bias,
    dc0 = 0 (module docstring), so K = 0 gives the weak limit dc1; any other Hadamard
    divides dc0 by K and raises ZeroStrengthError where |K| < ZERO_STRENGTH_TOL."""
    dc = h[..., 0] - h[..., 1]
    if cfg.hadamard_eta == 0.5:
        dc[..., 0] = 0.0
    elif (np.abs(k) < ZERO_STRENGTH_TOL).any():
        raise ZeroStrengthError(
            f"strength K = 0, |K| < {ZERO_STRENGTH_TOL:g}: weak value undefined")
    return dc @ np.array([1.0 / k, k ** 0, -k / (1.0 + np.sqrt(1.0 - k * k))])


def _joint_probs(w: np.ndarray) -> np.ndarray:
    """(P_HH, P_HV, P_VH, P_VV) conditioned on success, from six event weights (..., 6)."""
    joint = w[..., 2:]
    return joint / nonzero_weight(joint.sum(axis=-1), "channel output has zero weight")[..., None]


def _postselected_probs(w: np.ndarray) -> np.ndarray:
    """(P(meter H | post), P(meter V | post), P(post | success)) from six event weights (..., 6)."""
    post_weight = w[..., 0] + w[..., 1]
    p_post = post_weight / nonzero_weight(w[..., 2:].sum(axis=-1), "channel output has zero weight")
    nonzero_weight(p_post, "postselection probability is zero under the channel")
    return np.stack([w[..., 0] / post_weight, w[..., 1] / post_weight, p_post], axis=-1)


def channel_joint_distribution(channel, signal, meter):
    """(P_HH, P_HV, P_VH, P_VV) conditioned on success."""
    h = _harmonics(channel.kraus, signal.ket()[None])[0, 0]
    return tuple(_joint_probs(_at_strength(h, meter.strength)).tolist())


def channel_postselected_probs(channel, signal, meter, post: Polarization):
    """(P(meter H | post), P(meter V | post), P(post | success))."""
    h = _harmonics(channel.kraus, signal.ket()[None], post)[0, 0]
    return tuple(_postselected_probs(_at_strength(h, meter.strength)).tolist())


def _mixture(cfg: DeviceConfig, visibilities):
    """The seven mixture operators of ``cfg`` and their squared weights, one row per visibility.

    Gate, direct and exchange parts, gate P_0..P_3 (rail dephasing: all but one column masked)."""
    ops = np.concatenate((cfg.gate[None], cfg.parts, cfg.gate * _EYE_4[:, None, :]))
    return ops, np.array([[v] + [(1.0 - v) / 2.0] * 6 for v in visibilities])


def _model_harmonics(models, signals: np.ndarray, post, cfg: DeviceConfig) -> np.ndarray:
    """Meter harmonics of six events for each (v, p) model on every signal: (R, S, 3, 6).

    The mixture's effect is checked as a channel's is; white noise leaves
    it unchanged and moves p/4 of the success weight W_ok, the sum of the joint
    weights, into each event and harmonic (each event projector has trace 1).
    """
    ops, sq = _mixture(cfg, [m.visibility for m in models])
    _check_trace(ops, sq)
    h = _harmonics(ops, signals, post, sq)
    if not any(m.depol for m in models):
        return h
    p = np.array([m.depol for m in models])[:, None, None, None]
    return (1.0 - p) * h + p / 4.0 * h[..., 2:].sum(axis=-1, keepdims=True)


@dataclass
class DistinguishableOutput:
    """Conditioned output of the device run with distinguishable photons."""

    rho: np.ndarray
    success_prob: float
    joint_hv: tuple


def distinguishable_device(signal: Polarization, meter: MeterSetting,
                           cfg: DeviceConfig = DeviceConfig()) -> DistinguishableOutput:
    """Propagate with two-photon interference removed at the splitters.

    The direct and exchanged photon assignments are the two Kraus
    operators of the channel, so their probabilities add. Amplitudes
    still interfere within each photon's own paths, so a lone photon
    traverses the network exactly as in the ideal device; only the
    direct/exchange cross terms are dropped.
    """
    amps = TwoQubitChannel(cfg.parts).kraus @ np.kron(signal.ket(), meter.ket())
    rho = amps.T @ amps.conj()
    prob = nonzero_weight(float(np.trace(rho).real), "channel output has zero weight")
    joint = tuple(float(x) for x in rho.diagonal().real / prob)
    return DistinguishableOutput(rho=rho / prob, success_prob=prob, joint_hv=joint)


def imperfect_channel(meter: MeterSetting | None, params: ImperfectionParams,
                      cfg: DeviceConfig = DeviceConfig()) -> TwoQubitChannel:
    """Mixture of the coherent gate and its decohered counterparts.

    The map itself does not depend on the meter preparation (that is part
    of the input state); the argument mirrors the ideal-device call shape
    and is only validated. At visibility 1 and depol 0 the channel acts
    exactly as the coherent gate.
    """
    if meter is not None and not isinstance(meter, MeterSetting):
        raise TypeError("meter must be a MeterSetting or None")
    v, p = params.visibility, params.depol
    ops, sq = _mixture(cfg, [v])
    kraus = (np.sqrt(sq[0])[:, None, None] * ops)[[v > 0.0] + [v < 1.0] * 6]
    if p > 0.0:
        # white noise rho -> (1-p) rho + p tr(rho) I/4 after the mixture: its second
        # term is sum_ij (p/4) |i><j| sqrt(M) rho sqrt(M) |j><i| with M = sum_k k^dag k
        vals, vecs = np.linalg.eigh((kraus.conj().swapaxes(-1, -2) @ kraus).sum(axis=0))
        root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
        noise = _EYE_4[:, None, :, None] * root[None, :, None, :]
        kraus = np.concatenate([math.sqrt(1.0 - p) * kraus,
                                math.sqrt(p) / 2.0 * noise.reshape(16, 4, 4)])
    return TwoQubitChannel(kraus)


# ---------------------------------------------------------------------------
# Process tomography
# ---------------------------------------------------------------------------

@dataclass
class ChiMatrix:
    """Process matrix over the two-qubit Pauli basis (II, IX, ..., ZZ)."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.ascontiguousarray(self.matrix, dtype=complex).reshape(16, 16)
        if not np.isfinite(self.matrix).all():
            raise ValueError("chi entries must be finite")

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """sum_mn chi_mn P_m rho P_n^dag for one 4x4 matrix, or for each of a stack (..., 4, 4)."""
        rho = np.asarray(rho, dtype=complex)
        # contract chi with P_m first: 16 products with rho instead of 256
        return np.einsum("mn,mij,...jk,nlk->...il", self.matrix, PAULI_2, rho, PAULI_2.conj(),
                         optimize=["einsum_path", (0, 1), (0, 1), (0, 1)])


def process_tomography(channel: TwoQubitChannel) -> ChiMatrix:
    """The chi matrix of a channel, from the Pauli coefficients of its Kraus operators.

    Each Kraus operator k is sum_m c_km P_m with c_km = tr(P_m^dag k) / 4,
    so sum_k k rho k^dag = sum_mn chi_mn P_m rho P_n^dag with chi = C^T
    conj(C). This is the chi that linear-inversion tomography from exact
    outputs reconstructs. It is returned with no projection onto physical
    matrices; its trace, Hermiticity and eigenvalues show how physical it is.
    """
    c = channel.kraus.reshape(-1, 16) @ _PAULI_COLUMNS / 4.0
    return ChiMatrix(c.T @ c.conj())


_CHI_ROW_FORMAT = ",".join(["%.17g"] * 32)


def format_chi_csv(chi: ChiMatrix) -> str:
    """Row-major CSV: each complex row as 32 floats (real, imag, ...), as read_chi_csv reads it."""
    return "".join(_CHI_ROW_FORMAT % tuple(row) + "\n" for row in chi.matrix.view(float).tolist())


def read_chi_csv(path) -> ChiMatrix:
    """Chi from the text of ``format_chi_csv``: 16 rows of 32 finite values.

    Raises ValueError naming the first row that breaks that shape.
    """
    rows = []
    with open(path, newline="") as fh:
        for number, rec in enumerate(csv.reader(fh), start=1):
            try:
                vals = np.array([float(x) for x in rec])
            except ValueError:
                vals = np.empty(0)
            if number > 16 or len(vals) != 32 or not np.all(np.isfinite(vals)):
                raise ValueError(
                    f"{path}: row {number}: a chi CSV has 16 rows of 32 finite values"
                )
            rows.append(vals.view(complex))
    if len(rows) != 16:
        raise ValueError(
            f"{path}: row {len(rows) + 1}: missing; a chi CSV has 16 rows of 32 finite values"
        )
    return ChiMatrix(np.array(rows))


# ---------------------------------------------------------------------------
# Fitting and inversion
# ---------------------------------------------------------------------------

_FLAT_ENDS_TOL = 1e-4  # fit end points lo <= hi at most this times hi apart fix no v
_END_SLACK = 1e-9  # how far past the model floor or ceiling a fit target still clamps to it


def fit_visibility(target_p_a: float, psi: Polarization, meter: MeterSetting,
                   cfg: DeviceConfig = DeviceConfig(),
                   post: Polarization | None = None) -> ImperfectionParams:
    """Visibility whose model postselection probability hits the target.

    The channel is linear in v, so with a and s the post-and-success and
    success weights of ``psi`` at v = 1 and v = 0,

        P(post | success)(v) = (v a1 + (1 - v) a0) / (v s1 + (1 - v) s0),

    a monotone linear-fractional function solved for v in closed form.
    A target more than _END_SLACK below the model floor (or above the ceiling)
    set by the two end points raises InfeasibleTargetError; one within it fits
    that end point. An input whose end points lo <= hi differ by at most
    _FLAT_ENDS_TOL hi raises it too (an H or V input, or 42 degrees with an H
    post at K = 0.006): a relative target error e moves v by about
    e hi / (hi - lo), and the bound caps that gain at 1e4. An input that
    never succeeds at either end point raises PostselectionImpossibleError.
    """
    if not math.isfinite(target_p_a):
        raise ValueError(f"target_p_a must be finite, got {target_p_a}")
    if not isinstance(meter, MeterSetting):
        raise TypeError("meter must be a MeterSetting")
    ends = _at_strength(_model_harmonics((ImperfectionParams(1.0), ImperfectionParams(0.0)),
                                         psi.ket()[None], post, cfg)[:, 0], meter.strength)
    (a1, s1), (a0, s0) = ((w[0] + w[1], sum(w[2:])) for w in ends.tolist())
    nonzero_weight(min(s1, s0), "channel output has zero weight")
    lo_val, hi_val = sorted((a1 / s1, a0 / s0))
    if hi_val - lo_val <= _FLAT_ENDS_TOL * hi_val:
        raise InfeasibleTargetError(
            f"P(post) is {lo_val:.6g} at every visibility: no target fixes v")
    if target_p_a < lo_val - _END_SLACK:
        raise InfeasibleTargetError(f"target {target_p_a} below the model floor {lo_val:.6g}")
    if target_p_a > hi_val + _END_SLACK:
        raise InfeasibleTargetError(f"target {target_p_a} above the model ceiling {hi_val:.6g}")
    v_star = (target_p_a * s0 - a0) / ((a1 - a0) - target_p_a * (s1 - s0))
    return ImperfectionParams(visibility=min(max(v_star, 0.0), 1.0))


def model_weak_value_curve(params: ImperfectionParams, psi: Polarization, k_grid,
                           cfg: DeviceConfig = DeviceConfig(),
                           post: Polarization | None = None):
    """[(K, predicted postselected value)] for each strength; the grid is checked as run_fig2's."""
    k = np.asarray(list(k_grid), dtype=float)
    strengths = _grid_strengths(k)
    h = _model_harmonics([params], psi.ket()[None], post, cfg)[0, 0]
    w = _at_strength(h, strengths)
    _postselected_probs(w)  # raises where a meter's postselection is impossible
    values = _imbalance_over_k(h, strengths, cfg) / (w[:, 0] + w[:, 1])
    return list(zip(k.tolist(), values.tolist()))


# invert_s1's allowances on its K-free harmonics d of (W_H - W_V) / K and s of W_H + W_V
_INPUT_FREE_TOL = 1e-12  # |d x s| / |s|^2 at most this: the value d / s is the same for every input
_MISS_TOL = 1e-12  # the miss, over |s|, with which a value at the model's extreme still inverts


def invert_s1(measured_weak_value: float, measured_p_a: float,
              params: ImperfectionParams, meter: MeterSetting,
              cfg: DeviceConfig = DeviceConfig(),
              post: Polarization | None = None) -> float:
    """Expectation of s1 inferred from a measured postselected value.

    The measurement is taken to come from a linear input polarization
    (cos t, sin t) with t in (-90, 90] degrees, for every model including
    the coherent one. The weights W_H, W_V of the two postselected meter
    outcomes are quadratic forms in the input, so each reads
    q0 + q1 cos phi + q2 sin phi in phi = 2t, with harmonics fixed by its
    values at the inputs H, V and D. The weak value w fixes phi through

        (W_H - W_V) / K - w (W_H + W_V) = c0 + c1 cos phi + c2 sin phi = 0,

    which has at most two roots. The root whose model postselection
    probability lies closest to ``measured_p_a`` wins, and <s1> = cos phi
    is returned.

    Raises ZeroStrengthError where |K| < ZERO_STRENGTH_TOL off a balanced meter Hadamard, and
    InversionRangeError when no input reproduces the measured value, and when the weak
    value is the same for every input (as when postselecting on H or V without white
    noise), so that it carries nothing to invert. The equation may miss by a rounding
    residual of _MISS_TOL of the postselection weight, so a value at the model's extreme,
    where the two roots merge, still inverts.
    """
    for name, value in (("measured_weak_value", measured_weak_value),
                        ("measured_p_a", measured_p_a)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not 0.0 <= measured_p_a <= 1.0:
        raise ValueError(f"measured_p_a is a probability in [0, 1], got {measured_p_a}")
    if not isinstance(meter, MeterSetting):
        raise TypeError("meter must be a MeterSetting")
    k = meter.strength
    h = _model_harmonics([params], _PREP_KETS, post, cfg)[0]
    # harmonics q0 = (W(H) + W(V))/2, q1 = (W(H) - W(V))/2, q2 = W(D) - q0 of (W_H - W_V) / K,
    # W_H + W_V and the success weight, from their values at the inputs H, V and D
    probes = [(x, w_h + w_v, sum(joint)) for x, (w_h, w_v, *joint)
              in zip(_imbalance_over_k(h, k, cfg).tolist(), _at_strength(h, k).tolist())]
    d, s, ok = ((0.5 * (x + y), 0.5 * (x - y), z - 0.5 * (x + y)) for x, y, z in zip(*probes))
    # d / s is the weak value as a function of the input; parallel
    # harmonics mean it is the same for every input
    cross = (d[1] * s[2] - d[2] * s[1], d[2] * s[0] - d[0] * s[2], d[0] * s[1] - d[1] * s[0])
    if math.hypot(*cross) <= _INPUT_FREE_TOL * (s[0] ** 2 + s[1] ** 2 + s[2] ** 2):
        raise InversionRangeError(
            "the postselected value does not depend on the input: nothing to invert"
        )
    c0, c1, c2 = (x - measured_weak_value * y for x, y in zip(d, s))
    amp = math.hypot(c1, c2)
    if abs(c0) > amp + _MISS_TOL * math.hypot(*s):
        raise InversionRangeError(
            f"measured value {measured_weak_value} outside the model's range"
        )
    centre = math.atan2(c2, c1)
    spread = math.acos(min(1.0, max(-1.0, -c0 / amp)))

    def p_post(phi):
        cos, sin = math.cos(phi), math.sin(phi)
        return (s[0] + s[1] * cos + s[2] * sin) / (ok[0] + ok[1] * cos + ok[2] * sin)

    best = min((centre - spread, centre + spread),
               key=lambda phi: abs(p_post(phi) - measured_p_a))
    return math.cos(best)
