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
tr(rho) I/4 after the mixture, joins the same operator sum: the mixture
operators scaled by sqrt(1-p), plus (sqrt(p)/2) |i><j| sqrt(M) for i, j
in 0..3 with M = sum_k k^dag k, so a noisy channel holds 7 + 16 = 23
operators.

A channel is one stack of Kraus operators, shape (n, 4, 4); its action,
superoperator and chi matrix are all derived from it. A stored
superoperator would cancel the rare-postselection interference in
probabilities rather than amplitudes, which moved the weak value of a
diagonal input at v = 1, K = 0.006 from 8e-12 to 5e-10. Every
probability of the module is a sum of squared moduli of amplitudes k|p>
of operators on a stack of product kets |p> = |a> (x) |m>, one matmul: a
Kraus stack on the meter kets of a strength grid (the Fig. 2 views), the
16 tomography preparations or one input of the distinguishable device.
The fit and the inversion build no channel: event weights are linear in
v, and white noise moves p/4 of the success weight into each
postselected meter outcome, so the weights at v = 1 and v = 0 give those
of every (v, p).

Process tomography reconstructs the chi matrix of any such channel by
linear inversion from the 16 product preparations over {H, V, D, R} per
qubit, which span the two-qubit operator space. Each output is
sum_k (k|p>)(k|p>)^dag over the amplitudes of the Kraus stack on a
product ket |p>, one linear solve gives the superoperator, and one fixed
Pauli change of basis maps it to chi; ``ChiMatrix.superoperator`` maps
back with the same basis matrix.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .device import DeviceConfig, labeled_kraus
from .errors import (
    InfeasibleTargetError,
    InversionRangeError,
    PostselectionImpossibleError,
    ZeroStrengthError,
)
from .weak_values import ZERO_STRENGTH_TOL, MeterSetting, Polarization, antidiagonal


def _kron_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kron(a_i, b_j) for every pair of 2x2 stacks, i-major: shape (len a * len b, 4, 4)."""
    return np.einsum("aij,bkl->abikjl", a, b).reshape(len(a) * len(b), 4, 4)


def _vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectors of a stack of 4x4 matrices, one per row."""
    return m.swapaxes(-1, -2).reshape(-1, 16)


def _outer(kets: np.ndarray) -> np.ndarray:
    """|k><k| for each row k of a stack of kets."""
    return np.einsum("ai,aj->aij", kets, kets.conj())


# H, V, D, R; the 16 tomography inputs are their products (H,H), (H,V), ..., (R,R)
_PREP_KETS = np.array([[1, 0], [0, 1], [1, 1], [1, 1j]], dtype=complex)
_PREP_KETS /= np.sqrt([1, 1, 2, 2])[:, None]
_PREP_PRODUCT_KETS = (_PREP_KETS[:, None, :, None] * _PREP_KETS[None, :, None, :]).reshape(16, 4)
PREPARATIONS = _outer(_PREP_PRODUCT_KETS)

_PAULI_1 = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)
# II, IX, ..., ZZ
PAULI_2 = _kron_pairs(_PAULI_1, _PAULI_1)
# Pauli change of basis B, one flattened PAULI_2 matrix per row. The
# superoperator S[(a, i), (b, j)] = sum_mn chi_mn P_n[b, a] P_m[i, j],
# regrouped as [(i, j), (b, a)], is B^T chi B; B B^dag = 4 I inverts it.
_PAULI_ROWS = PAULI_2.reshape(16, 16)
_UNIT_PROJECTORS = _outer(np.eye(4, dtype=complex))
# weights of (gate, direct, exchange, gate P_0, ..., gate P_3) at v = 1 and v = 0
_END_POINTS = np.array([[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], [0.0] + [0.5] * 6])
# (post and meter H, post and meter V, success) from |post amplitudes|^2, |outputs|^2
_EVENTS = np.array([[1.0, 0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0, 0], [0, 0, 1.0, 1.0, 1.0, 1.0]])


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


class TwoQubitChannel:
    """Completely positive, trace-nonincreasing map in operator-sum form.

    ``kraus`` is the stack of Kraus operators, shape (n, 4, 4).
    """

    def __init__(self, kraus):
        self.kraus = np.asarray(kraus, dtype=complex).reshape(-1, 4, 4)
        if not len(self.kraus):
            raise ValueError("a channel needs at least one effect operator")
        total = (self.kraus.conj().swapaxes(-1, -2) @ self.kraus).sum(axis=0)
        top = float(np.max(np.linalg.eigvalsh(total)).real)
        if top > 1.0 + 1e-10:
            raise ValueError(f"channel increases trace: max effect eigenvalue {top}")

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """E(rho) for one 4x4 density matrix, or for each of a stack (..., 4, 4)."""
        rho = np.asarray(rho, dtype=complex)[..., None, :, :]
        return (self.kraus @ rho @ self.kraus.conj().swapaxes(-1, -2)).sum(axis=-3)

    def superoperator(self) -> np.ndarray:
        """Column-stacking superoperator: vec(E(rho)) = S vec(rho)."""
        return np.einsum("kab,kij->aibj", self.kraus.conj(), self.kraus).reshape(16, 16)


def _meter_kets(strengths) -> np.ndarray:
    """Meter kets (gamma, gammabar) of ``MeterSetting.from_strength``, one row per strength."""
    k = np.asarray(strengths, dtype=float)
    outside = ~(np.abs(k) <= 1.0)  # written so that NaN is outside
    if outside.any():
        raise ValueError(f"strength must lie in [-1, 1], got {k[outside][0]}")
    gamma = np.sqrt((1.0 + k) / 2.0)
    return np.stack([gamma, np.sqrt(np.maximum(0.0, 1.0 - gamma**2))], axis=-1)


def _product_kets(signals: np.ndarray, meters: np.ndarray) -> np.ndarray:
    """|a> (x) |m> for each row pair of two broadcast stacks of 2-kets: shape (P, 4)."""
    return (signals[:, :, None] * meters[:, None, :]).reshape(-1, 4)


def _amplitudes(kraus: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """k|p> for every Kraus operator k and every row p of a ket stack: shape (P, n_kraus, 4).

    Every probability of the module is a sum of |k|p>|^2 over the Kraus
    axis, so rare-postselection interference cancels in amplitudes.
    """
    return (kraus @ kets.T).transpose(2, 0, 1)


def _kraus_weights(amps: np.ndarray) -> np.ndarray:
    """sum_k |a|^2 over the Kraus axis of an amplitude stack: (P, n, X) -> (P, X)."""
    re, im = amps.real, amps.imag
    return np.einsum("gkx,gkx->gx", re, re) + np.einsum("gkx,gkx->gx", im, im)


def _event_weights(amps: np.ndarray, post: Polarization) -> np.ndarray:
    """Weights of (post and meter H, post and meter V, success) per ket: shape (P, 3)."""
    # project the signal output on <post|, one amplitude per meter outcome
    hits = post.ket().conj() @ amps.reshape(*amps.shape[:2], 2, 2)
    return np.column_stack([_kraus_weights(hits), _kraus_weights(amps).sum(axis=1)])


def _checked_success(success: np.ndarray) -> np.ndarray:
    """The success weights; raises where the channel never succeeds."""
    if np.any(success <= 1e-300):
        raise PostselectionImpossibleError("channel output has zero weight")
    return success


def _joint(channel, signal, meter_kets) -> np.ndarray:
    amps = _amplitudes(channel.kraus, _product_kets(signal.ket()[None], meter_kets))
    weights = _kraus_weights(amps)
    return weights / _checked_success(weights.sum(axis=1))[:, None]


def _postselected(channel, signal, meter_kets, post) -> np.ndarray:
    amps = _amplitudes(channel.kraus, _product_kets(signal.ket()[None], meter_kets))
    weights = _event_weights(amps, post)
    post_weight = weights[:, 0] + weights[:, 1]
    p_post = post_weight / _checked_success(weights[:, 2])
    if np.any(p_post <= 1e-300):
        raise PostselectionImpossibleError("postselection probability is zero under the channel")
    return np.column_stack([weights[:, :2] / post_weight[:, None], p_post])


def channel_joint_grid(channel: TwoQubitChannel, signal: Polarization, strengths) -> np.ndarray:
    """(P_HH, P_HV, P_VH, P_VV) conditioned on success, one row per strength."""
    return _joint(channel, signal, _meter_kets(strengths))


def channel_postselected_grid(channel: TwoQubitChannel, signal: Polarization, strengths,
                              post: Polarization) -> np.ndarray:
    """(P(meter H | post), P(meter V | post), P(post | success)), one row per strength."""
    return _postselected(channel, signal, _meter_kets(strengths), post)


def channel_joint_distribution(channel, signal, meter):
    """(P_HH, P_HV, P_VH, P_VV) conditioned on success."""
    return tuple(_joint(channel, signal, meter.ket()[None])[0].tolist())


def channel_postselected_probs(channel, signal, meter, post: Polarization):
    """(P(meter H | post), P(meter V | post), P(post | success))."""
    return tuple(_postselected(channel, signal, meter.ket()[None], post)[0].tolist())


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
    kets = _product_kets(signal.ket()[None], meter.ket()[None])
    amps = _amplitudes(TwoQubitChannel(labeled_kraus(cfg)).kraus, kets)
    prob = float(_checked_success(_kraus_weights(amps).sum(axis=1))[0])
    rho = amps[0].T @ amps[0].conj() / prob
    joint = tuple(float(x) for x in rho.diagonal().real)
    return DistinguishableOutput(rho=rho, success_prob=prob, joint_hv=joint)


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
    direct, exchange = labeled_kraus(cfg)
    gate = direct + exchange
    v, p = params.visibility, params.depol

    parts = []
    if v > 0.0:
        parts.append(math.sqrt(v) * gate[None])
    if v < 1.0:
        w = math.sqrt((1.0 - v) / 2.0)
        parts += [w * np.stack([direct, exchange]), w * (gate @ _UNIT_PROJECTORS)]
    kraus = np.concatenate(parts)
    if p > 0.0:
        # white noise rho -> (1-p) rho + p tr(rho) I/4 after the mixture: its second
        # term is sum_ij (p/4) |i><j| sqrt(M) rho sqrt(M) |j><i| with M = sum_k k^dag k
        vals, vecs = np.linalg.eigh((kraus.conj().swapaxes(-1, -2) @ kraus).sum(axis=0))
        root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
        noise = np.eye(4)[:, None, :, None] * root[None, :, None, :]
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
        self.matrix = np.asarray(self.matrix, dtype=complex).reshape(16, 16)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T))

    def rank(self, tol: float = 1e-9) -> int:
        return int(np.sum(np.abs(self.eigenvalues()) > tol))

    def superoperator(self) -> np.ndarray:
        """sum_mn chi_mn kron(P_n^T, P_m): column-stacking form of sum chi_mn P_m rho P_n^dag."""
        return _superoperator_from_chi(self.matrix)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """sum_mn chi_mn P_m rho P_n^dag for one 4x4 matrix, or for each of a stack (..., 4, 4)."""
        rho = np.asarray(rho, dtype=complex)
        # contract chi with P_m first: 16 products with rho instead of 256
        return np.einsum("mn,mij,...jk,nlk->...il", self.matrix, PAULI_2, rho, PAULI_2.conj(),
                         optimize=["einsum_path", (0, 1), (0, 1), (0, 1)])


def _superoperator_from_chi(chi: np.ndarray) -> np.ndarray:
    """S of a chi matrix: B^T chi B, regrouped from [(i, j), (b, a)] to [(a, i), (b, j)]."""
    pairs = _PAULI_ROWS.T @ chi @ _PAULI_ROWS
    return pairs.reshape(4, 4, 4, 4).transpose(3, 0, 2, 1).reshape(16, 16)


def _chi_from_superoperator(s: np.ndarray) -> np.ndarray:
    """chi of a superoperator: S regrouped as [(i, j), (b, a)], then B* (.) B^dag / 16."""
    pairs = s.reshape(4, 4, 4, 4).transpose(1, 3, 2, 0).reshape(16, 16)
    return _PAULI_ROWS.conj() @ pairs @ _PAULI_ROWS.conj().T / 16.0


def process_tomography(channel: TwoQubitChannel, psd_project: bool = False) -> ChiMatrix:
    """Reconstruct the chi matrix by linear inversion from product inputs.

    Evaluates the channel on the 16 preparations {H, V, D, R} x {H, V, D,
    R} from the amplitudes k|p> of its Kraus operators on the product
    kets, solves vec(E(rho_ab)) = S vec(rho_ab) for the superoperator S
    in one step, and maps S to the Pauli product basis (the inverse of
    ``ChiMatrix.superoperator``). With ``psd_project`` negative
    eigenvalues are clipped and the trace renormalized, for use when the
    evaluations carry noise.
    """
    # amps[p, k, a] = (k|p>)_a, so conj(amps[p])^T @ amps[p] contracts the Kraus
    # axis into E(|p><p|)^T, whose row-major flattening is vec(E(|p><p|))
    amps = _amplitudes(channel.kraus, _PREP_PRODUCT_KETS)
    outputs = (amps.swapaxes(-1, -2).conj() @ amps).reshape(16, 16)
    s = np.linalg.solve(_vec(PREPARATIONS), outputs).T
    chi = _chi_from_superoperator(s)

    if psd_project:
        chi = 0.5 * (chi + chi.conj().T)
        vals, vecs = np.linalg.eigh(chi)
        clipped = np.clip(vals, 0.0, None)
        total = float(np.sum(vals).real)
        if np.sum(clipped) > 0 and total > 0:
            clipped *= total / np.sum(clipped)
        chi = (vecs * clipped) @ vecs.conj().T
    return ChiMatrix(chi)


def format_chi_csv(chi: ChiMatrix) -> str:
    """Row-major CSV text with real and imaginary parts interleaved."""
    lines = []
    for row in chi.matrix:
        flat = []
        for z in row:
            flat.append(format(float(z.real), ".17g"))
            flat.append(format(float(z.imag), ".17g"))
        lines.append(",".join(flat))
    return "\n".join(lines) + "\n"


def write_chi_csv(chi: ChiMatrix, path):
    """Write ``format_chi_csv(chi)`` to ``path`` atomically."""
    _write_atomic({os.fspath(path): format_chi_csv(chi)})


def _write_atomic(files: dict) -> None:
    """Write each ``{path: text}`` item so that a failure leaves no partial file.

    Every text goes to ``<path>.tmp`` and the temp files are renamed into
    place only once all are written; on an OSError the temp files are
    removed and the error is re-raised.
    """
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

def _endpoint_weights(kets: np.ndarray, post: Polarization, cfg: DeviceConfig) -> np.ndarray:
    """``_event_weights`` of each ket in the noise-free model at v = 1 and v = 0: (2, P, 3).

    Every model's effect sum_k k^dag k is a convex mix of the two end
    points' (white noise leaves it unchanged), so checking both keeps
    ``TwoQubitChannel``'s guard for every (v, p).
    """
    direct, exchange = labeled_kraus(cfg)
    gate = direct + exchange
    ops = np.concatenate([np.array([gate, direct, exchange]), gate @ _UNIT_PROJECTORS])
    effects = _END_POINTS @ (ops.conj().swapaxes(-1, -2) @ ops).reshape(7, 16)
    top = float(np.linalg.eigvalsh(effects.reshape(2, 4, 4)).max())
    if top > 1.0 + 1e-10:
        raise ValueError(f"channel increases trace: max effect eigenvalue {top}")
    amps = ops @ kets.T  # (operator, signal x meter output, ket)
    hits = (post.ket().conj() @ amps.reshape(7, 2, -1)).reshape(7, 2, -1)  # <post| (x) <meter x|
    both = np.concatenate([hits, amps], axis=1)
    return np.einsum("ek,xc,kcp->epx", _END_POINTS, _EVENTS, both.real**2 + both.imag**2)


def _model_weights(ends: np.ndarray, params: ImperfectionParams) -> np.ndarray:
    """Event weights at (v, p) from the end points: white noise adds p/4 W_ok to W_H, W_V."""
    v, p = params.visibility, params.depol
    noise = np.array([[1.0 - p, 0.0, 0.0], [0.0, 1.0 - p, 0.0], [p / 4.0, p / 4.0, 1.0]])
    return np.einsum("e,epx,xy->py", [v, 1.0 - v], ends, noise)


def fit_visibility(target_p_a: float, psi: Polarization, meter: MeterSetting,
                   cfg: DeviceConfig = DeviceConfig(),
                   post: Polarization | None = None) -> ImperfectionParams:
    """Visibility whose model postselection probability hits the target.

    The channel is linear in v, so with a and s the post-and-success and
    success weights of ``psi`` at v = 1 and v = 0,

        P(post | success)(v) = (v a1 + (1 - v) a0) / (v s1 + (1 - v) s0),

    a monotone linear-fractional function solved for v in closed form.
    A target below the model floor (or above the ceiling) set by the two
    end points raises InfeasibleTargetError, as does an input whose
    P(post | success) does not depend on v (an H or V input), since then
    no target fixes the visibility. An input that never succeeds at either
    end point raises PostselectionImpossibleError.
    """
    if not math.isfinite(target_p_a):
        raise ValueError(f"target_p_a must be finite, got {target_p_a}")
    if not isinstance(meter, MeterSetting):
        raise TypeError("meter must be a MeterSetting")
    post = post if post is not None else antidiagonal()
    ends = _endpoint_weights(_product_kets(psi.ket()[None], meter.ket()[None]), post, cfg)[:, 0]
    (a1, a0), (s1, s0) = (ends[:, 0] + ends[:, 1]).tolist(), _checked_success(ends[:, 2]).tolist()
    lo_val, hi_val = sorted((a1 / s1, a0 / s0))
    if hi_val - lo_val <= 1e-9:
        raise InfeasibleTargetError(
            f"P(post) is {lo_val:.6g} at every visibility: no target fixes v"
        )
    if target_p_a < lo_val - 1e-9:
        raise InfeasibleTargetError(
            f"target {target_p_a} below the model floor {lo_val:.6g}"
        )
    if target_p_a > hi_val + 1e-9:
        raise InfeasibleTargetError(
            f"target {target_p_a} above the model ceiling {hi_val:.6g}"
        )
    v_star = (target_p_a * s0 - a0) / ((a1 - a0) - target_p_a * (s1 - s0))
    return ImperfectionParams(visibility=min(max(v_star, 0.0), 1.0))


def model_weak_value_curve(params: ImperfectionParams, psi: Polarization, k_grid,
                           cfg: DeviceConfig = DeviceConfig(),
                           post: Polarization | None = None):
    """[(K, predicted postselected value)] for each strength in the grid."""
    post = post if post is not None else antidiagonal()
    k = np.asarray(list(k_grid), dtype=float)
    if np.any(np.abs(k) < ZERO_STRENGTH_TOL):
        raise ZeroStrengthError("strength K = 0 in grid: weak value unbounded")
    probs = channel_postselected_grid(imperfect_channel(None, params, cfg), psi, k, post)
    return list(zip(k.tolist(), ((probs[:, 0] - probs[:, 1]) / k).tolist()))


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

        W_H - W_V - w K (W_H + W_V) = c0 + c1 cos phi + c2 sin phi = 0,

    which has at most two roots. The root whose model postselection
    probability lies closest to ``measured_p_a`` wins, and <s1> = cos phi
    is returned.

    Raises InversionRangeError when no input reproduces the measured
    value, and when the weak value is the same for every input (as when
    postselecting on H or V without white noise), so that it carries
    nothing to invert. The equation may miss by a rounding residual of
    1e-12 of the postselection weight, so a value at the model's extreme,
    where the two roots merge, still inverts.
    """
    for name, value in (("measured_weak_value", measured_weak_value),
                        ("measured_p_a", measured_p_a)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not isinstance(meter, MeterSetting):
        raise TypeError("meter must be a MeterSetting")
    post = post if post is not None else antidiagonal()
    k = meter.strength
    if abs(k) < ZERO_STRENGTH_TOL:
        raise ZeroStrengthError("strength K = 0: inversion undefined")
    kets = _product_kets(_PREP_KETS[:3], meter.ket()[None])
    weights = _model_weights(_endpoint_weights(kets, post, cfg), params).tolist()
    # harmonics q0 = (W(H) + W(V))/2, q1 = (W(H) - W(V))/2, q2 = W(D) - q0 of W_H - W_V,
    # W_H + W_V and the success weight, from their values at the inputs H, V and D
    probes = [(w_h - w_v, w_h + w_v, w_ok) for w_h, w_v, w_ok in weights]
    d, s, ok = ((0.5 * (x + y), 0.5 * (x - y), z - 0.5 * (x + y)) for x, y, z in zip(*probes))
    # d / s is the meter imbalance (a probability difference) as a function
    # of the input; parallel harmonics mean it is the same for every input
    cross = (d[1] * s[2] - d[2] * s[1], d[2] * s[0] - d[0] * s[2], d[0] * s[1] - d[1] * s[0])
    if math.hypot(*cross) <= 1e-12 * (s[0] ** 2 + s[1] ** 2 + s[2] ** 2):
        raise InversionRangeError(
            "the postselected value does not depend on the input: nothing to invert"
        )
    c0, c1, c2 = (x - measured_weak_value * k * y for x, y in zip(d, s))
    amp = math.hypot(c1, c2)
    if abs(c0) > amp + 1e-12 * math.hypot(*s):
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
