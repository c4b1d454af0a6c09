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
reduce to the ideal gate at v = 1.

Process tomography reconstructs the chi matrix of any such channel by
linear inversion from the 16 product preparations over {H, V, D, R} per
qubit, which span the single-qubit operator space.
"""

from __future__ import annotations

import csv
import math
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

_KET = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    "R": np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
}
PREP_LABELS = ("H", "V", "D", "R")

_PAULI_1 = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
PAULI_LABELS = tuple(
    f"{a}{b}" for a in ("I", "X", "Y", "Z") for b in ("I", "X", "Y", "Z")
)
PAULI_2 = tuple(np.kron(p, q) for p in _PAULI_1 for q in _PAULI_1)


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
    """Completely positive, trace-nonincreasing map in operator-sum form."""

    def __init__(self, kraus):
        self.kraus = [np.asarray(k, dtype=complex).reshape(4, 4) for k in kraus]
        if not self.kraus:
            raise ValueError("a channel needs at least one effect operator")
        total = sum(k.conj().T @ k for k in self.kraus)
        top = float(np.max(np.linalg.eigvalsh(total)).real)
        if top > 1.0 + 1e-10:
            raise ValueError(f"channel increases trace: max effect eigenvalue {top}")

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex).reshape(4, 4)
        out = np.zeros((4, 4), dtype=complex)
        for k in self.kraus:
            out += k @ rho @ k.conj().T
        return out

    def superoperator(self) -> np.ndarray:
        """Column-stacking superoperator: vec(E(rho)) = S vec(rho)."""
        s = np.zeros((16, 16), dtype=complex)
        for k in self.kraus:
            s += np.kron(k.conj(), k)
        return s


def _joint_density(signal: Polarization, meter: MeterSetting) -> np.ndarray:
    ket = np.kron(signal.ket(), meter.ket())
    return np.outer(ket, ket.conj())


def channel_output(channel: TwoQubitChannel, signal: Polarization, meter: MeterSetting):
    """(success probability, output state conditioned on success)."""
    rho = channel.apply(_joint_density(signal, meter))
    prob = float(np.trace(rho).real)
    if prob <= 1e-300:
        raise PostselectionImpossibleError("channel output has zero weight")
    return prob, rho / prob


def channel_joint_distribution(channel, signal, meter):
    """(P_HH, P_HV, P_VH, P_VV) conditioned on success."""
    _, rho = channel_output(channel, signal, meter)
    return tuple(float(rho[i, i].real) for i in range(4))


def channel_postselected_probs(channel, signal, meter, post: Polarization):
    """(P(meter H | post), P(meter V | post), P(post | success))."""
    _, rho = channel_output(channel, signal, meter)
    post_ket = post.ket()
    proj_post = np.outer(post_ket, post_ket.conj())
    p = []
    for m in range(2):
        meter_proj = np.zeros((2, 2), dtype=complex)
        meter_proj[m, m] = 1.0
        p.append(float(np.trace(np.kron(proj_post, meter_proj) @ rho).real))
    p_post = p[0] + p[1]
    if p_post <= 1e-300:
        raise PostselectionImpossibleError("postselection probability is zero under the channel")
    return p[0] / p_post, p[1] / p_post, p_post


def classical_splitter_coincidence(eta: float) -> float:
    """Coincidence probability for two distinguishable photons, one per port.

    Probabilities of the direct and exchanged assignments add; their
    amplitudes would interfere for indistinguishable photons.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
    t = math.sqrt(eta)
    r = math.sqrt(1.0 - eta)
    direct = t * t
    exchange = (-r) * r
    return direct**2 + exchange**2


@dataclass
class DistinguishableOutput:
    """Conditioned output of the device run with distinguishable photons."""

    rho: np.ndarray
    success_prob: float
    joint_hv: tuple


def distinguishable_device(signal: Polarization, meter: MeterSetting,
                           cfg: DeviceConfig = DeviceConfig()) -> DistinguishableOutput:
    """Propagate with two-photon interference removed at the splitters.

    Amplitudes still interfere within each photon's own paths, so a lone
    photon traverses the network exactly as in the ideal device; only the
    direct/exchange cross terms are dropped.
    """
    direct, exchange = labeled_kraus(cfg)
    rho_in = _joint_density(signal, meter)
    rho = direct @ rho_in @ direct.conj().T + exchange @ rho_in @ exchange.conj().T
    prob = float(np.trace(rho).real)
    if prob <= 1e-300:
        raise PostselectionImpossibleError("no coincidence weight for this input")
    rho_cond = rho / prob
    joint = tuple(float(rho_cond[i, i].real) for i in range(4))
    return DistinguishableOutput(rho=rho_cond, success_prob=prob, joint_hv=joint)


def _basis_projectors():
    eye = np.eye(4, dtype=complex)
    return [np.outer(eye[:, i], eye[:, i]) for i in range(4)]


def _depolarizing_kraus(p: float):
    """White noise of weight p on two qubits: rho -> (1-p) rho + p tr(rho) I/4."""
    ks = [math.sqrt(1.0 - p + p / 16.0) * np.eye(4, dtype=complex)]
    ks += [math.sqrt(p) / 4.0 * q for q in PAULI_2[1:]]
    return ks


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

    kraus = []
    if v > 0.0:
        kraus.append(math.sqrt(v) * gate)
    if v < 1.0:
        w = math.sqrt((1.0 - v) / 2.0)
        kraus += [w * direct, w * exchange]
        kraus += [w * (gate @ proj) for proj in _basis_projectors()]
    if p > 0.0:
        kraus = [d @ k for d in _depolarizing_kraus(p) for k in kraus]
    return TwoQubitChannel(kraus)


# ---------------------------------------------------------------------------
# Process tomography
# ---------------------------------------------------------------------------

def _unit_decomposition():
    """Matrix units e_uv as combinations of the H/V/D/R density matrices."""
    rho = {k: np.outer(_KET[k], _KET[k].conj()) for k in PREP_LABELS}
    coeff = {
        (0, 0): {"H": 1.0},
        (1, 1): {"V": 1.0},
        (0, 1): {"D": 1.0, "R": 1.0j, "H": -(1.0 + 1.0j) / 2.0, "V": -(1.0 + 1.0j) / 2.0},
        (1, 0): {"D": 1.0, "R": -1.0j, "H": -(1.0 - 1.0j) / 2.0, "V": -(1.0 - 1.0j) / 2.0},
    }
    # guard: the decomposition must reproduce the units exactly
    for (u, v), cs in coeff.items():
        unit = np.zeros((2, 2), dtype=complex)
        unit[u, v] = 1.0
        rebuilt = sum(c * rho[k] for k, c in cs.items())
        if np.max(np.abs(rebuilt - unit)) > 1e-12:
            raise RuntimeError("preparation basis failed to span the operator space")
    return coeff


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
        s = np.zeros((16, 16), dtype=complex)
        for m in range(16):
            for n in range(16):
                c = self.matrix[m, n]
                if c != 0:
                    s += c * np.kron(PAULI_2[n].T, PAULI_2[m])
        return s

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex).reshape(4, 4)
        vec = rho.reshape(16, order="F")
        out = self.superoperator() @ vec
        return out.reshape(4, 4, order="F")


def process_tomography(channel: TwoQubitChannel, psd_project: bool = False) -> ChiMatrix:
    """Reconstruct the chi matrix by linear inversion from product inputs.

    Evaluates the channel on the 16 preparations {H, V, D, R} x {H, V, D,
    R}, recombines those outputs into the images of the matrix units, and
    projects the resulting superoperator onto the Pauli product basis.
    With ``psd_project`` negative eigenvalues are clipped and the trace
    renormalized, for use when the evaluations carry noise.
    """
    outputs = {}
    for a in PREP_LABELS:
        for b in PREP_LABELS:
            rho_in = np.kron(np.outer(_KET[a], _KET[a].conj()),
                             np.outer(_KET[b], _KET[b].conj()))
            outputs[(a, b)] = channel.apply(rho_in)

    coeff = _unit_decomposition()
    s = np.zeros((16, 16), dtype=complex)
    for u in range(2):
        for v in range(2):
            for w in range(2):
                for x in range(2):
                    img = np.zeros((4, 4), dtype=complex)
                    for ka, ca in coeff[(u, v)].items():
                        for kb, cb in coeff[(w, x)].items():
                            img += ca * cb * outputs[(ka, kb)]
                    row, col = 2 * u + w, 2 * v + x
                    s[:, col * 4 + row] = img.reshape(16, order="F")

    chi = np.zeros((16, 16), dtype=complex)
    for m in range(16):
        for n in range(16):
            basis = np.kron(PAULI_2[n].T, PAULI_2[m])
            chi[m, n] = np.trace(basis.conj().T @ s) / 16.0

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
    with open(path, "w", newline="") as fh:
        fh.write(format_chi_csv(chi))


def read_chi_csv(path) -> ChiMatrix:
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.reader(fh):
            vals = [float(x) for x in rec]
            rows.append([complex(re, im) for re, im in zip(vals[0::2], vals[1::2])])
    return ChiMatrix(np.array(rows, dtype=complex))


# ---------------------------------------------------------------------------
# Fitting and inversion
# ---------------------------------------------------------------------------

def _signal_effects(channel: TwoQubitChannel, meter: MeterSetting, post: Polarization):
    """Signal effects (R_H, R_V, R_success) of the channel at one meter setting.

    The joint events (post and meter H, post and meter V, success) occur
    with probability psi^dag R psi for a signal psi, where R is the
    Heisenberg-picture effect sum_k k^dag Pi k compressed by (I (x) |m>)
    onto the meter preparation |m>.
    """
    blocks = np.array(channel.kraus) @ np.kron(np.eye(2), meter.ket()[:, None])
    effects = []
    for meter_ket in np.eye(2):
        amps = np.kron(post.ket().conj(), meter_ket) @ blocks
        effects.append(amps.conj().T @ amps)
    flat = blocks.reshape(-1, 2)
    effects.append(flat.conj().T @ flat)
    return tuple(effects)


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
    no target fixes the visibility.
    """
    post = post if post is not None else antidiagonal()
    ket = psi.ket()
    weights = []
    for v in (1.0, 0.0):
        channel = imperfect_channel(meter, ImperfectionParams(visibility=v), cfg)
        r_h, r_v, r_ok = _signal_effects(channel, meter, post)
        weights.append([float((ket.conj() @ r @ ket).real) for r in (r_h + r_v, r_ok)])
    (a1, s1), (a0, s0) = weights
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
    k_grid = list(k_grid)
    if any(abs(k) < ZERO_STRENGTH_TOL for k in k_grid):
        raise ZeroStrengthError("strength K = 0 in grid: weak value unbounded")
    channel = imperfect_channel(None, params, cfg)
    out = []
    for k in k_grid:
        meter = MeterSetting.from_strength(k)
        p_h, p_v, _ = channel_postselected_probs(channel, psi, meter, post)
        out.append((float(k), (p_h - p_v) / k))
    return out


def _harmonics(q: np.ndarray) -> np.ndarray:
    """(q0, q1, q2) with a^T Re(q) a = q0 + q1 cos 2t + q2 sin 2t, a = (cos t, sin t)."""
    q = q.real
    return np.array([(q[0, 0] + q[1, 1]) / 2.0, (q[0, 0] - q[1, 1]) / 2.0, q[0, 1]])


def invert_s1(measured_weak_value: float, measured_p_a: float,
              params: ImperfectionParams, meter: MeterSetting,
              cfg: DeviceConfig = DeviceConfig(),
              post: Polarization | None = None) -> float:
    """Expectation of s1 inferred from a measured postselected value.

    The measurement is taken to come from a linear input polarization
    (cos t, sin t) with t in (-90, 90] degrees, for every model including
    the coherent one. With (R_H, R_V) the signal effects of the two
    postselected meter outcomes, the weak value w fixes t through

        a^T Re(R_H - R_V - w K (R_H + R_V)) a = 0,   a = (cos t, sin t),

    which in phi = 2t reads c0 + c1 cos phi + c2 sin phi = 0 and has at
    most two roots. The root whose model postselection probability lies
    closest to ``measured_p_a`` wins, and <s1> = cos phi is returned.

    Raises InversionRangeError when no input reproduces the measured
    value, and when the weak value is the same for every input (as when
    postselecting on H or V without white noise), so that it carries
    nothing to invert. The equation may miss by a rounding residual of
    1e-12 of the postselection weight, so a value at the model's extreme,
    where the two roots merge, still inverts.
    """
    post = post if post is not None else antidiagonal()
    k = meter.strength
    if abs(k) < ZERO_STRENGTH_TOL:
        raise ZeroStrengthError("strength K = 0: inversion undefined")
    r_h, r_v, r_ok = _signal_effects(imperfect_channel(meter, params, cfg), meter, post)
    d, s, ok = _harmonics(r_h - r_v), _harmonics(r_h + r_v), _harmonics(r_ok)
    # d / s is the meter imbalance (a probability difference) as a function
    # of the input; parallel harmonics mean it is the same for every input
    if np.linalg.norm(np.cross(d, s)) <= 1e-12 * float(s @ s):
        raise InversionRangeError(
            "the postselected value does not depend on the input: nothing to invert"
        )
    c0, c1, c2 = (float(x) for x in d - measured_weak_value * k * s)
    amp = math.hypot(c1, c2)
    if abs(c0) > amp + 1e-12 * float(np.linalg.norm(s)):
        raise InversionRangeError(
            f"measured value {measured_weak_value} outside the model's range"
        )
    centre = math.atan2(c2, c1)
    spread = math.acos(min(1.0, max(-1.0, -c0 / amp)))

    def p_post(phi):
        u = np.array([1.0, math.cos(phi), math.sin(phi)])
        return float(s @ u) / float(ok @ u)

    best = min((centre - spread, centre + spread),
               key=lambda phi: abs(p_post(phi) - measured_p_a))
    return math.cos(best)
