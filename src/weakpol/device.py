"""Nondeterministic polarization-entangling measurement device.

The device couples a signal photon to a meter photon and succeeds when
one photon exits at each of the signal and meter ports (success
probability 1/9, independent of the inputs thanks to the balancing
losses). Layout, in propagation order:

  1. 50:50 splitter across the meter rails mH/mV,
  2. eta = 1/3 interfering splitter across sV and the transformed mV rail
     (two-photon interference there supplies the conditional sign flip),
  3. eta = 1/3 loss splitters on sH and the transformed mH rail into
     undetected ancillas (these balance the amplitudes so success is
     input-independent),
  4. the inverse 50:50 splitter restoring mH/mV,
  5. coincidence projection.

The gate is heralded: an input that can never give a coincidence has no
conditional state, so ``run_device`` raises ``PostselectionImpossibleError``.

Within the kept subspace this acts as controlled-NOT / 3 with the signal
as control, up to overall normalization. Correctness is defined by the
gate's contract, which :func:`weakpol.weak_values.target_state` states
(up to per-qubit phases), not by the layout. The splitters fix the gate, so a
``DeviceConfig`` builds it once, as the read-only direct and exchange ``parts``
and their coherent sum ``gate``, and every function here reads them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .errors import ZeroNormError
from .fock import PRUNE_TOL, BeamSplitterSpec, FockState, ModeRegistry
from .weak_values import NORM_TOL, MeterSetting, Polarization, nonzero_weight, target_state

SIGNAL_MODES = ("sH", "sV")
METER_MODES = ("mH", "mV")
ANCILLA_MODES = ("lossS", "lossM")
ALL_MODES = SIGNAL_MODES + METER_MODES + ANCILLA_MODES

_MODE_INDEX = {label: i for i, label in enumerate(ALL_MODES)}
_IDENTITY_ROWS = tuple(map(tuple, np.eye(len(ALL_MODES)).tolist()))

# the splitters in propagation order: (mode a, mode b, DeviceConfig field of its
# eta); the last swaps the mode roles to realize the inverse of the first one
# under the fixed sign convention
_NETWORK = (
    ("mH", "mV", "hadamard_eta"),
    ("sV", "mV", "interfering_eta"),
    ("sH", "lossS", "balance_eta"),
    ("mH", "lossM", "balance_eta"),
    ("mV", "mH", "hadamard_eta"),
)

# rows [1; cos phi; -sin phi] over the 1025-point meter-phase grid on [0, 2 pi] of
# cell width _PHASE_CELL: (a, Re c, Im c) times a column is a + Re(c e^{i phi})
_PHASE_BASIS = np.array([f(np.linspace(0.0, 2.0 * np.pi, 1025)) for f in
                         (np.ones_like, np.cos, lambda phi: -np.sin(phi))])
_PHASE_CELL = 2.0 * np.pi / 1024
_NEWTON_TOL = 1e-9  # rad: a meter-phase Newton step at most this ends local_phase_fidelity's search


def transfer_matrix(cfg: DeviceConfig) -> np.ndarray:
    """Single-photon mode-amplitude matrix of the full network.

    Column j holds the output amplitudes of one photon injected in mode
    j. Each splitter of ``_NETWORK`` is a 2x2 block on its two modes in
    the ``fock`` convention (column a -> (t, -r), column b -> (r, t)); the
    network is the product of those blocks in propagation order. Every
    splitter is real, so the walk replaces the two rows of Python floats
    each block mixes, starting from the identity rows, and prunes while
    converting to complex once. The Fock engine derives the same matrix
    from ``network_steps``, and the tests hold the two together.
    """
    u = list(_IDENTITY_ROWS)
    for mode_a, mode_b, field in _NETWORK:
        i, j = _MODE_INDEX[mode_a], _MODE_INDEX[mode_b]
        eta = getattr(cfg, field)
        t, r = math.sqrt(eta), math.sqrt(1.0 - eta)
        u[i], u[j] = ([t * a + r * b for a, b in zip(u[i], u[j])],
                      [t * b - r * a for a, b in zip(u[i], u[j])])
    # prune as the Fock engine does, so interference nulls are exact zeros:
    # a 1e-17 residual would still be a nonzero Poisson mean downstream
    return np.array([[x if abs(x) >= PRUNE_TOL else 0.0 for x in row] for row in u], dtype=complex)


@dataclass(frozen=True)
class DeviceConfig:
    """Splitter transmissivities (defaults: the balanced 1/9 gate) and their gate, built once.

    The gate is carried as two read-only arrays that are not dataclass
    fields, so ``==``, ``hash`` and ``repr`` see only the three etas.
    ``parts`` (2x4x4) holds the direct and the exchange term of the 2x2
    permanent of the transfer matrix U over the two photons' modes: U_ss
    (x) U_mm (each photon exits on its own side) and (U_sm (x) U_ms) SWAP
    (they swap sides), which add incoherently with hidden photon labels.
    ``gate`` (4x4) is their coherent sum, controlled-NOT / 3 at the
    defaults. Its columns are the product inputs |signal, meter> in (HH,
    HV, VH, VV) order and hold unnormalized coincidence amplitudes, so the
    squared norm of a column is the success probability.
    """

    interfering_eta: float = 1.0 / 3.0
    balance_eta: float = 1.0 / 3.0
    hadamard_eta: float = 0.5

    def __post_init__(self):
        for name in ("interfering_eta", "balance_eta", "hadamard_eta"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        # the kept block of U as k[out side, out pol., in side, in pol.]; each part is a
        # broadcast product over it, with the exchange SWAP in the index pattern
        k = transfer_matrix(self)[:4, :4].reshape(2, 2, 2, 2)
        parts = np.stack([k[0, :, None, 0, :, None] * k[1, None, :, 1, None, :],
                          k[0, :, None, 1, None, :] * k[1, None, :, 0, :, None]]).reshape(2, 4, 4)
        gate = parts[0] + parts[1]
        parts.flags.writeable = gate.flags.writeable = False
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "gate", gate)

    def __reduce__(self):  # copies and pickles rebuild the read-only parts and gate from the etas
        return DeviceConfig, (self.interfering_eta, self.balance_eta, self.hadamard_eta)


_SUCCESS_ROUNDING = 1e-12  # how far a success probability may exceed 1 by rounding


@dataclass
class TwoQubitState:
    """Joint signal (x) meter polarization state kept by coincidence.

    ``amplitudes[s, m]`` indexes signal and meter polarization with
    0 = H, 1 = V; stored normalized, with the coincidence probability in
    ``success_prob``.
    """

    amplitudes: np.ndarray
    success_prob: float

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).reshape(2, 2)
        n = np.vdot(self.amplitudes, self.amplitudes).real
        if not abs(n - 1.0) <= NORM_TOL:  # written so that NaN fails
            raise ValueError(f"amplitudes not normalized (|psi|^2 = {n})")
        if not 0.0 <= self.success_prob <= 1.0 + _SUCCESS_ROUNDING:
            raise ValueError(f"success probability out of range: {self.success_prob}")

    def density_matrix(self) -> np.ndarray:
        v = self.amplitudes.reshape(4)
        return np.outer(v, v.conj())


def device_registry() -> ModeRegistry:
    return ModeRegistry(ALL_MODES)


def network_steps(cfg: DeviceConfig = DeviceConfig()):
    """Beam-splitter sequence implementing the gate: ``_NETWORK`` at ``cfg``."""
    return [BeamSplitterSpec(a, b, getattr(cfg, field)) for a, b, field in _NETWORK]


def input_state(signal: Polarization, meter: MeterSetting) -> FockState:
    """Two-photon product input on the signal and meter rails."""
    state = fock.vacuum(device_registry())
    state = fock.create_photon(state, {"sH": signal.alpha, "sV": signal.beta})
    state = fock.create_photon(state, {"mH": meter.gamma, "mV": meter.gammabar})
    return state


def run_device(signal: Polarization, meter: MeterSetting, cfg: DeviceConfig = DeviceConfig()) -> TwoQubitState:
    """Run the gate ``cfg`` carries on a product input and condition on coincidence.

    The input enters as its four amplitude products (HH, HV, VH, VV). The gate never fires
    where ``nonzero_weight`` reads the coincidence weight as zero: PostselectionImpossibleError.
    """
    a, b, g, gb = signal.alpha, signal.beta, meter.gamma, meter.gammabar
    amps = cfg.gate @ np.array([a * g, a * gb, b * g, b * gb], dtype=complex)
    prob = nonzero_weight(float((np.abs(amps) ** 2).sum()),
                          "coincidence probability is zero: the gate never fires")
    return TwoQubitState(amps / math.sqrt(prob), prob)


def device_meter_distribution(state: TwoQubitState):
    """Joint outcome probabilities (P_HH, P_HV, P_VH, P_VV)."""
    p = np.abs(state.amplitudes.reshape(4)) ** 2
    return tuple(float(x) for x in p)


def _scaled_entries(name: str, x) -> list:
    """The four entries of ``x`` divided by the scale, their largest real or imaginary part.

    One list of the eight parts' magnitudes is read; its max (inf) or sum (NaN) shows a bad part."""
    z = np.asarray(x, dtype=complex).reshape(4).tolist()
    parts = [abs(p) for v in z for p in (v.real, v.imag)]
    scale = max(parts)
    if scale == math.inf or math.isnan(sum(parts)):
        raise ValueError(f"{name} has a non-finite entry: fidelity undefined")
    if scale == 0.0:
        raise ZeroNormError(f"{name} has zero norm: fidelity undefined")
    return [v / scale for v in z]


def _squared_norm(x) -> float:
    """The sum of ``abs(v) ** 2`` over ``x``, added left to right in a plain loop."""
    total = 0.0
    for v in x:
        total += abs(v) ** 2
    return total


def local_phase_fidelity(got: np.ndarray, want: np.ndarray) -> float:
    """Overlap fidelity maximized over global and per-qubit phases.

    For per-qubit phase rotations the overlap splits as
    |X0 + e^{i th} X1| with X_s = t_{s0} + t_{s1} e^{i ph}, so the inner
    maximization is |X0| + |X1| and only the meter phase needs a 1-D search
    of f(ph) = sum_s sqrt(a_s + Re(c_s e^{i ph})), with a_s = |t_{s0}|^2 +
    |t_{s1}|^2 and c_s = 2 conj(t_{s0}) t_{s1}: one real 1025-point grid
    pass, then Newton on f' bracketed to one cell either side of the best
    grid point, until a step is at most _NEWTON_TOL. Conventions differ by
    exactly such phases; physics does not. The fidelity does not depend on
    scale, so each argument is first divided by its largest real or
    imaginary part. A zero-norm argument raises ZeroNormError, one with a
    non-finite entry ValueError.
    """
    got, want = _scaled_entries("got", got), _scaled_entries("want", want)
    t = [w.conjugate() * g for g, w in zip(got, want)]
    rows = [(abs(t0) ** 2 + abs(t1) ** 2, 2.0 * t0.conjugate() * t1) for t0, t1 in (t[:2], t[2:])]
    u = np.array([(a, c.real, c.imag) for a, c in rows]) @ _PHASE_BASIS
    vals = np.add(*np.sqrt(np.maximum(u, 0.0, out=u), out=u))  # the sum of the two rows
    cell, k = _PHASE_CELL, int(vals.argmax())
    phi, best, lo, hi = k * cell, float(vals[k]), (k - 1) * cell, (k + 1) * cell
    for _ in range(64):  # a cap only a pathological f could reach: bisection needs about 25
        e, f, d1, d2 = cmath.exp(1j * phi), 0.0, 0.0, 0.0
        for a, c in rows:
            z = c * e  # u = a + Re z, u' = -Im z, u'' = -Re z; a row with u <= 0 adds nothing
            if a + z.real > 0.0:
                r = math.sqrt(a + z.real)
                f, d1 = f + r, d1 - z.imag / (2.0 * r)
                d2 -= (z.real + z.imag**2 / (2.0 * r * r)) / (2.0 * r)
        best = max(best, f)
        lo, hi = (phi, hi) if d1 > 0.0 else (lo, phi)
        # f' = 0 needs no step, and a small Newton step ends the search before the
        # bracket test can turn a step below one ulp of phi into a bisection
        step = 0.0 if d1 == 0.0 else -d1 / d2 if d2 < 0.0 else math.inf
        if abs(step) > _NEWTON_TOL and not lo < phi + step < hi:
            step = 0.5 * (lo + hi) - phi
        if abs(step) <= _NEWTON_TOL:
            break
        phi += step
    return best**2 / (_squared_norm(got) * _squared_norm(want))


def equivalence_fidelity(state: TwoQubitState, signal: Polarization, meter: MeterSetting) -> float:
    """Fidelity of a device output against the contractual state."""
    return local_phase_fidelity(state.amplitudes, target_state(signal, meter))


def concurrence(state: TwoQubitState) -> float:
    """Wootters concurrence of a pure two-qubit state: 2|ad - bc|."""
    a = state.amplitudes
    return float(2.0 * abs(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]))
