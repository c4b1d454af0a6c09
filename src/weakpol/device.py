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

Within the kept subspace this acts as controlled-NOT / 3 with the signal
as control, i.e. it maps |psi>(gamma|H> + gammabar|V>) onto

  (alpha gamma |H> + beta gammabar |V>)|H>_m
  + (alpha gammabar |H> + beta gamma |V>)|V>_m

up to overall normalization. Correctness is defined by that contract (up
to per-qubit phases), not by the particular layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .errors import ZeroNormError
from .fock import PRUNE_TOL, BeamSplitterSpec, FockState, ModeRegistry, TwoQubitState
from .weak_values import MeterSetting, Polarization

SIGNAL_MODES = ("sH", "sV")
METER_MODES = ("mH", "mV")
ANCILLA_MODES = ("lossS", "lossM")
ALL_MODES = SIGNAL_MODES + METER_MODES + ANCILLA_MODES

_MODE_INDEX = {label: i for i, label in enumerate(ALL_MODES)}

# offsets of the three zoom rounds of local_phase_fidelity and their phasors;
# each round spans one cell of the previous round's grid either side of its best point
_ZOOM_OFFSETS = np.array([np.linspace(-w, w, 1025)
                          for w in (np.pi, 2 * np.pi / 1024, 4 * np.pi / 1024**2)])
_ZOOM_PHASORS = np.exp(1j * _ZOOM_OFFSETS)


@dataclass(frozen=True)
class DeviceConfig:
    """Splitter transmissivities; defaults give the balanced 1/9 gate."""

    interfering_eta: float = 1.0 / 3.0
    balance_eta: float = 1.0 / 3.0
    hadamard_eta: float = 0.5

    def __post_init__(self):
        for name in ("interfering_eta", "balance_eta", "hadamard_eta"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


def device_registry() -> ModeRegistry:
    return ModeRegistry(ALL_MODES)


def network_steps(cfg: DeviceConfig = DeviceConfig()):
    """Beam-splitter sequence implementing the gate.

    The final splitter swaps the mode roles to realize the inverse of the
    first meter splitter under the fixed sign convention.
    """
    return [
        BeamSplitterSpec("mH", "mV", cfg.hadamard_eta),
        BeamSplitterSpec("sV", "mV", cfg.interfering_eta),
        BeamSplitterSpec("sH", "lossS", cfg.balance_eta),
        BeamSplitterSpec("mH", "lossM", cfg.balance_eta),
        BeamSplitterSpec("mV", "mH", cfg.hadamard_eta),
    ]


def input_state(signal: Polarization, meter: MeterSetting, registry: ModeRegistry | None = None) -> FockState:
    """Two-photon product input on the signal and meter rails."""
    reg = registry or device_registry()
    state = fock.vacuum(reg)
    state = fock.create_photon(state, {"sH": signal.alpha, "sV": signal.beta})
    state = fock.create_photon(state, {"mH": meter.gamma, "mV": meter.gammabar})
    return state


def run_device(signal: Polarization, meter: MeterSetting, cfg: DeviceConfig = DeviceConfig()) -> TwoQubitState:
    """Run the gate on a product input and condition on coincidence.

    A zero coincidence weight gives the flagged empty state, as the
    Fock-level ``project_coincidence`` does.
    """
    amps = coincidence_operator(cfg) @ (signal.ket()[:, None] * meter.ket()).reshape(4)
    prob = float(np.sum(np.abs(amps) ** 2))
    if prob <= PRUNE_TOL**2:
        return TwoQubitState(np.zeros((2, 2), dtype=complex), 0.0, empty=True)
    return TwoQubitState(amps / math.sqrt(prob), prob)


def device_meter_distribution(state: TwoQubitState):
    """Joint outcome probabilities (P_HH, P_HV, P_VH, P_VV)."""
    p = np.abs(state.amplitudes.reshape(4)) ** 2
    return tuple(float(x) for x in p)


def target_state(signal: Polarization, meter: MeterSetting) -> np.ndarray:
    """The contractual post-gate amplitudes, indexed [signal, meter]."""
    a, b = signal.alpha, signal.beta
    g, gb = meter.gamma, meter.gammabar
    return np.array([[a * g, a * gb], [b * gb, b * g]], dtype=complex)


def local_phase_fidelity(got: np.ndarray, want: np.ndarray) -> float:
    """Overlap fidelity maximized over global and per-qubit phases.

    For per-qubit phase rotations the overlap splits as
    |X0 + e^{i th} X1| with X_s = t_{s0} + t_{s1} e^{i ph}, so the inner
    maximization is |X0| + |X1| and only the meter phase needs a 1-D
    search: three rounds of 1025 points, each zooming onto one grid cell
    either side of the previous best. The offsets of every round are
    fixed, so a round's phasors are e^{i centre} times stored ones.
    Conventions differ by exactly such phases; physics does not. A
    zero-norm argument raises ZeroNormError naming it.
    """
    got = np.asarray(got, dtype=complex).reshape(2, 2)
    want = np.asarray(want, dtype=complex).reshape(2, 2)
    norms = (float(np.sum(np.abs(got) ** 2)), float(np.sum(np.abs(want) ** 2)))
    for name, norm in zip(("got", "want"), norms):
        if norm == 0.0:
            raise ZeroNormError(f"{name} has zero norm: fidelity undefined")
    t = want.conj() * got

    centre, best = np.pi, 0.0
    for offsets, phasors in zip(_ZOOM_OFFSETS, _ZOOM_PHASORS):
        e = np.exp(1j * centre) * phasors
        vals = np.abs(t[0, 0] + t[0, 1] * e) + np.abs(t[1, 0] + t[1, 1] * e)
        k = int(np.argmax(vals))
        centre, best = centre + offsets[k], max(best, float(vals[k]))
    return best**2 / (norms[0] * norms[1])


def equivalence_fidelity(state: TwoQubitState, signal: Polarization, meter: MeterSetting) -> float:
    """Fidelity of a device output against the contractual state."""
    return local_phase_fidelity(state.amplitudes, target_state(signal, meter))


def transfer_matrix(cfg: DeviceConfig = DeviceConfig()) -> np.ndarray:
    """Single-photon mode-amplitude matrix of the full network.

    Column j holds the output amplitudes of one photon injected in mode
    j. Each splitter is a 2x2 block on its two modes in the ``fock``
    convention (column a -> (t, -r), column b -> (r, t)); the network is
    the product of those blocks in propagation order. Every splitter is
    real, so the walk left-multiplies rows of Python floats (a block
    mixes only its two rows) and converts to complex once at the end.
    The Fock engine derives the same matrix independently, and the tests
    hold the two together.
    """
    n = len(ALL_MODES)
    u = [[float(row == col) for col in range(n)] for row in range(n)]
    for bs in network_steps(cfg):
        i, j = _MODE_INDEX[bs.mode_a], _MODE_INDEX[bs.mode_b]
        t, r = math.sqrt(bs.eta), math.sqrt(1.0 - bs.eta)
        u[i], u[j] = ([t * a + r * b for a, b in zip(u[i], u[j])],
                      [t * b - r * a for a, b in zip(u[i], u[j])])
    u = np.array(u, dtype=complex)
    # prune as the Fock engine does, so interference nulls are exact zeros:
    # a 1e-17 residual would still be a nonzero Poisson mean downstream
    u[np.abs(u) < PRUNE_TOL] = 0.0
    return u


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two 2x2 matrices, by broadcasting."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def labeled_kraus(cfg: DeviceConfig = DeviceConfig()):
    """Direct and exchange parts of the gate operator on the kept subspace.

    The coincidence amplitude of two photons is the 2x2 permanent of the
    transfer matrix U over their input and output modes. Its direct term
    (each photon exits on its own side) is U_ss (x) U_mm, and its
    exchange term (photons swap sides) is (U_sm (x) U_ms) SWAP. With
    hidden photon labels the two add incoherently; their coherent sum is
    the gate operator.
    """
    u = transfer_matrix(cfg)
    direct = _kron(u[:2, :2], u[2:4, 2:4])
    # right-multiplying by SWAP (|s, m> -> |m, s>) exchanges the HV and VH columns
    exchange = _kron(u[:2, 2:4], u[2:4, :2])[:, [0, 2, 1, 3]]
    return direct, exchange


def coincidence_operator(cfg: DeviceConfig = DeviceConfig()) -> np.ndarray:
    """4x4 operator of the gate on the kept two-qubit subspace.

    Columns are indexed by product inputs |signal, meter> in (HH, HV, VH,
    VV) order and carry the unnormalized coincidence amplitudes, so the
    squared column norm is the success probability. For the default
    configuration this is controlled-NOT / 3.
    """
    direct, exchange = labeled_kraus(cfg)
    return direct + exchange


def concurrence(state: TwoQubitState) -> float:
    """Wootters concurrence of a pure two-qubit state: 2|ad - bc|."""
    a = state.amplitudes
    return float(2.0 * abs(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]))
