"""Minimal Fock-space engine for few-photon linear optics.

A state is a sparse map from mode-occupation tuples to complex amplitudes,
capped at two photons total (the regime of interest here; multi-pair
emission is neglected). Networks are sequences of two-mode beam splitters.
Losses are beam splitters into ancilla modes that are never detected, so
lost photons drop out at coincidence projection instead of requiring
density matrices: sub-normalized states represent conditioned branches.
Coincidence projection returns the kept amplitudes unnormalized, and
leaves judging a zero weight to the caller.

Beam-splitter convention (real, orthogonal):

    a_dag -> sqrt(eta) a_dag - sqrt(1 - eta) b_dag
    b_dag -> sqrt(1 - eta) a_dag + sqrt(eta) b_dag

where ``eta`` is the transmissivity. The sign sits on the a->b branch; any
physically equivalent convention differs only by local phases, which the
two-qubit comparison helpers quotient out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PhotonCapError, UnknownModeError, ZeroNormError
from .weak_values import NORM_TOL

PRUNE_TOL = 1e-15
PHOTON_CAP = 2


class ModeRegistry:
    """Ordered set of mode labels with stable indices."""

    def __init__(self, labels):
        labels = list(labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate mode labels: {labels}")
        if not labels:
            raise ValueError("a mode registry needs at least one mode")
        self.labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)}

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownModeError(f"unknown mode {label!r}; registered: {self.labels}") from None

    def __repr__(self):
        return f"ModeRegistry({self.labels!r})"


@dataclass(frozen=True)
class BeamSplitterSpec:
    """Two-mode splitter with transmissivity eta in [0, 1].

    ``eta = 1`` is the identity, ``eta = 1/2`` a balanced splitter. Used
    both for interference and, paired with an undetected ancilla, for
    loss.
    """

    mode_a: object
    mode_b: object
    eta: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"transmissivity must lie in [0, 1], got {self.eta}")
        if self.mode_a == self.mode_b:
            raise ValueError("beam splitter needs two distinct modes")


class FockState:
    """Sparse multimode photon-number state.

    ``terms`` maps occupation tuples (one entry per registered mode) to
    complex amplitudes. Total photon number per term never exceeds
    PHOTON_CAP, the two photons of the device; amplitudes below PRUNE_TOL
    are dropped so interference nulls stay exact zeros.
    """

    def __init__(self, registry: ModeRegistry, terms=None):
        self.registry = registry
        self.terms: dict[tuple, complex] = {}
        if terms:
            for occ, amp in terms.items():
                self._accumulate(tuple(occ), complex(amp))
            self.prune()
            self._check_norm_bound()

    def _check_norm_bound(self):
        n = self.norm_sq()
        if n > 1.0 + NORM_TOL:
            raise ValueError(f"squared norm {n} exceeds 1; scale the amplitudes "
                             "(sub-normalized states are fine, super-normalized are not)")

    def _accumulate(self, occ: tuple, amp: complex):
        if len(occ) != self.registry.size:
            raise ValueError(
                f"occupation length {len(occ)} != number of modes {self.registry.size}"
            )
        if any(n < 0 for n in occ):
            raise ValueError(f"negative occupation in {occ}")
        if sum(occ) > PHOTON_CAP:
            raise PhotonCapError(f"{occ} exceeds photon cap {PHOTON_CAP}")
        if not np.isfinite(amp.real) or not np.isfinite(amp.imag):
            raise ValueError("non-finite amplitude")
        self.terms[occ] = self.terms.get(occ, 0j) + amp

    def prune(self):
        self.terms = {occ: a for occ, a in self.terms.items() if abs(a) >= PRUNE_TOL}
        return self

    def norm_sq(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.terms.values()))

    def amplitude(self, occ) -> complex:
        return self.terms.get(tuple(occ), 0j)

    def __repr__(self):
        body = ", ".join(f"{occ}: {amp:.4g}" for occ, amp in sorted(self.terms.items()))
        return f"FockState({{{body}}})"


def vacuum(registry: ModeRegistry) -> FockState:
    """The no-photon state over every registered mode, under the two-photon cap."""
    return FockState(registry, {(0,) * registry.size: 1.0})


def create_photon(state: FockState, weights: dict) -> FockState:
    """Apply sum_i c_i a_i^dag for ``weights = {label: c_i}``.

    Bosonic sqrt(n+1) factors included; raises PhotonCapError if any term
    would exceed the two-photon cap. Bunching can super-normalize the raw
    result, so the norm bound applies: scale the weights down when
    stacking photons into occupied modes.
    """
    out = FockState(state.registry)
    for occ, amp in state.terms.items():
        for label, c in weights.items():
            if c == 0:
                continue
            i = state.registry.index(label)
            new_occ = list(occ)
            new_occ[i] += 1
            out._accumulate(tuple(new_occ), amp * c * math.sqrt(occ[i] + 1))
    out.prune()
    out._check_norm_bound()
    return out


def apply_beam_splitter(state: FockState, bs: BeamSplitterSpec) -> FockState:
    """Transform a state through a two-mode beam splitter.

    Expands multi-photon terms with the full bosonic combinatorics, so
    two-photon interference (including the eta = 1/2 coincidence null)
    comes out exactly.
    """
    i = state.registry.index(bs.mode_a)
    j = state.registry.index(bs.mode_b)
    t = math.sqrt(bs.eta)
    r = math.sqrt(1.0 - bs.eta)

    out = FockState(state.registry)
    for occ, amp in state.terms.items():
        na, nb = occ[i], occ[j]
        if na == 0 and nb == 0:
            out._accumulate(occ, amp)
            continue
        base = amp / math.sqrt(math.factorial(na) * math.factorial(nb))
        # (a^dag)^na -> sum_k C(na,k) (t a)^k (-r b)^(na-k)
        # (b^dag)^nb -> sum_l C(nb,l) (r a)^l (t b)^(nb-l)
        for k in range(na + 1):
            for l in range(nb + 1):
                coeff = (
                    math.comb(na, k) * t**k * (-r) ** (na - k)
                    * math.comb(nb, l) * r**l * t ** (nb - l)
                )
                if coeff == 0.0:
                    continue
                ka, kb = k + l, (na - k) + (nb - l)
                new_occ = list(occ)
                new_occ[i], new_occ[j] = ka, kb
                norm = math.sqrt(math.factorial(ka) * math.factorial(kb))
                out._accumulate(tuple(new_occ), base * coeff * norm)
    return out.prune()


def apply_network(state: FockState, steps) -> FockState:
    for bs in steps:
        state = apply_beam_splitter(state, bs)
    return state


def project_coincidence(state: FockState, signal_modes, meter_modes) -> np.ndarray:
    """Project onto one photon in each of the signal and meter mode pairs.

    All ancilla modes are forced to zero occupation by photon-number
    accounting. Returns the kept amplitudes as a 2x2 complex array indexed
    [signal, meter] with 0 = H, 1 = V, not renormalized: their squared norm
    is the coincidence probability, and all zeros means no coincidence.
    """
    s0, s1 = (state.registry.index(m) for m in signal_modes)
    m0, m1 = (state.registry.index(m) for m in meter_modes)
    if len({s0, s1, m0, m1}) != 4:
        raise ValueError("signal and meter mode pairs must be four distinct modes")

    amps = np.zeros((2, 2), dtype=complex)
    for occ, amp in state.terms.items():
        total = sum(occ)
        if total != 2:
            raise ValueError(f"coincidence projection expects 2-photon terms, found {occ}")
        ns = occ[s0] + occ[s1]
        nm = occ[m0] + occ[m1]
        if ns != 1 or nm != 1:
            continue
        amps[occ[s1], occ[m1]] += amp  # occ[s1] = 1 means signal V, etc.
    return amps


def number_expectation(state: FockState, mode) -> float:
    """Mean photon number in one mode, on the renormalized state."""
    i = state.registry.index(mode)
    norm = state.norm_sq()
    if norm <= PRUNE_TOL**2:
        raise ZeroNormError("number expectation undefined on a zero-norm state")
    return float(sum(abs(a) ** 2 * occ[i] for occ, a in state.terms.items()) / norm)
