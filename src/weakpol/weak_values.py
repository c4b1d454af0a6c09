"""Qubit-level analysis of the generalized polarization measurement.

The measured observable is the H/V imbalance s1 = |H><H| - |V><V|
(spectrum {-1, +1}). A meter photon prepared as gamma|H> + gammabar|V>
sets the measurement strength K = 2 gamma^2 - 1: K = 1 is projective,
K = 0 extracts nothing. Conditioning the meter record on a signal
postselection produces weak values (pH - pV)/K that can lie far outside
the spectrum when the postselection is nearly orthogonal to the input.

Everything here is closed-form. The gate's two-qubit contract is stated
once, by :func:`target_state`; the Fock-level network in
:mod:`weakpol.device` must reproduce it, and the tests hold the two layers
against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PostselectionImpossibleError, ZeroStrengthError

# strengths below this are operationally zero: gamma = sqrt(1/2) does not square back
# to exactly 0.5 in floats, and ratios over such strengths are pure rounding noise
ZERO_STRENGTH_TOL = 1e-14
# postselection weights below this are rounding residue of an exact zero
_P_POST_TOL = 1e-24
# a total probability (or squared norm) this far from 1 is a wrong input, not rounding
NORM_TOL = 1e-9


@dataclass(frozen=True)
class Polarization:
    """Single-photon polarization amplitudes (alpha |H> + beta |V>)."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        n = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(n - 1.0) <= NORM_TOL:  # written so that NaN fails
            raise ValueError(f"polarization not normalized: |alpha|^2+|beta|^2 = {n}")

    @classmethod
    def from_angle(cls, theta_rad: float) -> "Polarization":
        return cls(math.cos(theta_rad), math.sin(theta_rad))

    @classmethod
    def from_degrees(cls, theta_deg: float) -> "Polarization":
        return cls.from_angle(math.radians(theta_deg))

    def ket(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=complex)


def horizontal() -> Polarization:
    return Polarization(1.0, 0.0)


def vertical() -> Polarization:
    return Polarization(0.0, 1.0)


def diagonal() -> Polarization:
    """(|H> + |V>)/sqrt(2)."""
    s = 1.0 / math.sqrt(2.0)
    return Polarization(s, s)


def antidiagonal() -> Polarization:
    """(|H> - |V>)/sqrt(2); the usual rare postselection."""
    s = 1.0 / math.sqrt(2.0)
    return Polarization(s, -s)


def circular_right() -> Polarization:
    s = 1.0 / math.sqrt(2.0)
    return Polarization(s, 1j * s)


def postselect_state(label: str) -> Polarization:
    try:
        return {"A": antidiagonal, "D": diagonal, "H": horizontal, "V": vertical}[label]()
    except KeyError:
        raise ValueError(f"unknown postselection label {label!r}") from None


@dataclass(frozen=True)
class MeterSetting:
    """Meter preparation gamma|H> + gammabar|V> with real gamma in [0, 1].

    gammabar = sqrt(1 - gamma^2) by construction, so gamma^2 + gammabar^2
    = 1 identically. The strength K = 2 gamma^2 - 1 lies in [-1, 1];
    gamma < 1/sqrt(2) gives negative strength, which is legal.
    """

    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")

    @classmethod
    def from_strength(cls, strength: float) -> "MeterSetting":
        if not -1.0 <= strength <= 1.0:
            raise ValueError(f"strength must lie in [-1, 1], got {strength}")
        return cls(math.sqrt((1.0 + strength) / 2.0))

    @property
    def gammabar(self) -> float:
        return math.sqrt(max(0.0, 1.0 - self.gamma * self.gamma))

    @property
    def strength(self) -> float:
        return 2.0 * self.gamma * self.gamma - 1.0

    def ket(self) -> np.ndarray:
        return np.array([self.gamma, self.gammabar], dtype=complex)


def nonzero_strength(gamma):
    """The strength 2 gamma gamma - 1 of meter amplitudes ``gamma``, squared as in ``MeterSetting``.

    The one zero-strength rule: raises ZeroStrengthError where |K| < ZERO_STRENGTH_TOL."""
    k = 2.0 * gamma * gamma - 1.0
    if (np.abs(k) < ZERO_STRENGTH_TOL).any():  # a scalar k gives a numpy bool
        raise ZeroStrengthError(f"strength K = 0, |K| < {ZERO_STRENGTH_TOL:g}: weak value undefined")
    return k


S1 = np.diag([1.0, -1.0]).astype(complex)


@dataclass(frozen=True)
class Povm:
    """Two-outcome measurement {pi_h, pi_v} on the signal polarization."""

    pi_h: np.ndarray
    pi_v: np.ndarray


def povm_elements(meter: MeterSetting) -> Povm:
    """Measurement operators induced on the signal by reading the meter.

    pi_i = (1/2) [1 + (delta_iH - delta_iV) K s1], diagonal in {H, V}:
    projectors at K = 1, both 1/2 at K = 0.
    """
    k = meter.strength
    eye = np.eye(2, dtype=complex)
    return Povm(pi_h=0.5 * (eye + k * S1), pi_v=0.5 * (eye - k * S1))


def expectation_s1(psi: Polarization) -> float:
    """<s1> = |alpha|^2 - |beta|^2."""
    return float(abs(psi.alpha) ** 2 - abs(psi.beta) ** 2)


def target_state(signal: Polarization, meter: MeterSetting) -> np.ndarray:
    """The gate's contractual post-gate amplitudes, indexed [signal, meter].

    The gate maps |psi>|m> onto
    (alpha g |H> + beta gbar |V>)|H> + (alpha gbar |H> + beta g |V>)|V>.
    """
    a, b = signal.alpha, signal.beta
    g, gb = meter.gamma, meter.gammabar
    return np.array([[a * g, a * gb], [b * gb, b * g]], dtype=complex)


def postselected_probs(psi: Polarization, meter: MeterSetting, post: Polarization):
    """(P(meter H | post), P(meter V | post), P(post)).

    Projecting the signal of :func:`target_state` on <post| leaves one
    meter amplitude per outcome; the amplitudes add before squaring, which
    is where the postselection interference lives. Raises
    PostselectionImpossibleError when P(post) = 0, where the conditionals
    are undefined.
    """
    a_h, a_v = post.ket().conj() @ target_state(psi, meter)
    p_post = abs(a_h) ** 2 + abs(a_v) ** 2
    if p_post <= _P_POST_TOL:
        raise PostselectionImpossibleError(
            "postselection probability is zero; conditional probabilities undefined"
        )
    return float(abs(a_h) ** 2 / p_post), float(abs(a_v) ** 2 / p_post), float(p_post)


def weak_value_analytic(psi: Polarization, meter: MeterSetting, post: Polarization) -> float:
    """Postselected value of s1 for preparation ``psi`` and meter ``meter``.

    With post = x|H> + y|V>, A = conj(x) alpha and B = conj(y) beta, the
    closed form

        (|A|^2 - |B|^2) / (|A|^2 + |B|^2 + 4 g gbar Re(A conj(B)))

    is (pH - pV)/K with K cancelled by hand, since |a_h|^2 - |a_v|^2 =
    K (|A|^2 - |B|^2). It holds for every input, complex or real, at every
    strength including K = 0, where for a real input and the antidiagonal
    postselection it is (alpha + beta)/(alpha - beta) and can be
    arbitrarily large. A denominator that vanishes against |A|^2 + |B|^2
    (or 0 over 0, for an input orthogonal to the postselection) means the
    postselection is impossible in the weak limit and raises instead of
    returning inf.
    """
    a = complex(post.alpha).conjugate() * psi.alpha
    b = complex(post.beta).conjugate() * psi.beta
    aa, bb = abs(a) ** 2, abs(b) ** 2
    den = aa + bb + (4.0 * meter.gamma * meter.gammabar * a * b.conjugate()).real
    if not den > 1e-14 * (aa + bb):
        raise PostselectionImpossibleError(
            "weak value diverges: postselection orthogonal in the weak limit"
        )
    return (aa - bb) / den


def expectation_decomposition(psi: Polarization, meter: MeterSetting):
    """Split <s1> over the complementary postselections A and D.

    Returns (term_A, term_D, total) with term_X = (weak value | X) * P(X);
    the total equals |alpha|^2 - |beta|^2 identically, however extreme the
    individual weak values are, at K = 0 too. An input orthogonal to A or D
    in the weak limit (a real +-45 degree input) raises PostselectionImpossibleError.
    """
    term = {}
    for label in ("A", "D"):
        post = postselect_state(label)
        _, _, p_post = postselected_probs(psi, meter, post)
        wv = weak_value_analytic(psi, meter, post)
        term[label] = wv * p_post
    return term["A"], term["D"], term["A"] + term["D"]
