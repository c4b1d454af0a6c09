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

from .errors import PostselectionImpossibleError

# weights at most this are rounding residue of an exact zero; read by nonzero_weight alone
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


def nonzero_weight(w, what: str):
    """``w``, a weight or an array of them, judged by the one zero-weight rule (a float without
    numpy): raises PostselectionImpossibleError, with the message ``what``, where a weight is
    at most _P_POST_TOL, rounding of an exact zero (1.7e-32 for a diagonal input, post A, K = 0)."""
    if (w <= _P_POST_TOL) if isinstance(w, float) else (np.asarray(w) <= _P_POST_TOL).any():
        raise PostselectionImpossibleError(what)
    return w


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


def _closed_form(psi: Polarization, meter: MeterSetting, post: Polarization):
    """(d, P(post), K) at K = ``meter.strength``, once ``nonzero_weight`` has judged P(post).

    A = conj(x) alpha and B = conj(y) beta, for post = x|H> + y|V>, are exact integers over
    one power of two, so d = |A|^2 - |B|^2 = Re((A + B) conj(A - B)), A + B and A - B are each
    rounded once, and P(post) = |A + B|^2 - 2q Re(A conj B) = (1 - q/2) |A + B|^2 + (q/2)
    |A - B|^2 sums two non-negative terms. These are the meter harmonics c0 = |A + B|^2 / 2,
    c1 = +-d / 2 and c2 = Re(A conj B) of the post and meter H and V weights of target_state.
    """
    ratios = [v.as_integer_ratio() for z in (post.alpha, post.beta, psi.alpha, psi.beta)
              for v in (complex(z).real, complex(z).imag)]
    den = max(m for _, m in ratios)
    xr, xi, yr, yi, sr, si, tr, ti = (n * (den // m) for n, m in ratios)
    ar, ai, br, bi = xr * sr + xi * si, xr * si - xi * sr, yr * tr + yi * ti, yr * ti - yi * tr
    plus, minus = (abs(complex((ar + sign * br) / den**2, (ai + sign * bi) / den**2)) ** 2
                   for sign in (1, -1))
    k = meter.strength
    q = k * k / (1.0 + math.sqrt(1.0 - k * k))
    p_post = nonzero_weight((1.0 - q / 2.0) * plus + q / 2.0 * minus,
                            "postselection probability is zero: weak value diverges")
    return (ar * ar + ai * ai - br * br - bi * bi) / den**4, p_post, k


def postselected_probs(psi: Polarization, meter: MeterSetting, post: Polarization):
    """(P(meter H | post), P(meter V | post), P(post)), the conditionals (1 +- K d / P(post)) / 2.

    The closed form adds the meter amplitudes before squaring, where the postselection
    interference lives. Where ``nonzero_weight`` reads P(post) as zero it raises."""
    d, p_post, k = _closed_form(psi, meter, post)
    return (1.0 + k * d / p_post) / 2.0, (1.0 - k * d / p_post) / 2.0, p_post


def weak_value_analytic(psi: Polarization, meter: MeterSetting, post: Polarization) -> float:
    """Postselected value of s1 for preparation ``psi`` and meter ``meter``.

    With post = x|H> + y|V>, A = conj(x) alpha and B = conj(y) beta, it is
    (pH - pV) / K with K cancelled by hand, over P(post):

        (|A|^2 - |B|^2) / (|A + B|^2 - 2q Re(A conj B)),  q = K^2 / (1 + sqrt(1 - K^2)).

    It holds for every input and strength, K = 0 included: there it is the weak value of
    Aharonov, Albert & Vaidman (PRL 60, 1351 (1988)), (alpha + beta)/(alpha - beta) for a real
    input and post A. Where ``nonzero_weight`` reads P(post) as zero it raises
    PostselectionImpossibleError instead of returning inf.
    """
    d, p_post, _ = _closed_form(psi, meter, post)
    return d / p_post


def expectation_decomposition(psi: Polarization, meter: MeterSetting):
    """Split <s1> over the complementary postselections A and D.

    Returns (term_A, term_D, total), term_X = (weak value | X) * P(X) = d of the closed form,
    whose total is |alpha|^2 - |beta|^2 however extreme the weak values are, at K = 0 too. Where
    P(A) or P(D) is a zero weight (a real +-45 degree input at K = 0) it raises as
    ``weak_value_analytic`` does."""
    term_a, term_d = (_closed_form(psi, meter, postselect_state(x))[0] for x in "AD")
    return term_a, term_d, term_a + term_d
