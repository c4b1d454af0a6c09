"""An exact oracle for the weak value at small strength, in stdlib ``fractions``.

Each route is evaluated in exact rational arithmetic on the very doubles it
reads, so the gap between a route and its oracle is the route's own
rounding. The coherent model (v = 1) reads the ``_meter_kets`` row, the
double products of signal and meter entries, the post ket and
``cfg.gate``; the closed form reads the post and input amplitudes, gamma
and gammabar. Agreement is asserted only at the paper's strengths, K >=
0.006: below them the model's error for an input orthogonal to the post
grows like eps / K^2 (at K = 1e-9 a diagonal input reads -235.5 against an
exact 0), and CHANGES.md tabulates that regime instead.
"""

import math
from fractions import Fraction

import pytest

from weakpol import (
    DeviceConfig,
    ImperfectionParams,
    MeterSetting,
    Polarization,
    model_weak_value_curve,
    weak_value_analytic,
)
from weakpol.imperfection import _meter_kets
from weakpol.weak_values import antidiagonal, diagonal, horizontal, vertical

PAPER_GRID = (0.006, 0.125, 0.25, 0.5, 0.75, 1.0)
INPUTS = {
    "42deg": Polarization.from_degrees(42.0),
    "H": horizontal(),
    "V": vertical(),
    "D": diagonal(),
    "A": antidiagonal(),
    **{f"{c:g}{u:+g}deg": Polarization.from_degrees(c + u)
       for c in (0.0, 45.0, -45.0, 90.0) for u in (1e-3, -1e-3)},
}


def exact(x) -> Fraction:
    """A real double as the rational it holds; these routes carry no imaginary part."""
    z = complex(x)
    assert z.imag == 0.0
    return Fraction(z.real)


def exact_model_weak_value(psi: Polarization, k: float, post: Polarization,
                           cfg: DeviceConfig) -> Fraction:
    """(W_H - W_V) / ((W_H + W_V) K) of the coherent model, exactly.

    W_x = |<post, x| gate |psi, m>|^2, with |psi, m> the four double
    products alpha g, alpha gbar, beta g, beta gbar, in (HH, HV, VH, VV)
    order, and the post bra <post, x| = conj(post) (x) <x|.
    """
    g, gb = _meter_kets([k])[0]
    ket = [exact(s * m) for s in psi.ket() for m in (g, gb)]
    out = [sum(exact(a) * b for a, b in zip(row, ket)) for row in cfg.gate]
    x, y = (exact(c) for c in post.ket().conj())
    w_h, w_v = ((x * out[i] + y * out[2 + i]) ** 2 for i in (0, 1))
    return (w_h - w_v) / ((w_h + w_v) * exact(k))


def exact_closed_form(psi: Polarization, meter: MeterSetting, post: Polarization) -> Fraction:
    """weak_value_analytic's closed form, exactly."""
    a = exact(complex(post.alpha).conjugate()) * exact(psi.alpha)
    b = exact(complex(post.beta).conjugate()) * exact(psi.beta)
    den = a * a + b * b + 4 * exact(meter.gamma) * exact(meter.gammabar) * a * b
    return (a * a - b * b) / den


def test_the_oracle_keeps_a_diagonal_input_at_exactly_zero():
    # a diagonal input meets post A only through K, with equal meter weights at every K
    psi, post = diagonal(), antidiagonal()
    for k in (1.0, 0.006, 1e-5, 1e-9, 1e-12):
        assert exact_model_weak_value(psi, k, post, DeviceConfig()) == 0
        assert exact_closed_form(psi, MeterSetting.from_strength(k), post) == 0


@pytest.mark.parametrize("name", INPUTS)
def test_model_and_closed_form_match_their_exact_values_at_paper_strengths(name):
    psi, post, cfg = INPUTS[name], antidiagonal(), DeviceConfig()
    for k in PAPER_GRID:
        model = model_weak_value_curve(ImperfectionParams(), psi, [k], cfg, post)[0][1]
        closed = weak_value_analytic(psi, MeterSetting.from_strength(k), post)
        want_model = exact_model_weak_value(psi, k, post, cfg)
        want_closed = exact_closed_form(psi, MeterSetting.from_strength(k), post)
        # each route against its own exact value, then the two exact values against each other
        for got, want in ((model, want_model), (closed, want_closed),
                          (float(want_model), want_closed)):
            assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-10), (k, got, float(want))
