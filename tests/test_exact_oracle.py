"""Exact oracles for the weak value at small strength, in stdlib ``fractions`` and ``decimal``.

At the paper's strengths, K >= 0.006, each route is evaluated in exact
rational arithmetic on doubles it reads: the coherent model (v = 1) as the
gate ``cfg.gate`` acting on the double products of signal and meter entries
and the post ket, the closed form d / (|A + B|^2 - 2q Re(A conj B)), d =
|A|^2 - |B|^2, on the post and input amplitudes with q = 1 - 2 gamma gammabar.
Below them the truth is the closed form at a given K in 60-digit ``decimal``,
since sqrt(1 - K^2) is not rational. ``weak_value_analytic`` forms A and B
exactly and rounds d, A + B and A - B once each, so it holds that truth at
the K its meter encodes within 1e-14 relative over 4 posts, 23 inputs and 14
strengths, and refuses exactly where P(post) is under 1e-24. The model reads
its weights as meter harmonics c0 + K c1 - q c2 and the weak value as
(dc0 / K + dc1 - (q / K) dc2) / (W_H + W_V), with dc0 = 0 on the balanced
gate, so K cancels by hand and the model holds the 1e-10 bounds down to
K = 0, its weak limit, where the product-ket model read a diagonal input at
-235.5 for K = 1e-9 against an exact 0.
"""

import cmath
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

import pytest

from weakpol import (
    DeviceConfig,
    ImperfectionParams,
    MeterSetting,
    Polarization,
    imperfect_channel,
    model_weak_value_curve,
    weak_value_analytic,
)
from weakpol.errors import PostselectionImpossibleError, WeakpolError
from weakpol.imperfection import _model_harmonics, channel_postselected_probs
from weakpol.weak_values import antidiagonal, diagonal, horizontal, vertical

PAPER_GRID = (0.006, 0.125, 0.25, 0.5, 0.75, 1.0)
# down to the weak limit: K = 0 and -1e-15 encode meters of |K| 2.2e-16 and 1.1e-15
SMALL_GRID = (0.006, 1e-5, 1e-9, 1e-12, 0.0, -1e-15)
INPUTS = {
    "42deg": Polarization.from_degrees(42.0),
    "H": horizontal(),
    "V": vertical(),
    "D": diagonal(),
    "A": antidiagonal(),
    **{f"{c:g}{u:+g}deg": Polarization.from_degrees(c + u)
       for c in (0.0, 45.0, -45.0, 90.0) for u in (1e-3, -1e-3)},
}


def real(x) -> float:
    """A double that carries no imaginary part, as these routes' entries do."""
    z = complex(x)
    assert z.imag == 0.0
    return z.real


def exact(x) -> Fraction:
    """A real double as the rational it holds."""
    return Fraction(real(x))


def exact_model_weak_value(psi: Polarization, k: float, post: Polarization,
                           cfg: DeviceConfig) -> Fraction:
    """(W_H - W_V) / ((W_H + W_V) K) of the coherent model on the meter's doubles, exactly.

    W_x = |<post, x| gate |psi, m>|^2, with |psi, m> the four double
    products alpha g, alpha gbar, beta g, beta gbar of the meter
    ``MeterSetting.from_strength(k)``, in (HH, HV, VH, VV) order, and the
    post bra <post, x| = conj(post) (x) <x|.
    """
    meter = MeterSetting.from_strength(k)
    g, gb = meter.gamma, meter.gammabar
    ket = [exact(s * m) for s in psi.ket() for m in (g, gb)]
    out = [sum(exact(a) * b for a, b in zip(row, ket)) for row in cfg.gate]
    x, y = (exact(c) for c in post.ket().conj())
    w_h, w_v = ((x * out[i] + y * out[2 + i]) ** 2 for i in (0, 1))
    return (w_h - w_v) / ((w_h + w_v) * exact(k))


def exact_closed_form(psi: Polarization, meter: MeterSetting, post: Polarization) -> Fraction:
    """weak_value_analytic's d / (|A + B|^2 - 2q Re(A conj B)), exactly on the meter's doubles.

    Here q = 1 - 2 gamma gammabar, which is K^2 / (1 + sqrt(1 - K^2)) up to the
    rounding of gammabar; A and B are real for these inputs.
    """
    a = exact(complex(post.alpha).conjugate()) * exact(psi.alpha)
    b = exact(complex(post.beta).conjugate()) * exact(psi.beta)
    q = 1 - 2 * exact(meter.gamma) * exact(meter.gammabar)
    return (a * a - b * b) / ((a + b) ** 2 - 2 * q * a * b)


def decimal_weights(psi: Polarization, k: float, post: Polarization):
    """(|A|^2 - |B|^2, P(post) = |A|^2 + |B|^2 + 2 sqrt(1 - K^2) A B) at a given K, to 60 digits.

    A = conj(x) alpha and B = conj(y) beta for post = x|H> + y|V>, all real here.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        a = Decimal(real(post.alpha)) * Decimal(real(psi.alpha))
        b = Decimal(real(post.beta)) * Decimal(real(psi.beta))
        root = (1 - Decimal(k) ** 2).sqrt()
        return a * a - b * b, a * a + b * b + 2 * root * a * b


def decimal_closed_form(psi: Polarization, k: float, post: Polarization) -> Decimal:
    """(|A|^2 - |B|^2) / P(post) of ``decimal_weights``, to 60 digits."""
    d, p_post = decimal_weights(psi, k, post)
    with localcontext() as ctx:
        ctx.prec = 60
        return d / p_post


def test_the_oracle_keeps_a_diagonal_input_at_exactly_zero():
    # a diagonal input meets post A only through K, with equal meter weights at every K
    psi, post = diagonal(), antidiagonal()
    for k in (1.0, 0.006, 1e-5, 1e-9, 1e-12):
        assert exact_model_weak_value(psi, k, post, DeviceConfig()) == 0
        assert exact_closed_form(psi, MeterSetting.from_strength(k), post) == 0
    # and so does the model, bit for bit, while P(post) = K^2 / 4 is above 1e-24
    channel = imperfect_channel(None, ImperfectionParams())
    for k in (1.0, 0.006, 1e-5, 1e-7, 1e-9, 1e-11):
        assert model_weak_value_curve(ImperfectionParams(), psi, [k], post=post)[0][1] == 0.0
        meter = MeterSetting.from_strength(k)
        assert channel_postselected_probs(channel, psi, meter, post)[:2] == (0.5, 0.5)


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


@pytest.mark.parametrize("name", INPUTS)
def test_model_matches_the_closed_form_at_the_callers_strength(name):
    psi, post, cfg = INPUTS[name], antidiagonal(), DeviceConfig()
    for k in SMALL_GRID:
        if name == "D" and abs(k) <= 1e-12:
            # P(post) = K^2 / 4 is under the 1e-24 that reads a weight as an exact zero
            with pytest.raises(PostselectionImpossibleError):
                model_weak_value_curve(ImperfectionParams(), psi, [k], cfg, post)
            with pytest.raises(PostselectionImpossibleError):
                weak_value_analytic(psi, MeterSetting.from_strength(k), post)
            continue
        got = model_weak_value_curve(ImperfectionParams(), psi, [k], cfg, post)[0][1]
        want = float(decimal_closed_form(psi, k, post))
        assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-10), (k, got, want)


def test_the_balanced_gate_has_no_meter_bias_at_zero_strength():
    # dc0 = c0(meter H) - c0(meter V) is the imbalance at K = 0; exactly 0 on the default
    # gate, so the model's (W_H - W_V) / K carries no dc0 / K term to amplify rounding
    rng = np.random.default_rng(2831)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 14))
    inputs = [*INPUTS.values(), *(Polarization(math.cos(t), math.sin(t) * z)
                                  for t, z in zip(rng.uniform(0.0, math.pi, 14), phases))]
    models = [ImperfectionParams(v, p) for v, p in ((1.0, 0.0), (0.96, 0.0), (0.9, 0.02),
                                                    (0.5, 0.3), (0.0, 1.0), (0.0, 0.0),
                                                    (0.3, 0.0), (1.0, 0.5))]
    signals = np.array([psi.ket() for psi in inputs])
    for post in (antidiagonal(), diagonal(), horizontal(), Polarization.from_degrees(17.0)):
        h = _model_harmonics(models, signals, post, DeviceConfig())
        assert h.shape == (8, 27, 3, 6)
        assert np.array_equal(h[:, :, 0, 0], h[:, :, 0, 1])


# the (v, p) models of the bias checks
BIAS_MODELS = [ImperfectionParams(v, p) for v in (1.0, 0.99, 0.96, 0.9, 0.5, 0.0)
               for p in (0.0, 0.02, 0.3)]


def test_any_balanced_meter_hadamard_has_no_meter_bias_at_zero_strength():
    # at hadamard_eta = 0.5 the K = 0 meter photon meets the inverse Hadamard on one rail
    # (mH, which meets only its loss port; mV for the A half of the rail-dephased I/2),
    # which it splits evenly, whatever the other splitters: |dc0| is rounding, within 4 eps
    # of c0(meter H) + c0(meter V) (1 eps seen); at hadamard_eta = 0.4 it is 3e-7 and more
    rng = np.random.default_rng(3404)
    eps = np.finfo(float).eps
    for _ in range(30):
        cfg = DeviceConfig(*rng.uniform(0.0, 1.0, 2).tolist())
        t, phase = rng.uniform(-math.pi / 2, math.pi / 2, (2, 40))
        signals = np.stack([np.cos(t), np.sin(t) * np.exp(2j * phase)], axis=1)
        for post in (antidiagonal(), diagonal(), horizontal(), vertical()):
            c0 = _model_harmonics(BIAS_MODELS, signals, post, cfg)[..., 0, :2]
            assert np.all(np.abs(c0[..., 0] - c0[..., 1]) <= 4 * eps * c0.sum(axis=-1)), cfg
    signals = np.array([Polarization.from_degrees(t).ket() for t in np.arange(-89.5, 90.0)])
    models = [m for m in BIAS_MODELS if not m.depol]
    for post in (antidiagonal(), diagonal(), vertical()):
        c0 = _model_harmonics(models, signals, post, DeviceConfig(hadamard_eta=0.4))[..., 0, :2]
        assert np.all(np.abs(c0[..., 0] - c0[..., 1]) >= 1e-7 * c0.sum(axis=-1))


# the closed form's sweep: INPUTS plus +-45 degrees offset by 0, +-1e-5 and +-1e-7 degrees,
# four posts, and strengths from projective to the weak limit
SWEEP_INPUTS = {**INPUTS, **{f"{c:g}{u:+g}deg": Polarization.from_degrees(c + u)
                             for c in (45.0, -45.0) for u in (0.0, 1e-5, -1e-5, 1e-7, -1e-7)}}
SWEEP_POSTS = {"A": antidiagonal(), "D": diagonal(), "17deg": Polarization.from_degrees(17.0),
               "120deg": Polarization.from_degrees(120.0)}
SWEEP_GRID = (1.0, -1.0, 0.75, 0.5, 0.125, 0.006, -0.006, 1e-3, 1e-5, 1e-7, 1e-9, 1e-11, 1e-12,
              0.0)


@pytest.mark.parametrize("post_name", SWEEP_POSTS)
def test_closed_form_matches_the_truth_at_the_strength_its_meter_encodes(post_name):
    post, refused = SWEEP_POSTS[post_name], 0
    assert len(SWEEP_INPUTS) == 23
    for name, psi in SWEEP_INPUTS.items():
        for k in SWEEP_GRID:
            meter = MeterSetting.from_strength(k)
            d, p_post = decimal_weights(psi, meter.strength, post)
            if p_post <= Decimal("1e-24"):  # an exact zero's rounding: every route refuses
                refused += 1
                with pytest.raises(PostselectionImpossibleError):
                    weak_value_analytic(psi, meter, post)
                continue
            got, want = weak_value_analytic(psi, meter, post), float(decimal_closed_form(
                psi, meter.strength, post))
            assert abs(got - want) <= 1e-14 * (abs(want) or 1.0), (name, k, got, want)
    # D meets post A, and A post D, only through K: P(post) = K^2 / 4 at K = 1e-12 and 0,
    # and the doubles of +-45 degrees lie one rounding from them
    assert refused == {"A": 4, "D": 4}.get(post_name, 0)


# --- a seeded sweep of the closed form against the coherent model ------------------------
#
# The seed was chosen and recorded before the first run; neither it nor the sampling may be
# changed to pass a case. Each case draws an input angle, uniform or within 10^-u degrees
# of 0, +-45 or 90 degrees, a real or random-phase input, K log-uniform in [1e-12, 1] with
# either sign, and one of the posts A, D, H and V.

ROUTE_SEED = 20261020
ROUTE_CASES = 3000
ROUTE_POSTS = {"A": antidiagonal(), "D": diagonal(), "H": horizontal(), "V": vertical()}


def route_cases():
    """(input, K, post label) of each case, from one generator keyed by ROUTE_SEED."""
    rng = np.random.default_rng(ROUTE_SEED)
    for _ in range(ROUTE_CASES):
        if rng.random() < 0.5:
            degrees = rng.uniform(-90.0, 90.0)
        else:
            offset = 10.0 ** -rng.uniform(0.0, 16.0)
            degrees = rng.choice([0.0, 45.0, -45.0, 90.0]) + rng.choice([-1.0, 1.0]) * offset
        theta = math.radians(degrees)
        phase = 1.0 if rng.random() < 0.5 else cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        k = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, 0.0)
        yield Polarization(math.cos(theta), phase * math.sin(theta)), k, "ADHV"[rng.integers(4)]


def outcome(call):
    """The value of ``call()``, or the type of the weakpol error it raised."""
    try:
        return call()
    except WeakpolError as exc:
        return type(exc)


def test_closed_form_matches_the_coherent_model_over_a_seeded_sweep():
    # a case passes if both routes raise the same typed error, or if both return within
    # 4 eps max(1, cond_d), cond_d = (|A|^2 + |B|^2) / ||A|^2 - |B|^2|: the model forms d
    # from rounded products, a few eps of |A|^2 + |B|^2 off, and cond_d carries that to d
    v_1, failures, returned = ImperfectionParams(1.0), [], 0
    for i, (psi, k, label) in enumerate(route_cases()):
        post = ROUTE_POSTS[label]
        closed = outcome(lambda: weak_value_analytic(psi, MeterSetting.from_strength(k), post))
        model = outcome(lambda: model_weak_value_curve(v_1, psi, [k], post=post)[0][1])
        if isinstance(closed, type) or isinstance(model, type):
            if closed is not model:
                failures.append((i, psi, k, label, closed, model))
            continue
        returned += 1
        if closed == model:
            continue
        a, b = post.alpha.conjugate() * psi.alpha, post.beta.conjugate() * psi.beta
        d = abs(a) ** 2 - abs(b) ** 2
        cond = (abs(a) ** 2 + abs(b) ** 2) / abs(d) if d else math.inf
        rel = abs(closed - model) / abs(closed) if closed else math.inf
        if not rel <= 4.0 * np.finfo(float).eps * max(1.0, cond):
            failures.append((i, psi, k, label, closed, model))
    assert returned > ROUTE_CASES // 2
    assert not failures, failures[:5]
