"""The edge contract of the public API: one row per public function and degenerate input.

Each row states one expectation. Either a named error is raised, or the
value is finite and is held to an independent derivation. A degenerate
input that has no row yet is a decision still to be written down.
"""

import math

import pytest

from weakpol import (
    DeviceConfig,
    ImperfectionParams,
    InfeasibleTargetError,
    MeterSetting,
    Polarization,
    expectation_decomposition,
    expectation_s1,
    fit_visibility,
    invert_s1,
)

PSI_42 = Polarization.from_degrees(42.0)
K_005 = MeterSetting.from_strength(0.05)
V_096 = ImperfectionParams(visibility=0.96)
# the postselected value of PSI_42 at K = 0.05 and v = 0.96, whose P(A) is 0.0132923
WV_42 = 3.8573258213873007

# row id -> (call, expectation): an (error, message pattern) pair, or the value to hold to
ROWS = {
    **{f"invert_s1-p_a={p_a}": (lambda p_a=p_a: invert_s1(WV_42, p_a, V_096, K_005),
                                (ValueError, "measured_p_a"))
       for p_a in (-3.0, 7.0, 1e9, math.nan)},
    # each term w P(X) stays finite at K = 0: 0.0522642 for A and D at 42 degrees
    "expectation_decomposition-K=0": (
        lambda: sum(expectation_decomposition(PSI_42, MeterSetting.from_strength(0.0))[:2]),
        expectation_s1(PSI_42)),
    # with either splitter at 0 no target fixes v
    **{f"fit_visibility-{eta}=0": (lambda eta=eta: fit_visibility(0.3, PSI_42, K_005,
                                                                  DeviceConfig(**{eta: 0.0})),
                                   (InfeasibleTargetError, r"P\(post\) is 0.5 at every visibility"))
       for eta in ("balance_eta", "interfering_eta")},
}


@pytest.mark.parametrize("row", ROWS)
def test_edge_contract(row):
    call, expect = ROWS[row]
    if isinstance(expect, tuple):
        with pytest.raises(expect[0], match=expect[1]):
            call()
    else:
        got = call()
        assert math.isfinite(got) and abs(got - expect) < 1e-12
