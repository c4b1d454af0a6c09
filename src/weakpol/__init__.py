"""Postselected weak measurements of single-photon polarization.

A linear-optics simulator of a nondeterministic two-photon polarization
measurement gate (with a Fock-level engine as its independent check),
the qubit-level theory it implements (generalized measurements,
postselected weak values, knowledge), an imperfect-device model with
process tomography, and Monte Carlo counting experiments with the
associated error analysis.
"""

__version__ = "0.1.0"

from .device import (
    DeviceConfig,
    TwoQubitState,
    concurrence,
    device_meter_distribution,
    equivalence_fidelity,
    run_device,
)
from .errors import (
    InfeasibleTargetError,
    InversionRangeError,
    PhotonCapError,
    PostselectionImpossibleError,
    UnknownModeError,
    WeakpolError,
    ZeroCountsError,
    ZeroNormError,
    ZeroStrengthError,
)
from .fock import (
    BeamSplitterSpec,
    FockState,
    ModeRegistry,
    apply_beam_splitter,
    create_photon,
    number_expectation,
    project_coincidence,
    vacuum,
)
from .imperfection import (
    ChiMatrix,
    DistinguishableOutput,
    ImperfectionParams,
    TwoQubitChannel,
    distinguishable_device,
    fit_visibility,
    imperfect_channel,
    invert_s1,
    model_weak_value_curve,
    process_tomography,
    read_chi_csv,
)
from .counting import (
    CountSample,
    Estimate,
    Fig2Result,
    Fig2Row,
    RunPlan,
    estimate_knowledge,
    estimate_weak_value,
    run_fig2,
    sample_counts,
    write_fig2_csv,
)
from .weak_values import (
    MeterSetting,
    Polarization,
    Povm,
    antidiagonal,
    diagonal,
    expectation_decomposition,
    expectation_s1,
    horizontal,
    postselect_state,
    postselected_probs,
    povm_elements,
    vertical,
    weak_value_analytic,
)

__all__ = [name for name, value in sorted(globals().items())  # the names, not the submodules
           if not name.startswith("_") and not isinstance(value, type(errors))]
