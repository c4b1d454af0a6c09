"""Every module of the package and its tests imports only what the project declares."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = sorted((ROOT / "tests").rglob("*.py"))
MODULES = sorted((ROOT / "src").rglob("*.py")) + TESTS
# the runtime dependencies (numpy, pyyaml), the test extra (pytest), the package itself and
# the test modules; mpmath, hypothesis or scipy may be installed, but no module may need them
DECLARED = {"numpy", "yaml", "pytest", "weakpol", *(path.stem for path in TESTS)}


def test_modules_import_only_the_standard_library_and_declared_dependencies():
    assert len(MODULES) > 10
    undeclared = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:  # relative: the package
                names = [node.module]
            else:
                continue
            undeclared += [f"{path.relative_to(ROOT)}: {name}" for name in names
                           if name.partition(".")[0] not in sys.stdlib_module_names | DECLARED]
    assert not undeclared, undeclared


# the package's public names: the classes, functions and errors its layers export
PUBLIC_NAMES = [
    "BeamSplitterSpec", "ChiMatrix", "CountSample", "DeviceConfig", "DistinguishableOutput",
    "Estimate", "Fig2Result", "Fig2Row", "FockState", "ImperfectionParams",
    "InfeasibleTargetError", "InversionRangeError", "MeterSetting", "ModeRegistry",
    "PhotonCapError", "Polarization", "PostselectionImpossibleError", "Povm", "RunPlan",
    "TwoQubitChannel", "TwoQubitState", "UnknownModeError", "WeakpolError", "ZeroCountsError",
    "ZeroNormError", "ZeroStrengthError", "antidiagonal", "apply_beam_splitter", "concurrence",
    "create_photon", "device_meter_distribution", "diagonal", "distinguishable_device",
    "equivalence_fidelity", "estimate_knowledge", "estimate_weak_value",
    "expectation_decomposition", "expectation_s1", "fit_visibility", "horizontal",
    "imperfect_channel", "invert_s1", "model_weak_value_curve", "number_expectation",
    "postselect_state", "postselected_probs", "povm_elements", "process_tomography",
    "project_coincidence", "read_chi_csv", "run_device", "run_fig2", "sample_counts", "vacuum",
    "vertical", "weak_value_analytic", "write_fig2_csv",
]


def test_star_import_leaves_a_callers_submodule_names_alone():
    submodules = ("counting", "device", "errors", "fock", "imperfection", "weak_values")
    namespace = dict.fromkeys(submodules, "mine")
    exec("from weakpol import *", namespace)
    assert [namespace[name] for name in submodules] == ["mine"] * len(submodules)


def test_all_lists_the_public_names():
    import weakpol

    assert len(PUBLIC_NAMES) == 57
    assert weakpol.__all__ == PUBLIC_NAMES
    assert all(hasattr(weakpol, name) for name in weakpol.__all__)
