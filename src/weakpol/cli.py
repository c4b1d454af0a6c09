"""Command-line front end.

Subcommands:

  gate-verify   check the gate operator against its two-qubit contract
  povm          print the induced measurement operators for a strength
  weak-value    print the postselected value for an input angle and strength
  fig2          simulate the counting experiment over a strength grid (CSV)
  tomo          reconstruct and export the device process matrix (CSV)

Angles are degrees at the CLI and radians internally. Reals in emitted
CSVs use 17 significant digits so doubles round-trip. A YAML config file
may set any option its subcommand takes; explicit flags win. An option
set neither way is not passed on, so ``RunPlan`` and ``ImperfectionParams``
own the defaults and range checks; the library also checks that each
strength lies in [-1, 1]. Exit codes:

  0  success
  2  usage error (argparse)
  3  malformed config file / unknown key / key the subcommand does not take
  5  out-of-range parameter
  6  degenerate input: a postselection that never succeeds
  7  infeasible model fit
  8  gate verification exceeded tolerance
  9  output I/O failure
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import asdict, fields

import numpy as np

from . import __version__
from .counting import RunPlan, make_rng, run_fig2, write_fig2_csv, write_with_sidecar
from .device import DeviceConfig, equivalence_fidelity, run_device
from .errors import InfeasibleTargetError, PostselectionImpossibleError, WeakpolError
from .imperfection import (
    ImperfectionParams,
    format_chi_csv,
    imperfect_channel,
    process_tomography,
)
from .weak_values import (
    MeterSetting,
    Polarization,
    antidiagonal,
    povm_elements,
    weak_value_analytic,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_RANGE = 5
EXIT_DEGENERATE = 6
EXIT_INFEASIBLE = 7
EXIT_VERIFY = 8
EXIT_IO = 9

OUT_DIR_ENV = "WEAKPOL_OUT_DIR"

GATE_VERIFY_GAMMAS = (1.0 / math.sqrt(2.0), 0.75, 0.8, 0.9, 1.0)
GATE_VERIFY_TOL = 1e-10


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _config_int(value) -> int:
    """An integer config value; bools and non-integral numbers are refused, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


# key -> (flag, config-file converter, help); argparse reads a _config_int flag as int
_OPTIONS = {
    "seed": ("--seed", _config_int, "master seed (default 0)"),
    "trials": ("--trials", _config_int, "random signal states per gamma (default 20)"),
    "angle": ("--angle", float, "input polarization angle, degrees"),
    "k": ("--K", float, "measurement strength in [-1, 1]"),
    "k_grid": ("--k-grid", str, "comma-separated strengths in [-1, 1]"),
    "visibility": ("--visibility", float, "coherent-branch weight in [0,1]"),
    "depol": ("--depol", float, "white-noise weight in [0,1]"),
    "unpostselected_rate": ("--unpostselected-rate", float, None),
    "postselected_rate": ("--postselected-rate", float, None),
    "duration_k": ("--duration-k", float, None),
    "duration_wv": ("--duration-wv", float, None),
    "workers": ("--workers", _config_int, "accepted and ignored: the grid runs serially"),
    "out": ("--out", str, f"output path (default under ${OUT_DIR_ENV} or .)"),
}


def _load_config(path: str) -> dict:
    import yaml  # only a --config run pays for the import

    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise CliError(EXIT_CONFIG, f"cannot read config file: {exc}")
    except yaml.YAMLError as exc:
        raise CliError(EXIT_CONFIG, f"malformed config file: {exc}")
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise CliError(EXIT_CONFIG, "config file must hold a mapping of options")
    out = {}
    for key, value in data.items():
        norm = str(key).replace("-", "_")
        if norm not in _OPTIONS:
            raise CliError(EXIT_CONFIG, f"unknown config key: {key}")
        try:
            out[norm] = _OPTIONS[norm][1](value)
        except (TypeError, ValueError):
            raise CliError(EXIT_CONFIG, f"config key {key} has unusable value {value!r}")
    return out


def _parse_k_grid(text: str):
    try:
        grid = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise CliError(EXIT_CONFIG, f"cannot parse strength grid {text!r}")
    if not grid:
        raise CliError(EXIT_CONFIG, "strength grid is empty")
    return grid


def _check_angle(angle: float) -> float:
    """The CLI's angle contract: degrees in [0, 360), so NaN and inf fail too (exit 5)."""
    if not 0.0 <= angle < 360.0:
        raise CliError(EXIT_RANGE, f"angle must lie in [0, 360), got {angle}")
    return angle


def _resolve_out(out: str | None, default_name: str) -> str:
    if out:
        return out
    base = os.environ.get(OUT_DIR_ENV, ".")
    return os.path.join(base, default_name)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _from_given(cls, given: dict):
    """``cls`` from only the keys the user gave; the library owns defaults and range checks."""
    return cls(**{f.name: given[f.name] for f in fields(cls) if f.name in given})


def _cmd_gate_verify(given: dict) -> int:
    seed = given.get("seed", 0)
    if seed < 0:
        raise CliError(EXIT_RANGE, f"seed must be non-negative, got {seed}")
    trials = given.get("trials", 20)
    if trials < 1:
        raise CliError(EXIT_RANGE, f"trials must be at least 1, got {trials}")
    rng = make_rng(seed)
    cfg = DeviceConfig()
    worst_infid = 0.0
    worst_prob = 0.0
    for gamma in GATE_VERIFY_GAMMAS:
        meter = MeterSetting(gamma)
        for _ in range(trials):
            theta = rng.uniform(0.0, math.pi / 2.0)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            signal = Polarization(math.cos(theta), math.sin(theta) * np.exp(1j * phase))
            state = run_device(signal, meter, cfg)
            fid = equivalence_fidelity(state, signal, meter)
            worst_infid = max(worst_infid, 1.0 - fid)
            worst_prob = max(worst_prob, abs(state.success_prob - 1.0 / 9.0))
    print(f"# gate-verify seed={seed} trials={trials} gammas={len(GATE_VERIFY_GAMMAS)}")
    print(f"max_infidelity {worst_infid:.3e}")
    print(f"max_success_prob_deviation {worst_prob:.3e}")
    if worst_infid > GATE_VERIFY_TOL or worst_prob > GATE_VERIFY_TOL:
        print("gate-verify: FAIL", file=sys.stderr)
        return EXIT_VERIFY
    print("gate-verify: OK")
    return EXIT_OK


def _cmd_povm(given: dict) -> int:
    k = given.get("k", 0.5)
    povm = povm_elements(MeterSetting.from_strength(k))
    print(f"# povm K={format(k, '.17g')}")
    for name, op in (("pi_H", povm.pi_h), ("pi_V", povm.pi_v)):
        print(name)
        for row in op:
            print("  " + "  ".join(format(float(x.real), ".17g") for x in row))
    return EXIT_OK


def _cmd_weak_value(given: dict) -> int:
    angle = _check_angle(given.get("angle", 42.0))
    k = given.get("k", 0.006)
    value = weak_value_analytic(Polarization.from_degrees(angle), MeterSetting.from_strength(k),
                                antidiagonal())
    print(f"# weak-value angle={format(angle, '.17g')} K={format(k, '.17g')}")
    print(format(value, ".17g"))
    return EXIT_OK


def _cmd_fig2(given: dict) -> int:
    angle = _check_angle(given.get("angle", 42.0))
    k_grid = _parse_k_grid(given.get("k_grid", "0.006,0.125,0.25,0.5,0.75,1.0"))
    params = _from_given(ImperfectionParams, given)
    plan = _from_given(RunPlan, given)
    out = _resolve_out(given.get("out"), "fig2.csv")
    result = run_fig2(plan, Polarization.from_degrees(angle), params, k_grid)
    write_fig2_csv(result, out)
    print(out)
    return EXIT_OK


def _cmd_tomo(given: dict) -> int:
    params = _from_given(ImperfectionParams, given)
    out = _resolve_out(given.get("out"), "chi.csv")
    channel = imperfect_channel(None, params, DeviceConfig())
    chi = process_tomography(channel)
    meta = {
        "model": asdict(params),
        "chi_trace": chi.trace(),
        "chi_hermiticity_defect": chi.hermiticity_defect(),
        "chi_min_eigenvalue": float(chi.eigenvalues()[0]),
        "package": {"name": "weakpol", "version": __version__},
    }
    write_with_sidecar(out, format_chi_csv(chi), meta)
    print(out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

# name: (runner, help, option keys in --help order)
_COMMANDS = {
    "gate-verify": (_cmd_gate_verify, "check the gate against its two-qubit contract",
                    ("seed", "trials")),
    "povm": (_cmd_povm, "print the induced measurement operators", ("k",)),
    "weak-value": (_cmd_weak_value, "print the postselected value", ("angle", "k")),
    "fig2": (_cmd_fig2, "simulate the counting experiment (CSV)",
             ("seed", "angle", "k_grid", "visibility", "depol", "unpostselected_rate",
              "postselected_rate", "duration_k", "duration_wv", "workers", "out")),
    "tomo": (_cmd_tomo, "export the device process matrix (CSV)",
             ("visibility", "depol", "out")),
}

# the first matching class wins, so the ValueError subclasses come first
_EXIT_CODES = {
    InfeasibleTargetError: EXIT_INFEASIBLE,
    PostselectionImpossibleError: EXIT_DEGENERATE,
    ValueError: EXIT_RANGE,
    WeakpolError: EXIT_RANGE,
    OSError: EXIT_IO,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakpol",
        description="Postselected weak measurements of photon polarization",
    )
    parser.add_argument("--version", action="version", version=f"weakpol {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        # argparse reads "-1,1" or "-1e-3" as a value only if this pattern matches it
        p._negative_number_matcher = re.compile(r"-\.?\d")
        p.add_argument("--config", help="YAML config file; flags override its values")
        for key in keys:
            flag, convert, option_help = _OPTIONS[key]
            p.add_argument(flag, dest=key, type=int if convert is _config_int else convert,
                           help=option_help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run, _, keys = _COMMANDS[args.command]
    flags = vars(args)
    try:
        given = _load_config(args.config) if args.config else {}
        for key in given:
            if key not in keys:
                raise CliError(EXIT_CONFIG, f"config key {key} is not an option of {args.command}")
        given.update((key, flags[key]) for key in keys if flags[key] is not None)
        return run(given)
    except (CliError, *_EXIT_CODES) as exc:
        print(f"weakpol: {exc}", file=sys.stderr)
        if isinstance(exc, CliError):
            return exc.code
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    raise SystemExit(main())
