"""Command-line front end.

Subcommands:

  gate-verify   check the gate operator against its two-qubit contract
  povm          print the induced measurement operators for a strength
  weak-value    print the postselected value for an input angle and strength
  fig2          simulate the counting experiment over a strength grid (CSV)
  tomo          reconstruct and export the device process matrix (CSV)

Angles are degrees at the CLI and radians internally. Reals in emitted
CSVs use 17 significant digits so doubles round-trip. A YAML config file
may supply any long option; explicit flags win. Exit codes:

  0  success
  2  usage error (argparse)
  3  malformed config file / unknown keys
  4  conflicting values
  5  out-of-range parameter
  6  degenerate input (e.g. K = 0 weak value)
  7  infeasible model fit
  8  gate verification exceeded tolerance
  9  output I/O failure
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .counting import RunPlan, run_fig2, write_fig2_csv, write_with_sidecar
from .device import DeviceConfig, equivalence_fidelity, run_device
from .errors import (
    InfeasibleTargetError,
    PostselectionImpossibleError,
    WeakpolError,
    ZeroStrengthError,
)
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
EXIT_CONFLICT = 4
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


_CONFIG_KEYS = {
    "angle": float,
    "k": float,
    "k_grid": str,
    "visibility": float,
    "depol": float,
    "unpostselected_rate": float,
    "postselected_rate": float,
    "duration_k": float,
    "duration_wv": float,
    "seed": _config_int,
    "out": str,
    "workers": _config_int,
    "trials": _config_int,
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
        if norm not in _CONFIG_KEYS:
            raise CliError(EXIT_CONFIG, f"unknown config key: {key}")
        try:
            out[norm] = _CONFIG_KEYS[norm](value)
        except (TypeError, ValueError):
            raise CliError(EXIT_CONFIG, f"config key {key} has unusable value {value!r}")
    return out


def _merge(args: argparse.Namespace, file_cfg: dict, key: str, default=None):
    cli_val = getattr(args, key, None)
    if cli_val is not None:
        return cli_val
    if key in file_cfg:
        return file_cfg[key]
    return default


def _parse_k_grid(text: str):
    try:
        grid = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise CliError(EXIT_CONFIG, f"cannot parse strength grid {text!r}")
    if not grid:
        raise CliError(EXIT_CONFIG, "strength grid is empty")
    return grid


def _check_angle(angle: float) -> float:
    if not 0.0 <= angle < 360.0:
        raise CliError(EXIT_RANGE, f"angle must lie in [0, 360), got {angle}")
    return angle


def _check_strength(k: float, allow_zero: bool) -> float:
    if not -1.0 < k <= 1.0:
        raise CliError(EXIT_RANGE, f"strength K must lie in (-1, 1], got {k}")
    if k == 0.0 and not allow_zero:
        raise CliError(EXIT_DEGENERATE, "K = 0: the weak value is undefined (unbounded)")
    return k


def _check_unit(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise CliError(EXIT_RANGE, f"{name} must lie in [0, 1], got {value}")
    return value


def _resolve_out(out: str | None, default_name: str) -> str:
    if out:
        return out
    base = os.environ.get(OUT_DIR_ENV, ".")
    return os.path.join(base, default_name)


def _signal_from_angle(angle_deg: float) -> Polarization:
    return Polarization.from_degrees(angle_deg)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gate_verify(args, file_cfg) -> int:
    seed = int(_merge(args, file_cfg, "seed", 0))
    if seed < 0:
        raise CliError(EXIT_RANGE, f"seed must be non-negative, got {seed}")
    trials = int(_merge(args, file_cfg, "trials", 20))
    if trials < 1:
        raise CliError(EXIT_RANGE, f"trials must be at least 1, got {trials}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
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


def _cmd_povm(args, file_cfg) -> int:
    k = _check_strength(float(_merge(args, file_cfg, "k", 0.5)), allow_zero=True)
    povm = povm_elements(MeterSetting.from_strength(k))
    print(f"# povm K={format(k, '.17g')}")
    for name, op in (("pi_H", povm.pi_h), ("pi_V", povm.pi_v)):
        print(name)
        for row in op:
            print("  " + "  ".join(format(float(x.real), ".17g") for x in row))
    return EXIT_OK


def _cmd_weak_value(args, file_cfg) -> int:
    angle = _check_angle(float(_merge(args, file_cfg, "angle", 42.0)))
    k = _check_strength(float(_merge(args, file_cfg, "k", 0.006)), allow_zero=False)
    signal = _signal_from_angle(angle)
    meter = MeterSetting.from_strength(k)
    try:
        value = weak_value_analytic(signal, meter, antidiagonal())
    except PostselectionImpossibleError as exc:
        raise CliError(EXIT_DEGENERATE, str(exc))
    print(f"# weak-value angle={format(angle, '.17g')} K={format(k, '.17g')}")
    print(format(value, ".17g"))
    return EXIT_OK


def _cmd_fig2(args, file_cfg) -> int:
    angle = _check_angle(float(_merge(args, file_cfg, "angle", 42.0)))
    grid_text = _merge(args, file_cfg, "k_grid", "0.006,0.125,0.25,0.5,0.75,1.0")
    k_grid = [
        _check_strength(k, allow_zero=False) for k in _parse_k_grid(str(grid_text))
    ]
    visibility = _check_unit("visibility", float(_merge(args, file_cfg, "visibility", 1.0)))
    depol = _check_unit("depol", float(_merge(args, file_cfg, "depol", 0.0)))
    plan = RunPlan(
        unpostselected_rate=float(_merge(args, file_cfg, "unpostselected_rate", 44.6)),
        postselected_rate=float(_merge(args, file_cfg, "postselected_rate", 0.52)),
        duration_k=float(_merge(args, file_cfg, "duration_k", 100.0)),
        duration_wv=float(_merge(args, file_cfg, "duration_wv", 1000.0)),
        seed=int(_merge(args, file_cfg, "seed", 0)),
    )
    out = _resolve_out(_merge(args, file_cfg, "out"), "fig2.csv")
    result = run_fig2(
        plan, _signal_from_angle(angle),
        ImperfectionParams(visibility=visibility, depol=depol), k_grid,
    )
    write_fig2_csv(result, out)
    print(out)
    return EXIT_OK


def _cmd_tomo(args, file_cfg) -> int:
    visibility = _check_unit("visibility", float(_merge(args, file_cfg, "visibility", 1.0)))
    depol = _check_unit("depol", float(_merge(args, file_cfg, "depol", 0.0)))
    out = _resolve_out(_merge(args, file_cfg, "out"), "chi.csv")
    params = ImperfectionParams(visibility=visibility, depol=depol)
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakpol",
        description="Postselected weak measurements of photon polarization",
    )
    parser.add_argument("--version", action="version", version=f"weakpol {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, angle=False, k=False, grid=False, model=False, plan=False, out=False):
        p.add_argument("--config", help="YAML config file; flags override its values")
        p.add_argument("--seed", type=int, help="master seed (default 0)")
        if angle:
            p.add_argument("--angle", type=float, help="input polarization angle, degrees")
        if k:
            p.add_argument("--K", dest="k", type=float, help="measurement strength")
        if grid:
            p.add_argument("--k-grid", dest="k_grid", help="comma-separated strengths")
        if model:
            p.add_argument("--visibility", type=float, help="coherent-branch weight in [0,1]")
            p.add_argument("--depol", type=float, help="white-noise weight in [0,1]")
        if plan:
            p.add_argument("--unpostselected-rate", dest="unpostselected_rate", type=float)
            p.add_argument("--postselected-rate", dest="postselected_rate", type=float)
            p.add_argument("--duration-k", dest="duration_k", type=float)
            p.add_argument("--duration-wv", dest="duration_wv", type=float)
            p.add_argument("--workers", type=int,
                           help="accepted and ignored: the grid runs serially")
        if out:
            p.add_argument("--out", help=f"output path (default under ${OUT_DIR_ENV} or .)")

    p = sub.add_parser("gate-verify", help="check the gate against its two-qubit contract")
    add_common(p)
    p.add_argument("--trials", type=int, help="random signal states per gamma (default 20)")
    p.set_defaults(func=_cmd_gate_verify)

    p = sub.add_parser("povm", help="print the induced measurement operators")
    add_common(p, k=True)
    p.set_defaults(func=_cmd_povm)

    p = sub.add_parser("weak-value", help="print the postselected value")
    add_common(p, angle=True, k=True)
    p.set_defaults(func=_cmd_weak_value)

    p = sub.add_parser("fig2", help="simulate the counting experiment (CSV)")
    add_common(p, angle=True, grid=True, model=True, plan=True, out=True)
    p.set_defaults(func=_cmd_fig2)

    p = sub.add_parser("tomo", help="export the device process matrix (CSV)")
    add_common(p, model=True, out=True)
    p.set_defaults(func=_cmd_tomo)

    return parser


def _detect_conflicts(args) -> None:
    if getattr(args, "k", None) is not None and getattr(args, "k_grid", None) is not None:
        raise CliError(EXIT_CONFLICT, "--K conflicts with --k-grid; give one")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _detect_conflicts(args)
        file_cfg = _load_config(args.config) if getattr(args, "config", None) else {}
        if "k" in file_cfg and "k_grid" in file_cfg:
            raise CliError(EXIT_CONFLICT, "config sets both k and k_grid; give one")
        return args.func(args, file_cfg)
    except CliError as exc:
        print(f"weakpol: {exc}", file=sys.stderr)
        return exc.code
    except InfeasibleTargetError as exc:
        print(f"weakpol: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ZeroStrengthError as exc:
        print(f"weakpol: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ValueError, WeakpolError) as exc:
        print(f"weakpol: {exc}", file=sys.stderr)
        return EXIT_RANGE
    except OSError as exc:
        print(f"weakpol: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
