"""Command-line interface tests: parsing, outputs, exit codes."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weakpol.cli as cli
from weakpol import (
    DeviceConfig,
    ImperfectionParams,
    MeterSetting,
    Polarization,
    RunPlan,
    WeakpolError,
    ZeroStrengthError,
    invert_s1,
    model_weak_value_curve,
)
from weakpol.cli import (
    EXIT_CONFIG,
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_RANGE,
    EXIT_VERIFY,
    build_parser,
    main,
)
from weakpol.counting import _ROW_FORMAT, CSV_HEADER

from test_counting import AWKWARD_GRID, k_true_hex

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_number(out: str) -> float:
    return float(out.strip().splitlines()[-1])


def test_gate_verify_passes(capsys):
    code, out, _ = run_cli(["gate-verify", "--trials", "5"], capsys)
    assert code == EXIT_OK
    assert "gate-verify: OK" in out
    infid = float([ln for ln in out.splitlines() if ln.startswith("max_infidelity")][0].split()[1])
    assert infid < 1e-10


def test_gate_verify_builds_the_gate_once(capsys, monkeypatch):
    import weakpol.device as device

    calls, build = [], device.transfer_matrix

    def counted(cfg):
        calls.append(cfg)
        return build(cfg)

    # the one build is the DeviceConfig() of the run; every run_device call reads it
    monkeypatch.setattr(device, "transfer_matrix", counted)
    code, out, _ = run_cli(["gate-verify", "--trials", "20"], capsys)
    assert code == EXIT_OK
    assert "gate-verify: OK" in out
    assert len(calls) == 1


def test_gate_verify_rejects_nonpositive_trials(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("trials: -3\n")
    for argv in (["--trials", "-3"], ["--trials", "0"], ["--config", str(cfg)]):
        code, out, err = run_cli(["gate-verify"] + argv, capsys)
        assert code == EXIT_RANGE
        assert out == ""  # rejected before any check ran
        assert "trials" in err


def test_negative_seed_is_a_range_error(tmp_path, capsys):
    for argv in (["gate-verify", "--trials", "1", "--seed", "-1"],
                 ["fig2", "--k-grid", "0.5", "--seed", "-1", "--out", str(tmp_path / "x.csv")]):
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_RANGE
        assert out == ""
        assert "seed must be non-negative" in err
    assert not (tmp_path / "x.csv").exists()


def test_weak_value_prints_analytic_value(capsys):
    # README documents this exact token
    code, out, _ = run_cli(["weak-value", "--angle", "42", "--K", "0.006"], capsys)
    assert code == EXIT_OK
    assert out.split()[-1] == "19.018985734711332"


def test_weak_value_prints_the_weak_limit_at_zero_strength(capsys):
    # at K = 0 the closed form is the weak value of Aharonov, Albert & Vaidman,
    # (alpha + beta) / (alpha - beta) for a real input and post A
    code, out, _ = run_cli(["weak-value", "--angle", "42", "--K", "0"], capsys)
    assert code == EXIT_OK
    assert out.split()[-1] == "19.081136687728211"
    t = math.radians(42.0)
    aav = (math.cos(t) + math.sin(t)) / (math.cos(t) - math.sin(t))
    assert math.isclose(float(out.split()[-1]), aav, rel_tol=1e-15)
    # an input orthogonal to the post never passes it in the weak limit
    code, out, err = run_cli(["weak-value", "--angle", "45", "--K", "0"], capsys)
    assert (code, out) == (EXIT_DEGENERATE, "")
    assert "postselection probability is zero" in err


def refuses_zero_strength(call) -> bool:
    try:
        call()
    except ZeroStrengthError:
        return True
    except WeakpolError:  # any other verdict, such as InversionRangeError, is not K = 0
        pass
    return False


# strength -> whether its meter encodes |K| < 1e-14: from_strength(1e-14) reads back 9.77e-15
# and -1e-14 reads back -9.88e-15, so both do, while 1.1e-14 reads back 1.11e-14
IS_ZERO_STRENGTH = {"1e-15": True, "-1e-15": True, "9.9e-15": True, "1e-14": True,
                    "-1e-14": True, "1.1e-14": False, "2e-14": False}


@pytest.mark.parametrize("k", IS_ZERO_STRENGTH)
def test_weak_value_and_fig2_share_the_zero_strength_rule(k, tmp_path, capsys):
    # K = 0 is refused only where the model divides a meter bias dc0 by K: the CLI routes
    # and the balanced gate's model return a value at every K, and a biased meter (an
    # unbalanced Hadamard) makes the model routes refuse exactly the strengths under 1e-14
    out = tmp_path / "x.csv"
    fig2_code = run_cli(["fig2", "--k-grid", k, "--out", str(out)], capsys)[0]
    code = run_cli(["weak-value", "--K", k], capsys)[0]
    assert (code, fig2_code) == (EXIT_OK, EXIT_OK) and out.exists()
    model, meter = ImperfectionParams(0.96), MeterSetting.from_strength(float(k))
    biased = DeviceConfig(hadamard_eta=0.4)
    for cfg, refused in ((DeviceConfig(), False), (biased, IS_ZERO_STRENGTH[k])):
        verdicts = {
            "model_weak_value_curve": refuses_zero_strength(lambda: model_weak_value_curve(
                model, Polarization.from_degrees(42.0), [float(k)], cfg)),
            "invert_s1": refuses_zero_strength(lambda: invert_s1(19.0, 0.001, model, meter, cfg)),
        }
        assert verdicts == dict.fromkeys(verdicts, refused), cfg


def test_weak_value_rejects_out_of_range_angle(capsys):
    code, _, _ = run_cli(["weak-value", "--angle", "400", "--K", "0.5"], capsys)
    assert code == EXIT_RANGE


@pytest.mark.parametrize("command", ["weak-value", "fig2"])
def test_angle_range_is_a_cli_contract(command, tmp_path, capsys):
    # the CLI takes angles in [0, 360) degrees, though Polarization.from_degrees takes any
    out = tmp_path / "fig2.csv"
    rest = ["--K", "0.5"] if command == "weak-value" else ["--k-grid", "0.5", "--out", str(out)]
    assert run_cli([command, "--angle", "0", *rest], capsys)[0] == EXIT_OK
    out.unlink(missing_ok=True)
    as_text, as_float = tmp_path / "text.yaml", tmp_path / "float.yaml"
    for value, yaml_float in (("360", "360.0"), ("-1e-9", "-1.0e-9"), ("nan", ".nan"),
                              ("inf", ".inf")):
        as_text.write_text(f"angle: '{value}'\n")
        as_float.write_text(f"angle: {yaml_float}\n")
        for argv in (["--angle", value], ["--config", str(as_text)], ["--config", str(as_float)]):
            code, stdout, err = run_cli([command, *argv, *rest], capsys)
            assert (code, stdout) == (EXIT_RANGE, "")
            assert "angle must lie in [0, 360)" in err
    assert not out.exists()


def test_povm_output_is_pinned_byte_for_byte(capsys):
    code, out, _ = run_cli(["povm", "--K", "0.5"], capsys)
    assert code == EXIT_OK
    assert out == ("# povm K=0.5\n"
                   "pi_H\n  0.74999999999999989  0\n  0  0.25000000000000011\n"
                   "pi_V\n  0.25000000000000011  0\n  0  0.74999999999999989\n")


def test_povm_projective_output(capsys):
    code, out, _ = run_cli(["povm", "--K", "1"], capsys)
    assert code == EXIT_OK
    lines = out.splitlines()
    h_at = lines.index("pi_H")
    v_at = lines.index("pi_V")
    h_rows = [lines[h_at + 1].split(), lines[h_at + 2].split()]
    v_rows = [lines[v_at + 1].split(), lines[v_at + 2].split()]
    assert [[float(x) for x in row] for row in h_rows] == [[1.0, 0.0], [0.0, 0.0]]
    assert [[float(x) for x in row] for row in v_rows] == [[0.0, 0.0], [0.0, 1.0]]


def test_fig2_writes_deterministic_csv(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for grid in ([0.006, 0.125, 0.5, 1.0], AWKWARD_GRID):
        # repr round-trips each double, and argparse reads a leading "-0.0" as the grid's value
        args = ["fig2", "--angle", "42", "--k-grid", ",".join(map(repr, grid)), "--seed", "7"]
        code1, _, _ = run_cli(args + ["--out", str(out1)], capsys)
        code2, _, _ = run_cli(args + ["--out", str(out2), "--workers", "3"], capsys)
        assert code1 == code2 == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        meta = json.loads((tmp_path / "a.meta.json").read_text())
        assert meta["seed"] == 7
        assert meta["rng"] == "philox4x64"
        # the grid's one record is the CSV's K_true column, bit for bit
        assert "k_grid" not in meta
        assert k_true_hex(out1.read_text()) == [k.hex() for k in grid]


def test_fig2_respects_out_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WEAKPOL_OUT_DIR", str(tmp_path))
    code, out, _ = run_cli(["fig2", "--k-grid", "0.5", "--seed", "1"], capsys)
    assert code == EXIT_OK
    assert (tmp_path / "fig2.csv").exists()


def test_unknown_flag_is_a_usage_error(capsys, tmp_path):
    # argparse handles usage errors itself with status 2
    with pytest.raises(SystemExit) as excinfo:
        main(["fig2", "--K", "0.5", "--out", str(tmp_path / "x.csv")])
    assert excinfo.value.code == 2


def test_config_file_conflict_detected(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("k: 0.5\nk_grid: '0.5,1'\n")
    code, _, err = run_cli(["fig2", "--config", str(cfg), "--out", str(tmp_path / "x.csv")], capsys)
    # no subcommand takes both k and k_grid, so the first one is refused as a key
    assert code == EXIT_CONFIG
    assert "config key k is not an option of fig2" in err
    assert not (tmp_path / "x.csv").exists()


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("visibilty: 0.9\n")  # typo key
    code, _, err = run_cli(["fig2", "--config", str(cfg)], capsys)
    assert code == EXIT_CONFIG
    assert "unknown config key" in err


def test_config_file_out_of_range_visibility(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("visibility: 1.2\n")
    code, _, err = run_cli(
        ["fig2", "--config", str(cfg), "--k-grid", "0.5", "--out", str(tmp_path / "x.csv")],
        capsys,
    )
    assert code == EXIT_RANGE
    assert not (tmp_path / "x.csv").exists()


def test_config_values_overridden_by_flags(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("angle: 10\nk: 0.5\n")
    code, out, _ = run_cli(["weak-value", "--config", str(cfg), "--angle", "42"], capsys)
    assert code == EXIT_OK
    header = out.splitlines()[0]
    assert "angle=42" in header
    assert "K=0.5" in header


def test_malformed_yaml_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("angle: [unclosed\n")
    code, _, _ = run_cli(["weak-value", "--config", str(cfg)], capsys)
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("text, message", [
    (None, "cannot read config file"), ("- 0.5\n- 1\n", "must hold a mapping")])
def test_unreadable_or_non_mapping_config_is_a_config_error(tmp_path, capsys, text, message):
    cfg = tmp_path / "c.yaml"
    if text is not None:
        cfg.write_text(text)
    code, out, err = run_cli(["weak-value", "--config", str(cfg)], capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert message in err


def test_empty_config_file_runs_with_the_defaults(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("")
    code, out, err = run_cli(["weak-value", "--config", str(cfg)], capsys)
    assert (code, out, err) == run_cli(["weak-value"], capsys)
    assert code == EXIT_OK


@pytest.mark.parametrize("grid, message", [
    ("0.5,abc", "cannot parse strength grid '0.5,abc'"), (",", "strength grid is empty")])
def test_unparsable_strength_grid_is_a_config_error(tmp_path, capsys, grid, message):
    out_path = tmp_path / "x.csv"
    code, out, err = run_cli(["fig2", "--k-grid", grid, "--out", str(out_path)], capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert message in err
    assert not out_path.exists()


def test_weak_value_with_orthogonal_weak_limit_is_degenerate(capsys):
    # at 45 degrees the input is orthogonal to the postselection, and a
    # nonzero K of 1e-12, above the zero-strength bound, is still the weak limit
    code, out, err = run_cli(["weak-value", "--angle", "45", "--K", "1e-12"], capsys)
    assert (code, out) == (EXIT_DEGENERATE, "")
    assert "weak value diverges" in err


def test_fig2_impossible_postselection_is_degenerate_as_in_weak_value(tmp_path, capsys):
    # the same orthogonal weak-limit input through the closed form and through the channel
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(["fig2", "--angle", "45", "--k-grid", "1e-13", "--visibility", "1",
                                 "--out", str(out)], capsys)
    assert (code, stdout) == (EXIT_DEGENERATE, "")
    assert "postselection probability is zero under the channel" in err
    assert not out.exists()
    assert run_cli(["weak-value", "--angle", "45", "--K", "1e-13"], capsys)[0] == EXIT_DEGENERATE


@pytest.mark.parametrize("cmd, key, value", [
    ("fig2", "seed", "1.9"), ("fig2", "seed", "true"),
    ("fig2", "workers", ".inf"), ("gate-verify", "trials", "2.5"),
])
def test_config_file_integer_keys_reject_non_integers(tmp_path, capsys, cmd, key, value):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"{key}: {value}\n")
    out_path = tmp_path / "x.csv"
    argv = [cmd, "--config", str(cfg)] + (["--out", str(out_path)] if cmd == "fig2" else [])
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_CONFIG
    assert out == ""
    assert f"config key {key} has unusable value" in err
    assert not out_path.exists()


def test_config_file_integral_float_seed_accepted(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("seed: 7.0\n")
    code, _, _ = run_cli(["fig2", "--config", str(cfg), "--k-grid", "0.5",
                          "--out", str(tmp_path / "a.csv")], capsys)
    assert code == EXIT_OK
    code, _, _ = run_cli(["fig2", "--seed", "7", "--k-grid", "0.5",
                          "--out", str(tmp_path / "b.csv")], capsys)
    assert code == EXIT_OK
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_fig2_rejects_non_finite_duration(tmp_path, capsys):
    code, _, err = run_cli(
        ["fig2", "--k-grid", "0.5", "--duration-wv", "nan", "--out", str(tmp_path / "x.csv")],
        capsys,
    )
    assert code == EXIT_RANGE
    assert "duration_wv must be finite" in err
    assert not (tmp_path / "x.csv").exists()


def test_fig2_rejects_mean_count_beyond_the_bound(tmp_path, capsys):
    code, _, err = run_cli(
        ["fig2", "--k-grid", "0.5", "--unpostselected-rate", "1e10", "--duration-k", "1e10",
         "--out", str(tmp_path / "x.csv")],
        capsys,
    )
    assert code == EXIT_RANGE
    assert "exceeds 1e+15" in err
    assert not (tmp_path / "x.csv").exists()


def test_fig2_draws_zero_in_grid_as_the_scalar_reference(tmp_path, capsys):
    from test_counting import ref_fig2

    out = tmp_path / "x.csv"
    code, _, _ = run_cli(["fig2", "--k-grid", "0,0.5", "--out", str(out)], capsys)
    assert code == EXIT_OK
    rows = ref_fig2(RunPlan(), ImperfectionParams(), [0.0, 0.5])[0]
    # %.17g round-trips every double, so equal lines are bit-for-bit equal rows
    assert out.read_text().splitlines() == [CSV_HEADER] + [
        _ROW_FORMAT % (*row[:6], "no_data" if row[7] else str(row[6]).lower()) for row in rows]


def test_tomo_writes_chi_csv(tmp_path, capsys):
    out = tmp_path / "chi.csv"
    code, _, _ = run_cli(["tomo", "--visibility", "0.9", "--out", str(out)], capsys)
    assert code == EXIT_OK
    rows = out.read_text().splitlines()
    assert len(rows) == 16
    assert len(rows[0].split(",")) == 32
    from weakpol import ImperfectionParams, imperfect_channel, process_tomography, read_chi_csv

    chi = read_chi_csv(out)
    want = process_tomography(imperfect_channel(None, ImperfectionParams(visibility=0.9)))
    assert np.max(np.abs(chi.matrix - want.matrix)) < 1e-12
    meta = json.loads((tmp_path / "chi.meta.json").read_text())
    assert meta["model"]["visibility"] == 0.9


def test_tomo_sidecar_records_chi_physicality(tmp_path, capsys):
    out = tmp_path / "chi.csv"
    argv = ["tomo", "--visibility", "0.96", "--depol", "0.02", "--out", str(out)]
    code, _, _ = run_cli(argv, capsys)
    assert code == EXIT_OK
    from weakpol import read_chi_csv

    chi = read_chi_csv(out)
    meta = json.loads((tmp_path / "chi.meta.json").read_text())
    assert meta["chi_hermiticity_defect"] == chi.hermiticity_defect()
    assert meta["chi_hermiticity_defect"] < 1e-15
    assert meta["chi_min_eigenvalue"] == min(chi.eigenvalues())
    # white noise makes chi full rank, so its smallest eigenvalue is positive
    assert 0.0 < meta["chi_min_eigenvalue"] < 0.02


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("name, argv", [
    ("tomo_default", []),
    ("tomo_v0.96_depol0.02", ["--visibility", "0.96", "--depol", "0.02"]),
])
def test_tomo_csv_and_sidecar_match_golden_bytes(name, argv, tmp_path, capsys):
    code, _, _ = run_cli(["tomo", *argv, "--out", str(tmp_path / f"{name}.csv")], capsys)
    assert code == EXIT_OK
    for suffix in (".csv", ".meta.json"):
        assert (tmp_path / (name + suffix)).read_bytes() == (DATA / (name + suffix)).read_bytes()


@pytest.mark.parametrize("command", ["povm", "weak-value", "tomo"])
def test_seed_is_refused_where_nothing_is_drawn(command, tmp_path, capsys, monkeypatch):
    # these subcommands draw no random numbers, so they take no seed
    monkeypatch.setenv("WEAKPOL_OUT_DIR", str(tmp_path))
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "1"])
    assert exc.value.code == 2
    cfg = tmp_path / "c.yaml"
    cfg.write_text("seed: 1\n")
    code, out, err = run_cli([command, "--config", str(cfg)], capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert f"config key seed is not an option of {command}" in err
    assert [p.name for p in tmp_path.iterdir()] == ["c.yaml"]


def test_readme_options_table_matches_the_parser():
    # each row of the README's subcommand/options table lists the flags build_parser() gives
    table = README.read_text().split("| subcommand | options |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    documented = {name: re.findall(r"`(--[\w-]+)`", options)
                  for name, options in re.findall(r"^\| `([\w-]+)` \| (.+) \|$", table, re.M)}
    subcommands = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    assert documented == {
        name: [flag for action in sub._actions for flag in action.option_strings
               if flag not in ("-h", "--help", "--config")]
        for name, sub in subcommands.items()}


def test_exit_code_tables_match_the_constants():
    # README's exit-code table and the cli docstring's list hold exactly the EXIT_* codes
    codes = sorted(value for name, value in vars(cli).items() if name.startswith("EXIT_"))
    table = README.read_text().split("| code | meaning |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    assert [int(code) for code in re.findall(r"^\| (\d+) \|", table, re.M)] == codes
    listed = cli.__doc__.split("Exit codes:\n", 1)[1]
    assert [int(code) for code in re.findall(r"^  (\d+)  ", listed, re.M)] == codes


def test_readme_quick_start_runs_as_documented(tmp_path, monkeypatch):
    # the README's one python block runs as written, and its numeric comments hold
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(block, scope)
    shown = re.findall(r"^(wp\.\w+\(.*\)) +#[^\d\n]*(\d+\.\d+)$", block, re.M)
    assert [value for _, value in shown] == ["19.019", "0.1045"]
    weak_value, (_, _, total) = (eval(call, scope) for call, _ in shown)
    assert (round(weak_value, 3), round(total, 4)) == (19.019, 0.1045)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig2.csv", "fig2.meta.json"]


def test_runtime_imports_no_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    check = ("import weakpol, weakpol.cli; import sys; "
             "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", check], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_yaml_unloaded():
    # yaml is needed only when --config is given
    src = Path(__file__).resolve().parent.parent / "src"
    check = "import weakpol.cli; import sys; assert 'yaml' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", check], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_fig2_unwritable_output_is_io_error(tmp_path, capsys):
    from weakpol.cli import EXIT_IO

    target = tmp_path / "missing" / "out.csv"
    code, _, err = run_cli(["fig2", "--k-grid", "0.5", "--out", str(target)], capsys)
    assert code == EXIT_IO
    assert not target.exists()
    assert not list(tmp_path.glob("**/*.tmp"))  # no partial files left behind


def test_failed_sidecar_write_keeps_the_old_csv(tmp_path, capsys):
    from weakpol.cli import EXIT_IO
    from weakpol.counting import write_with_sidecar

    # a directory in the sidecar's place would fail the pair's second rename, after the CSV's
    path = tmp_path / "t.csv"
    (tmp_path / "t.meta.json").mkdir()
    path.write_bytes(b"old\n")
    with pytest.raises(IsADirectoryError):
        write_with_sidecar(path, "new\n", {"seed": 0})
    assert path.read_bytes() == b"old\n"
    assert not list(tmp_path.glob("**/*.tmp"))
    for argv in (["fig2", "--k-grid", "0.5"], ["tomo"]):
        code, out, err = run_cli(argv + ["--out", str(path)], capsys)
        assert (code, out) == (EXIT_IO, "")
        assert path.read_bytes() == b"old\n"
        assert not list(tmp_path.glob("**/*.tmp"))


def test_gate_verify_detects_broken_network(capsys, monkeypatch):
    import weakpol.cli as cli_mod

    # tighten the tolerance beyond what float arithmetic can satisfy
    monkeypatch.setattr(cli_mod, "GATE_VERIFY_TOL", 1e-30)
    code, _, err = run_cli(["gate-verify", "--trials", "2"], capsys)
    assert code == EXIT_VERIFY
    assert "FAIL" in err


def test_config_key_the_subcommand_does_not_take_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("visibility: 0.5\n")
    code, out, err = run_cli(["weak-value", "--config", str(cfg)], capsys)
    assert code == EXIT_CONFIG
    assert out == ""
    assert "visibility" in err and "weak-value" in err


@pytest.mark.parametrize("error, want", [
    ("InfeasibleTargetError", 7),
    ("PostselectionImpossibleError", 6),
    ("ZeroStrengthError", 5),
    ("ZeroCountsError", 5),
    ("InversionRangeError", 5),
    ("ValueError", 5),
    ("OSError", 9),
])
def test_library_errors_map_to_exit_codes(tmp_path, capsys, monkeypatch, error, want):
    import builtins

    import weakpol.cli as cli_mod
    import weakpol.errors as errors

    cls = getattr(errors, error, None) or getattr(builtins, error)

    def fail(*args, **kwargs):
        raise cls("planted failure")

    monkeypatch.setattr(cli_mod, "run_fig2", fail)
    code, out, err = run_cli(["fig2", "--k-grid", "0.5", "--out", str(tmp_path / "x.csv")], capsys)
    assert code == want
    assert out == ""
    assert "planted failure" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("broken", [{"hadamard_eta": 0.45}, {"balance_eta": 0.5}])
def test_gate_verify_fails_a_broken_network_at_its_tolerance(capsys, monkeypatch, broken):
    import weakpol.cli as cli_mod
    from weakpol import DeviceConfig

    monkeypatch.setattr(cli_mod, "DeviceConfig", lambda: DeviceConfig(**broken))
    code, out, err = run_cli(["gate-verify", "--trials", "2"], capsys)
    assert code == EXIT_VERIFY
    assert "gate-verify: OK" not in out
    assert "FAIL" in err


def test_fig2_defaults_are_the_library_defaults(tmp_path, capsys):
    from dataclasses import asdict

    from weakpol import ImperfectionParams, RunPlan

    out = tmp_path / "fig2.csv"
    code, _, _ = run_cli(["fig2", "--seed", "3", "--out", str(out)], capsys)
    assert code == EXIT_OK
    meta = json.loads((tmp_path / "fig2.meta.json").read_text())
    assert meta["plan"] == asdict(RunPlan(seed=3))
    assert meta["model"] == asdict(ImperfectionParams())


@pytest.mark.parametrize("argv", [["tomo", "--depol", "1.5"], ["fig2", "--visibility", "nan"]])
def test_model_range_is_checked_by_the_library(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(argv + ["--out", str(out)], capsys)
    assert code == EXIT_RANGE
    assert stdout == ""
    assert "must lie in [0, 1]" in err
    assert not list(tmp_path.iterdir())


def test_cli_takes_the_library_strength_range(tmp_path, capsys):
    # K = -1 is projective with the outcomes swapped, as MeterSetting.from_strength(-1.0)
    from weakpol import MeterSetting, Polarization, antidiagonal, weak_value_analytic

    code, out, _ = run_cli(["povm", "--K", "-1"], capsys)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert [float(x) for x in lines[lines.index("pi_H") + 2].split()] == [0.0, 1.0]
    assert [float(x) for x in lines[lines.index("pi_V") + 1].split()] == [1.0, 0.0]
    code, out, _ = run_cli(["weak-value", "--angle", "42", "--K", "-1"], capsys)
    assert code == EXIT_OK
    want = weak_value_analytic(Polarization.from_degrees(42.0), MeterSetting.from_strength(-1.0),
                               antidiagonal())
    assert last_number(out) == want == 0.10452846326765344
    code, _, _ = run_cli(["fig2", "--k-grid", "-1,1", "--out", str(tmp_path / "x.csv")], capsys)
    assert code == EXIT_OK
    assert (tmp_path / "x.csv").read_text().splitlines()[1].startswith("-1,")
    for argv in (["povm", "--K"], ["weak-value", "--K"], ["fig2", "--out", str(tmp_path / "y.csv"),
                                                          "--k-grid"]):
        for bad in ("-1.5", "nan"):
            code, out, err = run_cli(argv + [bad], capsys)
            assert code == EXIT_RANGE
            assert out == ""
            assert "strength must lie in [-1, 1]" in err
    assert not (tmp_path / "y.csv").exists()
