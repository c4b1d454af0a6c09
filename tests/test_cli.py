"""Command-line interface tests: parsing, outputs, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weakpol.cli import (
    EXIT_CONFIG,
    EXIT_CONFLICT,
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_RANGE,
    EXIT_VERIFY,
    main,
)


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
    code, out, _ = run_cli(["weak-value", "--angle", "42", "--K", "0.006"], capsys)
    assert code == EXIT_OK
    value = last_number(out)
    assert abs(value - 19.018985734711585) < 1e-9
    assert round(value, 2) == 19.02


def test_weak_value_rejects_zero_strength(capsys):
    code, _, err = run_cli(["weak-value", "--angle", "42", "--K", "0"], capsys)
    assert code == EXIT_DEGENERATE
    assert "undefined" in err


def test_weak_value_rejects_out_of_range_angle(capsys):
    code, _, _ = run_cli(["weak-value", "--angle", "400", "--K", "0.5"], capsys)
    assert code == EXIT_RANGE


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
    args = ["fig2", "--angle", "42", "--k-grid", "0.006,0.125,0.5,1", "--seed", "7"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    code1, _, _ = run_cli(args + ["--out", str(out1)], capsys)
    code2, _, _ = run_cli(args + ["--out", str(out2), "--workers", "3"], capsys)
    assert code1 == code2 == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    meta = json.loads((tmp_path / "a.meta.json").read_text())
    assert meta["seed"] == 7
    assert meta["rng"] == "philox4x64"
    assert meta["k_grid"] == [0.006, 0.125, 0.5, 1.0]


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
    assert code == EXIT_CONFLICT
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


def test_fig2_rejects_zero_in_grid(tmp_path, capsys):
    code, _, _ = run_cli(
        ["fig2", "--k-grid", "0,0.5", "--out", str(tmp_path / "x.csv")], capsys
    )
    assert code == EXIT_DEGENERATE
    assert not (tmp_path / "x.csv").exists()


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


def test_tomo_output_does_not_depend_on_seed(tmp_path, capsys):
    for seed in ("1", "2"):
        argv = ["tomo", "--seed", seed, "--out", str(tmp_path / f"{seed}.csv")]
        code, _, _ = run_cli(argv, capsys)
        assert code == EXIT_OK
    for name in ("{}.csv", "{}.meta.json"):
        assert (tmp_path / name.format(1)).read_bytes() == (tmp_path / name.format(2)).read_bytes()


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


def test_gate_verify_detects_broken_network(capsys, monkeypatch):
    import weakpol.cli as cli_mod

    # tighten the tolerance beyond what float arithmetic can satisfy
    monkeypatch.setattr(cli_mod, "GATE_VERIFY_TOL", 1e-30)
    code, _, err = run_cli(["gate-verify", "--trials", "2"], capsys)
    assert code == EXIT_VERIFY
    assert "FAIL" in err
