"""The benchmark's four workloads.

Each workload builds its inputs from the seed, runs one op (the unit that is
timed) and checks the op's output against a computation made here or a
property the method must have. A run attempts whole rounds of
``round_size`` ops, so a fault that fails a fixed share of a round fails the
same share of every run.

Ops call weakpol through module attributes looked up at call time
(``wp.run_fig2``, never a name bound at import), so the tracer's wrappers
see them. Reference values for the checks are computed in
``prepare_checks``, before any op is timed or traced.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

import weakpol as wp
from weakpol import counting, imperfection

HERE = os.path.dirname(os.path.abspath(__file__))

# the paper's calibration: P(A) = 0.012 at K = 0.006 for a 42 degree input
PAPER_ANGLE_DEG = 42.0
PAPER_P_A = 0.012
PAPER_K = 0.006

FIG2_POINTS = 400
GATE_VERIFY_GAMMAS = (1.0 / math.sqrt(2.0), 0.75, 0.8, 0.9, 1.0)
GATE_BATCH = 4
NOISY = dict(visibility=0.96, depol=0.02)
CLI_VISIBILITY = 0.96
CLI_DEFAULT_GRID = (0.006, 0.125, 0.25, 0.5, 0.75, 1.0)
CHILD_TIMEOUT_S = 120.0

_MASK64 = (1 << 64) - 1


def rng_for(seed: int, *keys: int) -> np.random.Generator:
    """Independent generator for one purpose of one run."""
    return np.random.default_rng(np.random.SeedSequence([seed & _MASK64, *keys]))


def plan_seed(seed: int, index: int) -> int:
    """Master seed handed to ``RunPlan`` for the index-th distinct table."""
    return int(rng_for(seed, 7, index).integers(0, 2**63))


def run_child(cmd, env, cwd, stderr_path):
    """Run a process to its end; returns (exit code, peak RSS in KiB).

    ``os.wait4`` reaps the child so its own peak RSS is read, not the
    maximum over every child this process ever waited for.
    """
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=err)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def _read(path) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _remove(*paths):
    for path in paths:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass


class Workload:
    name = ""
    round_size = 1
    # a program fault whose ops are counted as failed instead of wrong
    known_fault = None
    # ops run in this process, not in a child process
    in_process = True

    def __init__(self, seed: int, workdir: str, root: str):
        self.seed = seed
        self.workdir = workdir
        self.root = root

    def prepare_checks(self):
        """Compute reference values; runs untimed before the first op."""

    def inputs(self, i):
        return i

    def op(self, x):
        raise NotImplementedError

    def check(self, x, out) -> str | None:
        """None when the op's output is right, else what is wrong."""
        return None

    def is_known_fault(self, x, out) -> bool:
        """True when a failed check is the ``known_fault``, failing as named."""
        return False

    def finish(self) -> list:
        """Problems found by checks made once per run."""
        return []

    def start_trace(self, tracer):
        tracer.install()

    def stop_trace(self, tracer):
        tracer.uninstall()

    def after_traced_op(self, x, out, tracer):
        """Collect what a traced op left outside this process."""

    def cli_timings(self) -> dict:
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# fig2_dense
# ---------------------------------------------------------------------------

def paper_weak_value(theta: float, k: float) -> float:
    """Closed-form postselected value of the coherent gate, post = A.

    [(x a)^2 - (y b)^2] / [(x a)^2 + (y b)^2 + 4 g gbar (x a)(y b)] with
    post = x|H> + y|V> = (|H> - |V>)/sqrt 2 and the meter
    g = sqrt((1 + K)/2), gbar = sqrt((1 - K)/2).
    """
    x, y = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
    xa, yb = x * math.cos(theta), y * math.sin(theta)
    g, gbar = math.sqrt((1.0 + k) / 2.0), math.sqrt((1.0 - k) / 2.0)
    return (xa**2 - yb**2) / (xa**2 + yb**2 + 4.0 * g * gbar * xa * yb)


class Fig2Dense(Workload):
    """One op: ``run_fig2`` over a dense log grid, then write CSV + sidecar.

    Ops 2j and 2j+1 share a RunPlan seed, so every second op must
    reproduce the previous table byte for byte.
    """

    name = "fig2_dense"
    HEADER = "K_true,K_hat,K_sigma,wv,wv_sigma,wv_worst,unbounded"
    MAX_BEYOND_3_SIGMA = 0.04

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        self.psi = wp.Polarization.from_degrees(PAPER_ANGLE_DEG)
        self.params = wp.fit_visibility(PAPER_P_A, self.psi, wp.MeterSetting.from_strength(PAPER_K))
        self.grid = [float(k) for k in np.geomspace(1e-3, 1.0, FIG2_POINTS)]
        self.csv_path = os.path.join(workdir, "fig2.csv")
        self.meta_path = os.path.join(workdir, "fig2.meta.json")
        self._previous = None
        self._run_problems = []

    def prepare_checks(self):
        channel = imperfection.imperfect_channel(None, self.params)
        self.k_model, self.asym_model = [], []
        for k in self.grid:
            meter = wp.MeterSetting.from_strength(k)
            p_hh, p_hv, p_vh, p_vv = imperfection.channel_joint_distribution(
                channel, wp.diagonal(), meter)
            self.k_model.append(p_hh + p_vv - p_hv - p_vh)
            p_h, p_v, _ = imperfection.channel_postselected_probs(
                channel, self.psi, meter, wp.antidiagonal())
            self.asym_model.append(p_h - p_v)
        theta = math.radians(PAPER_ANGLE_DEG)
        curve = wp.model_weak_value_curve(wp.ImperfectionParams(), self.psi, self.grid)
        for k, value in curve:
            want = paper_weak_value(theta, k)
            if abs(value - want) > 1e-9 * max(1.0, abs(want)):
                self._run_problems.append(
                    f"model weak value at v=1, K={k}: {value} != closed form {want}")

    def inputs(self, i):
        _remove(self.csv_path, self.meta_path)
        return i, wp.RunPlan(seed=plan_seed(self.seed, i // 2))

    def op(self, x):
        _, plan = x
        result = wp.run_fig2(plan, self.psi, self.params, self.grid, workers=1)
        wp.write_fig2_csv(result, self.csv_path)

    def check(self, x, out):
        i, plan = x
        csv, meta = _read(self.csv_path), _read(self.meta_path)
        if csv is None or meta is None:
            return "CSV or sidecar not written"
        previous, self._previous = self._previous, (i // 2, csv, meta)
        if previous is not None and previous[0] == i // 2 and previous[1:] != (csv, meta):
            return f"seed {plan.seed} did not reproduce its CSV and sidecar byte for byte"
        lines = csv.decode().splitlines()
        if lines[0] != self.HEADER or len(lines) != len(self.grid) + 1:
            return "CSV header or row count wrong"
        z_k, z_wv = [], []
        for j, line in enumerate(lines[1:]):
            fields = line.split(",")
            k_true, k_hat, k_sigma, wv, wv_sigma = (float(v) for v in fields[:5])
            flag = fields[6]
            if k_true != self.grid[j]:
                return f"row {j}: K_true {k_true} != grid {self.grid[j]}"
            if flag == "no_data":
                if k_hat != 0.0:
                    return f"row {j}: no_data with K_hat {k_hat} != 0"
                continue
            if (flag == "true") != (abs(k_hat) <= k_sigma):
                return f"row {j}: unbounded={flag} but |K_hat|={abs(k_hat)}, K_sigma={k_sigma}"
            z_k.append((k_hat - self.k_model[j]) / k_sigma)
            z_wv.append((wv * k_hat - self.asym_model[j]) / (wv_sigma * abs(k_hat)))
        for label, z in (("K_hat", z_k), ("wv*K_hat", z_wv)):
            beyond = float(np.mean(np.abs(z) > 3.0))
            if beyond > self.MAX_BEYOND_3_SIGMA:
                return f"{label}: {beyond:.1%} of z-scores beyond 3"
        return None

    def finish(self):
        return list(self._run_problems)


# ---------------------------------------------------------------------------
# invert_recover
# ---------------------------------------------------------------------------

# (input angle in degrees, strength K); theta < 0 means alpha*beta < 0
INVERT_DESIGN = (
    (-60.0, 0.05), (-20.0, 0.05),
    (15.0, 0.5), (35.0, 0.2), (55.0, 0.05), (75.0, 0.2),
)
TRUE_VISIBILITY = 0.96
# a theta < 0 result at least this far from cos 2 theta is the named fault
FAULT_MIN_ERROR = 0.1


@dataclass(frozen=True)
class InversionCase:
    theta_deg: float
    meter: wp.MeterSetting
    calibration_p_a: float
    weak_value: float
    p_a: float


class InvertRecover(Workload):
    """One op: ``fit_visibility`` on a calibration P(A), then ``invert_s1``.

    The measured values come from the noiseless model at visibility 0.96.
    The design is fixed, so the failing theta < 0 cases and the number of
    channel evaluations are the same in every run; the seed sets the order
    of the ops within each round.
    """

    name = "invert_recover"
    round_size = len(INVERT_DESIGN)
    known_fault = ("invert_s1 scans theta only over (0, pi/2), so a preparation "
                   "with alpha*beta < 0 (theta < 0) comes back with a wrong <s1>")

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        self.calibration = wp.Polarization.from_degrees(PAPER_ANGLE_DEG)
        channel = wp.imperfect_channel(None, wp.ImperfectionParams(visibility=TRUE_VISIBILITY))
        post = wp.antidiagonal()
        self.cases = []
        for theta, k in INVERT_DESIGN:
            meter = wp.MeterSetting.from_strength(k)
            _, _, cal_p_a = imperfection.channel_postselected_probs(
                channel, self.calibration, meter, post)
            p_h, p_v, p_a = imperfection.channel_postselected_probs(
                channel, wp.Polarization.from_degrees(theta), meter, post)
            self.cases.append(InversionCase(theta, meter, cal_p_a, (p_h - p_v) / k, p_a))
        self._rng = rng_for(seed, 3)
        self._order = []

    def inputs(self, i):
        r, j = divmod(i, self.round_size)
        while len(self._order) <= r:
            self._order.append(self._rng.permutation(self.round_size))
        return self.cases[self._order[r][j]]

    def op(self, case):
        fitted = wp.fit_visibility(case.calibration_p_a, self.calibration, case.meter)
        return fitted.visibility, wp.invert_s1(case.weak_value, case.p_a, fitted, case.meter)

    def check(self, case, out):
        visibility, s1 = out
        if abs(visibility - TRUE_VISIBILITY) > 1e-9:
            return f"fitted visibility {visibility} != {TRUE_VISIBILITY}"
        want = math.cos(2.0 * math.radians(case.theta_deg))
        if abs(s1 - want) > 1e-9:
            return f"theta={case.theta_deg} K={case.meter.strength:.3g}: <s1> {s1} != {want}"
        return None

    def is_known_fault(self, case, out):
        visibility, s1 = out
        want = math.cos(2.0 * math.radians(case.theta_deg))
        return (case.theta_deg < 0.0 and abs(visibility - TRUE_VISIBILITY) <= 1e-9
                and math.isfinite(s1) and abs(s1 - want) >= FAULT_MIN_ERROR)


# ---------------------------------------------------------------------------
# gate_tomo
# ---------------------------------------------------------------------------

_PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
# two-qubit Pauli products in II, IX, ..., ZZ order
PAULI_2 = np.array([np.kron(p, q) for p in _PAULI for q in _PAULI])


def cnot_third_chi() -> np.ndarray:
    """chi of CNOT/3 = (II + IX + ZI - ZX)/6: the outer product of its coefficients."""
    c = np.zeros(16, dtype=complex)
    for (a, b), sign in (((0, 0), 1), ((0, 1), 1), ((3, 0), 1), ((3, 1), -1)):
        c[4 * a + b] = sign / 6.0
    return np.outer(c, c.conj())


def chi_action(chi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_mn chi_mn P_m rho P_n^dagger."""
    return np.einsum("mn,mij,njk->ik", chi, PAULI_2 @ rho, PAULI_2.conj().transpose(0, 2, 1))


class GateTomo(Workload):
    """One op: gate verification of a batch, two channel builds, two tomographies."""

    name = "gate_tomo"

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        self.meters = [wp.MeterSetting(g) for g in GATE_VERIFY_GAMMAS]
        self.ideal_params = wp.ImperfectionParams()
        self.noisy_params = wp.ImperfectionParams(**NOISY)
        self.want_chi = cnot_third_chi()

    def inputs(self, i):
        rng = rng_for(self.seed, 1, i)
        theta = rng.uniform(0.0, math.pi / 2.0, GATE_BATCH)
        phase = rng.uniform(0.0, 2.0 * math.pi, GATE_BATCH)
        signals = [wp.Polarization(math.cos(t), math.sin(t) * np.exp(1j * p))
                   for t, p in zip(theta, phase)]
        probes = []
        for _ in range(2):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = g @ g.conj().T
            probes.append(rho / np.trace(rho).real)
        return signals, probes

    def op(self, x):
        signals, _ = x
        runs = []
        for meter in self.meters:
            for signal in signals:
                state = wp.run_device(signal, meter)
                runs.append((signal, meter, state, wp.equivalence_fidelity(state, signal, meter)))
        ideal = wp.imperfect_channel(None, self.ideal_params)
        noisy = wp.imperfect_channel(None, self.noisy_params)
        return runs, wp.process_tomography(ideal), noisy, wp.process_tomography(noisy)

    def check(self, x, out):
        _, probes = x
        runs, chi_ideal, noisy, chi_noisy = out
        for signal, meter, state, fidelity in runs:
            if abs(state.success_prob - 1.0 / 9.0) > 1e-12:
                return f"success probability {state.success_prob} != 1/9"
            a, b, g, gb = signal.alpha, signal.beta, meter.gamma, meter.gammabar
            target = np.array([[a * g, a * gb], [b * gb, b * g]])
            if np.max(np.abs(np.abs(state.amplitudes) ** 2 - np.abs(target) ** 2)) > 1e-12:
                return "|amplitudes|^2 differ from the target state's"
            if fidelity < 1.0 - 1e-10:
                return f"fidelity {fidelity} < 1 - 1e-10"
        if np.max(np.abs(chi_ideal.matrix - self.want_chi)) > 1e-12:
            return "ideal chi is not that of CNOT/3"
        chi = chi_noisy.matrix
        if np.max(np.abs(chi - chi.conj().T)) > 1e-12:
            return "white-noise chi is not Hermitian"
        if np.min(np.linalg.eigvalsh(0.5 * (chi + chi.conj().T))) < -1e-12:
            return "white-noise chi is not positive semidefinite"
        for rho in probes:
            if np.max(np.abs(chi_action(chi, rho) - noisy.apply(rho))) > 1e-12:
                return "white-noise chi does not reproduce channel.apply"
        return None


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

class CliCold(Workload):
    """One op: a fresh ``python -m weakpol.cli fig2`` process.

    Traced, the op runs ``cli_trace.py`` instead, which imports and runs the
    same CLI under the tracer and reports its timings.
    """

    name = "cli_cold"
    in_process = False

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        self.plan_seed = plan_seed(seed, 0)
        self.csv_path = os.path.join(workdir, "fig2.csv")
        self.meta_path = os.path.join(workdir, "fig2.meta.json")
        self.stderr_path = os.path.join(workdir, "cli.stderr")
        self.report_path = os.path.join(workdir, "cli_trace.json")
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.argv = ["fig2", "--visibility", str(CLI_VISIBILITY),
                     "--seed", str(self.plan_seed), "--out", self.csv_path]
        self.traced = False
        self.peak_rss_kb = 0
        self.child_timings = {"import_ms": [], "import_scipy_ms": [], "main_ms": [],
                              "interpreter_start_ms": []}

    def prepare_checks(self):
        result = wp.run_fig2(wp.RunPlan(seed=self.plan_seed),
                             wp.Polarization.from_degrees(PAPER_ANGLE_DEG),
                             wp.ImperfectionParams(visibility=CLI_VISIBILITY), CLI_DEFAULT_GRID)
        ref = os.path.join(self.workdir, "reference.csv")
        meta_ref = wp.write_fig2_csv(result, ref)
        self.want_csv = counting.format_fig2_csv(result).encode()
        self.want_meta = _read(meta_ref)

    def inputs(self, i):
        _remove(self.csv_path, self.meta_path, self.report_path)
        return i

    def op(self, i):
        if self.traced:
            cmd = [sys.executable, os.path.join(HERE, "cli_trace.py"),
                   self.root, self.report_path, *self.argv]
        else:
            cmd = [sys.executable, "-m", "weakpol.cli", *self.argv]
        return run_child(cmd, self.env, self.root, self.stderr_path)

    def check(self, i, out):
        code, rss_kb = out
        if code != 0:
            return f"exit code {code}: {_read(self.stderr_path)!r}"
        if not self.traced:
            self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        if _read(self.csv_path) != self.want_csv:
            return "CSV differs from format_fig2_csv of the in-process run_fig2"
        if _read(self.meta_path) != self.want_meta:
            return "sidecar differs from the in-process write_fig2_csv sidecar"
        return None

    def start_trace(self, tracer):
        self.traced = True

    def stop_trace(self, tracer):
        self.traced = False

    def after_traced_op(self, i, out, tracer):
        if out[0] != 0:
            return  # no report; the check names the failure
        with open(self.report_path) as fh:
            report = json.load(fh)
        tracer.adopt(report["spans"], i)
        for key in ("import_ms", "import_scipy_ms", "main_ms"):
            self.child_timings[key].append(report[key])
        start = time.perf_counter()
        code, _ = run_child([sys.executable, "-c", "pass"], self.env, self.root,
                            self.stderr_path)
        self.child_timings["interpreter_start_ms"].append((time.perf_counter() - start) * 1e3)
        if code != 0:
            raise RuntimeError(f"python -c pass exited with {code}")

    def cli_timings(self):
        return {k: statistics.median(v) for k, v in self.child_timings.items() if v}

    def peak_rss_mb(self):
        return self.peak_rss_kb / 1024.0


WORKLOADS = {w.name: w for w in (Fig2Dense, InvertRecover, GateTomo, CliCold)}
