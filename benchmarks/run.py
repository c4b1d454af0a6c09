"""weakpol benchmark: one workload per run, end-to-end or traced.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload fig2_dense --seed 1 --seconds 12 --trace 0

Workloads: fig2_dense, invert_recover, gate_tomo, cli_cold (see README.md).
With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it runs the ops untraced for half the
time and traced for the other half and reports the per-layer metrics of
``BENCHMARK.json``, the tracing overhead among them. Metric names and units
are read from ``BENCHMARK.json``. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Scratch
files go to ``.bench_out/`` in the checkout, which also keeps the spans of
traced runs.

The speed of a shared machine drifts by tens of percent within minutes.
Every timed piece of work is therefore measured between two runs of a fixed
calibration and reported at a reference speed: measured time / mean
calibration time around it * the calibration's reference time. Ops run in
this process are calibrated by ``calibration_kernel`` (pure-Python
arithmetic, small complex matrix algebra, object churn; 20 ms at the
reference speed); child processes (set-up probes, CLI runs) by a child
that imports numpy (150 ms at the reference speed). The raw medians and the
speed factor are printed on the summary lines.

``--root`` benchmarks the ``src/`` of another checkout with this copy of the
benchmark (``compare.py`` uses it).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SETUP_WARMUPS = 1
SETUP_REPEATS = 9
WARMUP_OPS = 1
PROBE_TIMEOUT_S = 120.0
# the calibration kernel's time at the reference speed
KERNEL_REF_S = 0.020
# a child process importing numpy, the calibration for child processes
REFERENCE_CHILD = (sys.executable, "-c", "import numpy")
# its time at the reference speed
REFERENCE_CHILD_REF_S = 0.150

_CAL_A = np.eye(4, dtype=complex) + 0.1
_CAL_B = _CAL_A[:2, :2].copy()


@dataclass(frozen=True)
class _CalPoint:
    a: float
    b: float


def calibration_kernel():
    """Fixed work in the program's mix, about 20 ms on a 2-core Xeon."""
    total = 0
    for i in range(40000):
        total += i * i
    x = _CAL_A
    for _ in range(400):
        x = (x @ _CAL_A) / 5.0
        x = x + np.kron(_CAL_B, _CAL_B)
        total += np.trace(x).real
    for i in range(6000):
        p = _CalPoint(float(i), 1.0)
        d = {"x": p.a, "y": p.b}
        total += d["x"] + d["y"]
    return total


def time_kernel() -> float:
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def time_reference_child() -> float:
    start = time.perf_counter()
    subprocess.run(REFERENCE_CHILD, check=True, timeout=PROBE_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


class Clock:
    """Times work in units of a calibration run before and after it.

    Work in this process is calibrated by ``calibration_kernel``; work in a
    child process (an interpreter start and import) by a child that imports
    numpy, because the kernel does not follow such work. A time is reported
    at the reference speed: measured time / mean calibration time around
    it * the calibration's reference time.
    """

    def __init__(self, in_process: bool):
        if in_process:
            self.calibrate, self.reference_s = time_kernel, KERNEL_REF_S
        else:
            self.calibrate, self.reference_s = time_reference_child, REFERENCE_CHILD_REF_S
        self.before = self.calibrate()
        self.raw = []     # seconds as measured
        self.scaled = []  # seconds at the reference speed

    def record(self, seconds: float):
        after = self.calibrate()
        self.raw.append(seconds)
        self.scaled.append(seconds / (0.5 * (self.before + after)) * self.reference_s)
        self.before = after

    def speed(self) -> float:
        """Median measured over scaled time; above 1 the machine ran slow."""
        return statistics.median(r / s for r, s in zip(self.raw, self.scaled))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the timed loop; rounds of ops start until it has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", type=Path, default=HERE.parent,
                   help="checkout whose src/ is benchmarked (default: this one)")
    return p, p.parse_args(argv)


def measure_setup(root: Path, name: str, seed: int, workdir: str) -> Clock:
    """Time fresh processes that import weakpol and build the inputs."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(root), name, str(seed), workdir]
    for _ in range(SETUP_WARMUPS):
        subprocess.run(cmd, check=True, timeout=PROBE_TIMEOUT_S, stdout=subprocess.DEVNULL)
    clock = Clock(in_process=False)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=PROBE_TIMEOUT_S, stdout=subprocess.DEVNULL)
        clock.record(time.perf_counter() - start)
    return clock


class Tally:
    def __init__(self, in_process: bool):
        self.clock = Clock(in_process)
        self.failed = 0
        self.known_fault_ops = 0
        self.problems = []

    @property
    def ops(self) -> int:
        return len(self.clock.raw)


def run_ops(workload, seconds: float, first: int, tracer=None) -> Tally:
    """Closed loop of whole rounds for at least ``seconds``.

    At least one round runs, and rounds start until the deadline has passed,
    so the last one may run past it; stopping early instead would leave a run of slow rounds with
    one round and a noisy median. Only the op itself is timed;
    preparing its inputs, the calibration kernel and checking its output
    happen between ops.
    """
    tally = Tally(workload.in_process)
    deadline = time.perf_counter() + seconds
    i = first
    while True:
        for _ in range(workload.round_size):
            x = workload.inputs(i)
            if tracer is not None:
                tracer.op = i
            start = time.perf_counter()
            try:
                out = workload.op(x)
            except Exception as exc:  # a raising op is a wrong op, never the known fault
                tally.clock.record(time.perf_counter() - start)
                problem, known = f"raised {exc!r}", False
            else:
                tally.clock.record(time.perf_counter() - start)
                if tracer is not None:
                    workload.after_traced_op(x, out, tracer)
                problem = workload.check(x, out)
                known = problem is not None and workload.is_known_fault(x, out)
            if problem is not None:
                tally.failed += 1
                if known:
                    tally.known_fault_ops += 1
                else:
                    tally.problems.append(f"op {i}: {problem}")
            i += 1
        if time.perf_counter() >= deadline:
            return tally


def end_to_end_values(tally: Tally, setup: Clock, peak_rss_mb: float) -> dict:
    """ops_per_s counts op time only, at the reference speed; the calibration
    runs, input building and checks between ops are not part of it."""
    times = tally.clock.scaled
    return {
        "setup_s": statistics.median(setup.scaled),
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }


def labelled(values: dict, kind: str) -> dict:
    """The metrics of ``BENCHMARK.json[kind]``, with their units."""
    names = [m["name"] for m in SPEC[kind]]
    if set(names) != set(values):
        raise RuntimeError(f"{kind} metrics {sorted(values)} differ from BENCHMARK.json's {names}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in SPEC[kind]}


def summary_lines(name: str, seed: int, tally: Tally, workload) -> list:
    n = tally.ops
    ms = sorted(t * 1e3 for t in tally.clock.scaled)
    line = (f"# {name} seed={seed}: {n} ops, p50 {statistics.median(ms):.2f} ms"
            f" (raw {statistics.median(tally.clock.raw) * 1e3:.2f} ms,"
            f" speed factor {tally.clock.speed():.3f})")
    # the highest percentile with at least ten ops beyond it
    if n >= 40:
        q = int(100 * (1 - 10 / n))
        line += f", p{q} {ms[min(n - 1, int(q / 100 * n))]:.2f} ms"
    lines = [line + f", failed {tally.failed}"]
    if tally.known_fault_ops:
        lines.append(f"# known fault, {tally.known_fault_ops} of {n} ops"
                     f" ({tally.known_fault_ops * workload.round_size / n:g} of every round"
                     f" of {workload.round_size}): {workload.known_fault}")
    lines += [f"# WRONG {p}" for p in tally.problems[:10]]
    return lines


def main(argv=None) -> int:
    parser, args = parse_args(argv)
    root = args.root.resolve()
    src = root / "src"
    if not (src / "weakpol" / "__init__.py").is_file():
        print(f"benchmark: no weakpol sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        setup = None
        if not args.trace:
            setup = measure_setup(root, args.workload, args.seed, workdir)

        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, str(root))
        workload.prepare_checks()
        for i in range(WARMUP_OPS):
            workload.op(workload.inputs(i))

        if args.trace:
            plain = run_ops(workload, args.seconds / 2, 0)
            tracer = tracing.Tracer()
            workload.start_trace(tracer)
            try:
                traced = run_ops(workload, args.seconds / 2, plain.ops, tracer)
            finally:
                workload.stop_trace(tracer)
            overhead = (statistics.median(traced.clock.scaled)
                        / statistics.median(plain.clock.scaled) - 1) * 100
            metrics = labelled(tracing.layer_values(tracer, traced.ops, workload.cli_timings(),
                                                    overhead, 1.0 / traced.clock.speed()),
                               "per_layer")
            tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
            lines = (summary_lines(args.workload + " untraced", args.seed, plain, workload)
                     + summary_lines(args.workload + " traced", args.seed, traced, workload))
            tallies = (plain, traced)
        else:
            tally = run_ops(workload, args.seconds, 0)
            metrics = labelled(end_to_end_values(tally, setup, workload.peak_rss_mb()),
                               "end_to_end")
            lines = summary_lines(args.workload, args.seed, tally, workload)
            lines.append(f"# setup: {SETUP_REPEATS} probes, median {statistics.median(setup.scaled):.4f} s"
                         f" (raw {statistics.median(setup.raw):.4f} s, speed factor {setup.speed():.3f})")
            tallies = (tally,)
        run_problems = workload.finish()

    for line in lines + [f"# WRONG {p}" for p in run_problems]:
        print(line)
    print(json.dumps({
        "correct": not run_problems and not any(t.problems for t in tallies),
        "attempted": sum(t.ops for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
